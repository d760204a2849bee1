//! Bit-exact wire encoding of result batches.
//!
//! A worker's shard result is a list of [`Batch`]es in the interpreted
//! signal schema. Each batch is encoded column-wise: a validity bitmap
//! followed by the non-null cells. Floats are shipped as their raw
//! IEEE-754 bit pattern (`u64` LE) so the coordinator's merge is
//! *bit*-identical to a single-process run — NaN payloads, signed zeros
//! and subnormals all survive the trip. Both ends hold the schema (it is
//! implied by the job), so only a consistency tag per column travels.
//!
//! Two encodings exist:
//!
//! * [`encode_batch_compressed`]/[`decode_batch_compressed`] — what
//!   crosses the wire, reusing the store's varint/zigzag-delta codecs on
//!   numeric columns and dictionary encoding on low-cardinality
//!   string/value columns. Every column carries a one-byte mode chosen
//!   *deterministically from the cell values*, so re-encoding a decoded
//!   batch reproduces the exact bytes (the proptests pin this).
//!   Compression is lossless at the bit level: float deltas and float
//!   dictionaries operate on raw IEEE-754 bit patterns, never values.
//! * [`encode_batch`]/[`decode_batch`] — the flat encoding, never sent:
//!   a bit-exact fingerprint tests and benches compare results with, and
//!   ([`encoded_len_raw`]) the denominator of the wire compression ratio.

use std::collections::HashMap;
use std::sync::Arc;

use ivnt_frame::batch::Batch;
use ivnt_frame::column::Column;
use ivnt_frame::datatype::{DataType, Schema};
use ivnt_store::varint::{self, Cursor};

use crate::error::{Error, Result};
use crate::wire::MAX_FRAME_LEN;

/// Per-column encoding modes of the compressed batch format. Byte 8
/// (second-order keyed bit delta) is retired — it never won a column
/// on real output — and decodes as an unknown mode.
mod mode {
    /// Cells exactly as in the flat encoding.
    pub const RAW: u8 = 0;
    /// Int: zigzag varint of the wrapping delta between consecutive
    /// non-null cells (previous value starts at 0).
    pub const DELTA: u8 = 1;
    /// Float: zigzag varint of the wrapping delta between consecutive
    /// non-null cells' raw bit patterns (previous bits start at 0).
    /// Bit patterns of ordered positive floats are themselves ordered,
    /// so near-monotone series (timestamps) delta small.
    pub const BITS_DELTA: u8 = 2;
    /// Str: dictionary in first-appearance order + varint indexes.
    pub const DICT: u8 = 3;
    /// Float: dictionary of raw bit patterns + varint indexes — wins
    /// when physical values are quantized onto few distinct levels.
    pub const DICT_BITS: u8 = 4;
    /// Bool: non-null cells packed eight to a byte.
    pub const PACKED: u8 = 5;
    /// Float: second-order bit-pattern delta. Regularly sampled
    /// timestamps have near-constant first deltas, so the second
    /// difference collapses to one-byte varints.
    pub const BITS_DELTA2: u8 = 6;
    /// Float: bit-pattern delta against the previous non-null cell
    /// holding the *same key* — the cell of the batch's first string
    /// column on the same row. Interpreted traces interleave many
    /// signals into one column; per-signal series are smooth even when
    /// the column as a whole is not.
    pub const BITS_KEYED: u8 = 7;
}

fn type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Bytes => 4,
    }
}

fn bitmap<T>(cells: &[Option<T>]) -> Vec<u8> {
    let mut bits = vec![0u8; cells.len().div_ceil(8)];
    for (i, c) in cells.iter().enumerate() {
        if c.is_some() {
            bits[i / 8] |= 1 << (i % 8);
        }
    }
    bits
}

/// Encodes one batch into bytes decodable by [`decode_batch`].
pub fn encode_batch(batch: &Batch) -> Vec<u8> {
    let rows = batch.num_rows();
    let mut out = Vec::new();
    varint::write_u64(&mut out, rows as u64);
    varint::write_u64(&mut out, batch.columns().len() as u64);
    for col in batch.columns() {
        match col {
            Column::Bool(cells) => {
                out.push(type_tag(DataType::Bool));
                out.extend_from_slice(&bitmap(cells));
                for c in cells.iter().flatten() {
                    out.push(u8::from(*c));
                }
            }
            Column::Int(cells) => {
                out.push(type_tag(DataType::Int));
                out.extend_from_slice(&bitmap(cells));
                for c in cells.iter().flatten() {
                    varint::write_i64(&mut out, *c);
                }
            }
            Column::Float(cells) => {
                out.push(type_tag(DataType::Float));
                out.extend_from_slice(&bitmap(cells));
                for c in cells.iter().flatten() {
                    out.extend_from_slice(&c.to_bits().to_le_bytes());
                }
            }
            Column::Str(cells) => {
                out.push(type_tag(DataType::Str));
                out.extend_from_slice(&bitmap(cells));
                for c in cells.iter().flatten() {
                    varint::write_u64(&mut out, c.len() as u64);
                    out.extend_from_slice(c.as_bytes());
                }
            }
            Column::Bytes(cells) => {
                out.push(type_tag(DataType::Bytes));
                out.extend_from_slice(&bitmap(cells));
                for c in cells.iter().flatten() {
                    varint::write_u64(&mut out, c.len() as u64);
                    out.extend_from_slice(c);
                }
            }
        }
    }
    out
}

/// Bytes `v` costs as an LEB128 varint.
fn varint_len(v: u64) -> u64 {
    u64::from((70 - (v | 1).leading_zeros()) / 7)
}

/// Exact byte count [`encode_batch`] would produce, without producing
/// it — the flat denominator of the wire compression ratio.
pub fn encoded_len_raw(batch: &Batch) -> u64 {
    let rows = batch.num_rows();
    let mut len = varint_len(rows as u64) + varint_len(batch.columns().len() as u64);
    for col in batch.columns() {
        len += 1 + rows.div_ceil(8) as u64;
        len += match col {
            Column::Bool(cells) => cells.iter().flatten().count() as u64,
            Column::Int(cells) => cells
                .iter()
                .flatten()
                .map(|c| varint_len(varint::zigzag(*c)))
                .sum(),
            Column::Float(cells) => 8 * cells.iter().flatten().count() as u64,
            Column::Str(cells) => cells
                .iter()
                .flatten()
                .map(|c| varint_len(c.len() as u64) + c.len() as u64)
                .sum(),
            Column::Bytes(cells) => cells
                .iter()
                .flatten()
                .map(|c| varint_len(c.len() as u64) + c.len() as u64)
                .sum(),
        };
    }
    len
}

/// Encodes one batch in the compressed format, decodable by
/// [`decode_batch_compressed`]. Lossless at the bit level; the mode
/// chosen per column is a pure function of the cell values, so
/// `encode(decode(bytes)) == bytes` (canonical encoding).
pub fn encode_batch_compressed(batch: &Batch) -> Vec<u8> {
    let rows = batch.num_rows();
    let mut out = Vec::new();
    varint::write_u64(&mut out, rows as u64);
    varint::write_u64(&mut out, batch.columns().len() as u64);
    // Keyed float modes delta within the groups this column defines.
    let keys = batch.columns().iter().find_map(|c| match c {
        Column::Str(cells) => Some(cells.as_slice()),
        _ => None,
    });
    for col in batch.columns() {
        match col {
            Column::Bool(cells) => {
                out.push(type_tag(DataType::Bool));
                out.push(mode::PACKED);
                out.extend_from_slice(&bitmap(cells));
                let mut packed = 0u8;
                let mut filled = 0u32;
                for c in cells.iter().flatten() {
                    packed |= u8::from(*c) << filled;
                    filled += 1;
                    if filled == 8 {
                        out.push(packed);
                        packed = 0;
                        filled = 0;
                    }
                }
                if filled > 0 {
                    out.push(packed);
                }
            }
            Column::Int(cells) => {
                out.push(type_tag(DataType::Int));
                let mut delta = Vec::new();
                let mut raw = Vec::new();
                let mut prev = 0i64;
                for c in cells.iter().flatten() {
                    varint::write_i64(&mut delta, c.wrapping_sub(prev));
                    varint::write_i64(&mut raw, *c);
                    prev = *c;
                }
                let (m, body) = pick_mode(vec![(mode::DELTA, delta), (mode::RAW, raw)]);
                out.push(m);
                out.extend_from_slice(&bitmap(cells));
                out.extend_from_slice(&body);
            }
            Column::Float(cells) => {
                out.push(type_tag(DataType::Float));
                let (m, body) = encode_float_body(cells, keys);
                out.push(m);
                out.extend_from_slice(&bitmap(cells));
                out.extend_from_slice(&body);
            }
            Column::Str(cells) => {
                out.push(type_tag(DataType::Str));
                // Signal/bus/symbol columns carry a handful of distinct
                // strings; mostly-unique columns fall back to raw cells.
                let (dict, indexes) = build_dict(cells.iter().flatten().map(Arc::clone));
                let mut dict_body = Vec::new();
                varint::write_u64(&mut dict_body, dict.len() as u64);
                for s in &dict {
                    varint::write_u64(&mut dict_body, s.len() as u64);
                    dict_body.extend_from_slice(s.as_bytes());
                }
                for idx in indexes {
                    varint::write_u64(&mut dict_body, idx as u64);
                }
                let mut raw = Vec::new();
                for c in cells.iter().flatten() {
                    varint::write_u64(&mut raw, c.len() as u64);
                    raw.extend_from_slice(c.as_bytes());
                }
                let (m, body) = pick_mode(vec![(mode::DICT, dict_body), (mode::RAW, raw)]);
                out.push(m);
                out.extend_from_slice(&bitmap(cells));
                out.extend_from_slice(&body);
            }
            Column::Bytes(cells) => {
                out.push(type_tag(DataType::Bytes));
                out.push(mode::RAW);
                out.extend_from_slice(&bitmap(cells));
                for c in cells.iter().flatten() {
                    varint::write_u64(&mut out, c.len() as u64);
                    out.extend_from_slice(c);
                }
            }
        }
    }
    out
}

/// Shortest candidate body wins; ties break on the lower mode byte.
/// Both the bodies and the ordering are pure functions of the cell
/// values, so the choice keeps the encoding canonical.
fn pick_mode(candidates: Vec<(u8, Vec<u8>)>) -> (u8, Vec<u8>) {
    candidates
        .into_iter()
        .min_by_key(|(m, body)| (body.len(), *m))
        .expect("at least one candidate encoding")
}

/// Every float encoding the format knows, raced against each other.
///
/// The keyed modes only exist when the batch has a string column to key
/// on; interpreted traces key on the signal-id column, which turns an
/// interleaved many-signal column back into the smooth per-signal
/// series the delta codecs were built for.
fn encode_float_body(cells: &[Option<f64>], keys: Option<&[Option<Arc<str>>]>) -> (u8, Vec<u8>) {
    let mut delta = Vec::new();
    let mut delta2 = Vec::new();
    let mut raw = Vec::new();
    let (mut prev, mut prev_d) = (0i64, 0i64);
    for c in cells.iter().flatten() {
        let bits = c.to_bits() as i64;
        let d = bits.wrapping_sub(prev);
        varint::write_i64(&mut delta, d);
        varint::write_i64(&mut delta2, d.wrapping_sub(prev_d));
        raw.extend_from_slice(&c.to_bits().to_le_bytes());
        prev = bits;
        prev_d = d;
    }
    let mut candidates = vec![
        (mode::RAW, raw),
        (mode::BITS_DELTA, delta),
        (mode::BITS_DELTA2, delta2),
    ];
    if let Some(keys) = keys {
        let mut keyed = Vec::new();
        let mut state: HashMap<Option<&Arc<str>>, i64> = HashMap::new();
        for (c, k) in cells.iter().zip(keys) {
            let Some(c) = c else { continue };
            let bits = c.to_bits() as i64;
            let prev = state.entry(k.as_ref()).or_insert(0);
            varint::write_i64(&mut keyed, bits.wrapping_sub(*prev));
            *prev = bits;
        }
        candidates.push((mode::BITS_KEYED, keyed));
    }
    let (dict, indexes) = build_dict(cells.iter().flatten().map(|c| c.to_bits()));
    let mut dict_body = Vec::new();
    varint::write_u64(&mut dict_body, dict.len() as u64);
    for bits in &dict {
        dict_body.extend_from_slice(&bits.to_le_bytes());
    }
    for idx in indexes {
        varint::write_u64(&mut dict_body, idx as u64);
    }
    candidates.push((mode::DICT_BITS, dict_body));
    pick_mode(candidates)
}

/// First-appearance-order dictionary plus the per-cell index stream.
fn build_dict<T: Clone + Eq + std::hash::Hash>(
    cells: impl Iterator<Item = T>,
) -> (Vec<T>, Vec<usize>) {
    let mut dict: Vec<T> = Vec::new();
    let mut seen: HashMap<T, usize> = HashMap::new();
    let mut indexes = Vec::new();
    for c in cells {
        let idx = *seen.entry(c.clone()).or_insert_with(|| {
            dict.push(c);
            dict.len() - 1
        });
        indexes.push(idx);
    }
    (dict, indexes)
}

fn read_dict_index(cur: &mut Cursor<'_>, dict_len: usize) -> Result<usize> {
    let idx = cur.read_u64()?;
    if idx >= dict_len as u64 {
        return Err(Error::Protocol(format!(
            "dictionary index {idx} out of range ({dict_len} entries)"
        )));
    }
    Ok(idx as usize)
}

fn read_dict_len(cur: &mut Cursor<'_>, non_null: usize) -> Result<usize> {
    let n = cur.read_u64()?;
    if n > non_null as u64 {
        // A dictionary can never hold more entries than there are cells.
        return Err(Error::Protocol(format!(
            "dictionary of {n} entries for {non_null} cells"
        )));
    }
    Ok(n as usize)
}

/// Decodes a batch written by [`encode_batch_compressed`] against the
/// schema both peers agreed on.
///
/// # Errors
///
/// Returns [`Error::Protocol`] when the bytes disagree with `schema`
/// (wrong column count, type tag, or encoding mode), out-of-range
/// dictionary indexes, and [`Error::Truncated`] when they end early.
/// Never panics on arbitrary input.
pub fn decode_batch_compressed(bytes: &[u8], schema: &Arc<Schema>) -> Result<Batch> {
    let mut cur = Cursor::new(bytes);
    let rows = cur.read_u64()?;
    if rows > MAX_FRAME_LEN {
        return Err(Error::Protocol(format!("batch declares {rows} rows")));
    }
    let rows = rows as usize;
    if rows > bytes.len() * 8 {
        return Err(Error::Protocol(format!(
            "batch declares {rows} rows in {} bytes",
            bytes.len()
        )));
    }
    let cols = cur.read_u64()?;
    if cols != schema.len() as u64 {
        return Err(Error::Protocol(format!(
            "batch has {cols} columns, schema {}",
            schema.len()
        )));
    }
    let mut columns = Vec::with_capacity(schema.len());
    // Keyed float columns may precede their key column (the first
    // string column); their deltas are parsed in place and replayed
    // once every column — including the key — has been decoded.
    let mut keyed: Vec<(usize, Vec<bool>, Vec<i64>)> = Vec::new();
    for field in schema.fields() {
        let tag = cur.read_u8()?;
        if tag != type_tag(field.data_type()) {
            return Err(Error::Protocol(format!(
                "column {:?} tagged {tag}, schema says {}",
                field.name(),
                field.data_type()
            )));
        }
        let col_mode = cur.read_u8()?;
        let valid = read_bitmap(&mut cur, rows)?;
        let non_null = valid.iter().filter(|v| **v).count();
        let col = match (field.data_type(), col_mode) {
            (DataType::Bool, mode::PACKED) => {
                let packed = cur.read_slice(non_null.div_ceil(8))?;
                let mut taken = 0usize;
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        let bit = packed[taken / 8] & (1 << (taken % 8)) != 0;
                        taken += 1;
                        Some(bit)
                    } else {
                        None
                    });
                }
                Column::Bool(cells)
            }
            (DataType::Int, mode::DELTA) => {
                let mut prev = 0i64;
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        prev = prev.wrapping_add(cur.read_i64()?);
                        Some(prev)
                    } else {
                        None
                    });
                }
                Column::Int(cells)
            }
            (DataType::Int, mode::RAW) => {
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v { Some(cur.read_i64()?) } else { None });
                }
                Column::Int(cells)
            }
            (DataType::Float, mode::RAW) => {
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        Some(f64::from_bits(cur.read_u64_le()?))
                    } else {
                        None
                    });
                }
                Column::Float(cells)
            }
            (DataType::Float, mode::BITS_KEYED) => {
                if !schema
                    .fields()
                    .iter()
                    .any(|f| f.data_type() == DataType::Str)
                {
                    return Err(Error::Protocol(
                        "keyed float mode in a schema with no string key column".into(),
                    ));
                }
                let mut deltas = Vec::with_capacity(non_null);
                for _ in 0..non_null {
                    deltas.push(cur.read_i64()?);
                }
                keyed.push((columns.len(), valid, deltas));
                // Placeholder; replaced once the key column is decoded.
                Column::Float(vec![None; rows])
            }
            (DataType::Float, mode::BITS_DELTA) => {
                let mut prev = 0i64;
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        prev = prev.wrapping_add(cur.read_i64()?);
                        Some(f64::from_bits(prev as u64))
                    } else {
                        None
                    });
                }
                Column::Float(cells)
            }
            (DataType::Float, mode::BITS_DELTA2) => {
                let (mut prev, mut prev_d) = (0i64, 0i64);
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        prev_d = prev_d.wrapping_add(cur.read_i64()?);
                        prev = prev.wrapping_add(prev_d);
                        Some(f64::from_bits(prev as u64))
                    } else {
                        None
                    });
                }
                Column::Float(cells)
            }
            (DataType::Float, mode::DICT_BITS) => {
                let dict_len = read_dict_len(&mut cur, non_null)?;
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(cur.read_u64_le()?);
                }
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        Some(f64::from_bits(dict[read_dict_index(&mut cur, dict_len)?]))
                    } else {
                        None
                    });
                }
                Column::Float(cells)
            }
            (DataType::Str, mode::DICT) => {
                let dict_len = read_dict_len(&mut cur, non_null)?;
                let mut dict: Vec<Arc<str>> = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    let len = cur.read_u64()?;
                    if len > MAX_FRAME_LEN {
                        return Err(Error::Protocol(format!("dictionary string of {len} bytes")));
                    }
                    let s = std::str::from_utf8(cur.read_slice(len as usize)?)
                        .map_err(|_| Error::Protocol("dictionary string not UTF-8".into()))?;
                    dict.push(Arc::from(s));
                }
                let mut cells: Vec<Option<Arc<str>>> = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        Some(Arc::clone(&dict[read_dict_index(&mut cur, dict_len)?]))
                    } else {
                        None
                    });
                }
                Column::Str(cells)
            }
            (DataType::Str, mode::RAW) => {
                let mut cells: Vec<Option<Arc<str>>> = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        let len = cur.read_u64()?;
                        if len > MAX_FRAME_LEN {
                            return Err(Error::Protocol(format!("string cell of {len} bytes")));
                        }
                        let s = std::str::from_utf8(cur.read_slice(len as usize)?)
                            .map_err(|_| Error::Protocol("string cell not UTF-8".into()))?;
                        Some(Arc::from(s))
                    } else {
                        None
                    });
                }
                Column::Str(cells)
            }
            (DataType::Bytes, mode::RAW) => {
                let mut cells: Vec<Option<Arc<[u8]>>> = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        let len = cur.read_u64()?;
                        if len > MAX_FRAME_LEN {
                            return Err(Error::Protocol(format!("bytes cell of {len} bytes")));
                        }
                        Some(Arc::from(cur.read_slice(len as usize)?))
                    } else {
                        None
                    });
                }
                Column::Bytes(cells)
            }
            (dt, m) => {
                return Err(Error::Protocol(format!(
                    "column {:?} of type {dt} carries unknown mode {m}",
                    field.name()
                )))
            }
        };
        columns.push(col);
    }
    if cur.remaining() != 0 {
        return Err(Error::Protocol(format!(
            "{} trailing bytes after batch",
            cur.remaining()
        )));
    }
    if !keyed.is_empty() {
        let key_cells = columns
            .iter()
            .find_map(|c| match c {
                Column::Str(cells) => Some(cells.clone()),
                _ => None,
            })
            .ok_or_else(|| {
                Error::Protocol("keyed float mode in a batch with no string key column".into())
            })?;
        for (idx, valid, deltas) in keyed {
            let mut state: HashMap<Option<Arc<str>>, i64> = HashMap::new();
            let mut cells = Vec::with_capacity(rows);
            let mut next = deltas.into_iter();
            for (i, v) in valid.into_iter().enumerate() {
                cells.push(if v {
                    let prev = state.entry(key_cells[i].clone()).or_insert(0);
                    let d = next.next().expect("one delta per non-null cell");
                    *prev = prev.wrapping_add(d);
                    Some(f64::from_bits(*prev as u64))
                } else {
                    None
                });
            }
            columns[idx] = Column::Float(cells);
        }
    }
    Ok(Batch::new(schema.clone(), columns)?)
}

fn read_bitmap(cur: &mut Cursor<'_>, rows: usize) -> Result<Vec<bool>> {
    let bytes = cur.read_slice(rows.div_ceil(8))?;
    Ok((0..rows)
        .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
        .collect())
}

/// Decodes a batch against the schema both peers agreed on.
///
/// # Errors
///
/// Returns [`Error::Protocol`] when the bytes disagree with `schema`
/// (wrong column count or type tag) and [`Error::Truncated`] when they
/// end early. Never panics on arbitrary input.
pub fn decode_batch(bytes: &[u8], schema: &Arc<Schema>) -> Result<Batch> {
    let mut cur = Cursor::new(bytes);
    let rows = cur.read_u64()?;
    if rows > MAX_FRAME_LEN {
        return Err(Error::Protocol(format!("batch declares {rows} rows")));
    }
    let rows = rows as usize;
    if rows > bytes.len() * 8 {
        // Every row costs at least a validity bit; cheaper bound first.
        return Err(Error::Protocol(format!(
            "batch declares {rows} rows in {} bytes",
            bytes.len()
        )));
    }
    let cols = cur.read_u64()?;
    if cols != schema.len() as u64 {
        return Err(Error::Protocol(format!(
            "batch has {cols} columns, schema {}",
            schema.len()
        )));
    }
    let mut columns = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let tag = cur.read_u8()?;
        if tag != type_tag(field.data_type()) {
            return Err(Error::Protocol(format!(
                "column {:?} tagged {tag}, schema says {}",
                field.name(),
                field.data_type()
            )));
        }
        let valid = read_bitmap(&mut cur, rows)?;
        let col = match field.data_type() {
            DataType::Bool => {
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        Some(match cur.read_u8()? {
                            0 => false,
                            1 => true,
                            other => return Err(Error::Protocol(format!("bad bool byte {other}"))),
                        })
                    } else {
                        None
                    });
                }
                Column::Bool(cells)
            }
            DataType::Int => {
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v { Some(cur.read_i64()?) } else { None });
                }
                Column::Int(cells)
            }
            DataType::Float => {
                let mut cells = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        Some(f64::from_bits(cur.read_u64_le()?))
                    } else {
                        None
                    });
                }
                Column::Float(cells)
            }
            DataType::Str => {
                let mut cells: Vec<Option<Arc<str>>> = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        let len = cur.read_u64()?;
                        if len > MAX_FRAME_LEN {
                            return Err(Error::Protocol(format!("string cell of {len} bytes")));
                        }
                        let s = std::str::from_utf8(cur.read_slice(len as usize)?)
                            .map_err(|_| Error::Protocol("string cell not UTF-8".into()))?;
                        Some(Arc::from(s))
                    } else {
                        None
                    });
                }
                Column::Str(cells)
            }
            DataType::Bytes => {
                let mut cells: Vec<Option<Arc<[u8]>>> = Vec::with_capacity(rows);
                for v in valid {
                    cells.push(if v {
                        let len = cur.read_u64()?;
                        if len > MAX_FRAME_LEN {
                            return Err(Error::Protocol(format!("bytes cell of {len} bytes")));
                        }
                        Some(Arc::from(cur.read_slice(len as usize)?))
                    } else {
                        None
                    });
                }
                Column::Bytes(cells)
            }
        };
        columns.push(col);
    }
    if cur.remaining() != 0 {
        return Err(Error::Protocol(format!(
            "{} trailing bytes after batch",
            cur.remaining()
        )));
    }
    Ok(Batch::new(schema.clone(), columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_schema() -> Arc<Schema> {
        Schema::from_pairs([
            ("t", DataType::Float),
            ("bus", DataType::Str),
            ("n", DataType::Int),
            ("flag", DataType::Bool),
            ("blob", DataType::Bytes),
        ])
        .expect("static schema")
        .into_shared()
    }

    fn mixed_batch(schema: &Arc<Schema>) -> Batch {
        let rows = 50usize;
        let t: Vec<Option<f64>> = (0..rows).map(|i| Some(0.01 * i as f64)).collect();
        let bus: Vec<Option<Arc<str>>> = (0..rows)
            .map(|i| {
                if i % 7 == 0 {
                    None
                } else {
                    Some(Arc::from(if i % 2 == 0 { "powertrain" } else { "chassis" }))
                }
            })
            .collect();
        let n: Vec<Option<i64>> = (0..rows)
            .map(|i| Some(1_000_000 + 3 * i as i64 - (i as i64 % 5)))
            .collect();
        let flag: Vec<Option<bool>> = (0..rows)
            .map(|i| if i % 3 == 0 { None } else { Some(i % 2 == 0) })
            .collect();
        let blob: Vec<Option<Arc<[u8]>>> = (0..rows)
            .map(|i| Some(Arc::from(vec![i as u8; i % 4].as_slice())))
            .collect();
        Batch::new(
            schema.clone(),
            vec![
                Column::Float(t),
                Column::Str(bus),
                Column::Int(n),
                Column::Bool(flag),
                Column::Bytes(blob),
            ],
        )
        .unwrap()
    }

    #[test]
    fn compressed_roundtrip_and_canonical() {
        let schema = mixed_schema();
        let batch = mixed_batch(&schema);
        let bytes = encode_batch_compressed(&batch);
        let decoded = decode_batch_compressed(&bytes, &schema).unwrap();
        assert_eq!(encode_batch(&decoded), encode_batch(&batch));
        // Deterministic mode choice makes the encoding canonical.
        assert_eq!(encode_batch_compressed(&decoded), bytes);
    }

    #[test]
    fn compressed_preserves_float_bits() {
        let schema = Schema::from_pairs([("v", DataType::Float)])
            .expect("static schema")
            .into_shared();
        let specials = vec![
            Some(f64::NAN),
            Some(f64::from_bits(0x7FF8_0000_0000_0001)),
            Some(-0.0),
            None,
            Some(f64::MIN_POSITIVE / 2.0),
            Some(f64::NEG_INFINITY),
            Some(1.0e300),
        ];
        let batch = Batch::new(schema.clone(), vec![Column::Float(specials.clone())]).unwrap();
        let decoded = decode_batch_compressed(&encode_batch_compressed(&batch), &schema).unwrap();
        let Column::Float(cells) = &decoded.columns()[0] else {
            panic!("float column expected");
        };
        for (orig, got) in specials.iter().zip(cells) {
            assert_eq!(orig.map(f64::to_bits), got.map(f64::to_bits));
        }
    }

    #[test]
    fn compressed_shrinks_signal_like_batches() {
        let schema = mixed_schema();
        let batch = mixed_batch(&schema);
        let compressed = encode_batch_compressed(&batch).len() as u64;
        let raw = encoded_len_raw(&batch);
        assert_eq!(raw, encode_batch(&batch).len() as u64);
        assert!(compressed * 2 < raw, "compressed {compressed} vs raw {raw}");
    }

    #[test]
    fn compressed_rejects_garbage_without_panic() {
        let schema = mixed_schema();
        let batch = mixed_batch(&schema);
        let good = encode_batch_compressed(&batch);
        for cut in 0..good.len() {
            assert!(decode_batch_compressed(&good[..cut], &schema).is_err());
        }
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            // Any outcome but a panic is acceptable; most flips must fail.
            let _ = decode_batch_compressed(&bad, &schema);
        }
        // Unknown mode byte is a typed protocol error.
        let mut bad = good.clone();
        // rows varint, cols varint, then tag byte + mode byte of column 0.
        let mut cur = Cursor::new(&good);
        cur.read_u64().unwrap();
        cur.read_u64().unwrap();
        let mode_pos = good.len() - cur.remaining() + 1;
        bad[mode_pos] = 99;
        assert!(matches!(
            decode_batch_compressed(&bad, &schema),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn retired_keyed_second_order_mode_is_unknown() {
        let schema = mixed_schema();
        let good = encode_batch_compressed(&mixed_batch(&schema));
        let mut cur = Cursor::new(&good);
        cur.read_u64().unwrap();
        cur.read_u64().unwrap();
        // Column 0 is the float column `t`.
        let mode_pos = good.len() - cur.remaining() + 1;
        let mut bad = good.clone();
        bad[mode_pos] = 8;
        let err = decode_batch_compressed(&bad, &schema).unwrap_err();
        assert!(
            matches!(&err, Error::Protocol(m) if m.contains("unknown mode 8")),
            "{err}"
        );
    }

    #[test]
    fn varint_len_matches_writer() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            varint::write_u64(&mut buf, v);
            assert_eq!(varint_len(v), buf.len() as u64, "v={v}");
        }
    }
}

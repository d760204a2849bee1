//! On-disk layout: magics, checksums, zone maps, chunk codec, group
//! frames, footer and trailer.
//!
//! A store file is one self-describing journey:
//!
//! ```text
//! ┌────────────────┐
//! │ magic IVNS1\0  │  8 bytes
//! ├────────────────┤
//! │ group frame 0  │  GROUP_MAGIC | header len u32 | header | header checksum
//! │   chunk 0      │  encoded columnar chunks of the group (checksummed)
//! │   chunk 1      │
//! │ group frame 1  │
//! │ ...            │
//! ├────────────────┤
//! │ footer         │  bus dictionary + per-chunk index with zone maps
//! ├────────────────┤
//! │ trailer        │  footer offset/len/checksum + magic IVNSEND1 (32 bytes)
//! └────────────────┘
//! ```
//!
//! Chunks hold a fixed number of rows (the last chunk may be short) and are
//! encoded column-wise: original row indices and timestamps as zigzag-delta
//! varints, bus ids dictionary-encoded, message ids / payload lengths as
//! varints, payload bytes concatenated. Each chunk carries its row count and
//! is covered by an FNV-1a 64 checksum stored in the footer index, so a
//! reader touching only surviving chunks still detects corruption in what it
//! reads — and never pays for what it skips.
//!
//! Each group frame's header indexes just that group (chunk metadata and
//! the bus names it interned first), so recovery and followers can read a
//! growing file; a sealed file's reader consults only the footer, whose
//! offsets skip the headers. Files sealed before frames existed hold bare
//! chunks, indexed by their seal alone.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::record::{protocol_from_tag, protocol_tag, Record};
use crate::varint::{self, Cursor};

/// Leading file magic (8 bytes, versioned).
pub const MAGIC: &[u8; 8] = b"IVNS1\0\0\0";

/// Trailing file magic (8 bytes, versioned).
pub const END_MAGIC: &[u8; 8] = b"IVNSEND1";

/// Fixed byte length of the trailer:
/// `footer_offset u64 | footer_len u64 | footer_checksum u64 | END_MAGIC`.
pub const TRAILER_LEN: usize = 8 + 8 + 8 + 8;

/// Marker opening every group frame.
pub const GROUP_MAGIC: &[u8; 8] = b"IVNSGRP\0";

/// Bytes a frame adds around its header: magic, header length, checksum.
pub(crate) const FRAME_OVERHEAD: usize = GROUP_MAGIC.len() + 4 + 8;

/// Upper bound on one frame header (sanity cap while walking; a header
/// indexes at most one group's chunks and bus names).
pub(crate) const MAX_FRAME_HEADER_LEN: u32 = 16 << 20;

/// FNV-1a 64 — the store's checksum. Not cryptographic; it detects the
/// bit rot and truncation flaky capture hardware produces.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Per-chunk statistics a scan consults *instead of* decoding the chunk.
///
/// The predicate test is conservative: a `true` means "may contain a
/// matching row", a `false` is a proof of absence (zone-map soundness — the
/// property tests assert a skipped chunk never holds a matching row).
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Smallest timestamp in the chunk (µs).
    pub min_t_us: u64,
    /// Largest timestamp in the chunk (µs).
    pub max_t_us: u64,
    /// Smallest message id in the chunk.
    pub min_mid: u32,
    /// Largest message id in the chunk.
    pub max_mid: u32,
    /// Bitset over the footer's bus dictionary: bit `i` set ⇔ the chunk
    /// contains a row on bus `i`.
    pub bus_bits: Vec<u8>,
}

impl ZoneMap {
    /// Zone map of `rows` against a dictionary of `bus_count` entries.
    pub fn compute(rows: &[IndexedRecord], bus_count: usize) -> ZoneMap {
        let mut zm = ZoneMap {
            min_t_us: u64::MAX,
            max_t_us: 0,
            min_mid: u32::MAX,
            max_mid: 0,
            bus_bits: vec![0u8; bus_count.div_ceil(8)],
        };
        for r in rows {
            zm.min_t_us = zm.min_t_us.min(r.record.timestamp_us);
            zm.max_t_us = zm.max_t_us.max(r.record.timestamp_us);
            zm.min_mid = zm.min_mid.min(r.record.message_id);
            zm.max_mid = zm.max_mid.max(r.record.message_id);
            zm.bus_bits[r.bus_id as usize / 8] |= 1 << (r.bus_id % 8);
        }
        zm
    }

    /// Whether bus dictionary id `bus` occurs in the chunk.
    #[inline]
    pub fn has_bus(&self, bus: u32) -> bool {
        self.bus_bits
            .get(bus as usize / 8)
            .is_some_and(|b| b & (1 << (bus % 8)) != 0)
    }

    /// Whether `mid` lies within the chunk's message-id band.
    #[inline]
    pub fn mid_in_range(&self, mid: u32) -> bool {
        (self.min_mid..=self.max_mid).contains(&mid)
    }

    /// Whether `[from_us, to_us]` overlaps the chunk's time band.
    #[inline]
    pub fn time_overlaps(&self, from_us: u64, to_us: u64) -> bool {
        self.min_t_us <= to_us && self.max_t_us >= from_us
    }
}

/// Footer index entry for one chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Byte offset of the encoded chunk within the file.
    pub offset: u64,
    /// Encoded byte length.
    pub len: u32,
    /// Rows in the chunk.
    pub rows: u32,
    /// Row group the chunk belongs to (order restoration scope).
    pub group: u32,
    /// FNV-1a 64 over the encoded chunk bytes.
    pub checksum: u64,
    /// Skip statistics.
    pub zone: ZoneMap,
}

/// The decoded footer: dictionary + index.
#[derive(Debug, Clone, PartialEq)]
pub struct Footer {
    /// Bus dictionary; chunk rows reference entries by position.
    pub buses: Vec<Arc<str>>,
    /// Total rows across all chunks.
    pub rows: u64,
    /// Number of row groups.
    pub groups: u32,
    /// Rows the writer buffered (and the reader must buffer) per group.
    pub group_rows: u32,
    /// Whether groups were clustered by `(b_id, m_id)` before chunking.
    pub clustered: bool,
    /// Store generation: the number of row-group flushes ever performed
    /// on this file. Advances on every append-mode micro-batch flush, so
    /// plan/result caches keyed on it are invalidated the moment new data
    /// lands. Readers that want a collision-resistant cache epoch should
    /// combine it with `rows` and `chunks.len()` (a compacted rewrite has
    /// the same rows but different chunk geometry).
    pub generation: u64,
    /// Per-chunk index, in file order.
    pub chunks: Vec<ChunkMeta>,
}

/// One row group's extent within the chunk index — the scheduling granule
/// of shard planners (a group is the order-restoration scope, so a shard
/// boundary may never cut through one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSpan {
    /// Group id.
    pub group: u32,
    /// Index of the group's first chunk in [`Footer::chunks`].
    pub chunk_start: usize,
    /// One past the group's last chunk in [`Footer::chunks`].
    pub chunk_end: usize,
    /// Rows across the group's chunks.
    pub rows: u64,
}

impl Footer {
    /// Per-group chunk ranges, in group order. Consumed by shard planners
    /// and by `store info --json`; groups are contiguous in file order by
    /// construction (the writer flushes one group at a time).
    pub fn group_spans(&self) -> Vec<GroupSpan> {
        let mut spans: Vec<GroupSpan> = Vec::with_capacity(self.groups as usize);
        for (idx, chunk) in self.chunks.iter().enumerate() {
            match spans.last_mut() {
                Some(span) if span.group == chunk.group => {
                    span.chunk_end = idx + 1;
                    span.rows += u64::from(chunk.rows);
                }
                _ => spans.push(GroupSpan {
                    group: chunk.group,
                    chunk_start: idx,
                    chunk_end: idx + 1,
                    rows: u64::from(chunk.rows),
                }),
            }
        }
        spans
    }
}

/// Encodes one chunk column-wise into bytes; `bus_id`s index the writer's
/// bus dictionary, `record.bus` is not read.
pub fn encode_chunk(rows: &[IndexedRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(rows.len() * 12);
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    // Original row indices: absolute first, zigzag deltas after.
    for (i, r) in rows.iter().enumerate() {
        if i == 0 {
            varint::write_u64(&mut out, r.index);
        } else {
            varint::write_i64(&mut out, r.index.wrapping_sub(rows[i - 1].index) as i64);
        }
    }
    // Timestamps, same delta scheme.
    for (i, r) in rows.iter().enumerate() {
        if i == 0 {
            varint::write_u64(&mut out, r.record.timestamp_us);
        } else {
            varint::write_i64(
                &mut out,
                r.record
                    .timestamp_us
                    .wrapping_sub(rows[i - 1].record.timestamp_us) as i64,
            );
        }
    }
    for r in rows {
        varint::write_u64(&mut out, u64::from(r.bus_id));
    }
    for r in rows {
        varint::write_u64(&mut out, u64::from(r.record.message_id));
    }
    for r in rows {
        out.push(protocol_tag(r.record.protocol));
    }
    for r in rows {
        varint::write_u64(&mut out, r.record.payload.len() as u64);
    }
    for r in rows {
        out.extend_from_slice(&r.record.payload);
    }
    out
}

/// A row with its original trace position and the dictionary id of its
/// bus: what the chunk codec encodes and decodes.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedRecord {
    /// Original position of the row within the whole trace.
    pub index: u64,
    /// Dictionary id of the row's bus in the file footer.
    pub bus_id: u32,
    /// The record itself.
    pub record: Record,
}

/// Decodes an encoded chunk back into indexed records, resolving bus ids
/// through `buses` (the footer dictionary).
///
/// # Errors
///
/// Returns [`Error::Truncated`] / [`Error::Format`] for malformed bytes and
/// out-of-dictionary bus references.
pub fn decode_chunk(bytes: &[u8], buses: &[Arc<str>]) -> Result<Vec<IndexedRecord>> {
    let mut cur = Cursor::new(bytes);
    let rows = cur.read_u32_le()? as usize;
    // A chunk never holds more rows than bytes; reject sizes that a
    // truncated-then-checksum-bypassed file could otherwise allocate.
    if rows > bytes.len() {
        return Err(Error::Format(format!(
            "chunk declares {rows} rows in {} bytes",
            bytes.len()
        )));
    }
    let mut indices = Vec::with_capacity(rows);
    let mut prev: u64 = 0;
    for i in 0..rows {
        prev = if i == 0 {
            cur.read_u64()?
        } else {
            prev.wrapping_add(cur.read_i64()? as u64)
        };
        indices.push(prev);
    }
    let mut times = Vec::with_capacity(rows);
    let mut prev_t: u64 = 0;
    for i in 0..rows {
        prev_t = if i == 0 {
            cur.read_u64()?
        } else {
            prev_t.wrapping_add(cur.read_i64()? as u64)
        };
        times.push(prev_t);
    }
    let mut bus_ids = Vec::with_capacity(rows);
    for _ in 0..rows {
        let id = cur.read_u64()?;
        if usize::try_from(id).ok().is_none_or(|i| i >= buses.len()) {
            return Err(Error::Format(format!("bus id {id} not in dictionary")));
        }
        bus_ids.push(id as u32);
    }
    let mut mids = Vec::with_capacity(rows);
    for _ in 0..rows {
        mids.push(cur.read_u32("message id")?);
    }
    let mut protocols = Vec::with_capacity(rows);
    for _ in 0..rows {
        protocols.push(protocol_from_tag(cur.read_u8()?)?);
    }
    let mut lens = Vec::with_capacity(rows);
    let mut total: usize = 0;
    for _ in 0..rows {
        let len = cur.read_u64()?;
        let len =
            usize::try_from(len).map_err(|_| Error::Format("payload length overflow".into()))?;
        total = total
            .checked_add(len)
            .ok_or_else(|| Error::Format("payload length overflow".into()))?;
        lens.push(len);
    }
    if total != cur.remaining() {
        return Err(Error::Format(format!(
            "payload section is {} bytes, lengths sum to {total}",
            cur.remaining()
        )));
    }
    let mut out = Vec::with_capacity(rows);
    for i in 0..rows {
        let payload = cur.read_slice(lens[i])?.to_vec();
        out.push(IndexedRecord {
            index: indices[i],
            bus_id: bus_ids[i],
            record: Record {
                timestamp_us: times[i],
                bus: buses[bus_ids[i] as usize].clone(),
                message_id: mids[i],
                payload,
                protocol: protocols[i],
            },
        });
    }
    Ok(out)
}

/// Encodes the footer.
///
/// # Errors
///
/// Returns [`Error::Format`] for bus names longer than `u16::MAX` bytes.
pub fn encode_footer(footer: &Footer) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(&(footer.buses.len() as u32).to_le_bytes());
    for bus in &footer.buses {
        let bytes = bus.as_bytes();
        if bytes.len() > u16::MAX as usize {
            return Err(Error::Format("bus id longer than 65535 bytes".into()));
        }
        out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    out.extend_from_slice(&footer.rows.to_le_bytes());
    out.extend_from_slice(&footer.groups.to_le_bytes());
    out.extend_from_slice(&footer.group_rows.to_le_bytes());
    out.push(u8::from(footer.clustered));
    out.extend_from_slice(&footer.generation.to_le_bytes());
    out.extend_from_slice(&(footer.chunks.len() as u32).to_le_bytes());
    let bus_bitset_len = footer.buses.len().div_ceil(8);
    for c in &footer.chunks {
        out.extend_from_slice(&c.offset.to_le_bytes());
        out.extend_from_slice(&c.len.to_le_bytes());
        out.extend_from_slice(&c.rows.to_le_bytes());
        out.extend_from_slice(&c.group.to_le_bytes());
        out.extend_from_slice(&c.checksum.to_le_bytes());
        out.extend_from_slice(&c.zone.min_t_us.to_le_bytes());
        out.extend_from_slice(&c.zone.max_t_us.to_le_bytes());
        out.extend_from_slice(&c.zone.min_mid.to_le_bytes());
        out.extend_from_slice(&c.zone.max_mid.to_le_bytes());
        // Chunks flushed before the dictionary grew carry shorter bitsets
        // (bits for later buses are implicitly zero). The footer stride is
        // fixed at the final dictionary width, so pad with zero bytes —
        // otherwise a 9th bus appearing after an earlier group flush would
        // desynchronize every reader of the index.
        if c.zone.bus_bits.len() > bus_bitset_len {
            return Err(Error::Format(format!(
                "chunk bus bitset is {} bytes, dictionary allows {bus_bitset_len}",
                c.zone.bus_bits.len()
            )));
        }
        out.extend_from_slice(&c.zone.bus_bits);
        out.resize(out.len() + (bus_bitset_len - c.zone.bus_bits.len()), 0);
    }
    Ok(out)
}

/// Decodes a footer written by [`encode_footer`].
///
/// # Errors
///
/// Returns [`Error::Truncated`] / [`Error::Format`] for malformed bytes.
pub fn decode_footer(bytes: &[u8]) -> Result<Footer> {
    let mut cur = Cursor::new(bytes);
    let bus_count = cur.read_u32_le()? as usize;
    if bus_count > bytes.len() {
        return Err(Error::Format(format!(
            "footer declares {bus_count} buses in {} bytes",
            bytes.len()
        )));
    }
    let mut buses = Vec::with_capacity(bus_count);
    for _ in 0..bus_count {
        let len = u16::from_le_bytes(cur.read_slice(2)?.try_into().expect("2 bytes")) as usize;
        let name = std::str::from_utf8(cur.read_slice(len)?)
            .map_err(|_| Error::Format("bus id not UTF-8".into()))?;
        buses.push(Arc::from(name));
    }
    let rows = cur.read_u64_le()?;
    let groups = cur.read_u32_le()?;
    let group_rows = cur.read_u32_le()?;
    let clustered = match cur.read_u8()? {
        0 => false,
        1 => true,
        other => return Err(Error::Format(format!("bad clustered flag {other}"))),
    };
    let generation = cur.read_u64_le()?;
    let chunk_count = cur.read_u32_le()? as usize;
    if chunk_count > bytes.len() {
        return Err(Error::Format(format!(
            "footer declares {chunk_count} chunks in {} bytes",
            bytes.len()
        )));
    }
    let bus_bitset_len = bus_count.div_ceil(8);
    let mut chunks = Vec::with_capacity(chunk_count);
    for _ in 0..chunk_count {
        let offset = cur.read_u64_le()?;
        let len = cur.read_u32_le()?;
        let rows = cur.read_u32_le()?;
        let group = cur.read_u32_le()?;
        let checksum = cur.read_u64_le()?;
        let min_t_us = cur.read_u64_le()?;
        let max_t_us = cur.read_u64_le()?;
        let min_mid = cur.read_u32_le()?;
        let max_mid = cur.read_u32_le()?;
        let bus_bits = cur.read_slice(bus_bitset_len)?.to_vec();
        chunks.push(ChunkMeta {
            offset,
            len,
            rows,
            group,
            checksum,
            zone: ZoneMap {
                min_t_us,
                max_t_us,
                min_mid,
                max_mid,
                bus_bits,
            },
        });
    }
    Ok(Footer {
        buses,
        rows,
        groups,
        group_rows,
        clustered,
        generation,
        chunks,
    })
}

/// Encodes a group frame header: group id, clustered flag, the bus names
/// the group interned first, and the group's chunk index. Chunk offsets
/// are implied — the chunks follow the header back to back.
pub(crate) fn encode_frame_header(
    group: u32,
    clustered: bool,
    new_buses: &[Arc<str>],
    chunks: &[ChunkMeta],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + chunks.len() * 32);
    varint::write_u64(&mut out, u64::from(group));
    out.push(u8::from(clustered));
    varint::write_u64(&mut out, new_buses.len() as u64);
    for bus in new_buses {
        varint::write_u64(&mut out, bus.len() as u64);
        out.extend_from_slice(bus.as_bytes());
    }
    varint::write_u64(&mut out, chunks.len() as u64);
    for meta in chunks {
        varint::write_u64(&mut out, u64::from(meta.rows));
        varint::write_u64(&mut out, u64::from(meta.len));
        out.extend_from_slice(&meta.checksum.to_le_bytes());
        varint::write_u64(&mut out, meta.zone.min_t_us);
        varint::write_u64(&mut out, meta.zone.max_t_us);
        varint::write_u64(&mut out, u64::from(meta.zone.min_mid));
        varint::write_u64(&mut out, u64::from(meta.zone.max_mid));
        varint::write_u64(&mut out, meta.zone.bus_bits.len() as u64);
        out.extend_from_slice(&meta.zone.bus_bits);
    }
    out
}

/// A decoded group frame header.
pub(crate) struct FrameHeader {
    /// Group id.
    pub group: u32,
    /// Whether the group was clustered before chunking.
    pub clustered: bool,
    /// Bus names the group interned first, in dictionary order.
    pub new_buses: Vec<Arc<str>>,
    /// The group's chunk index with absolute file offsets.
    pub chunks: Vec<ChunkMeta>,
}

/// Decodes a header written by [`encode_frame_header`] whose chunks start
/// at file offset `chunks_start`.
///
/// # Errors
///
/// Returns [`Error::Truncated`] / [`Error::Format`] for malformed bytes.
pub(crate) fn decode_frame_header(bytes: &[u8], chunks_start: u64) -> Result<FrameHeader> {
    let mut cur = Cursor::new(bytes);
    let group = cur.read_u32("frame group id")?;
    let clustered = cur.read_u8()? != 0;
    let mut new_buses = Vec::new();
    for _ in 0..cur.read_u64()? {
        let len = cur.read_u64()? as usize;
        let name = std::str::from_utf8(cur.read_slice(len)?)
            .map_err(|_| Error::Format("frame bus name is not utf-8".into()))?;
        new_buses.push(Arc::from(name));
    }
    let mut chunks = Vec::new();
    let mut offset = chunks_start;
    for _ in 0..cur.read_u64()? {
        // Fields are read in the order they appear: the encoding order.
        let meta = ChunkMeta {
            offset,
            rows: cur.read_u32("chunk rows")?,
            len: cur.read_u32("chunk length")?,
            group,
            checksum: cur.read_u64_le()?,
            zone: ZoneMap {
                min_t_us: cur.read_u64()?,
                max_t_us: cur.read_u64()?,
                min_mid: cur.read_u32("zone min mid")?,
                max_mid: cur.read_u32("zone max mid")?,
                bus_bits: {
                    let len = cur.read_u64()? as usize;
                    cur.read_slice(len)?.to_vec()
                },
            },
        };
        offset += u64::from(meta.len);
        chunks.push(meta);
    }
    Ok(FrameHeader {
        group,
        clustered,
        new_buses,
        chunks,
    })
}

/// Encodes the trailer sealing a file whose footer `footer_bytes` starts
/// at `footer_offset`.
pub fn encode_trailer(footer_offset: u64, footer_bytes: &[u8]) -> [u8; TRAILER_LEN] {
    let mut trailer = [0u8; TRAILER_LEN];
    trailer[0..8].copy_from_slice(&footer_offset.to_le_bytes());
    trailer[8..16].copy_from_slice(&(footer_bytes.len() as u64).to_le_bytes());
    trailer[16..24].copy_from_slice(&checksum(footer_bytes).to_le_bytes());
    trailer[24..32].copy_from_slice(END_MAGIC);
    trailer
}

/// Decodes the trailer ending a `file_len`-byte file into the footer's
/// `(offset, length, checksum)`.
///
/// # Errors
///
/// Returns [`Error::Truncated`] when the end magic is missing or the
/// footer would not lie between the file header and the trailer.
pub fn decode_trailer(trailer: &[u8; TRAILER_LEN], file_len: u64) -> Result<(u64, usize, u64)> {
    if &trailer[24..32] != END_MAGIC {
        return Err(Error::Truncated("trailer magic missing".into()));
    }
    let word = |i: usize| u64::from_le_bytes(trailer[i..i + 8].try_into().expect("8 bytes"));
    let (footer_offset, footer_len, footer_checksum) = (word(0), word(8), word(16));
    let trailer_start = file_len.saturating_sub(TRAILER_LEN as u64);
    if footer_offset
        .checked_add(footer_len)
        .is_none_or(|end| end != trailer_start)
        || footer_offset < MAGIC.len() as u64
    {
        return Err(Error::Truncated("trailer points outside the file".into()));
    }
    let footer_len =
        usize::try_from(footer_len).map_err(|_| Error::Format("footer length overflow".into()))?;
    Ok((footer_offset, footer_len, footer_checksum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivnt_protocol::message::Protocol;

    fn row(
        index: u64,
        bus_id: u32,
        timestamp_us: u64,
        mid: u32,
        payload: Vec<u8>,
    ) -> IndexedRecord {
        IndexedRecord {
            index,
            bus_id,
            record: Record {
                timestamp_us,
                bus: Arc::from(["FC", "DC"][bus_id as usize % 2]),
                message_id: mid,
                payload,
                protocol: Protocol::Can,
            },
        }
    }

    fn rows(payloads: &[Vec<u8>]) -> Vec<IndexedRecord> {
        payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                row(
                    10 + i as u64,
                    (i % 2) as u32,
                    1_000 * i as u64,
                    100 + (i % 3) as u32,
                    p.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn chunk_roundtrip() {
        let payloads: Vec<Vec<u8>> = (0..5).map(|i| vec![i as u8; i]).collect();
        let rows = rows(&payloads);
        let buses: Vec<Arc<str>> = vec![Arc::from("FC"), Arc::from("DC")];
        let encoded = encode_chunk(&rows);
        let decoded = decode_chunk(&encoded, &buses).unwrap();
        assert_eq!(decoded.len(), 5);
        assert_eq!(decoded[3].index, 13);
        assert_eq!(decoded[3].record.timestamp_us, 3_000);
        assert_eq!(decoded[3].record.bus.as_ref(), "DC");
        assert_eq!(decoded[3].record.message_id, 100);
        assert_eq!(decoded[3].record.payload, vec![3u8; 3]);
    }

    #[test]
    fn zone_map_covers_rows() {
        let payloads: Vec<Vec<u8>> = (0..4).map(|_| vec![]).collect();
        let rows = rows(&payloads);
        let zm = ZoneMap::compute(&rows, 2);
        assert_eq!((zm.min_t_us, zm.max_t_us), (0, 3_000));
        assert_eq!((zm.min_mid, zm.max_mid), (100, 102));
        assert!(zm.has_bus(0) && zm.has_bus(1) && !zm.has_bus(2));
        assert!(zm.time_overlaps(2_500, 9_999));
        assert!(!zm.time_overlaps(3_001, 9_999));
        assert!(zm.mid_in_range(101) && !zm.mid_in_range(99));
    }

    #[test]
    fn footer_roundtrip() {
        let footer = Footer {
            buses: vec![Arc::from("FC"), Arc::from("DC"), Arc::from("K-LIN")],
            rows: 12345,
            groups: 3,
            group_rows: 4096,
            clustered: true,
            generation: 7,
            chunks: vec![ChunkMeta {
                offset: 8,
                len: 99,
                rows: 50,
                group: 0,
                checksum: 0xABCD,
                zone: ZoneMap {
                    min_t_us: 1,
                    max_t_us: 2,
                    min_mid: 3,
                    max_mid: 4,
                    bus_bits: vec![0b101],
                },
            }],
        };
        let encoded = encode_footer(&footer).unwrap();
        assert_eq!(decode_footer(&encoded).unwrap(), footer);
    }

    #[test]
    fn footer_pads_bitsets_written_before_dictionary_grew() {
        // A chunk flushed while the dictionary held 8 buses carries a
        // 1-byte bitset; once a 9th bus exists the footer stride is 2
        // bytes and the short bitset must be zero-padded on encode.
        let buses: Vec<Arc<str>> = (0..9)
            .map(|i| Arc::from(format!("B{i}").as_str()))
            .collect();
        let chunk = |bus_bits: Vec<u8>| ChunkMeta {
            offset: 8,
            len: 1,
            rows: 1,
            group: 0,
            checksum: 0,
            zone: ZoneMap {
                min_t_us: 0,
                max_t_us: 0,
                min_mid: 0,
                max_mid: 0,
                bus_bits,
            },
        };
        let footer = Footer {
            buses,
            rows: 2,
            groups: 2,
            group_rows: 1,
            clustered: true,
            generation: 2,
            chunks: vec![chunk(vec![0b1]), chunk(vec![0, 0b1])],
        };
        let decoded = decode_footer(&encode_footer(&footer).unwrap()).unwrap();
        assert_eq!(decoded.chunks[0].zone.bus_bits, vec![0b1, 0]);
        assert_eq!(decoded.chunks[1].zone.bus_bits, vec![0, 0b1]);
        assert!(decoded.chunks[0].zone.has_bus(0) && !decoded.chunks[0].zone.has_bus(8));
        assert!(decoded.chunks[1].zone.has_bus(8));
        // An oversized bitset is a writer bug — reported, not mangled.
        let bad = Footer {
            chunks: vec![chunk(vec![0; 3])],
            ..footer
        };
        assert!(matches!(encode_footer(&bad), Err(Error::Format(_))));
    }

    #[test]
    fn malformed_chunk_rejected() {
        let buses: Vec<Arc<str>> = vec![Arc::from("FC")];
        assert!(decode_chunk(&[1, 2], &buses).is_err());
        // Row count far beyond the byte count.
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.push(0);
        assert!(matches!(
            decode_chunk(&bytes, &buses),
            Err(Error::Format(_))
        ));
        // Bus reference outside the dictionary.
        let rows = [row(0, 7, 0, 0, Vec::new())];
        let encoded = encode_chunk(&rows);
        assert!(matches!(
            decode_chunk(&encoded, &buses),
            Err(Error::Format(_))
        ));
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum(b"hello");
        assert_eq!(a, checksum(b"hello"));
        assert_ne!(a, checksum(b"hellp"));
        assert_ne!(checksum(b""), 0);
    }
}

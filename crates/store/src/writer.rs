//! Store writer: appends records into group-clustered columnar chunks.
//!
//! The writer buffers one *row group* at a time (`chunks_per_group ×
//! chunk_rows` records). When a group fills (or the file finishes), the
//! group is optionally **clustered** — sorted by `(b_id, m_id, original
//! position)` — and cut into fixed-row-count chunks. Clustering is what
//! makes zone maps bite on cyclic in-vehicle traffic: a time-contiguous
//! chunk of a bus log contains nearly every message id of the cycle, so
//! min/max pruning never fires; a clustered chunk covers a narrow id band
//! and prunes hard. Each row carries its original trace position
//! (delta-encoded, ~1 byte/row) so readers restore exact trace order per
//! group.
//!
//! Every group is written as one checksummed group frame (see
//! [`append`](crate::append)), so a file is recoverable and followable
//! while it grows; [`StoreWriter::finish`] seals it with the footer index
//! and a fixed-size trailer. This is the one `.ivns` encoder:
//! [`AppendWriter`](crate::append::AppendWriter) only adds a flush policy.
//! It needs only `Write` — no seeking: bytes written give every offset.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use crate::error::Result;
use crate::layout::{
    checksum, encode_chunk, encode_footer, encode_frame_header, encode_trailer, ChunkMeta, Footer,
    IndexedRecord, ZoneMap, FRAME_OVERHEAD, GROUP_MAGIC, MAGIC,
};
use crate::record::Record;

/// Tuning knobs for [`StoreWriter`].
#[derive(Debug, Clone, Copy)]
pub struct WriterOptions {
    /// Rows per chunk (the pruning granule). Default 1024.
    pub chunk_rows: usize,
    /// Chunks per row group (the clustering / order-restoration granule,
    /// and the reader's memory budget in chunks). Default 32.
    pub chunks_per_group: usize,
    /// Sort each group by `(b_id, m_id)` before cutting chunks. Default
    /// `true`; disable only to benchmark how badly time-contiguous chunks
    /// prune.
    pub cluster: bool,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            chunk_rows: 1024,
            chunks_per_group: 32,
            cluster: true,
        }
    }
}

impl WriterOptions {
    /// Rows buffered per group — the bound on both writer and reader memory.
    pub fn group_rows(&self) -> usize {
        self.chunk_rows.max(1) * self.chunks_per_group.max(1)
    }
}

/// Streaming writer for the `.ivns` chunked columnar trace format.
pub struct StoreWriter<W: Write> {
    pub(crate) out: W,
    options: WriterOptions,
    /// Rows per group: the flush threshold and the footer's `group_rows`.
    pub(crate) group_rows: usize,
    /// Bytes written so far == offset of the next write (no Seek needed).
    pub(crate) offset: u64,
    /// Bus dictionary in first-seen order.
    buses: Vec<Arc<str>>,
    /// Buses already persisted in earlier frame headers.
    buses_written: usize,
    /// Buffered rows of the current group, in append order.
    pub(crate) group: Vec<IndexedRecord>,
    chunks: Vec<ChunkMeta>,
    rows_total: u64,
    pub(crate) groups: u32,
}

impl StoreWriter<BufWriter<File>> {
    /// Creates `path` and writes the store header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) on filesystem failure.
    pub fn create<P: AsRef<Path>>(path: P, options: WriterOptions) -> Result<Self> {
        StoreWriter::new(BufWriter::new(File::create(path)?), options)
    }
}

impl<W: Write> StoreWriter<W> {
    /// Wraps `out` and writes the store header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) if the header write fails.
    pub fn new(mut out: W, options: WriterOptions) -> Result<Self> {
        out.write_all(MAGIC)?;
        Ok(StoreWriter {
            out,
            options,
            group_rows: options.group_rows(),
            offset: MAGIC.len() as u64,
            buses: Vec::new(),
            buses_written: 0,
            group: Vec::new(),
            chunks: Vec::new(),
            rows_total: 0,
            groups: 0,
        })
    }

    /// Appends one record, writing a full group frame when the buffer
    /// reaches `chunks_per_group × chunk_rows` rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) if a group write fails.
    pub fn append(&mut self, record: &Record) -> Result<()> {
        self.buffer(record);
        if self.group.len() >= self.group_rows {
            self.write_group()?;
        }
        Ok(())
    }

    /// Writes any buffered rows as a last group, seals the file with the
    /// footer and trailer, and returns the inner writer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`](crate::Error::Io) /
    /// [`Error::Format`](crate::Error::Format) on write or encoding failure.
    pub fn finish(mut self) -> Result<W> {
        self.write_group()?;
        let footer = Footer {
            buses: std::mem::take(&mut self.buses),
            rows: self.rows_total,
            groups: self.groups,
            group_rows: self.group_rows as u32,
            clustered: self.options.cluster,
            generation: u64::from(self.groups),
            chunks: std::mem::take(&mut self.chunks),
        };
        write_seal(&mut self.out, self.offset, &footer)?;
        Ok(self.out)
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.rows_total
    }

    /// Buffers one record into the current group without flushing it.
    pub(crate) fn buffer(&mut self, record: &Record) {
        // Traces carry a handful of buses; linear probing beats a map.
        let bus_id = match self.buses.iter().position(|b| *b == record.bus) {
            Some(id) => id as u32,
            None => {
                self.buses.push(record.bus.clone());
                (self.buses.len() - 1) as u32
            }
        };
        self.group.push(IndexedRecord {
            index: self.rows_total,
            bus_id,
            record: record.clone(),
        });
        self.rows_total += 1;
    }

    /// Writes the buffered rows as one group frame (no-op when empty) and
    /// returns the group's id and row count. The frame is handed to the
    /// inner writer, not flushed through it.
    pub(crate) fn write_group(&mut self) -> Result<Option<(u32, usize)>> {
        if self.group.is_empty() {
            return Ok(None);
        }
        let mut rows = std::mem::take(&mut self.group);
        if self.options.cluster {
            rows.sort_by_key(|r| (r.bus_id, r.record.message_id, r.index));
        }
        let group = self.groups;
        // Cut chunks first: the frame header indexes them, so their bytes
        // and metadata must exist before the header can be written.
        let mut bodies = Vec::new();
        let mut metas = Vec::new();
        for chunk in rows.chunks(self.options.chunk_rows.max(1)) {
            let bytes = encode_chunk(chunk);
            metas.push(ChunkMeta {
                offset: 0, // absolute offset patched below, once known
                len: bytes.len() as u32,
                rows: chunk.len() as u32,
                group,
                checksum: checksum(&bytes),
                zone: ZoneMap::compute(chunk, self.buses.len()),
            });
            bodies.push(bytes);
        }
        let header = encode_frame_header(
            group,
            self.options.cluster,
            &self.buses[self.buses_written..],
            &metas,
        );
        self.out.write_all(GROUP_MAGIC)?;
        self.out.write_all(&(header.len() as u32).to_le_bytes())?;
        self.out.write_all(&header)?;
        self.out.write_all(&checksum(&header).to_le_bytes())?;
        self.offset += (FRAME_OVERHEAD + header.len()) as u64;
        for (meta, bytes) in metas.iter_mut().zip(&bodies) {
            meta.offset = self.offset;
            self.out.write_all(bytes)?;
            self.offset += bytes.len() as u64;
        }
        self.buses_written = self.buses.len();
        self.groups += 1;
        self.chunks.extend(metas);
        Ok(Some((group, rows.len())))
    }
}

/// Seals a file whose group frames end at `footer_offset`: writes the
/// footer and the trailer pointing back at it, then flushes `out`.
pub(crate) fn write_seal<W: Write>(out: &mut W, footer_offset: u64, footer: &Footer) -> Result<()> {
    let footer_bytes = encode_footer(footer)?;
    out.write_all(&footer_bytes)?;
    out.write_all(&encode_trailer(footer_offset, &footer_bytes))?;
    out.flush()?;
    Ok(())
}

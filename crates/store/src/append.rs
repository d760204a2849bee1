//! Append-mode `.ivns`: live ingest, crash recovery and tailing.
//!
//! Every `.ivns` file is written by [`StoreWriter`] as a sequence of
//! checksummed **group frames** ([`GROUP_MAGIC`], a varint chunk index
//! for just that group plus the bus names it interned first, then the
//! ordinary chunk bytes), sealed by a footer and trailer at the end. The
//! file is therefore self-describing as it grows, and a writer killed
//! mid-trace leaves every group it wrote readable.
//!
//! * [`AppendWriter`] is the live-session face of that encoder: it adds
//!   only a flush policy — a group is written and pushed through to the
//!   sink by row count ([`AppendOptions::flush_rows`]), by record-time
//!   advance ([`AppendOptions::flush_interval_us`]) or explicitly — and
//!   reports each flush ([`GroupFlush`]). [`AppendWriter::seal`] writes
//!   the standard footer + trailer, after which [`StoreReader`] reads the
//!   file unchanged (chunk offsets in the footer skip the frame headers).
//! * [`recover`] accepts a valid seal as is; otherwise it walks the
//!   frames, validating header and chunk checksums, and rebuilds the
//!   index of the complete groups — at most the torn tail group is lost.
//! * [`seal_recovered`] turns a recovered file back into a standard sealed
//!   store in place.
//! * [`StoreFollower`] tails a growing file, emitting each newly completed
//!   group's records in trace order — the reader half of a live session.
//!
//! Files sealed before group frames existed hold bare chunks: [`recover`]
//! reports them sealed from their footer, [`seal_recovered`] leaves them
//! untouched, and [`StoreFollower`] refuses them with [`Error::Format`].

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::error::{Error, Result};
pub use crate::layout::GROUP_MAGIC;
use crate::layout::{
    checksum, decode_frame_header, Footer, FrameHeader, IndexedRecord, FRAME_OVERHEAD, MAGIC,
    MAX_FRAME_HEADER_LEN,
};
use crate::reader::{read_chunk, read_seal, StoreReader};
use crate::record::Record;
use crate::writer::{write_seal, StoreWriter, WriterOptions};

/// Tuning knobs for [`AppendWriter`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AppendOptions {
    /// Chunk layout of each flushed group (clustering, chunk rows).
    pub writer: WriterOptions,
    /// Row-count flush trigger: a group is flushed once this many rows are
    /// buffered. `0` falls back to [`WriterOptions::group_rows`].
    pub flush_rows: usize,
    /// Record-time flush trigger in microseconds: a group is flushed when
    /// the newest buffered record's timestamp is this far past the oldest's.
    /// `0` disables the time trigger.
    pub flush_interval_us: u64,
}

impl AppendOptions {
    /// Effective row-count trigger.
    pub fn effective_flush_rows(&self) -> usize {
        if self.flush_rows == 0 {
            self.writer.group_rows()
        } else {
            self.flush_rows
        }
    }
}

/// Report of one flushed group frame, for flush-latency accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupFlush {
    /// Flushed group id.
    pub group: u32,
    /// Rows in the group.
    pub rows: usize,
    /// Frame bytes written (header + chunks).
    pub bytes: u64,
    /// Wall-clock seconds spent encoding and writing the frame.
    pub seconds: f64,
}

/// Streaming append-mode writer for the `.ivns` format: a [`StoreWriter`]
/// with a flush policy.
pub struct AppendWriter<W: Write> {
    writer: StoreWriter<W>,
    options: AppendOptions,
}

impl AppendWriter<BufWriter<File>> {
    /// Creates `path` and writes the store header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on filesystem failure.
    pub fn create<P: AsRef<Path>>(path: P, options: AppendOptions) -> Result<Self> {
        AppendWriter::new(BufWriter::new(File::create(path)?), options)
    }
}

impl<W: Write> AppendWriter<W> {
    /// Wraps `out` and writes the store header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the header write fails.
    pub fn new(out: W, options: AppendOptions) -> Result<Self> {
        let mut writer = StoreWriter::new(out, options.writer)?;
        writer.group_rows = options.effective_flush_rows();
        writer.out.flush()?;
        Ok(AppendWriter { writer, options })
    }

    /// Appends one record, flushing a micro-batched group frame when the
    /// row-count or record-time trigger fires. Returns the flush report
    /// when a frame was written.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if a frame flush fails.
    pub fn append(&mut self, record: &Record) -> Result<Option<GroupFlush>> {
        self.writer.buffer(record);
        let buffered = &self.writer.group;
        let rows_due = buffered.len() >= self.options.effective_flush_rows();
        let time_due = self.options.flush_interval_us > 0
            && record
                .timestamp_us
                .saturating_sub(buffered[0].record.timestamp_us)
                >= self.options.flush_interval_us;
        if rows_due || time_due {
            return self.flush();
        }
        Ok(None)
    }

    /// Flushes the buffered rows as one group frame (no-op when empty).
    ///
    /// After this returns, the frame is recoverable: the inner writer has
    /// been flushed through to its sink.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on write failure.
    pub fn flush(&mut self) -> Result<Option<GroupFlush>> {
        let started = Instant::now();
        let start = self.writer.offset;
        let Some((group, rows)) = self.writer.write_group()? else {
            return Ok(None);
        };
        // Durability point: push the frame through to the sink so a crash
        // after this call loses nothing.
        self.writer.out.flush()?;
        Ok(Some(GroupFlush {
            group,
            rows,
            bytes: self.writer.offset - start,
            seconds: started.elapsed().as_secs_f64(),
        }))
    }

    /// Flushes any buffered rows, writes the standard footer and trailer
    /// (making the file a plain sealed `.ivns`), and returns the inner
    /// writer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] / [`Error::Format`] on write or encoding
    /// failure.
    pub fn seal(self) -> Result<W> {
        self.writer.finish()
    }

    /// Rows appended so far (flushed + buffered).
    pub fn rows(&self) -> u64 {
        self.writer.rows()
    }

    /// Bytes written so far (header + flushed frames; excludes buffered
    /// rows and any future seal).
    pub fn bytes_written(&self) -> u64 {
        self.writer.offset
    }

    /// Group frames flushed so far.
    pub fn groups(&self) -> u32 {
        self.writer.groups
    }

    /// Rows buffered in the not-yet-flushed tail group.
    pub fn buffered_rows(&self) -> usize {
        self.writer.group.len()
    }
}

/// Outcome of trying to read one frame at a file position.
enum FrameRead {
    /// A complete, checksum-valid frame, its records decoded in on-disk
    /// (clustered) order, ending at file offset `end`.
    Complete {
        frame: FrameHeader,
        records: Vec<IndexedRecord>,
        end: u64,
    },
    /// Not enough bytes yet — a torn tail (recovery) or a frame still
    /// being written (follower).
    Incomplete,
    /// The position does not start with [`GROUP_MAGIC`] — either the
    /// sealed footer begins here or the tail is garbage.
    NotAFrame,
    /// All bytes are present but a checksum or the header structure is
    /// invalid.
    Corrupt(String),
}

/// Reads and decodes the frame at `pos`. `buses` is extended with the
/// frame's newly interned names only when the frame is complete and valid.
fn read_frame<R: Read + Seek>(
    inner: &mut R,
    pos: u64,
    file_len: u64,
    buses: &mut Vec<Arc<str>>,
) -> Result<FrameRead> {
    match try_read_frame(inner, pos, file_len, buses) {
        Err(Error::Io(e)) => Err(Error::Io(e)),
        Err(e) => Ok(FrameRead::Corrupt(e.to_string())),
        read => read,
    }
}

/// [`read_frame`] with invalid bytes reported as errors.
fn try_read_frame<R: Read + Seek>(
    inner: &mut R,
    pos: u64,
    file_len: u64,
    buses: &mut Vec<Arc<str>>,
) -> Result<FrameRead> {
    let mut prefix = [0u8; 12];
    if file_len.saturating_sub(pos) < prefix.len() as u64 {
        return Ok(FrameRead::Incomplete);
    }
    inner.seek(SeekFrom::Start(pos))?;
    inner.read_exact(&mut prefix)?;
    if &prefix[..8] != GROUP_MAGIC {
        return Ok(FrameRead::NotAFrame);
    }
    let header_len = u32::from_le_bytes(prefix[8..].try_into().expect("4 bytes"));
    if header_len > MAX_FRAME_HEADER_LEN {
        return Err(Error::Format(format!(
            "frame header length {header_len} exceeds cap"
        )));
    }
    let chunks_start = pos + (FRAME_OVERHEAD as u64) + u64::from(header_len);
    if file_len < chunks_start {
        return Ok(FrameRead::Incomplete);
    }
    let mut header = vec![0u8; header_len as usize + 8];
    inner.read_exact(&mut header)?;
    let (header, sum) = header.split_at(header_len as usize);
    if checksum(header) != u64::from_le_bytes(sum.try_into().expect("8 bytes")) {
        return Err(Error::Format("frame header checksum mismatch".into()));
    }
    let mut frame = decode_frame_header(header, chunks_start)?;
    let end = frame
        .chunks
        .last()
        .map_or(chunks_start, |m| m.offset + u64::from(m.len));
    if file_len < end {
        return Ok(FrameRead::Incomplete);
    }
    let mut extended = buses.clone();
    extended.append(&mut frame.new_buses);
    let mut records = Vec::new();
    for (i, meta) in frame.chunks.iter().enumerate() {
        records.append(&mut read_chunk(inner, meta, i, &extended)?);
    }
    *buses = extended;
    Ok(FrameRead::Complete {
        frame,
        records,
        end,
    })
}

/// Checks the store header of `inner` and returns the file length.
fn read_header<R: Read + Seek>(inner: &mut R) -> Result<u64> {
    let file_len = inner.seek(SeekFrom::End(0))?;
    if file_len < MAGIC.len() as u64 {
        return Err(Error::BadMagic);
    }
    inner.seek(SeekFrom::Start(0))?;
    let mut magic = [0u8; 8];
    inner.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(Error::BadMagic);
    }
    Ok(file_len)
}

/// Result of [`recover`]: the rebuilt index plus what the walk found.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// Rebuilt (or, for sealed files, decoded) footer index.
    pub footer: Footer,
    /// `true` when the file carries a valid footer + trailer already.
    pub sealed: bool,
    /// Bytes of the valid prefix: header plus all complete group frames.
    pub valid_len: u64,
    /// Total file length at recovery time.
    pub file_len: u64,
}

impl Recovered {
    /// Bytes past the valid prefix (the torn tail; `0` when sealed).
    pub fn torn_bytes(&self) -> u64 {
        if self.sealed {
            0
        } else {
            self.file_len.saturating_sub(self.valid_len)
        }
    }
}

/// Recovers the index of `inner`. A valid seal (footer + trailer) is
/// accepted as is, without reading any chunk. Otherwise the group frames
/// are walked, every header and chunk checksum-validated and decoded, and
/// the index rebuilt from the complete frames; the torn tail is truncated
/// (logically).
///
/// # Errors
///
/// Returns [`Error::BadMagic`] when the file is not an `.ivns` store,
/// [`Error::Format`] when it has neither a valid seal nor a group frame
/// after the header (a frame-less file whose seal is damaged), and
/// [`Error::Io`] on read failure. A torn or corrupt tail is *not* an error
/// — it is truncated and reported via [`Recovered::torn_bytes`].
pub fn recover_reader<R: Read + Seek>(inner: &mut R) -> Result<Recovered> {
    let file_len = read_header(inner)?;
    match read_seal(inner, file_len) {
        Ok((_, footer)) => {
            return Ok(Recovered {
                footer,
                sealed: true,
                valid_len: file_len,
                file_len,
            })
        }
        Err(Error::Io(e)) => return Err(Error::Io(e)),
        Err(_) => {} // unsealed or torn: rebuild the index from the frames
    }

    let mut footer = Footer {
        buses: Vec::new(),
        rows: 0,
        groups: 0,
        group_rows: 1,
        clustered: true,
        generation: 0,
        chunks: Vec::new(),
    };
    let mut pos = MAGIC.len() as u64;
    // Incomplete, non-frame and corrupt reads all end the valid prefix.
    let stop = loop {
        match read_frame(inner, pos, file_len, &mut footer.buses)? {
            FrameRead::Complete { frame, end, .. } => {
                let rows: u32 = frame.chunks.iter().map(|m| m.rows).sum();
                footer.rows += u64::from(rows);
                footer.group_rows = footer.group_rows.max(rows);
                footer.clustered &= frame.clustered;
                footer.groups = footer.groups.max(frame.group + 1);
                footer.chunks.extend(frame.chunks);
                pos = end;
            }
            other => break other,
        }
    };
    if pos == MAGIC.len() as u64 && matches!(stop, FrameRead::NotAFrame) {
        // Not an unsealed frame file: recovering it would index nothing,
        // and resealing would truncate away whatever it holds.
        return Err(Error::Format(
            "no valid seal and no group frame after the header".into(),
        ));
    }
    footer.generation = u64::from(footer.groups);
    Ok(Recovered {
        footer,
        sealed: false,
        valid_len: pos,
        file_len,
    })
}

/// Recovers the index of the store at `path` (sealed or torn).
///
/// # Errors
///
/// See [`recover_reader`].
pub fn recover<P: AsRef<Path>>(path: P) -> Result<Recovered> {
    let mut file = BufReader::new(File::open(path)?);
    recover_reader(&mut file)
}

/// Opens a possibly-torn store for reading: recovers the index and binds
/// it to a [`StoreReader`] without requiring a seal.
///
/// # Errors
///
/// See [`recover_reader`].
pub fn open_recovered<P: AsRef<Path>>(
    path: P,
) -> Result<(StoreReader<BufReader<File>>, Recovered)> {
    let recovered = recover(&path)?;
    let inner = BufReader::new(File::open(path)?);
    let reader = StoreReader::with_footer(inner, recovered.footer.clone());
    Ok((reader, recovered))
}

/// Seals a recovered store in place: truncates the torn tail and appends
/// the standard footer + trailer, after which [`StoreReader::open`] works
/// unchanged. Already-sealed files, frame-less ones included, are left
/// untouched.
///
/// # Errors
///
/// See [`recover_reader`]; additionally [`Error::Io`] on truncate/write
/// failure.
pub fn seal_recovered<P: AsRef<Path>>(path: P) -> Result<Recovered> {
    let mut recovered = recover(&path)?;
    if recovered.sealed {
        return Ok(recovered);
    }
    let file = OpenOptions::new().read(true).write(true).open(&path)?;
    file.set_len(recovered.valid_len)?;
    let mut out = BufWriter::new(file);
    out.seek(SeekFrom::Start(recovered.valid_len))?;
    write_seal(&mut out, recovered.valid_len, &recovered.footer)?;
    recovered.sealed = true;
    recovered.file_len = recovered.valid_len;
    Ok(recovered)
}

/// One newly completed group surfaced by a [`StoreFollower`] poll.
#[derive(Debug, Clone)]
pub struct TailGroup {
    /// Group id as recorded in its frame header.
    pub group: u32,
    /// The group's records, restored to trace order.
    pub records: Vec<Record>,
}

/// Result of one [`StoreFollower::poll`].
#[derive(Debug, Clone, Default)]
pub struct TailBatch {
    /// Groups completed since the previous poll, in file order.
    pub groups: Vec<TailGroup>,
    /// `true` once a valid footer + trailer follows the final frame — the
    /// writer sealed the file; no further groups will appear.
    pub sealed: bool,
}

/// Tails a growing store, emitting each completed group once.
///
/// Safe to run concurrently with a writer on the same file:
/// frames are append-only and a frame is only surfaced once its header and
/// every chunk checksum validate, so a partially written tail is simply
/// not yet visible.
pub struct StoreFollower<R: Read + Seek> {
    inner: R,
    pos: u64,
    buses: Vec<Arc<str>>,
    sealed: bool,
}

impl StoreFollower<BufReader<File>> {
    /// Opens `path` for tailing from the first group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadMagic`] when the header is absent or wrong, and
    /// [`Error::Io`] on open failure.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        StoreFollower::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read + Seek> StoreFollower<R> {
    /// Wraps `inner` for tailing from the first group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadMagic`] when the header is absent or wrong.
    pub fn new(mut inner: R) -> Result<Self> {
        read_header(&mut inner)?;
        Ok(StoreFollower {
            inner,
            pos: MAGIC.len() as u64,
            buses: Vec::new(),
            sealed: false,
        })
    }

    /// Reads any groups completed since the previous poll.
    ///
    /// An in-progress tail frame is left for the next poll. Once the
    /// writer's seal is detected, [`TailBatch::sealed`] is `true` and
    /// subsequent polls return empty sealed batches.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on read failure, and [`Error::Format`] when a
    /// *complete* frame fails validation (an appender never rewrites
    /// flushed bytes, so this is real corruption, not a race) or when the
    /// file is sealed without group frames (written before they existed).
    pub fn poll(&mut self) -> Result<TailBatch> {
        if self.sealed {
            return Ok(TailBatch {
                groups: Vec::new(),
                sealed: true,
            });
        }
        let file_len = self.inner.seek(SeekFrom::End(0))?;
        let mut out = TailBatch::default();
        loop {
            match read_frame(&mut self.inner, self.pos, file_len, &mut self.buses)? {
                FrameRead::Complete {
                    frame,
                    mut records,
                    end,
                } => {
                    records.sort_by_key(|r| r.index);
                    out.groups.push(TailGroup {
                        group: frame.group,
                        records: records.into_iter().map(|r| r.record).collect(),
                    });
                    self.pos = end;
                }
                FrameRead::Incomplete => break,
                FrameRead::NotAFrame => {
                    match read_seal(&mut self.inner, file_len) {
                        Ok((footer_offset, _)) if footer_offset == self.pos => {
                            self.sealed = true;
                            out.sealed = true;
                        }
                        Ok(_) => {
                            return Err(Error::Format(format!(
                                "no group frame at offset {}: the store was sealed \
                                 without group frames; rewrite it with `ivnt store \
                                 compact` to follow it",
                                self.pos
                            )));
                        }
                        Err(Error::Io(e)) => return Err(Error::Io(e)),
                        Err(_) => {} // the seal is still being written
                    }
                    break;
                }
                FrameRead::Corrupt(msg) => {
                    return Err(Error::Format(format!(
                        "corrupt group frame at offset {}: {msg}",
                        self.pos
                    )));
                }
            }
        }
        Ok(out)
    }
}

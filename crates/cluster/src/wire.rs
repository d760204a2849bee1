//! The length-prefixed binary wire protocol between coordinator and worker.
//!
//! Every frame on the socket is
//!
//! ```text
//! ┌────────────┬─────────────────┬──────────────────────┐
//! │ len u32 LE │ payload (len B) │ FNV-1a(payload) u64 LE│
//! └────────────┴─────────────────┴──────────────────────┘
//! ```
//!
//! and the payload is a one-byte message tag followed by a body encoded
//! with `ivnt-store`'s LEB128/zigzag codecs — the cluster deliberately
//! reuses the store's integer codec and checksum so a deployment has one
//! binary dialect to audit, not two. Floats ride as raw IEEE-754 bits
//! (`u64` LE), never as text: the acceptance criterion is *bit*-identical
//! merge output, and a decimal round-trip would quietly break it.
//!
//! Decoding is total: any byte sequence produces either a [`Message`] or a
//! typed [`Error`] ([`Error::FrameChecksum`], [`Error::Truncated`],
//! [`Error::Protocol`]) — never a panic and never an allocation sized by
//! unvalidated input beyond [`MAX_FRAME_LEN`].

use std::io::{Read, Write};

use ivnt_store::layout::checksum;
use ivnt_store::varint::{self, Cursor};

use crate::error::{Error, Result};
use crate::job::JobSpec;
use crate::plan::ShardTask;

/// Protocol revision; bumped on any incompatible frame or body change.
/// v3 is the only revision spoken: compressed streamed partial results
/// ([`Message::PartialResult`]/[`Message::TaskDone`]), straggler shard
/// truncation ([`Message::Truncate`]/[`Message::Truncated`]) and the
/// [`Message::MetricsRequest`]/[`Message::Metrics`] pair. The handshake
/// rejects a peer announcing any other revision with [`Error::Protocol`].
pub const WIRE_VERSION: u32 = 3;

/// Upper bound on a frame's payload length (64 MiB). A frame header
/// claiming more is rejected before any allocation happens.
pub const MAX_FRAME_LEN: u64 = 64 << 20;

/// Frame overhead in bytes: the `u32` length prefix plus the `u64`
/// trailing checksum.
pub const FRAME_OVERHEAD: usize = 4 + 8;

mod tag {
    pub const HELLO: u8 = 1;
    pub const JOB: u8 = 2;
    pub const ASSIGN: u8 = 3;
    pub const HEARTBEAT: u8 = 4;
    // 5 was the whole-shard result of wire v2; reserved, never reused.
    pub const TASK_ERROR: u8 = 6;
    pub const SHUTDOWN: u8 = 7;
    pub const METRICS_REQUEST: u8 = 8;
    pub const METRICS: u8 = 9;
    pub const PARTIAL_RESULT: u8 = 10;
    pub const TASK_DONE: u8 = 11;
    pub const TRUNCATE: u8 = 12;
    pub const TRUNCATED: u8 = 13;
}

/// Everything that crosses the coordinator↔worker socket.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Handshake, sent by both sides (coordinator first).
    Hello {
        /// Speaker's [`WIRE_VERSION`].
        version: u32,
        /// Human-readable peer name, for logs and liveness reports.
        peer: String,
    },
    /// Job preamble: everything a worker needs to rebuild the pipeline.
    Job {
        /// The job description.
        job: JobSpec,
        /// Interval at which the worker must emit [`Message::Heartbeat`].
        heartbeat_ms: u32,
    },
    /// One shard of work, coordinator → worker.
    Assign {
        /// The task to execute.
        task: ShardTask,
    },
    /// Periodic liveness beacon, worker → coordinator.
    Heartbeat {
        /// Task currently executing, or [`IDLE_TASK`] between tasks.
        task_id: u32,
        /// Monotonic per-connection sequence number.
        seq: u64,
    },
    /// Shard execution failed on the worker (the worker stays alive).
    TaskError {
        /// Id of the failed task.
        task_id: u32,
        /// Human-readable cause, reported into the coordinator's stats.
        message: String,
    },
    /// One streamed slice of a shard result, worker → coordinator.
    /// The worker emits one of these per row group as it
    /// finishes, so the coordinator's merge overlaps compute instead of
    /// waiting for the whole shard.
    PartialResult {
        /// Id of the task the slice belongs to.
        task_id: u32,
        /// 0-based position of this slice within the task. Slices are
        /// emitted in order but the merge accepts any arrival order.
        seq: u32,
        /// Store row group the slice covers — the coordinator's view of
        /// shard progress, which drives straggler splitting.
        group: u32,
        /// What the batches would have cost in the flat
        /// [`crate::codec::encode_batch`] encoding — the honest
        /// denominator of the compression ratio.
        raw_bytes: u64,
        /// Compressed encodings ([`crate::codec::encode_batch_compressed`])
        /// of the group's result batches; empty when the group was
        /// pruned inside the shard.
        batches: Vec<Vec<u8>>,
    },
    /// End of a streamed shard, worker → coordinator.
    TaskDone {
        /// Id of the finished task.
        task_id: u32,
        /// Number of [`Message::PartialResult`] frames the worker sent —
        /// the coordinator verifies none were lost.
        parts: u32,
        /// One past the last group actually executed (differs from the
        /// assigned range end after a [`Message::Truncate`]).
        group_end: u32,
    },
    /// Shrink a running shard's unfinished tail, coordinator → worker.
    /// Straggler handling: the tail is re-planned onto idle
    /// workers.
    Truncate {
        /// Id of the task to shrink.
        task_id: u32,
        /// Requested new end of the group range.
        group_end: u32,
    },
    /// The worker's answer to [`Message::Truncate`]: the boundary it
    /// will actually stop at (never before a group it already emitted).
    Truncated {
        /// Id of the shrunk task.
        task_id: u32,
        /// Effective new end of the group range.
        group_end: u32,
    },
    /// Orderly end of session, coordinator → worker.
    Shutdown,
    /// Ask the worker for its session metrics, coordinator → worker.
    MetricsRequest,
    /// The worker's [`ivnt_obs::Snapshot`] for this session, worker →
    /// coordinator; the coordinator merges these into one fleet view.
    /// Floats travel as raw IEEE-754 bits like everything else on this
    /// wire, so merged sums are reproducible.
    Metrics {
        /// Session-scoped metrics snapshot.
        snapshot: ivnt_obs::Snapshot,
    },
}

/// `task_id` a [`Message::Heartbeat`] carries while no task is running.
pub const IDLE_TASK: u32 = u32::MAX;

pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    varint::write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn read_str(cur: &mut Cursor<'_>) -> Result<String> {
    let len = cur.read_u64()?;
    if len > MAX_FRAME_LEN {
        return Err(Error::Protocol(format!("string of {len} bytes")));
    }
    let bytes = cur.read_slice(len as usize)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| Error::Protocol("string not UTF-8".into()))
}

pub(crate) fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    varint::write_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

pub(crate) fn read_bytes(cur: &mut Cursor<'_>) -> Result<Vec<u8>> {
    let len = cur.read_u64()?;
    if len > MAX_FRAME_LEN {
        return Err(Error::Protocol(format!("byte blob of {len} bytes")));
    }
    Ok(cur.read_slice(len as usize)?.to_vec())
}

fn write_f64_bits(out: &mut Vec<u8>, v: f64) {
    varint::write_f64_bits(out, v);
}

fn read_f64_bits(cur: &mut Cursor<'_>) -> Result<f64> {
    Ok(cur.read_f64_bits()?)
}

/// Bounded element-count read: metric maps are small, but the decoder
/// must never size an allocation from an unvalidated count.
fn read_count(cur: &mut Cursor<'_>, what: &str) -> Result<usize> {
    let n = cur.read_u64()?;
    if n > MAX_FRAME_LEN {
        return Err(Error::Protocol(format!("{n} {what}")));
    }
    Ok(n as usize)
}

fn write_snapshot(out: &mut Vec<u8>, snap: &ivnt_obs::Snapshot) {
    varint::write_u64(out, snap.counters.len() as u64);
    for (k, v) in &snap.counters {
        write_str(out, k);
        varint::write_u64(out, *v);
    }
    varint::write_u64(out, snap.gauges.len() as u64);
    for (k, v) in &snap.gauges {
        write_str(out, k);
        write_f64_bits(out, *v);
    }
    varint::write_u64(out, snap.histograms.len() as u64);
    for (k, h) in &snap.histograms {
        write_str(out, k);
        varint::write_u64(out, h.bounds.len() as u64);
        for b in &h.bounds {
            write_f64_bits(out, *b);
        }
        varint::write_u64(out, h.buckets.len() as u64);
        for b in &h.buckets {
            varint::write_u64(out, *b);
        }
        varint::write_u64(out, h.count);
        write_f64_bits(out, h.sum);
    }
    varint::write_u64(out, snap.spans.len() as u64);
    for (k, s) in &snap.spans {
        write_str(out, k);
        write_str(out, &s.name);
        write_str(out, &s.parent);
        varint::write_u64(out, s.count);
        write_f64_bits(out, s.seconds);
    }
}

fn read_snapshot(cur: &mut Cursor<'_>) -> Result<ivnt_obs::Snapshot> {
    let mut snap = ivnt_obs::Snapshot::default();
    for _ in 0..read_count(cur, "counters")? {
        let k = read_str(cur)?;
        let v = cur.read_u64()?;
        snap.counters.insert(k, v);
    }
    for _ in 0..read_count(cur, "gauges")? {
        let k = read_str(cur)?;
        let v = read_f64_bits(cur)?;
        snap.gauges.insert(k, v);
    }
    for _ in 0..read_count(cur, "histograms")? {
        let k = read_str(cur)?;
        let mut bounds = Vec::new();
        for _ in 0..read_count(cur, "histogram bounds")? {
            bounds.push(read_f64_bits(cur)?);
        }
        let mut buckets = Vec::new();
        for _ in 0..read_count(cur, "histogram buckets")? {
            buckets.push(cur.read_u64()?);
        }
        let count = cur.read_u64()?;
        let sum = read_f64_bits(cur)?;
        snap.histograms.insert(
            k,
            ivnt_obs::HistogramSnapshot {
                bounds,
                buckets,
                count,
                sum,
            },
        );
    }
    for _ in 0..read_count(cur, "spans")? {
        let k = read_str(cur)?;
        let name = read_str(cur)?;
        let parent = read_str(cur)?;
        let count = cur.read_u64()?;
        let seconds = read_f64_bits(cur)?;
        snap.spans.insert(
            k,
            ivnt_obs::SpanStat {
                name,
                parent,
                count,
                seconds,
            },
        );
    }
    Ok(snap)
}

/// Encodes `msg` into a frame payload (tag + body, no frame header).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        Message::Hello { version, peer } => {
            out.push(tag::HELLO);
            varint::write_u64(&mut out, u64::from(*version));
            write_str(&mut out, peer);
        }
        Message::Job { job, heartbeat_ms } => {
            out.push(tag::JOB);
            job.encode(&mut out);
            varint::write_u64(&mut out, u64::from(*heartbeat_ms));
        }
        Message::Assign { task } => {
            out.push(tag::ASSIGN);
            task.encode(&mut out);
        }
        Message::Heartbeat { task_id, seq } => {
            out.push(tag::HEARTBEAT);
            varint::write_u64(&mut out, u64::from(*task_id));
            varint::write_u64(&mut out, *seq);
        }
        Message::TaskError { task_id, message } => {
            out.push(tag::TASK_ERROR);
            varint::write_u64(&mut out, u64::from(*task_id));
            write_str(&mut out, message);
        }
        Message::PartialResult {
            task_id,
            seq,
            group,
            raw_bytes,
            batches,
        } => {
            out.push(tag::PARTIAL_RESULT);
            varint::write_u64(&mut out, u64::from(*task_id));
            varint::write_u64(&mut out, u64::from(*seq));
            varint::write_u64(&mut out, u64::from(*group));
            varint::write_u64(&mut out, *raw_bytes);
            varint::write_u64(&mut out, batches.len() as u64);
            for b in batches {
                write_bytes(&mut out, b);
            }
        }
        Message::TaskDone {
            task_id,
            parts,
            group_end,
        } => {
            out.push(tag::TASK_DONE);
            varint::write_u64(&mut out, u64::from(*task_id));
            varint::write_u64(&mut out, u64::from(*parts));
            varint::write_u64(&mut out, u64::from(*group_end));
        }
        Message::Truncate { task_id, group_end } => {
            out.push(tag::TRUNCATE);
            varint::write_u64(&mut out, u64::from(*task_id));
            varint::write_u64(&mut out, u64::from(*group_end));
        }
        Message::Truncated { task_id, group_end } => {
            out.push(tag::TRUNCATED);
            varint::write_u64(&mut out, u64::from(*task_id));
            varint::write_u64(&mut out, u64::from(*group_end));
        }
        Message::Shutdown => out.push(tag::SHUTDOWN),
        Message::MetricsRequest => out.push(tag::METRICS_REQUEST),
        Message::Metrics { snapshot } => {
            out.push(tag::METRICS);
            write_snapshot(&mut out, snapshot);
        }
    }
    out
}

fn read_u32_varint(cur: &mut Cursor<'_>, what: &str) -> Result<u32> {
    let v = cur.read_u64()?;
    u32::try_from(v).map_err(|_| Error::Protocol(format!("{what} {v} exceeds u32")))
}

/// Decodes a frame payload produced by [`encode_message`].
///
/// # Errors
///
/// Returns [`Error::Truncated`] when the payload ends early and
/// [`Error::Protocol`] for unknown tags, trailing garbage, or
/// out-of-range fields. Never panics.
pub fn decode_message(payload: &[u8]) -> Result<Message> {
    let mut cur = Cursor::new(payload);
    let tag = cur.read_u8()?;
    let msg = match tag {
        tag::HELLO => Message::Hello {
            version: read_u32_varint(&mut cur, "version")?,
            peer: read_str(&mut cur)?,
        },
        tag::JOB => Message::Job {
            job: JobSpec::decode(&mut cur)?,
            heartbeat_ms: read_u32_varint(&mut cur, "heartbeat interval")?,
        },
        tag::ASSIGN => Message::Assign {
            task: ShardTask::decode(&mut cur)?,
        },
        tag::HEARTBEAT => Message::Heartbeat {
            task_id: read_u32_varint(&mut cur, "task id")?,
            seq: cur.read_u64()?,
        },
        tag::TASK_ERROR => Message::TaskError {
            task_id: read_u32_varint(&mut cur, "task id")?,
            message: read_str(&mut cur)?,
        },
        tag::PARTIAL_RESULT => {
            let task_id = read_u32_varint(&mut cur, "task id")?;
            let seq = read_u32_varint(&mut cur, "partial seq")?;
            let group = read_u32_varint(&mut cur, "partial group")?;
            let raw_bytes = cur.read_u64()?;
            let n = cur.read_u64()?;
            if n > MAX_FRAME_LEN {
                return Err(Error::Protocol(format!("{n} partial batches")));
            }
            let mut batches = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                batches.push(read_bytes(&mut cur)?);
            }
            Message::PartialResult {
                task_id,
                seq,
                group,
                raw_bytes,
                batches,
            }
        }
        tag::TASK_DONE => Message::TaskDone {
            task_id: read_u32_varint(&mut cur, "task id")?,
            parts: read_u32_varint(&mut cur, "part count")?,
            group_end: read_u32_varint(&mut cur, "group end")?,
        },
        tag::TRUNCATE => Message::Truncate {
            task_id: read_u32_varint(&mut cur, "task id")?,
            group_end: read_u32_varint(&mut cur, "group end")?,
        },
        tag::TRUNCATED => Message::Truncated {
            task_id: read_u32_varint(&mut cur, "task id")?,
            group_end: read_u32_varint(&mut cur, "group end")?,
        },
        tag::SHUTDOWN => Message::Shutdown,
        tag::METRICS_REQUEST => Message::MetricsRequest,
        tag::METRICS => Message::Metrics {
            snapshot: read_snapshot(&mut cur)?,
        },
        other => return Err(Error::Protocol(format!("unknown message tag {other}"))),
    };
    if cur.remaining() != 0 {
        return Err(Error::Protocol(format!(
            "{} trailing bytes after message",
            cur.remaining()
        )));
    }
    Ok(msg)
}

/// Encodes `msg` as a complete frame: header, payload, checksum.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let payload = encode_message(msg);
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out
}

/// Writes one framed message and flushes.
///
/// # Errors
///
/// Returns [`Error::Io`] when the peer is gone.
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> Result<()> {
    w.write_all(&encode_frame(msg))?;
    w.flush()?;
    Ok(())
}

/// Reads one framed message, verifying length bound and checksum.
///
/// # Errors
///
/// [`Error::Truncated`] when the stream ends mid-frame (including an
/// orderly close between frames), [`Error::FrameTooLarge`] for an
/// oversized length prefix, [`Error::FrameChecksum`] when the payload
/// does not match its checksum, plus [`decode_message`]'s errors.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Message> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)
        .map_err(|e| truncated(e, "frame header"))?;
    let len = u64::from(u32::from_le_bytes(header));
    if len > MAX_FRAME_LEN {
        return Err(Error::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| truncated(e, "frame payload"))?;
    let mut sum = [0u8; 8];
    r.read_exact(&mut sum)
        .map_err(|e| truncated(e, "frame checksum"))?;
    if u64::from_le_bytes(sum) != checksum(&payload) {
        return Err(Error::FrameChecksum);
    }
    decode_message(&payload)
}

fn truncated(e: std::io::Error, what: &str) -> Error {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        Error::Truncated(what.into())
    } else {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let msg = Message::Heartbeat {
            task_id: 3,
            seq: 99,
        };
        let bytes = encode_frame(&msg);
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), msg);
    }

    #[test]
    fn metrics_snapshot_roundtrips_bit_exactly() {
        let registry = ivnt_obs::Registry::new();
        registry.add("cluster_tasks_total{result=\"ok\"}", 4);
        registry.set_gauge("store_scan_peak_rows_buffered", 123.456789);
        registry.observe("cluster_task_seconds", ivnt_obs::SECONDS_BUCKETS, 0.0123);
        registry.record_span("scan", "task", 0.25);
        let snapshot = registry.snapshot();
        let msg = Message::Metrics { snapshot };
        let bytes = encode_frame(&msg);
        let decoded = read_frame(&mut std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn metrics_request_roundtrips() {
        let bytes = encode_frame(&Message::MetricsRequest);
        let decoded = read_frame(&mut std::io::Cursor::new(bytes)).unwrap();
        assert_eq!(decoded, Message::MetricsRequest);
    }

    #[test]
    fn retired_tag_5_is_an_unknown_tag() {
        let err = decode_message(&[5, 0, 0]).unwrap_err();
        assert!(
            matches!(&err, Error::Protocol(m) if m == "unknown message tag 5"),
            "{err}"
        );
    }

    #[test]
    fn corrupt_payload_is_checksum_error() {
        let mut bytes = encode_frame(&Message::Shutdown);
        bytes[4] ^= 0xFF;
        let err = read_frame(&mut std::io::Cursor::new(bytes)).unwrap_err();
        assert!(matches!(err, Error::FrameChecksum));
    }

    #[test]
    fn oversized_header_rejected_before_allocation() {
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let err = read_frame(&mut std::io::Cursor::new(bytes)).unwrap_err();
        assert!(matches!(err, Error::FrameTooLarge(_)));
    }
}

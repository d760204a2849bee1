//! Coordinator checkpoints: completed shard results on disk.
//!
//! The coordinator appends one entry per completed task — its group
//! range plus the encoded result blobs — to a checkpoint file as the
//! run progresses. A coordinator restarted after a crash loads the
//! file, keeps every intact entry, and re-plans only the groups not
//! covered (see `plan_shards_filtered`), so already-merged work is
//! never re-fetched from a worker.
//!
//! The format mirrors the store's appendable log discipline: a magic +
//! job-fingerprint header, then length-prefixed checksummed entries.
//! Recovery is torn-tail tolerant — a truncated or corrupt trailing
//! entry (the crash was mid-append) is dropped, everything before it
//! survives. Resuming *rewrites* the file from the recovered entries
//! rather than appending past a torn tail; the rewrite goes through
//! [`ivnt_store::durable::replace`], so a crash during it keeps the old
//! file and the completed work in it.
//!
//! Every entry carries a format byte after its group range, always `1`:
//! the blobs are compressed batches
//! ([`crate::codec::decode_batch_compressed`]). The byte keeps files
//! written by earlier revisions readable; an intact entry whose byte is
//! anything else (`0` marked flat batches, no longer produced) fails the
//! resume with [`Error::Protocol`] instead of being silently dropped.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use ivnt_store::durable;
use ivnt_store::layout::checksum;
use ivnt_store::varint::{self, Cursor};

use crate::error::{Error, Result};
use crate::wire::MAX_FRAME_LEN;

/// File magic; the trailing digit is the checkpoint format revision.
const MAGIC: &[u8; 8] = b"IVNTCKP1";

/// The entry format byte: blobs are compressed batches.
const COMPRESSED: u8 = 1;

/// One completed task's merged-state contribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// First row group the entry covers.
    pub group_start: u32,
    /// One past the last row group the entry covers.
    pub group_end: u32,
    /// Compressed result batches
    /// ([`crate::codec::encode_batch_compressed`]) in group order.
    pub blobs: Vec<Vec<u8>>,
}

impl CheckpointEntry {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_u64(&mut out, u64::from(self.group_start));
        varint::write_u64(&mut out, u64::from(self.group_end));
        out.push(COMPRESSED);
        varint::write_u64(&mut out, self.blobs.len() as u64);
        for b in &self.blobs {
            varint::write_u64(&mut out, b.len() as u64);
            out.extend_from_slice(b);
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<CheckpointEntry> {
        let mut cur = Cursor::new(payload);
        let group_start = read_u32(&mut cur, "group start")?;
        let group_end = read_u32(&mut cur, "group end")?;
        if group_end < group_start {
            return Err(Error::Protocol(format!(
                "inverted checkpoint range {group_start}..{group_end}"
            )));
        }
        match cur.read_u8()? {
            COMPRESSED => {}
            other => {
                return Err(Error::Protocol(format!(
                    "checkpoint entry format byte {other} (only {COMPRESSED}, \
                     compressed batches, is read); delete the checkpoint to start over"
                )))
            }
        }
        let n = cur.read_u64()?;
        if n > MAX_FRAME_LEN {
            return Err(Error::Protocol(format!("{n} checkpoint blobs")));
        }
        let mut blobs = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            let len = cur.read_u64()?;
            if len > MAX_FRAME_LEN {
                return Err(Error::Protocol(format!("checkpoint blob of {len} bytes")));
            }
            blobs.push(cur.read_slice(len as usize)?.to_vec());
        }
        if cur.remaining() != 0 {
            return Err(Error::Protocol(format!(
                "{} trailing bytes in checkpoint entry",
                cur.remaining()
            )));
        }
        Ok(CheckpointEntry {
            group_start,
            group_end,
            blobs,
        })
    }
}

fn read_u32(cur: &mut Cursor<'_>, what: &str) -> Result<u32> {
    let v = cur.read_u64()?;
    u32::try_from(v).map_err(|_| Error::Protocol(format!("{what} {v} exceeds u32")))
}

/// An open checkpoint file the coordinator appends completed tasks to.
#[derive(Debug)]
pub struct Checkpoint {
    writer: BufWriter<File>,
    path: PathBuf,
}

impl Checkpoint {
    /// Opens the checkpoint of the job identified by `fingerprint`
    /// ([`crate::job::JobSpec::fingerprint`]) at `path`: loads whatever
    /// intact entries a previous coordinator left there, rewrites the
    /// file from them through [`durable::replace`] — a failure part-way
    /// keeps the old file and every entry in it — and returns it open
    /// for appending. A missing file means a fresh run (no entries).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Job`] when the file belongs to a different job
    /// or store state (fingerprint mismatch) — resuming would corrupt
    /// the merge — and [`Error::Io`] on filesystem failures.
    pub fn resume_or_create(
        path: impl AsRef<Path>,
        fingerprint: u64,
    ) -> Result<(Checkpoint, Vec<CheckpointEntry>)> {
        let path = path.as_ref();
        let entries = match load(path, fingerprint) {
            Ok(entries) => entries,
            Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        durable::replace(path, |w| {
            w.write_all(MAGIC)?;
            w.write_all(&fingerprint.to_le_bytes())?;
            entries.iter().try_for_each(|e| write_entry(w, e))
        })?;
        let writer = BufWriter::new(OpenOptions::new().append(true).open(path)?);
        let ckpt = Checkpoint {
            writer,
            path: path.to_path_buf(),
        };
        Ok((ckpt, entries))
    }

    /// Durably appends one completed task.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the write fails.
    pub fn append(&mut self, entry: &CheckpointEntry) -> Result<()> {
        write_entry(&mut self.writer, entry)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Deletes the checkpoint — the run completed, there is nothing to
    /// resume. Removal failure is not worth failing a finished job over.
    pub fn remove(self) {
        drop(self.writer);
        std::fs::remove_file(&self.path).ok();
    }
}

/// Writes one length-prefixed, checksummed entry.
fn write_entry(w: &mut impl Write, entry: &CheckpointEntry) -> std::io::Result<()> {
    let payload = entry.encode();
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload)?;
    w.write_all(&checksum(&payload).to_le_bytes())
}

/// Reads the intact prefix of a checkpoint file, dropping a torn tail.
/// An entry whose checksum holds but whose body does not decode is not
/// a torn tail; its error is returned.
fn load(path: &Path, fingerprint: u64) -> Result<Vec<CheckpointEntry>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
        // Header never even landed — treat like an absent checkpoint.
        return Ok(Vec::new());
    }
    let mut fp = [0u8; 8];
    fp.copy_from_slice(&bytes[MAGIC.len()..MAGIC.len() + 8]);
    if u64::from_le_bytes(fp) != fingerprint {
        return Err(Error::Job(format!(
            "checkpoint {} belongs to a different job or store state; \
             delete it to start over",
            path.display()
        )));
    }
    let mut entries = Vec::new();
    let mut pos = MAGIC.len() + 8;
    while let Some(header) = bytes.get(pos..pos + 4) {
        let len = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
        if len as u64 > MAX_FRAME_LEN {
            break;
        }
        let Some(payload) = bytes.get(pos + 4..pos + 4 + len) else {
            break;
        };
        let Some(sum) = bytes.get(pos + 4 + len..pos + 4 + len + 8) else {
            break;
        };
        if u64::from_le_bytes(sum.try_into().expect("8 bytes")) != checksum(payload) {
            break;
        }
        entries.push(CheckpointEntry::decode(payload)?);
        pos += 4 + len + 8;
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ivnt-ckpt-{tag}-{}-{tid:?}.bin",
            std::process::id(),
            tid = std::thread::current().id(),
        ))
    }

    fn entry(start: u32, end: u32) -> CheckpointEntry {
        CheckpointEntry {
            group_start: start,
            group_end: end,
            blobs: vec![vec![start as u8; 16], vec![end as u8; 9]],
        }
    }

    #[test]
    fn roundtrip_and_resume() {
        let path = temp_path("roundtrip");
        let (mut ckpt, recovered) = Checkpoint::resume_or_create(&path, 42).unwrap();
        assert!(recovered.is_empty());
        ckpt.append(&entry(0, 3)).unwrap();
        ckpt.append(&entry(3, 7)).unwrap();
        drop(ckpt);

        // The resumed file stays open for appending after the rewrite.
        let (mut ckpt, recovered) = Checkpoint::resume_or_create(&path, 42).unwrap();
        assert_eq!(recovered, vec![entry(0, 3), entry(3, 7)]);
        ckpt.append(&entry(7, 9)).unwrap();
        drop(ckpt);

        let (ckpt, recovered) = Checkpoint::resume_or_create(&path, 42).unwrap();
        assert_eq!(recovered, vec![entry(0, 3), entry(3, 7), entry(7, 9)]);
        ckpt.remove();
        assert!(!path.exists());
    }

    #[test]
    fn fingerprint_mismatch_refuses_to_resume() {
        let path = temp_path("fp");
        let (mut ckpt, _) = Checkpoint::resume_or_create(&path, 1).unwrap();
        ckpt.append(&entry(0, 2)).unwrap();
        drop(ckpt);
        assert!(matches!(
            Checkpoint::resume_or_create(&path, 2),
            Err(Error::Job(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = temp_path("torn");
        let (mut ckpt, _) = Checkpoint::resume_or_create(&path, 7).unwrap();
        ckpt.append(&entry(0, 2)).unwrap();
        ckpt.append(&entry(2, 5)).unwrap();
        drop(ckpt);
        // Crash mid-append: chop bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (ckpt, recovered) = Checkpoint::resume_or_create(&path, 7).unwrap();
        assert_eq!(recovered, vec![entry(0, 2)]);
        ckpt.remove();
    }

    #[test]
    fn corrupt_entry_stops_recovery_at_last_good_one() {
        let path = temp_path("corrupt");
        let (mut ckpt, _) = Checkpoint::resume_or_create(&path, 9).unwrap();
        ckpt.append(&entry(0, 2)).unwrap();
        ckpt.append(&entry(2, 5)).unwrap();
        drop(ckpt);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (ckpt, recovered) = Checkpoint::resume_or_create(&path, 9).unwrap();
        assert_eq!(recovered, vec![entry(0, 2)]);
        ckpt.remove();
    }
}

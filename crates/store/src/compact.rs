//! Store compaction: rewrite a sealed store into full-size row groups.
//!
//! Live-session ingest ([`AppendWriter`](crate::append::AppendWriter))
//! flushes a group frame per micro-batch for durability, so a long session
//! seals into a file of many *small* row groups. Small groups hurt readers
//! twice: the chunk index grows (more zone-map probes per scan) and
//! clustering only sorts within a group, so narrow groups barely separate
//! message ids and pruning stops firing. Compaction streams the sealed
//! file through a fresh [`StoreWriter`] in exact trace order, re-buffering
//! rows into full `chunks_per_group × chunk_rows` groups and re-clustering
//! each one — the rerun-style "merge many small batches" rewrite. The
//! output is framed like every file [`StoreWriter`] writes, so it can be
//! recovered and followed; the input may also be a store sealed before
//! group frames existed, which makes compaction the way to upgrade one.
//!
//! The rewritten file holds **bit-identical contents**: the same records
//! in the same trace order ([`StoreReader::read_all`] on input and output
//! agree), only the physical grouping changes. The output's
//! [`generation`](crate::layout::Footer::generation) restarts at its own
//! group count, so plan caches keyed on (generation, rows, chunk count)
//! treat the compacted file as a new store.

use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

use crate::durable;
use crate::error::{Error, Result};
use crate::reader::{Predicate, StoreReader};
use crate::writer::{StoreWriter, WriterOptions};

/// What a compaction did — group counts are the headline (the whole point
/// is `groups_after ≪ groups_before`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Rows rewritten (identical before and after).
    pub rows: u64,
    /// Row groups in the input store.
    pub groups_before: u32,
    /// Row groups in the rewritten store.
    pub groups_after: u32,
    /// Chunks in the input store's index.
    pub chunks_before: usize,
    /// Chunks in the rewritten store's index.
    pub chunks_after: usize,
}

/// Streams every record of `reader` (trace order) into a new store written
/// to `out` with `options`, returning the finished sink and a report.
///
/// # Errors
///
/// Propagates read-side corruption errors ([`Error::ChunkChecksum`]) and
/// write-side I/O errors.
pub fn compact<R: Read + Seek, W: Write>(
    reader: &mut StoreReader<R>,
    out: W,
    options: WriterOptions,
) -> Result<(W, CompactReport)> {
    let groups_before = reader.footer().groups;
    let chunks_before = reader.footer().chunks.len();
    let mut writer = StoreWriter::new(out, options)?;
    reader.scan::<Error, _>(&Predicate::all(), |group| {
        for r in &group {
            writer.append(r)?;
        }
        Ok(())
    })?;
    let rows = writer.rows();
    let out = writer.finish()?;
    // The writer cuts full groups of `group_rows` rows plus one partial
    // tail, and `chunk_rows` divides `group_rows`, so the output geometry
    // is exactly the ceiling division — no need to re-read the sink.
    let group_rows = options.group_rows().max(1) as u64;
    let chunk_rows = options.chunk_rows.max(1) as u64;
    let report = CompactReport {
        rows,
        groups_before,
        groups_after: rows.div_ceil(group_rows) as u32,
        chunks_before,
        chunks_after: rows.div_ceil(chunk_rows) as usize,
    };
    ivnt_obs::with(|obs| {
        obs.add("store_compactions_total", 1);
        obs.add("store_compact_rows_total", report.rows);
        obs.add(
            "store_compact_groups_merged_total",
            u64::from(report.groups_before.saturating_sub(report.groups_after)),
        );
    });
    Ok((out, report))
}

/// Opens the sealed store at `input`, compacts it, and writes the result
/// to `output` through [`durable::replace`]: an existing `output` is only
/// replaced once the compacted file is complete and synced. A symlinked
/// `output` is followed, so the link stays and its target is replaced.
///
/// # Errors
///
/// Same conditions as [`compact`], plus [`StoreReader::open`]'s validation
/// errors — an unsealed (torn or still growing) file must be sealed (e.g. with
/// [`seal_recovered`](crate::append::seal_recovered)) first. Refuses with
/// [`Error::Io`] (`InvalidInput`), before touching either file, when
/// `output` already exists as the very file `input` names (any alias:
/// `dir/../x`, a hard link) — truncating it would destroy the input —
/// or as anything but a regular file (a device, a directory, a dangling
/// symlink), which a rename would clobber instead of writing through.
pub fn compact_file<P: AsRef<Path>, Q: AsRef<Path>>(
    input: P,
    output: Q,
    options: WriterOptions,
) -> Result<CompactReport> {
    let (input, output) = (input.as_ref(), output.as_ref());
    if same_file(input, output) {
        return Err(invalid_output(output, "is the input file itself"));
    }
    let output = regular_target(output)?;
    let mut reader = StoreReader::open(input)?;
    durable::replace(output, |out| Ok(compact(&mut reader, out, options)?.1))
}

/// The path [`durable::replace`] may rename onto for `output`: `output`
/// itself when nothing is there, the symlink-resolved file when it is a
/// regular file, and a refusal for anything else.
fn regular_target(output: &Path) -> Result<PathBuf> {
    match std::fs::metadata(output) {
        Ok(m) if m.is_file() => Ok(output.canonicalize()?),
        Ok(_) => Err(invalid_output(output, "is not a regular file")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            if std::fs::symlink_metadata(output).is_ok() {
                Err(invalid_output(output, "is a dangling symlink"))
            } else {
                Ok(output.to_path_buf())
            }
        }
        Err(e) => Err(e.into()),
    }
}

fn invalid_output(output: &Path, why: &str) -> Error {
    Error::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("compaction output {} {why}", output.display()),
    ))
}

/// Whether `a` and `b` both exist and are one file — same device and
/// inode, so every path alias and hard link is caught.
fn same_file(a: &Path, b: &Path) -> bool {
    let (Ok(ma), Ok(mb)) = (std::fs::metadata(a), std::fs::metadata(b)) else {
        return false;
    };
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        ma.dev() == mb.dev() && ma.ino() == mb.ino()
    }
    #[cfg(not(unix))]
    {
        let _ = (ma, mb);
        matches!(
            (a.canonicalize(), b.canonicalize()),
            (Ok(ca), Ok(cb)) if ca == cb
        )
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ivnt_protocol::message::Protocol;

    use super::*;
    use crate::Record;

    const OPTIONS: WriterOptions = WriterOptions {
        chunk_rows: 16,
        chunks_per_group: 2,
        cluster: true,
    };

    /// A fresh directory holding a sealed 100-row store `x.ivns`.
    fn store_fixture(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("ivnt-compact-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let p = dir.join("x.ivns");
        let mut writer = StoreWriter::create(&p, OPTIONS).unwrap();
        let bus: Arc<str> = Arc::from("FC");
        for i in 0..100u64 {
            writer
                .append(&Record {
                    timestamp_us: i * 10,
                    bus: bus.clone(),
                    message_id: (i % 5) as u32,
                    payload: vec![i as u8; 4],
                    protocol: Protocol::Can,
                })
                .unwrap();
        }
        writer.finish().unwrap();
        (dir, p)
    }

    fn assert_invalid_input(err: &Error) {
        assert!(
            matches!(err, Error::Io(e) if e.kind() == std::io::ErrorKind::InvalidInput),
            "{err}"
        );
    }

    #[test]
    fn compacting_a_file_onto_itself_is_refused_and_leaves_it_intact() {
        let (dir, p) = store_fixture("self");
        let before = std::fs::read(&p).unwrap();

        let dotdot = dir.join("sub").join("..").join("x.ivns");
        let link = dir.join("hard-link.ivns");
        std::fs::hard_link(&p, &link).unwrap();
        for alias in [&p, &dotdot, &link] {
            let err = compact_file(&p, alias, OPTIONS).expect_err("self-compaction refused");
            assert_invalid_input(&err);
            assert_eq!(std::fs::read(&p).unwrap(), before, "input untouched");
        }

        // A distinct output still compacts.
        let out = dir.join("y.ivns");
        let report = compact_file(&p, &out, OPTIONS).unwrap();
        assert_eq!(report.rows, 100);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn symlinked_output_keeps_the_link_and_replaces_its_target() {
        let (dir, p) = store_fixture("symlink");
        let target = dir.join("sub").join("target.ivns");
        std::fs::write(&target, b"stale").unwrap();
        let link = dir.join("link.ivns");
        std::os::unix::fs::symlink(&target, &link).unwrap();

        let report = compact_file(&p, &link, OPTIONS).unwrap();
        assert_eq!(report.rows, 100);
        assert!(std::fs::symlink_metadata(&link).unwrap().is_symlink());
        let mut out = StoreReader::open(&target).unwrap();
        let mut input = StoreReader::open(&p).unwrap();
        assert_eq!(out.read_all().unwrap(), input.read_all().unwrap());

        // A link to nowhere is refused, and stays a link.
        let dangling = dir.join("dangling.ivns");
        std::os::unix::fs::symlink(dir.join("missing.ivns"), &dangling).unwrap();
        assert_invalid_input(&compact_file(&p, &dangling, OPTIONS).unwrap_err());
        assert!(std::fs::symlink_metadata(&dangling).unwrap().is_symlink());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_regular_output_is_refused_untouched() {
        let (dir, p) = store_fixture("special");
        let sub = dir.join("sub");
        assert_invalid_input(&compact_file(&p, &sub, OPTIONS).unwrap_err());
        assert!(sub.is_dir());
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileTypeExt;
            let null = Path::new("/dev/null");
            assert_invalid_input(&compact_file(&p, null, OPTIONS).unwrap_err());
            assert!(std::fs::metadata(null)
                .unwrap()
                .file_type()
                .is_char_device());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Crash-safe whole-file replacement.
//!
//! Every file the system rewrites (a compacted store, a resumed
//! checkpoint, a trace-store index) goes through [`replace`]: the new
//! contents land in a temporary file next to the target, are synced,
//! and only then renamed over it. A crash or I/O error at any point
//! leaves either the old file or the complete new one — never a
//! truncated mix — and a failed replacement removes its temporary file.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Replaces the file at `path` with the bytes `write` produces.
///
/// The closure writes into a buffered temporary file in `path`'s
/// directory. On success the temporary file is flushed and
/// `sync_data`-ed, renamed over `path`, and the directory is synced so
/// the rename itself survives a power cut. `path` need not exist yet.
///
/// # Errors
///
/// Returns the closure's error, or the I/O error of any step. On error
/// before the rename the temporary file is deleted and the file at
/// `path` is untouched.
pub fn replace<T, E>(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<T, E>,
) -> Result<T, E>
where
    E: From<io::Error>,
{
    let path = path.as_ref();
    let tmp = temp_path(path)?;
    // A file already under this name is debris: a live call never shares
    // its name, so it was left by a crashed process that had our PID.
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    let written = write_synced(file, write).and_then(|out| {
        fs::rename(&tmp, path)?;
        Ok(out)
    });
    let out = match written {
        Ok(out) => out,
        Err(e) => {
            fs::remove_file(&tmp).ok();
            return Err(e);
        }
    };
    sync_dir(path)?;
    Ok(out)
}

fn write_synced<T, E>(
    file: File,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<T, E>,
) -> Result<T, E>
where
    E: From<io::Error>,
{
    let mut w = BufWriter::new(file);
    let out = write(&mut w)?;
    let file = w.into_inner().map_err(io::IntoInnerError::into_error)?;
    file.sync_data()?;
    Ok(out)
}

/// Counter making each call's temporary name unique within the process.
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh sibling of `path`: `.<name>.<pid>.<n>.tmp`, unique among the
/// live calls on the host (the PID separates processes, `n` calls).
fn temp_path(path: &Path) -> io::Result<PathBuf> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        )
    })?;
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    Ok(path.with_file_name(format!(
        ".{}.{}.{n}.tmp",
        name.to_string_lossy(),
        std::process::id()
    )))
}

/// Syncs the directory holding `path`, making a rename into it durable.
#[cfg(unix)]
fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Directory handles cannot be synced portably off Unix; the rename is
/// still atomic.
#[cfg(not(unix))]
fn sync_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ivnt-durable-{tag}-{}-{tid:?}",
            std::process::id(),
            tid = std::thread::current().id(),
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn replaces_existing_and_creates_missing() {
        let dir = temp_dir("ok");
        let path = dir.join("index.txt");
        replace(&path, |w| w.write_all(b"first")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        let n = replace(&path, |w| w.write_all(b"second, longer").map(|()| 7)).unwrap();
        assert_eq!(n, 7);
        assert_eq!(fs::read(&path).unwrap(), b"second, longer");
        assert_eq!(entries(&dir), vec!["index.txt"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_write_leaves_original_and_no_temp_file() {
        let dir = temp_dir("fail");
        let path = dir.join("ckpt.bin");
        let original: Vec<u8> = (0..=255u8).cycle().take(100_000).collect();
        fs::write(&path, &original).unwrap();
        let err = replace(&path, |w| {
            // Fail halfway: more than the buffer's worth already written.
            w.write_all(&vec![0xAB; 50_000])?;
            Err::<(), _>(io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(fs::read(&path).unwrap(), original);
        assert_eq!(entries(&dir), vec!["ckpt.bin"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_temp_file_of_a_crashed_run_is_reused() {
        // A crashed process with this PID left temporary files under the
        // names the next calls will pick; they must not block `replace`.
        // The window covers every other `replace` in this test binary.
        let dir = temp_dir("stale");
        let path = dir.join("ckpt.bin");
        fs::write(&path, b"old").unwrap();
        let next = NEXT.load(Ordering::Relaxed);
        let stale: Vec<PathBuf> = (next..next + 64)
            .map(|n| dir.join(format!(".ckpt.bin.{}.{n}.tmp", std::process::id())))
            .collect();
        for p in &stale {
            fs::write(p, b"torn debris, longer than the new contents").unwrap();
        }
        replace(&path, |w| w.write_all(b"new")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");
        let left = stale.iter().filter(|p| p.exists()).count();
        assert_eq!(left, stale.len() - 1, "the reused name was renamed away");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_target_is_refused_without_leftovers() {
        let dir = temp_dir("dir");
        let sub = dir.join("sub");
        fs::create_dir(&sub).unwrap();
        assert!(replace(&sub, |w| w.write_all(b"x")).is_err());
        assert!(sub.is_dir());
        assert_eq!(entries(&dir), vec!["sub"]);
        fs::remove_dir_all(&dir).ok();
    }
}

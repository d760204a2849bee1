//! The workloads. Each is set up once per repetition (inputs, store
//! files, pipelines, workers and the reference output) and then answers
//! operations in a closed loop.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::compose::Fingerprint;
use crate::spans::Recorder;
use crate::Result;

mod cluster_2w;
mod live_append;
mod store_multi;

pub use cluster_2w::{worker_main, WORKER_ARG};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: &[&str] = &["store_multi", "cluster_2w", "live_append"];

/// Finishes an operation's check after its timing stopped: computes the
/// fingerprint of the output the operation produced.
pub type Deferred = Box<dyn FnOnce() -> Result<Fingerprint>>;

/// Per-layer counts, ratios and side timings of one traced operation.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one operation consumes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Input {
    /// Trace rows (store rows, or frames for `live_append`).
    pub rows: u64,
    /// Input bytes: the store file, or the raw trace records.
    pub bytes: u64,
}

/// A set-up workload.
pub trait Workload {
    /// What one operation consumes.
    fn input(&self) -> Input;

    /// Set-up seconds spent generating traces in the simulator.
    fn generate_secs(&self) -> f64;

    /// The tail percentile this workload reports. Fixed per workload so
    /// both sides of a comparison use the same one; chosen so a run of
    /// the benchmark's length leaves at least ten samples beyond it.
    fn tail_percentile(&self) -> f64;

    /// One operation through the user-facing entry point.
    ///
    /// # Errors
    ///
    /// Whatever the program returns.
    fn run(&mut self) -> Result<Deferred>;

    /// The reference every operation's fingerprint must equal.
    fn reference(&self) -> &Fingerprint;

    /// The same operation re-executed by composing the public layer
    /// calls in pipeline order, with a span around each call.
    ///
    /// # Errors
    ///
    /// Whatever the program returns.
    fn run_traced(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Result<Deferred>;

    /// Layer measurements taken beside the traced operation, outside its
    /// wall time (a reference path or a layer the operation's entry point
    /// hides).
    ///
    /// # Errors
    ///
    /// Whatever the program returns, or a mismatch with the reference.
    fn run_side(&mut self, _layers: &mut Layers) -> Result<()> {
        Ok(())
    }

    /// Resident-memory high-water mark, in KiB, of every process serving
    /// the workload.
    ///
    /// # Errors
    ///
    /// When `/proc` cannot be read.
    fn peak_rss_kib(&self) -> Result<u64> {
        vm_hwm_kib("self")
    }
}

/// Sets up workload `name` with inputs from `seed`, sized by `scale`,
/// keeping its files under `dir`.
///
/// # Errors
///
/// Unknown names and set-up failures.
pub fn setup(name: &str, seed: u64, scale: f64, dir: &Path) -> Result<Box<dyn Workload>> {
    Ok(match name {
        "store_multi" => Box::new(store_multi::StoreMulti::setup(seed, scale, dir)?),
        "cluster_2w" => Box::new(cluster_2w::Cluster2w::setup(seed, scale, dir)?),
        "live_append" => Box::new(live_append::LiveAppend::setup(seed, scale, dir)?),
        other => return Err(format!("unknown workload {other:?} (one of {NAMES:?})").into()),
    })
}

/// Rows a workload at `scale` is sized to, never below a small floor.
fn scaled(rows: usize, scale: f64) -> usize {
    ((rows as f64 * scale) as usize).max(2_000)
}

/// `VmHWM` of `/proc/<pid>/status` in KiB (`pid` may be `self`).
///
/// # Errors
///
/// When the file cannot be read or has no `VmHWM` line.
pub fn vm_hwm_kib(pid: &str) -> Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status").into())
}

/// Directory holding the benchmark's temporary files, inside the
/// directory the benchmark runs from.
const TMP_ROOT: &str = ".perfbench_tmp";

/// A private temporary directory, removed with everything in it on drop
/// (normal exit, error return or panic unwinding).
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `.perfbench_tmp/<pid>` under the current directory, first
    /// removing directories left by benchmark processes that no longer
    /// exist (a run killed outright cannot clean up after itself).
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn create() -> Result<TempDir> {
        let root = std::env::current_dir()?.join(TMP_ROOT);
        std::fs::create_dir_all(&root)?;
        for entry in std::fs::read_dir(&root)? {
            let entry = entry?;
            let name = entry.file_name();
            let alive = name
                .to_str()
                .and_then(|n| n.parse::<u32>().ok())
                .is_some_and(|pid| Path::new(&format!("/proc/{pid}")).exists());
            if !alive {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let path = root.join(std::process::id().to_string());
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty root behind either; fails harmlessly while
        // another run still owns a directory in it.
        if let Some(root) = self.path.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

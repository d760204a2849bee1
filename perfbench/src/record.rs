//! The run record printed with every result, so numbers from different
//! machines, toolchains or code are never mixed up.

use std::path::{Path, PathBuf};

use crate::json::quote;

/// Facts about the machine and the code a run measured.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Cores the process may use.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// `HEAD` commit when run from a git work tree, else `unknown`.
    pub git_commit: String,
    /// FNV-1a over the workspace's source files and manifests: names the
    /// code even where there is no git metadata.
    pub source_fnv: String,
}

impl Environment {
    /// Collects the facts from the current directory (the repository
    /// root) and the toolchain on `PATH`.
    pub fn collect() -> Environment {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc,
            git_commit: git_head(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            source_fnv: format!("{:016x}", source_fnv(Path::new("."))),
        }
    }
}

/// Resolves `HEAD` by reading the git directory itself (no `git` process,
/// nothing read outside it).
fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
}

/// Source trees and manifests that make up the measured program.
const SOURCES: &[&str] = &[
    "Cargo.toml",
    "Cargo.lock",
    "src",
    "crates",
    "vendored",
    "perfbench/Cargo.toml",
    "perfbench/src",
];

fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n != "target") {
                collect_files(&p, out);
            }
        }
    }
}

/// FNV-1a over the relative path and bytes of every source file under
/// `root`, in sorted path order.
pub fn source_fnv(root: &Path) -> u64 {
    let mut files = Vec::new();
    for s in SOURCES {
        collect_files(&root.join(s), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

/// One workload run's record, printed as a JSON line.
#[derive(Debug, Clone)]
pub struct RunRecord<'a> {
    /// Machine and code.
    pub env: &'a Environment,
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Input-size multiplier.
    pub scale: f64,
    /// Whether tracing was on.
    pub trace: bool,
    /// Trace rows per operation.
    pub input_rows: u64,
    /// Input bytes per operation.
    pub input_bytes: u64,
    /// Tail percentile reported as `latency_tail_ms`.
    pub tail_percentile: f64,
    /// Samples beyond that percentile in this run.
    pub tail_samples_beyond: usize,
    /// Timed untraced operations.
    pub timed_ops: usize,
    /// Failed over attempted operations.
    pub error_rate: f64,
    /// Set-ups performed (`setup_s` is their median).
    pub setups: usize,
}

impl RunRecord<'_> {
    /// The record as one JSON object line.
    pub fn to_json(&self) -> String {
        let e = self.env;
        format!(
            "{{\"run_record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"scale\": {}, \
             \"trace\": {}, \"nproc\": {}, \"rustc\": {}, \"git_commit\": {}, \
             \"source_fnv\": {}, \"input_rows\": {}, \"input_bytes\": {}, \
             \"tail_percentile\": {}, \"tail_samples_beyond\": {}, \"timed_ops\": {}, \
             \"error_rate\": {}, \"setups\": {}}}}}",
            quote(self.workload),
            self.seed,
            self.seconds,
            self.scale,
            self.trace,
            e.nproc,
            quote(&e.rustc),
            quote(&e.git_commit),
            quote(&e.source_fnv),
            self.input_rows,
            self.input_bytes,
            self.tail_percentile,
            self.tail_samples_beyond,
            self.timed_ops,
            self.error_rate,
            self.setups,
        )
    }
}

//! Local-mode workers: the current binary re-spawned as subprocesses.
//!
//! `ivnt cluster run --local N` (and CI) does not want pre-started
//! remote daemons; it spawns N copies of its own executable in worker
//! mode on ephemeral loopback ports. Each child prints a single
//! [`crate::worker::LISTEN_PREFIX`] line on stdout once
//! bound; the parent parses the address from it, so there is no port
//! race. Faults can be armed per child index — that is how the smoke
//! test kills exactly one of its workers mid-run.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

use crate::error::{Error, Result};
use crate::worker::{FAULT_ENV, LISTEN_PREFIX};

/// Environment variable for arming faults on *local* workers by index:
/// `"IDX:fault[,fault]"` entries joined by `;`, e.g. `0:kill-mid-task`.
pub const FAULT_LOCAL_ENV: &str = "IVNT_CLUSTER_FAULT_LOCAL";

/// How to spawn one local worker process.
#[derive(Debug, Clone)]
pub struct LocalSpawnSpec {
    /// Executable to run (usually `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Arguments that put the executable into worker mode on an
    /// ephemeral loopback port, printing the listen line.
    pub args: Vec<String>,
}

/// A running local worker; killed and reaped on drop.
#[derive(Debug)]
pub struct LocalWorkerHandle {
    child: Child,
    stdout: Option<ChildStdout>,
    addr: String,
}

impl LocalWorkerHandle {
    /// The worker's loopback address, parsed from its listen line.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The worker's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for LocalWorkerHandle {
    fn drop(&mut self) {
        // Keep stdout open until here so the child never hits a broken
        // pipe, then reap to avoid zombies.
        let _ = self.child.kill();
        let _ = self.child.wait();
        drop(self.stdout.take());
    }
}

/// Parses a [`FAULT_LOCAL_ENV`]-style string into an index→faults map.
///
/// # Errors
///
/// Returns [`Error::Job`] for entries not of the form `IDX:faults`.
pub fn parse_local_faults(s: &str) -> Result<HashMap<usize, String>> {
    let mut map = HashMap::new();
    for entry in s.split(';').map(str::trim).filter(|e| !e.is_empty()) {
        let (idx, faults) = entry
            .split_once(':')
            .ok_or_else(|| Error::Job(format!("bad fault entry {entry:?} (want IDX:faults)")))?;
        let idx: usize = idx
            .trim()
            .parse()
            .map_err(|_| Error::Job(format!("bad worker index in fault entry {entry:?}")))?;
        // Validate fault names eagerly so typos fail the run, not the child.
        crate::worker::WorkerFaults::parse(faults)?;
        map.insert(idx, faults.trim().to_string());
    }
    Ok(map)
}

/// Reads the fault map from [`FAULT_LOCAL_ENV`]; unset means no faults.
///
/// # Errors
///
/// Returns [`Error::Job`] when the variable is set but malformed.
pub fn local_faults_from_env() -> Result<HashMap<usize, String>> {
    match std::env::var(FAULT_LOCAL_ENV) {
        Ok(v) => parse_local_faults(&v),
        Err(_) => Ok(HashMap::new()),
    }
}

/// Spawns `n` local workers, waiting for each to report its address.
///
/// # Errors
///
/// Returns [`Error::Io`] when a child cannot be spawned and
/// [`Error::Job`] when a child exits or prints garbage instead of its
/// listen line.
pub fn spawn_local_workers(
    spec: &LocalSpawnSpec,
    n: usize,
    faults: &HashMap<usize, String>,
) -> Result<Vec<LocalWorkerHandle>> {
    let mut workers = Vec::with_capacity(n);
    for idx in 0..n {
        let mut cmd = Command::new(&spec.exe);
        cmd.args(&spec.args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            // Children must not re-read the parent's fault settings.
            .env_remove(FAULT_ENV)
            .env_remove(FAULT_LOCAL_ENV);
        if let Some(f) = faults.get(&idx) {
            cmd.env(FAULT_ENV, f);
        }
        let mut child = cmd.spawn()?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let addr = match read_listen_line(&mut stdout) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        workers.push(LocalWorkerHandle {
            child,
            stdout: Some(stdout),
            addr,
        });
    }
    Ok(workers)
}

fn read_listen_line(stdout: &mut ChildStdout) -> Result<String> {
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    line.trim_end()
        .strip_prefix(LISTEN_PREFIX)
        .map(str::to_string)
        .filter(|a| !a.is_empty())
        .ok_or_else(|| {
            Error::Job(format!(
                "worker did not report its address (got {:?})",
                line.trim_end()
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_map_parses_and_validates() {
        let map = parse_local_faults("0:kill-mid-task; 2:corrupt-result,stall-heartbeat").unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map[&0], "kill-mid-task");
        assert_eq!(map[&2], "corrupt-result,stall-heartbeat");
        assert!(parse_local_faults("").unwrap().is_empty());
        assert!(parse_local_faults("nope").is_err());
        assert!(parse_local_faults("x:kill-mid-task").is_err());
        assert!(parse_local_faults("1:warp-core-breach").is_err());
    }
}

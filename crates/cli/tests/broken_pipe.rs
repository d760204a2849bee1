//! A reader that closes the pipe early (`ivnt inspect t.ivns | head -1`)
//! ends the command cleanly: exit 0, no panic backtrace on stderr.

use std::process::{Command, Stdio};

fn ivnt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ivnt"))
}

#[test]
fn closed_stdout_is_a_clean_exit() {
    let store = std::env::temp_dir().join(format!("ivnt-cli-pipe-{}.ivns", std::process::id()));
    let out = ivnt()
        .args(["store", "ingest", "--scenario", "syn", "--seed", "7"])
        .args(["--examples", "2000"])
        .arg(&store)
        .output()
        .expect("ingest runs");
    assert!(
        out.status.success(),
        "ingest failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // `inspect`'s statistics and `run`'s state table, each with its
    // stdout read end closed before it writes anything.
    for args in [
        &["inspect"][..],
        &["run", "--scenario", "syn", "--seed", "7"],
    ] {
        let mut child = ivnt()
            .args(args)
            .arg(&store)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(store);
}

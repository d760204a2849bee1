//! The benchmark's own smoke test: at a tiny input size every workload
//! completes with no failed operation, in both modes, and emits exactly
//! the metric names (and units) `BENCHMARK.json` lists.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::json::{parse, Value};
use perfbench::workloads::NAMES;

/// The repository root, where the benchmark is run from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = doc
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect();
    out.sort();
    out
}

/// Runs one tiny workload and returns its parsed last stdout line.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.3"])
        .args(["--trace", trace, "--scale", "0.02"])
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"))
}

#[test]
fn every_workload_is_correct_and_emits_the_listed_metrics() {
    let doc = parse(
        &std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let listed_workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(listed_workloads, NAMES);

    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = listed(&doc, key);
        for &workload in NAMES {
            let result = run(workload, trace);
            let keys: Vec<&str> = result
                .as_object()
                .expect("object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
            let mut emitted: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(Value::as_f64).expect("value");
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Value::as_str).expect("unit").into(),
                    )
                })
                .collect();
            emitted.sort();
            assert_eq!(emitted, expected, "{workload} --trace {trace}");
        }
    }
    assert!(
        !repo_root().join(".perfbench_tmp").exists(),
        "temporary files left behind"
    );
}

#[test]
fn a_bad_command_line_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no_such_workload"])
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

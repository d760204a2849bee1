#!/usr/bin/env bash
# Local twin of .github/workflows/ci.yml, plus the tier-1 gate from
# ROADMAP.md. Run before pushing.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: cargo doc --workspace --no-deps --lib (warnings are errors)"
# The vendored proptest stub is excluded (it carries its own warnings);
# --lib sidesteps the ivnt lib/bin doc output-name collision.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --exclude proptest

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> AddressSanitizer over the unsafe code (nightly)"
# exec.rs (worker pool, write-once slots) and interpret.rs (vectorized
# kernel) hold the workspace's only unsafe blocks; run their crates' tests
# with ASan. --target keeps build scripts and proc macros unsanitized;
# RUSTDOCFLAGS sanitizes the doctests too, which otherwise fail to link.
asan() {
  CARGO_TARGET_DIR=target/asan RUSTFLAGS=-Zsanitizer=address RUSTDOCFLAGS=-Zsanitizer=address \
    cargo +nightly test --offline --target x86_64-unknown-linux-gnu -q "$@"
}
asan -p ivnt-frame
asan -p ivnt-core --lib interpret
asan -p ivnt-core --test interpret_equivalence

echo "==> perfbench smoke (the repo benchmark builds and runs at tiny scale)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> store_probe smoke (zone-map pushdown gate)"
# Small workload; fails if chunk skipping degenerates below the gate.
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_STORE_MIN_SKIP="${IVNT_STORE_MIN_SKIP:-0.5}" \
  cargo run --release -q -p ivnt-bench --bin store_probe

echo "==> cluster_scale smoke (distributed bit-identity + speedup + wire compression gates)"
# 1 vs N subprocess workers; every run is checked bit-identical to the
# single-process extraction, N workers must not lose to 1 (and must beat
# the single process when the machine has the cores — both speed gates
# are report-only when cores < workers), compressed v3 result streaming
# must shrink wire bytes by IVNT_CLUSTER_MIN_WIRE_RATIO (always enforced),
# and a straggler-slowed worker plus a coordinator restart from its
# checkpoint are exercised inline, both asserted bit-identical.
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_CLUSTER_MIN_SPEEDUP="${IVNT_CLUSTER_MIN_SPEEDUP:-1.0}" \
IVNT_CLUSTER_MIN_SP_SPEEDUP="${IVNT_CLUSTER_MIN_SP_SPEEDUP:-1.0}" \
IVNT_CLUSTER_MIN_WIRE_RATIO="${IVNT_CLUSTER_MIN_WIRE_RATIO:-3.0}" \
  cargo run --release -q -p ivnt-bench --bin cluster_scale

echo "==> coordinator-restart smoke (checkpointed resume, bit-identity)"
# The restart fault is also covered inside cluster_scale; this runs the
# dedicated integration tests so the smoke stays meaningful even when
# someone trims the bench.
cargo test --release -q -p ivnt-cluster --test cluster_restart

echo "==> speed_probe smoke (vectorized interpret kernel gate)"
# The batch-columnar interpret kernel must beat the retained scalar fused
# path; bit-identity of all three interpretation paths is asserted inline.
# Core-aware: on machines with fewer cores than partitions the gate relaxes
# to parity inside the probe.
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_INTERPRET_MIN_SPEEDUP="${IVNT_INTERPRET_MIN_SPEEDUP:-1.2}" \
  cargo run --release -q -p ivnt-bench --bin speed_probe

echo "==> pipeline_e2e smoke (parallel bit-identity + SWAB kernel + obs overhead gates)"
# Serial vs parallel Algorithm 1; every parallel run is checked
# bit-identical to the serial reference, the heap SWAB kernel must beat the
# naive O(n²) reference, and (when BENCH_seed.json is present, on a machine
# with cores >= workers) the end-to-end time must beat the seed baseline
# while the disabled-subscriber obs hooks stay within IVNT_OBS_MAX_OVERHEAD
# of it (report-only when cores < workers, like the speedup gate).
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_SWAB_MIN_SPEEDUP="${IVNT_SWAB_MIN_SPEEDUP:-1.0}" \
IVNT_PIPELINE_MIN_SPEEDUP="${IVNT_PIPELINE_MIN_SPEEDUP:-1.0}" \
IVNT_OBS_MAX_OVERHEAD="${IVNT_OBS_MAX_OVERHEAD:-0.02}" \
  cargo run --release -q -p ivnt-bench --bin pipeline_e2e

echo "==> stream_ingest smoke (streaming bit-identity + kill-mid-stream recovery + throughput gate)"
# Live ingest into the appendable store, the incremental pipeline checked
# bit-identical to the batch path, a kill-mid-stream child asserted
# recoverable, and sustained ingest gated at IVNT_STREAM_MIN_THROUGHPUT.
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_STREAM_MIN_THROUGHPUT="${IVNT_STREAM_MIN_THROUGHPUT:-10000}" \
  cargo run --release -q -p ivnt-bench --bin stream_ingest

echo "==> plan_probe smoke (multi-query shared-scan bit-identity + speedup gate)"
# N concurrent domains from one shared store pass; every shared answer is
# checked bit-identical to its solo session inline, and 4 shared domains
# must beat 4 sequential sessions by IVNT_PLAN_MIN_SPEEDUP on one core.
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_PLAN_MIN_SPEEDUP="${IVNT_PLAN_MIN_SPEEDUP:-1.5}" \
  cargo run --release -q -p ivnt-bench --bin plan_probe

echo "==> deprecation check (no deprecated surface, no escapes)"
# `clippy -D warnings --all-targets` above already fails the build on any
# call to a deprecated item; this grep keeps the intent visible and
# catches `#[allow(deprecated)]` escapes. There are no exemptions.
if grep -rn "allow(deprecated)" --include="*.rs" crates src tests examples scripts; then
  echo "error: allow(deprecated) in repo code" >&2
  exit 1
fi

echo "==> infer_probe smoke (DBC-less boundary recovery F1 + merged bit-identity gates)"
# Two-pass inference over the store for all three scenarios, scored
# against simulator ground truth; the worst per-scenario F1 must clear
# IVNT_INFER_MIN_F1, and the merged (authored ∪ inferred) catalog run is
# asserted bit-identical to the authored run inline.
IVNT_BENCH_SCALE="${IVNT_BENCH_SCALE:-0.25}" \
IVNT_INFER_MIN_F1="${IVNT_INFER_MIN_F1:-0.85}" \
  cargo run --release -q -p ivnt-bench --bin infer_probe

echo "all checks passed"

//! The closed loops: one client issuing the next operation only after the
//! previous one completed and was checked.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::metrics::{median, span_metric};
use crate::spans::{Recorder, SpanTable};
use crate::workloads::{Deferred, Layers, Workload};
use crate::Result;

/// Operations every loop runs at least, however long they take.
pub const MIN_OPS: usize = 3;

/// Outcome counts of a loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error, panicked, or whose output
    /// differed from the reference.
    pub failed: u64,
}

impl Counts {
    fn note(&mut self, outcome: std::result::Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            if self.failed == 0 {
                eprintln!("operation failed: {e}");
            }
            self.failed += 1;
        }
    }
}

/// Checks one operation's output against the workload's reference.
fn check(
    w: &dyn Workload,
    outcome: std::thread::Result<Result<Deferred>>,
) -> std::result::Result<(), String> {
    let deferred = match outcome {
        Ok(Ok(d)) => d,
        Ok(Err(e)) => return Err(e.to_string()),
        Err(_) => return Err("operation panicked".into()),
    };
    match catch_unwind(AssertUnwindSafe(deferred)) {
        Ok(Ok(fp)) if fp == *w.reference() => Ok(()),
        Ok(Ok(_)) => Err("output differs from the reference".into()),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("fingerprinting panicked".into()),
    }
}

/// Untraced closed loop over [`Workload::run`] for `seconds` (after one
/// checked warm-up operation, which is counted but not timed).
/// Returns each timed operation's latency in seconds.
pub fn closed_loop(w: &mut dyn Workload, seconds: f64, counts: &mut Counts) -> Vec<f64> {
    let warm = catch_unwind(AssertUnwindSafe(|| w.run()));
    counts.note(check(w, warm));
    let mut latencies = Vec::new();
    let start = Instant::now();
    while latencies.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| w.run()));
        latencies.push(t.elapsed().as_secs_f64());
        counts.note(check(w, outcome));
    }
    latencies
}

/// Result of the traced loop.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metric values of every traced operation.
    pub per_op: Vec<BTreeMap<String, f64>>,
    /// Wall seconds of every traced operation.
    pub walls: Vec<f64>,
    /// Span totals over all traced operations.
    pub table: SpanTable,
}

impl Traced {
    /// Median over operations of metric `name` (0 if never recorded).
    pub fn median(&self, name: &str) -> f64 {
        let values: Vec<f64> = self
            .per_op
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&values)
    }
}

/// Traced closed loop over [`Workload::run_traced`] for `seconds`, each
/// operation followed by its [`Workload::run_side`] measurements.
pub fn traced_loop(w: &mut dyn Workload, seconds: f64, counts: &mut Counts) -> Traced {
    let mut traced = Traced::default();
    let start = Instant::now();
    let mut ops = 0;
    while ops < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        ops += 1;
        let mut rec = Recorder::new();
        let mut layers = Layers::new();
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| w.run_traced(&mut rec, &mut layers)));
        let wall = t.elapsed().as_secs_f64();
        let mut result = check(w, outcome);
        if result.is_ok() {
            result = match catch_unwind(AssertUnwindSafe(|| w.run_side(&mut layers))) {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(e.to_string()),
                Err(_) => Err("side measurement panicked".into()),
            };
        }
        let ok = result.is_ok();
        counts.note(result);
        if !ok {
            continue;
        }
        let mut metrics: BTreeMap<String, f64> = rec
            .self_ms()
            .into_iter()
            .map(|(span, ms)| (span_metric(span), ms))
            .collect();
        metrics.extend(layers.into_iter().map(|(k, v)| (k.to_string(), v)));
        let unattributed = (1.0 - rec.covered_secs() / wall).max(0.0);
        metrics.insert("trace.unattributed_ratio".into(), unattributed);
        traced.table.add(&rec);
        traced.per_op.push(metrics);
        traced.walls.push(wall);
    }
    traced
}

//! Metric names, units and the statistics behind them. `BENCHMARK.json`
//! lists the same names; the smoke test holds the two in step.

/// End-to-end metrics as `(name, unit)`, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rows_per_s", "rows/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics as `(name, unit)`, reported by the traced run. A
/// `*_ms` / `*.ms` metric is the self time of the span of the same stem
/// (`interpret.kernel` → `interpret.kernel_ms`, `split` → `split.ms`),
/// summed over one operation; layers a workload never calls read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simulator.generate_s", "s"),
    ("tabular.convert_ms", "ms"),
    ("interpret.kernel_ms", "ms"),
    ("interpret.rows_in", "rows"),
    ("interpret.rows_out", "rows"),
    ("interpret.admit_ratio", "ratio"),
    ("store.scan_ms", "ms"),
    ("store.columnarize_ms", "ms"),
    ("store.chunks_scanned", "count"),
    ("store.skip_ratio", "ratio"),
    ("store.peak_rows_buffered", "rows"),
    ("plan.extract_ms", "ms"),
    ("plan.route_ms", "ms"),
    ("plan.groups_scanned", "count"),
    ("plan.scans_saved", "count"),
    ("plan.shared_interpret", "bool"),
    ("split.ms", "ms"),
    ("dedup.ms", "ms"),
    ("dedup.keep_ratio", "ratio"),
    ("reduce.ms", "ms"),
    ("reduce.keep_ratio", "ratio"),
    ("classify.ms", "ms"),
    ("branch.ms", "ms"),
    ("represent.merge_ms", "ms"),
    ("represent.state_ms", "ms"),
    ("cluster.job_ms", "ms"),
    ("cluster.single_process_ms", "ms"),
    ("cluster.overhead_ratio", "ratio"),
    ("cluster.wire_bytes_per_row", "B/row"),
    ("cluster.compression_ratio", "ratio"),
    ("cluster.partial_frames", "count"),
    ("cluster.retries", "count"),
    ("cluster.steals", "count"),
    ("cluster.splits", "count"),
    ("cluster.workers_lost", "count"),
    ("stream.ingest_ms", "ms"),
    ("stream.backpressure_waits", "count"),
    ("stream.peak_queue_depth", "count"),
    ("store.flushes", "count"),
    ("store.flush_ms", "ms"),
    ("store.seal_ms", "ms"),
    ("store.bytes_per_row", "B/row"),
    ("stream.session_ms", "ms"),
    ("stream.peak_buffered_rows", "rows"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The per-layer metric a span's self time is reported under.
pub fn span_metric(span: &str) -> String {
    if span.contains('.') {
        format!("{span}_ms")
    } else {
        format!("{span}.ms")
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `pct`-th percentile of `v`: the smallest sample with at
/// least `pct`% of the samples at or below it; 0 when empty.
pub fn percentile(v: &[f64], pct: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Samples above the nearest-rank `pct`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(percentile(&[], 90.0), 0.0);
        assert_eq!(span_metric("split"), "split.ms");
        assert_eq!(span_metric("store.scan"), "store.scan_ms");
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}

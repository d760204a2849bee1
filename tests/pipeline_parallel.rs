//! Tier-1 acceptance for the parallel branch pipeline: fanning the
//! per-signal work (dedup → reduce → extend → classify → branch) over the
//! worker pool must be bit-identical to the sequential reference path, for
//! any worker count. The exhaustive kernel-level equivalences live in
//! `crates/series/tests/`; this is the root-level contract, mirroring
//! `cluster_extraction.rs` for the distributed layer.

use ivnt::cluster::codec::encode_batch;
use ivnt::core::pipeline::PipelineOutput;
use ivnt::core::prelude::*;
use ivnt::simulator::prelude::*;

/// Metrics subscribers are process-wide, so a pipeline run in one test
/// would count into another test's registry. Every test holds this lock.
static OBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn dataset() -> GeneratedDataSet {
    generate(&DataSetSpec::syn().with_seed(23).with_target_examples(8_000)).expect("generate")
}

/// Re-encodes every output frame partition plus the per-signal metadata.
/// `timing` is measurement, not output, and is deliberately excluded.
fn fingerprint(output: &PipelineOutput) -> Vec<Vec<u8>> {
    let mut fp = Vec::new();
    for frame in [&output.extensions, &output.merged, &output.state] {
        fp.extend(frame.partitions().iter().map(encode_batch));
    }
    for s in &output.signals {
        fp.push(
            format!(
                "{} {:?} {} {:?} {:?} {} {}",
                s.signal,
                s.classification,
                s.representative_channel,
                s.corresponding_channels,
                s.mismatched_channels,
                s.rows_interpreted,
                s.rows_reduced
            )
            .into_bytes(),
        );
        fp.extend(s.frame.partitions().iter().map(encode_batch));
    }
    fp
}

/// A profile with extensions on two signals, so the rule-major extension
/// gather is exercised, not just the empty-frame fast path.
fn profile(data: &GeneratedDataSet, name: &str) -> DomainProfile {
    let mut signals: Vec<String> = RuleSet::from_network(&data.network)
        .rules()
        .iter()
        .map(|r| r.signal.clone())
        .collect();
    signals.sort();
    signals.dedup();
    let mut profile = DomainProfile::new(name);
    for signal in signals.iter().take(2) {
        profile = profile.with_extension(ExtensionRule::Gap {
            signal: signal.clone(),
            alias: format!("{signal}Gap"),
        });
    }
    profile
}

#[test]
fn parallel_pipeline_matches_serial_bit_for_bit() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let u_rel = RuleSet::from_network(&data.network);

    let serial = Pipeline::new(u_rel.clone(), profile(&data, "serial").with_workers(1))
        .expect("pipeline")
        .session(RunOptions::trace(&data.trace).serial())
        .run()
        .expect("run_serial");
    let expected = fingerprint(&serial);
    assert!(serial.merged.num_rows() > 0);
    assert!(serial.extensions.num_rows() > 0, "extensions exercised");

    for workers in [1usize, 2, 8] {
        let run = Pipeline::new(u_rel.clone(), profile(&data, "par").with_workers(workers))
            .expect("pipeline")
            .session(RunOptions::trace(&data.trace))
            .run()
            .expect("run");
        assert_eq!(
            fingerprint(&run),
            expected,
            "parallel output diverged at {workers} workers"
        );
    }
}

#[test]
fn one_worker_session_skips_the_scatter_machinery() {
    use ivnt::core::pipeline::RunOptions;
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let u_rel = RuleSet::from_network(&data.network);

    // `pipeline_scatter_total` is bumped exactly when the per-signal
    // fan-out goes through the executor. At 1 effective worker the session
    // must take the serial loop — a 1-worker pool is pure round-trip
    // overhead — while >=2 workers must still scatter.
    let mut scatters = Vec::new();
    for workers in [1usize, 2] {
        let pipeline = Pipeline::new(
            u_rel.clone(),
            profile(&data, "scatter").with_workers(workers),
        )
        .expect("pipeline");
        let registry = std::sync::Arc::new(ivnt::obs::Registry::new());
        pipeline
            .session(
                RunOptions::trace(&data.trace).with_subscriber(std::sync::Arc::clone(&registry)),
            )
            .run()
            .expect("run");
        let snapshot = registry.snapshot();
        scatters.push(
            snapshot
                .counters
                .get("pipeline_scatter_total")
                .copied()
                .unwrap_or(0),
        );
    }
    assert_eq!(scatters, vec![0, 1], "serial fast path at 1 worker only");
}

#[test]
fn timing_is_populated_but_not_part_of_the_output_contract() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let u_rel = RuleSet::from_network(&data.network);
    let output = Pipeline::new(u_rel, profile(&data, "timing").with_workers(2))
        .expect("pipeline")
        .session(RunOptions::trace(&data.trace))
        .run()
        .expect("run");
    let t = output.timing;
    assert!(t.total > 0.0);
    // Every stage ran on this workload, so every stage took some time.
    for (name, secs) in [
        ("interpret", t.interpret),
        ("split", t.split),
        ("dedup", t.dedup),
        ("reduce", t.reduce),
        ("classify", t.classify),
        ("branch", t.branch),
        ("merge", t.merge),
        ("state", t.state),
    ] {
        assert!(secs >= 0.0, "{name} negative");
    }
    assert!(t.total.is_finite());
}

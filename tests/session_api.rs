//! Contract of `Pipeline::session`, the pipeline's one entry point: the
//! parallel run and the parallel reduced extraction are bit-identical to
//! their `.serial()` references, a session
//! worker cap behaves like the profile's, store sources report scan
//! statistics and their row-group shards tile the whole-store
//! extraction, and installing an observability subscriber changes no
//! output bit.

use ivnt::cluster::codec::encode_batch;
use ivnt::core::dedup::Dedup;
use ivnt::core::pipeline::{PipelineOutput, RunOptions};
use ivnt::core::prelude::*;
use ivnt::simulator::prelude::*;
use ivnt::store::{StoreReader, StoreWriter, WriterOptions};

/// Metrics subscribers are process-wide, so a pipeline run in one test
/// would count into another test's registry. Every test holds this lock.
static OBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn dataset() -> GeneratedDataSet {
    generate(&DataSetSpec::syn().with_seed(41).with_target_examples(6_000)).expect("generate")
}

fn pipeline(data: &GeneratedDataSet, workers: Option<usize>) -> Pipeline {
    let u_rel = RuleSet::from_network(&data.network);
    let mut profile = DomainProfile::new("session-api");
    if let Some(w) = workers {
        profile = profile.with_workers(w);
    }
    Pipeline::new(u_rel, profile).expect("pipeline")
}

/// Re-encodes every output frame partition plus the per-signal metadata;
/// timing is measurement, not output, and is deliberately excluded.
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

fn frame_fp(frame: &ivnt::frame::frame::DataFrame) -> Vec<Vec<u8>> {
    frame.partitions().iter().map(encode_batch).collect()
}

fn reduced_fp(reduced: &[(SignalSequence, Dedup, usize)]) -> Vec<Vec<u8>> {
    let mut fp = Vec::new();
    for (seq, dedup, rows) in reduced {
        fp.push(
            format!(
                "{} {} {:?} {:?} {rows}",
                seq.signal, dedup.representative_channel, dedup.corresponding, dedup.mismatched
            )
            .into_bytes(),
        );
        fp.extend(frame_fp(&seq.frame));
        fp.extend(frame_fp(&dedup.representative.frame));
    }
    fp
}

#[test]
fn parallel_run_matches_serial_reference() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let p = pipeline(&data, Some(2));
    let parallel = fingerprint(
        &p.session(RunOptions::trace(&data.trace))
            .run()
            .expect("session run"),
    );
    let serial = fingerprint(
        &p.session(RunOptions::trace(&data.trace).serial())
            .run()
            .expect("session serial run"),
    );
    assert_eq!(parallel, serial, "parallel != serial reference");
}

#[test]
fn parallel_extract_reduced_matches_serial_reference() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let p = pipeline(&data, Some(2));
    let parallel = p
        .session(RunOptions::trace(&data.trace))
        .extract_reduced()
        .expect("session extract_reduced");
    let serial = p
        .session(RunOptions::trace(&data.trace).serial())
        .extract_reduced()
        .expect("session serial extract_reduced");
    assert!(!parallel.is_empty());
    assert_eq!(reduced_fp(&parallel), reduced_fp(&serial));
}

#[test]
fn session_with_workers_matches_profile_workers() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let via_profile = fingerprint(
        &pipeline(&data, Some(3))
            .session(RunOptions::trace(&data.trace))
            .run()
            .expect("profile run"),
    );
    let via_session = fingerprint(
        &pipeline(&data, None)
            .session(RunOptions::trace(&data.trace).with_workers(3))
            .run()
            .expect("session run"),
    );
    assert_eq!(via_session, via_profile);
}

#[test]
fn trace_sources_carry_no_scan_stats() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let p = pipeline(&data, Some(2));
    for opts in [
        RunOptions::trace(&data.trace),
        RunOptions::trace(&data.trace).without_preselection(),
    ] {
        let ex = p.session(opts).extract().expect("trace extract");
        assert!(ex.scan.is_none(), "trace sources carry no scan stats");
        assert!(ex.frame.num_rows() > 0);
    }
}

#[test]
fn store_sources_carry_scan_stats_and_shards_tile_the_store() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let p = pipeline(&data, Some(2));
    let path = std::env::temp_dir().join(format!("ivnt-session-api-{}.ivns", std::process::id()));
    let options = WriterOptions {
        chunk_rows: 128,
        chunks_per_group: 2,
        cluster: true,
    };
    let mut writer = StoreWriter::create(&path, options).expect("create store");
    for r in data.trace.records() {
        writer.append(r).expect("append");
    }
    writer.finish().expect("finish");

    let open = || StoreReader::open(&path).expect("open store");
    let groups = open().footer().groups;
    assert!(groups >= 2, "need multiple groups to shard");

    let whole = p
        .session(RunOptions::store(&mut open()))
        .extract()
        .expect("session store extract");
    let scan = whole.scan.expect("store sources carry scan stats");
    assert!(scan.chunks_scanned > 0 && scan.rows_emitted > 0);

    // The concatenation of every one-group shard, in group order,
    // reproduces the whole-store scan.
    let mut concatenated = Vec::new();
    for g in 0..groups {
        let shard = p
            .session(RunOptions::store_shard(&mut open(), g..g + 1))
            .extract()
            .expect("session shard");
        assert!(shard.scan.is_some(), "shard {g} carries scan stats");
        concatenated.extend(frame_fp(&shard.frame));
    }
    assert_eq!(
        concatenated,
        frame_fp(&whole.frame),
        "shards must tile the scan"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn subscriber_changes_no_output_bit_and_counters_are_deterministic() {
    let _obs = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let data = dataset();
    let p = pipeline(&data, Some(2));
    let bare = fingerprint(
        &p.session(RunOptions::trace(&data.trace))
            .run()
            .expect("bare run"),
    );

    let mut row_counters = Vec::new();
    for workers in [1usize, 2, 8] {
        let registry = std::sync::Arc::new(ivnt::obs::Registry::new());
        let run = p
            .session(
                RunOptions::trace(&data.trace)
                    .with_workers(workers)
                    .with_subscriber(std::sync::Arc::clone(&registry)),
            )
            .run()
            .expect("instrumented run");
        assert_eq!(
            fingerprint(&run),
            bare,
            "subscriber changed output at {workers} workers"
        );
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["pipeline_runs_total"], 1);
        let rows: Vec<(String, u64)> = snapshot
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("pipeline_rows_total"))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert!(!rows.is_empty(), "per-signal row counters recorded");
        row_counters.push(rows);
    }
    // The per-signal row counts — and their BTreeMap ordering — are
    // identical no matter how the fan-out was scheduled.
    assert_eq!(row_counters[0], row_counters[1]);
    assert_eq!(row_counters[0], row_counters[2]);
}

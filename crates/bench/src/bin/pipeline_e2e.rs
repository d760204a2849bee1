//! Machine-readable end-to-end probe of the parallel branch pipeline.
//!
//! Runs the full Algorithm 1 on the Table 6 vehicle workload twice — the
//! sequential reference path (`RunOptions::serial`) and the scatter/gather
//! path, both through `Pipeline::session(..).run()` — plus the O(n log n) heap SWAB kernel against its
//! retained O(n²) reference, and writes `BENCH_pipeline.json` following the
//! `speed_probe`/`cluster_scale` conventions. `IVNT_BENCH_SCALE` scales the
//! workload.
//!
//! Three invariants are checked, two of them gated:
//!
//! * every parallel run must be bit-identical to the serial reference
//!   (re-encoded partitions of extensions, merged, state and each signal
//!   frame) — always enforced;
//! * the heap `bottom_up` must produce exactly the naive segments and beat
//!   it by `IVNT_SWAB_MIN_SPEEDUP` (default 1.0) — always enforced, the
//!   algorithmic win does not need spare cores;
//! * when `BENCH_seed.json` carries a `seed_pipeline_e2e` baseline
//!   (`scripts/bench_seed_baseline.sh`), the parallel end-to-end time must
//!   beat it by `IVNT_PIPELINE_MIN_SPEEDUP` (default 1.0). Like the cluster
//!   gate this is report-only on a machine with fewer cores than workers,
//!   where the fan-out cannot pay off.

use std::time::Instant;

use ivnt_bench::{
    covered_fraction, env_f64, json_f64_after, median_secs, scale, select_signals_for_fraction,
    u_rel_with_hints,
};
use ivnt_cluster::codec::encode_batch;
use ivnt_core::pipeline::PipelineOutput;
use ivnt_core::prelude::*;
use ivnt_series::swab::{bottom_up, bottom_up_naive};

/// Re-encodes every output frame partition plus the per-signal metadata.
/// Timing is measurement, not output, and is deliberately excluded.
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

/// Deterministic noisy multi-regime series for the SWAB kernel bench —
/// xorshift noise over piecewise ramps, so merges happen at every scale.
fn swab_series(n: usize) -> Vec<f64> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let ramp = (i % 257) as f64 * 0.05;
            let level = ((i / 257) % 7) as f64 * 3.0;
            level + ramp + noise
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = (120_000.0 * scale()) as usize;
    let runs = 5;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = ivnt_frame::exec::default_workers();

    let data = ivnt_bench::vehicle_journey(target, 0)?;
    let trace_rows = data.trace.len();
    let u_rel = u_rel_with_hints(&data);
    let signals = select_signals_for_fraction(&data, 9, 0.027);
    let fraction = covered_fraction(&data, &signals);
    let selected: Vec<&str> = signals.iter().map(String::as_str).collect();
    let profile = DomainProfile::new("table6").with_signals(selected);
    let pipeline = Pipeline::new(u_rel.clone(), profile)?;

    eprintln!(
        "workload: {trace_rows} rows, 9/{} signals ({:.1}% of traffic), \
         {workers} workers on {cores} core(s), {runs} runs per point",
        u_rel.len(),
        fraction * 100.0
    );

    // Serial reference: the timing baseline and bit-identity oracle. The
    // initial untimed runs double as warmup for both paths.
    let expected = pipeline
        .session(RunOptions::trace(&data.trace).serial())
        .run()?;
    let expected_fp = fingerprint(&expected);
    let parallel = pipeline.session(RunOptions::trace(&data.trace)).run()?;
    assert_eq!(
        fingerprint(&parallel),
        expected_fp,
        "parallel pipeline diverged from the serial reference"
    );
    let timing = parallel.timing;

    // Serial and parallel runs are interleaved as pairs so machine drift
    // (thermal throttling, background load) hits both sides equally; the
    // speedup is the median of the per-pair ratios, not the ratio of two
    // medians taken minutes apart.
    let mut serial_times: Vec<f64> = Vec::with_capacity(runs);
    let mut parallel_times: Vec<f64> = Vec::with_capacity(runs);
    let mut sp_ratios: Vec<f64> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        pipeline
            .session(RunOptions::trace(&data.trace).serial())
            .run()
            .expect("serial run");
        let serial = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let run = pipeline
            .session(RunOptions::trace(&data.trace))
            .run()
            .expect("run");
        let parallel = t0.elapsed().as_secs_f64();
        assert_eq!(
            fingerprint(&run),
            expected_fp,
            "parallel pipeline diverged from the serial reference"
        );
        serial_times.push(serial);
        parallel_times.push(parallel);
        sp_ratios.push(serial / parallel);
    }
    serial_times.sort_by(f64::total_cmp);
    parallel_times.sort_by(f64::total_cmp);
    sp_ratios.sort_by(f64::total_cmp);
    let serial_secs = serial_times[serial_times.len() / 2];
    let parallel_secs = parallel_times[parallel_times.len() / 2];
    let parallel_speedup = sp_ratios[sp_ratios.len() / 2];

    // Observability cost, both sides of the subscriber branch:
    //  * `parallel_secs` above ran with NO subscriber — every hook is one
    //    relaxed load and a branch, the mode gated by IVNT_OBS_MAX_OVERHEAD;
    //  * the enabled side runs the same workload with a live registry,
    //    pricing the full counter/histogram/span path (report-only).
    // Disabled and enabled runs are interleaved as pairs after a shared
    // warmup, so machine drift (thermal, cache, background load) hits both
    // sides equally; the overhead is the median of the per-pair ratios,
    // floored at zero — a subscriber cannot make the run faster, so a
    // negative reading is noise by construction. One enabled run's snapshot
    // is embedded in the JSON so BENCH_pipeline carries the stage-level
    // breakdown.
    let obs_registry = std::sync::Arc::new(ivnt_obs::Registry::new());
    pipeline.session(RunOptions::trace(&data.trace)).run()?; // warmup, disabled
    {
        let _guard = ivnt_obs::install(std::sync::Arc::clone(&obs_registry));
        pipeline.session(RunOptions::trace(&data.trace)).run()?; // warmup, enabled
    }
    let mut pair_ratios: Vec<f64> = Vec::with_capacity(runs);
    let mut enabled_times: Vec<f64> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        pipeline
            .session(RunOptions::trace(&data.trace))
            .run()
            .expect("run");
        let disabled = t0.elapsed().as_secs_f64();
        let enabled = {
            let _guard = ivnt_obs::install(std::sync::Arc::clone(&obs_registry));
            let t0 = Instant::now();
            pipeline
                .session(RunOptions::trace(&data.trace))
                .run()
                .expect("run with subscriber");
            t0.elapsed().as_secs_f64()
        };
        pair_ratios.push(enabled / disabled);
        enabled_times.push(enabled);
    }
    pair_ratios.sort_by(f64::total_cmp);
    enabled_times.sort_by(f64::total_cmp);
    let obs_enabled_secs = enabled_times[enabled_times.len() / 2];
    let obs_enabled_overhead = (pair_ratios[pair_ratios.len() / 2] - 1.0).max(0.0);
    let obs_snapshot = {
        let registry = std::sync::Arc::new(ivnt_obs::Registry::new());
        let _guard = ivnt_obs::install(std::sync::Arc::clone(&registry));
        pipeline.session(RunOptions::trace(&data.trace)).run()?;
        registry.snapshot()
    };
    let obs_gate = env_f64("IVNT_OBS_MAX_OVERHEAD", 0.02);

    // SWAB kernel: heap vs naive on a large window — the O(n log n) vs
    // O(n²) comparison the per-signal workload is too small to show.
    let swab_n = ((8192.0 * scale()) as usize).max(256);
    let series = swab_series(swab_n);
    let budget = 2.0;
    let heap_segments = bottom_up(&series, budget);
    assert_eq!(
        heap_segments,
        bottom_up_naive(&series, budget),
        "heap bottom_up diverged from the naive reference"
    );
    let heap_secs = median_secs(3, || {
        bottom_up(&series, budget);
    });
    let naive_secs = median_secs(3, || {
        bottom_up_naive(&series, budget);
    });
    let swab_speedup = naive_secs / heap_secs;
    let swab_gate = env_f64("IVNT_SWAB_MIN_SPEEDUP", 1.0);

    // Seed comparison, when scripts/bench_seed_baseline.sh has run here.
    let seed_secs = std::fs::read_to_string("BENCH_seed.json")
        .ok()
        .and_then(|text| json_f64_after(&text, "seed_pipeline_e2e", "seconds"));
    let speedup_vs_seed = seed_secs.map(|s| s / parallel_secs);
    let pipeline_gate = env_f64("IVNT_PIPELINE_MIN_SPEEDUP", 1.0);
    // Fewer cores than workers: the fan-out physically cannot pay off and
    // timings are too noisy to gate on — report-only, like cluster_scale.
    // Bit-identity and the SWAB kernel gate stay enforced regardless.
    let gated = cores >= workers && speedup_vs_seed.is_some();
    let effective_gate = if gated { pipeline_gate } else { 0.0 };
    // Disabled-subscriber regression vs the seed: the cost of carrying the
    // obs hooks at all. Gated by IVNT_OBS_MAX_OVERHEAD under the same
    // cores >= workers rule; f64::INFINITY disarms it on small machines.
    let overhead_vs_seed = seed_secs.map(|s| parallel_secs / s - 1.0);
    let effective_obs_gate = if gated { obs_gate } else { f64::INFINITY };

    let seed_block = match (seed_secs, speedup_vs_seed) {
        (Some(secs), Some(speedup)) => format!(
            concat!(
                "  \"seed_baseline\": {{\n",
                "    \"source\": \"scripts/bench_seed_baseline.sh\",\n",
                "    \"seed_pipeline_e2e_secs\": {:.6},\n",
                "    \"speedup_vs_seed\": {:.3}\n",
                "  }},\n"
            ),
            secs, speedup
        ),
        _ => String::new(),
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{\n",
            "    \"trace_rows\": {},\n",
            "    \"signals_selected\": 9,\n",
            "    \"signals_total\": {},\n",
            "    \"traffic_fraction\": {:.4},\n",
            "    \"workers\": {},\n",
            "    \"cores\": {},\n",
            "    \"runs\": {}\n",
            "  }},\n",
            "  \"serial_seconds\": {:.6},\n",
            "  \"parallel_seconds\": {:.6},\n",
            "  \"parallel_vs_serial_speedup\": {:.3},\n",
            "  \"stage_seconds\": {{\n",
            "    \"interpret\": {:.6},\n",
            "    \"split\": {:.6},\n",
            "    \"dedup\": {:.6},\n",
            "    \"reduce\": {:.6},\n",
            "    \"extend\": {:.6},\n",
            "    \"classify\": {:.6},\n",
            "    \"branch\": {:.6},\n",
            "    \"merge\": {:.6},\n",
            "    \"state\": {:.6},\n",
            "    \"total_wall\": {:.6}\n",
            "  }},\n",
            "  \"swab_kernel\": {{\n",
            "    \"n\": {},\n",
            "    \"heap_seconds\": {:.6},\n",
            "    \"naive_seconds\": {:.6},\n",
            "    \"speedup\": {:.3},\n",
            "    \"min_speedup_gate\": {:.2}\n",
            "  }},\n",
            "{}",
            "  \"observability\": {{\n",
            "    \"disabled_seconds\": {:.6},\n",
            "    \"enabled_seconds\": {:.6},\n",
            "    \"enabled_overhead\": {:.4},\n",
            "{}",
            "    \"max_overhead_gate\": {:.4},\n",
            "    \"metrics\": {}\n",
            "  }},\n",
            "  \"scaling\": {{\n",
            "    \"min_speedup_gate\": {:.2},\n",
            "    \"effective_gate\": {:.2}\n",
            "  }}\n",
            "}}\n"
        ),
        trace_rows,
        u_rel.len(),
        fraction,
        workers,
        cores,
        runs,
        serial_secs,
        parallel_secs,
        parallel_speedup,
        timing.interpret,
        timing.split,
        timing.dedup,
        timing.reduce,
        timing.extend,
        timing.classify,
        timing.branch,
        timing.merge,
        timing.state,
        timing.total,
        swab_n,
        heap_secs,
        naive_secs,
        swab_speedup,
        swab_gate,
        seed_block,
        parallel_secs,
        obs_enabled_secs,
        obs_enabled_overhead,
        overhead_vs_seed
            .map(|o| format!("    \"overhead_vs_seed\": {o:.4},\n"))
            .unwrap_or_default(),
        obs_gate,
        obs_snapshot.to_json(),
        pipeline_gate,
        effective_gate,
    );
    std::fs::write("BENCH_pipeline.json", &json)?;

    println!(
        "serial   (reference)  {:>9.1} ms  {:>12.0} rows/s",
        serial_secs * 1e3,
        trace_rows as f64 / serial_secs
    );
    println!(
        "parallel ({workers} workers)  {:>9.1} ms  {:>12.0} rows/s",
        parallel_secs * 1e3,
        trace_rows as f64 / parallel_secs
    );
    println!("parallel vs serial: {parallel_speedup:.2}x; all runs bit-identical");
    println!(
        "obs: disabled {:.1} ms, subscriber enabled {:.1} ms ({:+.1}% when live; \
         disabled-path gate {:.1}% vs seed)",
        parallel_secs * 1e3,
        obs_enabled_secs * 1e3,
        obs_enabled_overhead * 100.0,
        obs_gate * 100.0
    );
    println!(
        "swab heap vs naive (n={swab_n}): {swab_speedup:.2}x \
         (heap {:.2} ms, naive {:.2} ms, gate {swab_gate:.2}x)",
        heap_secs * 1e3,
        naive_secs * 1e3
    );
    match speedup_vs_seed {
        Some(speedup) => {
            let gate_note = if gated {
                format!("gate {effective_gate:.2}x")
            } else {
                format!("report-only: {workers} workers on {cores} core(s) cannot scale")
            };
            println!("end-to-end vs seed: {speedup:.2}x ({gate_note})");
        }
        None => println!(
            "no seed_pipeline_e2e in BENCH_seed.json — run \
             scripts/bench_seed_baseline.sh for the seed comparison"
        ),
    }
    println!("wrote BENCH_pipeline.json");

    if swab_speedup < swab_gate {
        eprintln!("FAIL: swab heap speedup {swab_speedup:.2}x below gate {swab_gate:.2}x");
        std::process::exit(1);
    }
    if let Some(speedup) = speedup_vs_seed {
        if speedup < effective_gate {
            eprintln!(
                "FAIL: end-to-end speedup vs seed {speedup:.2}x below gate \
                 {effective_gate:.2}x"
            );
            std::process::exit(1);
        }
    }
    if let Some(overhead) = overhead_vs_seed {
        if overhead > effective_obs_gate {
            eprintln!(
                "FAIL: disabled-subscriber overhead vs seed {:.1}% above gate {:.1}%",
                overhead * 100.0,
                effective_obs_gate * 100.0
            );
            std::process::exit(1);
        }
    }
    Ok(())
}

//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! [--scale F]`: runs one closed-loop workload and prints, as its last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! A run record line precedes it; a readable summary goes to stderr.
//! Exits non-zero when any operation failed or differed from its
//! reference.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::args::Args;
use perfbench::json::{number, quote};
use perfbench::measure::{closed_loop, traced_loop, Counts};
use perfbench::metrics::{median, percentile, ratio, samples_beyond, END_TO_END, PER_LAYER};
use perfbench::record::{Environment, RunRecord};
use perfbench::workloads::{self, TempDir, Workload, NAMES};
use perfbench::Result;

/// Set-ups per run; `setup_s` is their median and the last one is kept.
const SETUPS: usize = 5;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(workloads::WORKER_ARG) {
        return match workloads::worker_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else if NAMES.contains(&args.workload.as_str()) {
        vec![args.workload.as_str()]
    } else {
        eprintln!(
            "unknown workload {:?} (one of {NAMES:?} or all)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let env = Environment::collect();
    let mut all_correct = true;
    for name in names {
        match run_workload(name, &args, &env) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// Sets up `name`, measures it, prints its run record and result line,
/// and reports whether every operation was correct.
fn run_workload(name: &str, args: &Args, env: &Environment) -> Result<bool> {
    // Declared before the workload so it is dropped after it: workers are
    // reaped and files closed before the directory goes.
    let tmp = TempDir::create()?;
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut generate_secs = Vec::with_capacity(SETUPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        // Tear the previous set-up down (workers, files) before the next.
        drop(workload.take());
        let t = Instant::now();
        let w = workloads::setup(name, args.seed, args.scale, tmp.path())?;
        setup_secs.push(t.elapsed().as_secs_f64());
        generate_secs.push(w.generate_secs());
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    let input = w.input();
    let tail_pct = w.tail_percentile();
    let mut counts = Counts::default();

    let (metrics, latencies) = if args.trace {
        // Untraced and traced halves in one process: their ratio is the
        // tracing overhead.
        let untraced = closed_loop(w.as_mut(), args.seconds / 2.0, &mut counts);
        let traced = traced_loop(w.as_mut(), args.seconds / 2.0, &mut counts);
        eprintln!(
            "{name}: spans per traced operation\n{}",
            traced.table.render()
        );
        let metrics = PER_LAYER
            .iter()
            .map(|&(n, unit)| Metric {
                name: n,
                unit,
                value: match n {
                    "simulator.generate_s" => median(&generate_secs),
                    "trace.overhead_ratio" => ratio(median(&traced.walls), median(&untraced)),
                    _ => traced.median(n),
                },
            })
            .collect::<Vec<_>>();
        (metrics, untraced)
    } else {
        let latencies = closed_loop(w.as_mut(), args.seconds, &mut counts);
        let busy: f64 = latencies.iter().sum();
        let ok_ops = latencies.len() as u64 - counts.failed.min(latencies.len() as u64);
        let peak_kib = w.peak_rss_kib()?;
        let metrics = END_TO_END
            .iter()
            .map(|&(n, unit)| Metric {
                name: n,
                unit,
                value: match n {
                    "throughput_rows_per_s" => ratio((input.rows * ok_ops) as f64, busy),
                    "latency_p50_ms" => median(&latencies) * 1e3,
                    "latency_tail_ms" => percentile(&latencies, tail_pct) * 1e3,
                    "peak_rss_mib" => peak_kib as f64 / 1024.0,
                    "setup_s" => median(&setup_secs),
                    other => unreachable!("unmeasured end-to-end metric {other}"),
                },
            })
            .collect::<Vec<_>>();
        (metrics, latencies)
    };
    drop(w);
    drop(tmp);

    let correct = counts.failed == 0;
    let error_rate = ratio(counts.failed as f64, counts.attempted as f64);
    let record = RunRecord {
        env,
        workload: name,
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        trace: args.trace,
        input_rows: input.rows,
        input_bytes: input.bytes,
        tail_percentile: tail_pct,
        tail_samples_beyond: samples_beyond(latencies.len(), tail_pct),
        timed_ops: latencies.len(),
        error_rate,
        setups: SETUPS,
    };
    eprintln!(
        "{name}: {} operations, {} failed (error_rate {error_rate}), \
         {} rows / {} bytes per operation, tail = p{tail_pct} ({} samples beyond)",
        counts.attempted, counts.failed, input.rows, input.bytes, record.tail_samples_beyond
    );
    for m in &metrics {
        eprintln!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", record.to_json());
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        counts.attempted, counts.failed
    );
    Ok(correct)
}

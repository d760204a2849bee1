//! Machine-readable probe of the chunked columnar trace store.
//!
//! Writes the Table 6 vehicle workload into an `.ivns` file, then measures
//! the storage path end to end: ingest throughput, full-decode scan, and
//! the 9-of-400-signal extraction running directly against the store with
//! the preselection predicate pushed into the chunk scan. Results go to
//! `BENCH_store.json` (plus a human-readable summary on stdout), following
//! the same conventions as `speed_probe`/`BENCH_interpret.json`.
//!
//! Two invariants are enforced, not just reported:
//!
//! * the store extraction must be bit-identical to the in-memory
//!   extraction (the zero-materialization path is an optimization, not an
//!   approximation), and
//! * the zone maps must actually prune: the probe exits non-zero when the
//!   chunk-skip ratio falls below `IVNT_STORE_MIN_SKIP` (default 0.5), so
//!   CI catches a layout regression that silently degenerates the store
//!   into a plain row file.
//!
//! `IVNT_BENCH_SCALE` scales the workload as in the other probes.

use ivnt_bench::{
    covered_fraction, domain_pipeline, median_secs, scale, select_signals_for_fraction,
};
use ivnt_core::pipeline::RunOptions;
use ivnt_store::{StoreReader, StoreWriter, WriterOptions};

struct Measurement {
    name: &'static str,
    secs: f64,
    rows_in: usize,
    rows_out: usize,
}

impl Measurement {
    fn rows_per_sec(&self) -> f64 {
        self.rows_in as f64 / self.secs
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"seconds\": {:.6},\n",
                "      \"rows_in\": {},\n",
                "      \"rows_out\": {},\n",
                "      \"rows_per_sec\": {:.1}\n",
                "    }}"
            ),
            self.name,
            self.secs,
            self.rows_in,
            self.rows_out,
            self.rows_per_sec()
        )
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = (120_000.0 * scale()) as usize;
    let runs = 5;
    let data = ivnt_bench::vehicle_journey(target, 0)?;
    let trace_rows = data.trace.len();
    let signals = select_signals_for_fraction(&data, 9, 0.027);
    let fraction = covered_fraction(&data, &signals);
    let pipeline = domain_pipeline(&data, &signals)?;

    // Smaller groups than the writer default so the default-scale trace
    // spans well over 4 group buffers — the out-of-core claim is about a
    // file that cannot fit the scan budget, not a single-group toy.
    let options = WriterOptions {
        chunk_rows: 1024,
        chunks_per_group: 16,
        cluster: true,
    };
    let group_rows = options.group_rows();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path = dir.join(format!("ivnt-store-probe-{pid}.ivns"));

    eprintln!(
        "workload: {trace_rows} rows, 9 signals ({:.1}% of traffic), \
         {} rows/group ({:.1} groups)",
        fraction * 100.0,
        group_rows,
        trace_rows as f64 / group_rows as f64,
    );

    let mut measurements = Vec::new();

    let write_store = || {
        let mut writer = StoreWriter::create(&path, options).expect("create store");
        for r in data.trace.records() {
            writer.append(r).expect("append");
        }
        writer.finish().expect("finish");
    };
    let secs = median_secs(runs, write_store);
    measurements.push(Measurement {
        name: "store_write",
        secs,
        rows_in: trace_rows,
        rows_out: trace_rows,
    });

    let ivns_bytes = std::fs::metadata(&path)?.len();

    let mut reader = StoreReader::open(&path)?;
    let chunks_total = reader.footer().chunks.len();
    assert_eq!(reader.read_all()?.len(), trace_rows);
    let secs = median_secs(runs, || {
        let mut reader = StoreReader::open(&path).expect("open");
        reader.read_all().expect("read_all");
    });
    measurements.push(Measurement {
        name: "store_scan_full",
        secs,
        rows_in: trace_rows,
        rows_out: trace_rows,
    });

    let baseline = pipeline
        .session(RunOptions::trace(&data.trace))
        .extract()?
        .frame;
    let secs = median_secs(runs, || {
        pipeline
            .session(RunOptions::trace(&data.trace))
            .extract()
            .expect("extract");
    });
    measurements.push(Measurement {
        name: "extract_in_memory",
        secs,
        rows_in: trace_rows,
        rows_out: baseline.num_rows(),
    });

    let mut reader = StoreReader::open(&path)?;
    let ex = pipeline.session(RunOptions::store(&mut reader)).extract()?;
    let (frame, stats) = (ex.frame, ex.scan.unwrap_or_default());
    assert_eq!(
        frame.collect_rows()?,
        baseline.collect_rows()?,
        "store and in-memory extraction diverged"
    );
    assert!(
        stats.peak_rows_buffered <= group_rows,
        "scan buffered {} rows, budget is {group_rows}",
        stats.peak_rows_buffered
    );
    let secs = median_secs(runs, || {
        let mut reader = StoreReader::open(&path).expect("open");
        pipeline
            .session(RunOptions::store(&mut reader))
            .extract()
            .expect("extract_from_store");
    });
    measurements.push(Measurement {
        name: "extract_from_store",
        secs,
        rows_in: trace_rows,
        rows_out: frame.num_rows(),
    });

    let _ = std::fs::remove_file(&path);

    let skip_ratio = stats.skip_ratio();
    let min_skip: f64 = std::env::var("IVNT_STORE_MIN_SKIP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);

    let entries: Vec<String> = measurements.iter().map(Measurement::to_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{\n",
            "    \"trace_rows\": {},\n",
            "    \"signals_selected\": 9,\n",
            "    \"traffic_fraction\": {:.4},\n",
            "    \"chunk_rows\": {},\n",
            "    \"chunks_per_group\": {},\n",
            "    \"group_rows\": {},\n",
            "    \"runs\": {}\n",
            "  }},\n",
            "  \"file\": {{\n",
            "    \"ivns_bytes\": {},\n",
            "    \"bytes_per_row\": {:.2}\n",
            "  }},\n",
            "  \"measurements\": [\n{}\n  ],\n",
            "  \"scan\": {{\n",
            "    \"chunks_total\": {},\n",
            "    \"chunks_scanned\": {},\n",
            "    \"chunks_skipped\": {},\n",
            "    \"skip_ratio\": {:.4},\n",
            "    \"min_skip_gate\": {:.2},\n",
            "    \"peak_rows_buffered\": {},\n",
            "    \"group_budget_rows\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        trace_rows,
        fraction,
        options.chunk_rows,
        options.chunks_per_group,
        group_rows,
        runs,
        ivns_bytes,
        ivns_bytes as f64 / trace_rows.max(1) as f64,
        entries.join(",\n"),
        chunks_total,
        stats.chunks_scanned,
        stats.chunks_skipped,
        skip_ratio,
        min_skip,
        stats.peak_rows_buffered,
        group_rows,
    );
    std::fs::write("BENCH_store.json", &json)?;

    for m in &measurements {
        println!(
            "{:<22} {:>9.1} ms  {:>12.0} rows/s  ({} -> {} rows)",
            m.name,
            m.secs * 1e3,
            m.rows_per_sec(),
            m.rows_in,
            m.rows_out
        );
    }
    println!(
        "file: {ivns_bytes} bytes ({:.2} B/row)",
        ivns_bytes as f64 / trace_rows.max(1) as f64
    );
    println!(
        "scan: {}/{chunks_total} chunks decoded, {} skipped ({:.1}% pruned), \
         peak {} of {group_rows} budgeted rows buffered",
        stats.chunks_scanned,
        stats.chunks_skipped,
        skip_ratio * 100.0,
        stats.peak_rows_buffered,
    );
    println!("wrote BENCH_store.json");

    if skip_ratio < min_skip {
        eprintln!(
            "FAIL: chunk skip ratio {skip_ratio:.2} below gate {min_skip:.2} — \
             zone-map pushdown degenerated"
        );
        std::process::exit(1);
    }
    Ok(())
}

//! `store_multi`: `Pipeline::session_many(queries, reader).run()` over a
//! `.ivns` store for 4 pairwise-disjoint 100-signal domains covering the
//! whole 400-signal catalog, with a fresh planner (no cache hits) per
//! operation.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ivnt_core::interpret::{extract_signals_routed, signal_schema};
use ivnt_core::pipeline::RunOptions;
use ivnt_core::rules::{Rule, RuleSet};
use ivnt_core::Pipeline;
use ivnt_frame::batch::Batch;
use ivnt_frame::frame::DataFrame;
use ivnt_plan::{Planner, Query, SessionMany};
use ivnt_store::schema::records_to_batch;
use ivnt_store::{Record, StoreReader};

use super::{scaled, Deferred, Input, Layers, Workload};
use crate::compose::{
    back_half, frame_fingerprint, output_fingerprint, BackHalfCounts, Fingerprint,
};
use crate::data;
use crate::metrics::ratio;
use crate::spans::Recorder;
use crate::Result;

/// Domains sharing one store pass.
const DOMAINS: usize = 4;

/// Store rows. Every operation runs the back half of all 400 catalog
/// signals, so rows are kept below the other workloads' to leave a run
/// enough operations for a tail percentile.
const ROWS: usize = 16_000;

pub struct StoreMulti {
    path: PathBuf,
    pipelines: Vec<Pipeline>,
    /// Every domain's solo `session.run()` output, in domain order.
    reference: Fingerprint,
    /// Every domain's solo `K_s`, in domain order (checks the planner).
    ks_reference: Fingerprint,
    input: Input,
    generate_secs: f64,
}

/// Concatenates per-query fingerprints with a marker between queries.
fn concat(parts: impl IntoIterator<Item = Fingerprint>) -> Fingerprint {
    let mut fp = Vec::new();
    for (i, part) in parts.into_iter().enumerate() {
        fp.push(format!("query {i}").into_bytes());
        fp.extend(part);
    }
    fp
}

impl StoreMulti {
    pub fn setup(seed: u64, scale: f64, dir: &std::path::Path) -> Result<StoreMulti> {
        let t = Instant::now();
        let data = ivnt_bench::vehicle_journey(scaled(ROWS, scale), seed)?;
        let generate_secs = t.elapsed().as_secs_f64();
        let pipelines = ivnt_bench::disjoint_domains(&data, DOMAINS)
            .iter()
            .map(|signals| ivnt_bench::domain_pipeline(&data, signals))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let path = dir.join("store_multi.ivns");
        let bytes = data::write_store(&data, &path)?;
        let input = Input {
            rows: data.trace.len() as u64,
            bytes,
        };
        drop(data);

        // Oracle: one solo session per domain over the same store.
        let mut outputs = Vec::new();
        let mut frames = Vec::new();
        for p in &pipelines {
            let mut reader = StoreReader::open(&path)?;
            outputs.push(output_fingerprint(
                &p.session(RunOptions::store(&mut reader)).run()?,
            ));
            let mut reader = StoreReader::open(&path)?;
            frames.push(frame_fingerprint(
                &p.session(RunOptions::store(&mut reader)).extract()?.frame,
            ));
        }
        Ok(StoreMulti {
            path,
            pipelines,
            reference: concat(outputs),
            ks_reference: concat(frames),
            input,
            generate_secs,
        })
    }

    fn queries(&self) -> Vec<Query<'_>> {
        self.pipelines.iter().map(Query::new).collect()
    }
}

impl Workload for StoreMulti {
    fn input(&self) -> Input {
        self.input
    }

    fn generate_secs(&self) -> f64 {
        self.generate_secs
    }

    fn tail_percentile(&self) -> f64 {
        80.0
    }

    fn run(&mut self) -> Result<Deferred> {
        let mut reader = StoreReader::open(&self.path)?;
        let out = Pipeline::session_many(self.queries(), &mut reader).run()?;
        Ok(Box::new(move || {
            Ok(concat(
                out.results.iter().map(|r| output_fingerprint(&r.output)),
            ))
        }))
    }

    fn reference(&self) -> &Fingerprint {
        &self.reference
    }

    /// The planner's shared-interpret path, composed: one union scan, each
    /// row group routed to the queries whose predicate it matches,
    /// columnarized, run once through the kernel over the union rule set
    /// with emissions routed by signal owner, then every query's back half.
    fn run_traced(&mut self, rec: &mut Recorder, layers: &mut Layers) -> Result<Deferred> {
        let n = self.pipelines.len();
        let mut union_rules: Vec<Arc<Rule>> = Vec::new();
        let mut owner: HashMap<String, usize> = HashMap::new();
        for (qi, p) in self.pipelines.iter().enumerate() {
            for r in p.u_comb().rules() {
                owner.entry(r.signal.clone()).or_insert(qi);
                union_rules.push(r.clone());
            }
        }
        let union = RuleSet::from_rules(union_rules);
        let raw_schema = ivnt_core::tabular::raw_schema();
        let (mut rows_in, mut rows_out) = (0usize, 0usize);

        let (parts, stats) = rec.span("store.scan", |rec| -> Result<_> {
            let mut reader = StoreReader::open(&self.path)?;
            let preds: Vec<_> = self
                .pipelines
                .iter()
                .map(|p| p.store_predicate().compile(reader.footer()))
                .collect();
            let mut parts: Vec<Vec<Batch>> = vec![Vec::new(); n];
            // (bus, mid) → per-query match flags, decided once per pair.
            let mut memo: HashMap<(u32, u32), Vec<bool>> = HashMap::new();
            let stats = reader.scan_indexed::<ivnt_core::Error, _>(&preds, |rows| {
                let hit = rec.span("plan.route", |_| {
                    let mut hit = vec![false; n];
                    for row in &rows {
                        let mask = memo
                            .entry((row.bus_id, row.record.message_id))
                            .or_insert_with(|| preds.iter().map(|p| p.row_matches(row)).collect());
                        for (h, m) in hit.iter_mut().zip(mask.iter()) {
                            *h |= *m;
                        }
                    }
                    hit
                });
                let morsel = rec.span("store.columnarize", |_| {
                    let records: Vec<Record> = rows.into_iter().map(|r| r.record).collect();
                    let raw = records_to_batch(raw_schema.clone(), &records)?;
                    DataFrame::from_partitions(raw_schema.clone(), vec![raw])
                        .map_err(ivnt_core::Error::from)
                })?;
                let routed = rec.span("interpret.kernel", |_| {
                    extract_signals_routed(&morsel, &union, n, |name| {
                        owner.get(name).copied().unwrap_or(n)
                    })
                })?;
                rows_in += morsel.num_rows();
                rec.span("plan.route", |_| {
                    for (qi, batches) in routed.into_iter().enumerate() {
                        rows_out += batches.iter().map(Batch::num_rows).sum::<usize>();
                        if hit[qi] {
                            parts[qi].extend(batches);
                        }
                    }
                });
                Ok(())
            })?;
            Ok((parts, stats))
        })?;

        let mut counts = BackHalfCounts::default();
        let mut outputs = Vec::with_capacity(n);
        for (p, parts) in self.pipelines.iter().zip(parts) {
            // A store source's `K_s`: one empty partition when nothing matched.
            let ks = rec.span("plan.route", |_| {
                let mut parts = parts;
                if parts.is_empty() {
                    parts.push(Batch::empty(signal_schema()));
                }
                p.signal_frame(parts)
            })?;
            outputs.push(back_half(p, &ks, rec, &mut counts)?);
        }

        layers.insert("store.chunks_scanned", stats.chunks_scanned as f64);
        layers.insert("store.skip_ratio", stats.skip_ratio());
        layers.insert("store.peak_rows_buffered", stats.peak_rows_buffered as f64);
        layers.insert("interpret.rows_in", rows_in as f64);
        layers.insert("interpret.rows_out", rows_out as f64);
        layers.insert(
            "interpret.admit_ratio",
            ratio(rows_out as f64, rows_in as f64),
        );
        counts.record(layers);
        Ok(Box::new(move || {
            Ok(concat(outputs.iter().map(output_fingerprint)))
        }))
    }

    /// `Planner::extract` on its own: the planner's whole front half
    /// (scan, route, columnarize, kernel), checked against the solo `K_s`.
    fn run_side(&mut self, layers: &mut Layers) -> Result<()> {
        let mut reader = StoreReader::open(&self.path)?;
        let queries = self.queries();
        let t = Instant::now();
        let ex = Planner::new().extract(&queries, &mut reader)?;
        let secs = t.elapsed().as_secs_f64();
        if concat(ex.frames.iter().map(|f| frame_fingerprint(&f.frame))) != self.ks_reference {
            return Err("Planner::extract diverged from the solo extractions".into());
        }
        layers.insert("plan.extract_ms", secs * 1e3);
        layers.insert("plan.groups_scanned", f64::from(ex.plan.groups_scanned));
        layers.insert("plan.scans_saved", ex.plan.scans_saved as f64);
        layers.insert(
            "plan.shared_interpret",
            f64::from(u8::from(ex.plan.shared_interpret)),
        );
        Ok(())
    }
}

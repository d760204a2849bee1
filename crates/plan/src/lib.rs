//! # ivnt-plan — lazy multi-query planner with shared scans
//!
//! The paper's deployment serves many analysis domains (one
//! interpretation table selection per domain) over the same fleet traces.
//! Running each domain as its own [`Pipeline::session`] pays N full store
//! passes for N tenants; this crate answers all N from **one** pass:
//!
//! 1. **Plan** — each query contributes a normalized preselection
//!    predicate (its `U_comb`'s `(bus, mid)` pairs, plus an optional time
//!    window) and a cache fingerprint.
//! 2. **Cache probe** — queries whose `(fingerprint, store epoch)` is
//!    cached skip the scan entirely. The epoch hashes the store's
//!    [`generation`](ivnt_store::Footer::generation) (advanced by every
//!    append-mode flush), so a growing store invalidates naturally.
//! 3. **Shared scan** — remaining queries are merged into one union
//!    predicate; the store is scanned once, zone maps pruning chunks no
//!    query needs. When queries are signal-disjoint and windowless the
//!    vectorized interpret kernel also runs once per row group over the
//!    union rule set, and emitted rows are routed back by signal
//!    ownership (see [`exec`](self) internals); otherwise each query
//!    interprets its own row subset of the shared decode.
//! 4. **Per-query back half** — dedup → reduce → extend → classify →
//!    branch runs per query on its routed `K_s`, so every answer is
//!    **bit-identical** to running that query as its own session.
//!
//! ```no_run
//! # fn demo(p1: &ivnt_core::Pipeline, p2: &ivnt_core::Pipeline,
//! #         reader: &mut ivnt_store::StoreReader<std::io::BufReader<std::fs::File>>)
//! # -> ivnt_core::Result<()> {
//! use ivnt_plan::{Query, SessionMany};
//! use ivnt_core::Pipeline;
//! let out = Pipeline::session_many(vec![Query::new(p1), Query::new(p2)], reader).run()?;
//! assert_eq!(out.results.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cache;
mod exec;
mod fingerprint;

use std::io::{Read, Seek};
use std::sync::Arc;
use std::time::Instant;

use ivnt_core::interpret::signal_schema;
use ivnt_core::pipeline::PipelineOutput;
use ivnt_core::{Pipeline, Result};
use ivnt_frame::batch::Batch;
use ivnt_frame::frame::DataFrame;
use ivnt_store::{ScanStats, StoreReader};

use cache::PlanCache;
pub use cache::DEFAULT_CACHE_CAPACITY;
use exec::{route_shared, QuerySpec};

/// One query of a multi-query batch: a domain pipeline plus optional
/// planner-level restrictions.
pub struct Query<'p> {
    pipeline: &'p Pipeline,
    window: Option<(u64, u64)>,
    label: Option<String>,
}

impl<'p> Query<'p> {
    /// A query running `pipeline` over the whole store.
    pub fn new(pipeline: &'p Pipeline) -> Query<'p> {
        Query {
            pipeline,
            window: None,
            label: None,
        }
    }

    /// Restricts the query to the inclusive `[from, to]` timestamp window
    /// (µs), pushed into the shared scan's predicate.
    pub fn with_window(mut self, from_us: u64, to_us: u64) -> Query<'p> {
        self.window = Some((from_us, to_us));
        self
    }

    /// Overrides the result label (defaults to the domain profile name).
    pub fn with_label(mut self, label: impl Into<String>) -> Query<'p> {
        self.label = Some(label.into());
        self
    }

    /// The query's pipeline.
    pub fn pipeline(&self) -> &'p Pipeline {
        self.pipeline
    }

    /// The query's result label.
    pub fn label(&self) -> &str {
        self.label
            .as_deref()
            .unwrap_or(&self.pipeline.profile().name)
    }
}

/// Per-query planner statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryStats {
    /// Raw store rows routed to this query (0 on a cache hit — nothing
    /// was scanned).
    pub rows_routed: u64,
    /// Row groups that contributed rows to this query.
    pub groups: u32,
    /// Whether the answer came from the plan cache.
    pub cache_hit: bool,
}

/// Batch-level planner statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Queries answered from the plan cache.
    pub cache_hits: usize,
    /// Queries that joined the shared scan.
    pub cache_misses: usize,
    /// Whether the union-kernel fast path applied to the shared scan.
    pub shared_interpret: bool,
    /// Store passes avoided versus sequential sessions: `misses − 1`
    /// scans saved by sharing plus one per cache hit.
    pub scans_saved: usize,
    /// Row groups the shared scan emitted.
    pub groups_scanned: u32,
    /// The shared scan's pushdown statistics (`None` when every query
    /// was a cache hit and no scan ran).
    pub scan: Option<ScanStats>,
}

/// One query's full-pipeline result.
pub struct QueryResult {
    /// Result label (profile name unless overridden).
    pub label: String,
    /// The query's pipeline output, bit-identical to a solo session.
    pub output: PipelineOutput,
    /// Per-query planner statistics.
    pub stats: QueryStats,
}

/// One query's extraction-only result.
pub struct QueryExtraction {
    /// Result label (profile name unless overridden).
    pub label: String,
    /// The interpreted `K_s` frame, bit-identical to a solo session's.
    pub frame: DataFrame,
    /// Per-query planner statistics.
    pub stats: QueryStats,
}

/// What [`QuerySet::run`] produces.
pub struct MultiOutput {
    /// Per-query results, in query order.
    pub results: Vec<QueryResult>,
    /// Batch-level planner statistics.
    pub plan: PlanStats,
}

/// What [`QuerySet::extract`] produces.
pub struct MultiExtraction {
    /// Per-query extractions, in query order.
    pub frames: Vec<QueryExtraction>,
    /// Batch-level planner statistics.
    pub plan: PlanStats,
}

/// A reusable planner: holds the plan-keyed result cache across batches.
/// Drop-and-recreate is equivalent to clearing the cache.
#[derive(Debug, Default)]
pub struct Planner {
    cache: PlanCache,
}

impl Planner {
    /// A planner with the default cache capacity
    /// ([`DEFAULT_CACHE_CAPACITY`] extractions).
    pub fn new() -> Planner {
        Planner::with_cache_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// A planner caching at most `capacity` extractions (FIFO eviction).
    pub fn with_cache_capacity(capacity: usize) -> Planner {
        Planner {
            cache: PlanCache::with_capacity(capacity),
        }
    }

    /// Cached extractions currently held.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// Answers every query's extraction (`K_s`) from one shared pass.
    ///
    /// # Errors
    ///
    /// Propagates store corruption/I/O and tabular-engine errors; the
    /// batch fails as a whole.
    pub fn extract<R: Read + Seek>(
        &mut self,
        queries: &[Query<'_>],
        reader: &mut StoreReader<R>,
    ) -> Result<MultiExtraction> {
        let (parts, plan, per_query) = self.extract_parts(queries, reader)?;
        let frames = queries
            .iter()
            .zip(parts)
            .zip(per_query)
            .map(|((q, parts), stats)| {
                Ok(QueryExtraction {
                    label: q.label().to_string(),
                    frame: q.pipeline.signal_frame(parts)?,
                    stats,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MultiExtraction { frames, plan })
    }

    /// The planner core: cache probe → shared scan → routing → cache
    /// fill. Returns each query's padded `K_s` partitions.
    fn extract_parts<R: Read + Seek>(
        &mut self,
        queries: &[Query<'_>],
        reader: &mut StoreReader<R>,
    ) -> Result<(Vec<Vec<Batch>>, PlanStats, Vec<QueryStats>)> {
        let epoch = fingerprint::store_epoch(reader.footer());
        let keys: Vec<u64> = queries
            .iter()
            .map(|q| fingerprint::query_fingerprint(q.pipeline, q.window))
            .collect();

        // Cache probe: split the batch into hits and the scan set.
        let mut parts: Vec<Option<Vec<Batch>>> = Vec::with_capacity(queries.len());
        let mut per_query: Vec<QueryStats> = Vec::with_capacity(queries.len());
        let mut scan_set: Vec<usize> = Vec::new();
        for (qi, key) in keys.iter().enumerate() {
            match self.cache.get(*key, epoch) {
                Some(cached) => {
                    parts.push(Some(cached));
                    per_query.push(QueryStats {
                        rows_routed: 0,
                        groups: 0,
                        cache_hit: true,
                    });
                }
                None => {
                    parts.push(None);
                    per_query.push(QueryStats {
                        rows_routed: 0,
                        groups: 0,
                        cache_hit: false,
                    });
                    scan_set.push(qi);
                }
            }
        }
        let cache_hits = queries.len() - scan_set.len();

        let mut plan = PlanStats {
            queries: queries.len(),
            cache_hits,
            cache_misses: scan_set.len(),
            shared_interpret: false,
            scans_saved: cache_hits + scan_set.len().saturating_sub(1),
            groups_scanned: 0,
            scan: None,
        };

        if !scan_set.is_empty() {
            let specs: Vec<QuerySpec<'_>> = scan_set
                .iter()
                .map(|&qi| QuerySpec {
                    pipeline: queries[qi].pipeline,
                    window: queries[qi].window,
                })
                .collect();
            let mut outcome = route_shared(&specs, reader)?;
            plan.shared_interpret = outcome.shared_interpret;
            plan.groups_scanned = outcome.groups_scanned;
            plan.scan = Some(outcome.stats);
            for (si, &qi) in scan_set.iter().enumerate() {
                let mut query_parts = std::mem::take(&mut outcome.parts[si]);
                // Store-source semantics: an all-pruned query still gets
                // one empty partition so downstream schemas hold.
                if query_parts.is_empty() {
                    query_parts.push(Batch::empty(signal_schema()));
                }
                self.cache.insert(keys[qi], epoch, query_parts.clone());
                per_query[qi].rows_routed = outcome.rows_routed[si];
                per_query[qi].groups = outcome.groups_hit[si];
                parts[qi] = Some(query_parts);
            }
        }

        flush_plan_obs(&plan, queries, &per_query);
        let parts = parts
            .into_iter()
            .map(|p| p.expect("every query resolved by cache or scan"))
            .collect();
        Ok((parts, plan, per_query))
    }
}

/// One registry interaction per batch, mirroring the store scan's pattern.
fn flush_plan_obs(plan: &PlanStats, queries: &[Query<'_>], per_query: &[QueryStats]) {
    ivnt_obs::with(|r| {
        r.add("plan_batches_total", 1);
        r.add("plan_queries_total", plan.queries as u64);
        r.add("plan_cache_total{result=\"hit\"}", plan.cache_hits as u64);
        r.add(
            "plan_cache_total{result=\"miss\"}",
            plan.cache_misses as u64,
        );
        r.add("plan_scans_saved_total", plan.scans_saved as u64);
        r.add("plan_groups_scanned_total", u64::from(plan.groups_scanned));
        let strategy = if plan.cache_misses == 0 {
            "cache-only"
        } else if plan.shared_interpret {
            "shared-interpret"
        } else {
            "per-query"
        };
        r.add(
            &format!("plan_strategy_total{{strategy=\"{strategy}\"}}"),
            1,
        );
        for (q, s) in queries.iter().zip(per_query) {
            r.add(
                &format!("plan_rows_routed_total{{query=\"{}\"}}", q.label()),
                s.rows_routed,
            );
        }
    });
}

/// A batch of queries bound to one store reader — the multi-query
/// counterpart of [`Pipeline::session`]. Built with
/// [`Pipeline::session_many`] (via the [`SessionMany`] extension trait).
pub struct QuerySet<'p, 'a, 'c, R: Read + Seek> {
    queries: Vec<Query<'p>>,
    reader: &'a mut StoreReader<R>,
    planner: Option<&'c mut Planner>,
    serial: bool,
    subscriber: Option<Arc<ivnt_obs::Registry>>,
}

impl<'p, 'a, 'c, R: Read + Seek> QuerySet<'p, 'a, 'c, R> {
    /// Reuses `planner` (and its result cache) instead of a throwaway one.
    pub fn with_planner(mut self, planner: &'c mut Planner) -> Self {
        self.planner = Some(planner);
        self
    }

    /// Forces every query's per-signal fan-out serial (reference oracle).
    pub fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    /// Installs `registry` as the metrics subscriber for the batch.
    pub fn with_subscriber(mut self, registry: Arc<ivnt_obs::Registry>) -> Self {
        self.subscriber = Some(registry);
        self
    }

    /// Runs every query's full pipeline from one shared pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::extract`].
    pub fn run(self) -> Result<MultiOutput> {
        let QuerySet {
            queries,
            reader,
            planner,
            serial,
            subscriber,
        } = self;
        let _guard = subscriber.map(ivnt_obs::install);
        let mut local = Planner::new();
        let planner = planner.unwrap_or(&mut local);
        let t_extract = Instant::now();
        let (parts, plan, per_query) = planner.extract_parts(&queries, reader)?;
        let extract_secs = t_extract.elapsed().as_secs_f64();
        // The shared extraction's cost is attributed evenly across the
        // batch — per-query stage timings stay comparable to solo runs.
        let interpret_secs = extract_secs / queries.len().max(1) as f64;
        let results = queries
            .iter()
            .zip(parts)
            .zip(per_query)
            .map(|((q, parts), stats)| {
                let epoch = Instant::now();
                let ks = q.pipeline.signal_frame(parts)?;
                let parallel = !serial && q.pipeline.effective_workers() > 1;
                let output = q
                    .pipeline
                    .run_from_ks(ks, epoch, interpret_secs, parallel)?;
                Ok(QueryResult {
                    label: q.label().to_string(),
                    output,
                    stats,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MultiOutput { results, plan })
    }

    /// Extracts every query's `K_s` from one shared pass.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::extract`].
    pub fn extract(self) -> Result<MultiExtraction> {
        let QuerySet {
            queries,
            reader,
            planner,
            subscriber,
            ..
        } = self;
        let _guard = subscriber.map(ivnt_obs::install);
        let mut local = Planner::new();
        let planner = planner.unwrap_or(&mut local);
        planner.extract(&queries, reader)
    }
}

/// Extension trait putting `session_many` on [`Pipeline`] — bring it into
/// scope and call `Pipeline::session_many(queries, reader)`.
pub trait SessionMany {
    /// Binds a batch of queries to one store reader.
    fn session_many<'p, 'a, 'c, R: Read + Seek>(
        queries: Vec<Query<'p>>,
        reader: &'a mut StoreReader<R>,
    ) -> QuerySet<'p, 'a, 'c, R>;
}

impl SessionMany for Pipeline {
    fn session_many<'p, 'a, 'c, R: Read + Seek>(
        queries: Vec<Query<'p>>,
        reader: &'a mut StoreReader<R>,
    ) -> QuerySet<'p, 'a, 'c, R> {
        QuerySet {
            queries,
            reader,
            planner: None,
            serial: false,
            subscriber: None,
        }
    }
}

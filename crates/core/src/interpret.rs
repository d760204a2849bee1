//! Preselection and interpretation (Algorithm 1, lines 3–6).
//!
//! * **Preselection** (line 3): σ over `K_b` keeping only `(m_id, b_id)`
//!   pairs that carry a selected signal, so the expensive interpretation
//!   never touches irrelevant messages.
//! * **Interpretation** (lines 4–6): join `K_pre ⋈ U_comb` on
//!   `(m_id, b_id)` — every raw message row meets every rule that extracts
//!   a signal from it — then apply `u1` (relevant-byte slice) and `u2`
//!   (value decode) row-wise, yielding the signal table `K_s`.
//!
//! Two implementations of lines 3–6 exist side by side:
//!
//! * [`preselect`] + [`interpret`] — the *reference* relational path,
//!   mirroring the paper's Spark plan operator by operator. The join
//!   materializes `K_pre ⋈ U_comb`, duplicating each payload row once per
//!   matching rule.
//! * [`interpret_fused`] — the production kernel: one pass per partition
//!   that probes the broadcast rule table and decodes in place, so neither
//!   `K_pre` nor the joined intermediate ever hits memory. Property tests
//!   assert it stays bit-identical to the reference path.

use std::collections::HashMap;
use std::sync::Arc;

use ivnt_frame::prelude::*;
use ivnt_protocol::signal::PhysicalValue;

use crate::error::Result;
use crate::rules::{load_window, DecodePlan, PlanDecoded, Rule, RuleSet};
use crate::tabular::columns as c;

/// Internal column: the joined rule index.
const RULE_IDX: &str = "rule_idx";

/// Per-query interning of the (few) bus names occurring in `U_comb`, so
/// per-row lookups compare a handful of short strings instead of hashing
/// `(&str, i64)` tuples. Callers thread a position hint through lookups:
/// traces run the same bus for stretches, making the common case a single
/// pointer-or-memcmp comparison.
struct BusInterner {
    buses: Vec<Arc<str>>,
}

impl BusInterner {
    fn from_rules(u_comb: &RuleSet) -> BusInterner {
        let mut buses: Vec<Arc<str>> = Vec::new();
        for rule in u_comb.rules() {
            if !buses.iter().any(|b| b.as_ref() == rule.bus.as_str()) {
                buses.push(Arc::from(rule.bus.as_str()));
            }
        }
        BusInterner { buses }
    }

    fn id_of(&self, bus: &str) -> Option<u32> {
        self.buses
            .iter()
            .position(|b| b.as_ref() == bus)
            .map(|i| i as u32)
    }

    /// Looks up `bus`, trying `hint` first (updated on success).
    fn lookup(&self, bus: &Arc<str>, hint: &mut usize) -> Option<u32> {
        if let Some(candidate) = self.buses.get(*hint) {
            if Arc::ptr_eq(candidate, bus) || candidate.as_ref() == bus.as_ref() {
                return Some(*hint as u32);
            }
        }
        for (i, candidate) in self.buses.iter().enumerate() {
            if candidate.as_ref() == bus.as_ref() {
                *hint = i;
                return Some(i as u32);
            }
        }
        None
    }
}

/// Sentinel in dense [`MidTable`] slots: "no rules for this message id".
const NO_RULES: u32 = u32::MAX;

/// Per-bus message-id lookup. Rule message ids cluster in a narrow band,
/// while 95+% of probed rows miss (that is the whole point of
/// preselection), so the miss path must be as close to free as possible: a
/// dense offset-indexed slot table when the id range allows, a hash map
/// otherwise.
enum MidTable {
    Dense { min: i64, slots: Vec<u32> },
    Sparse(HashMap<i64, u32>),
}

/// Widest id span (in slots) the dense representation may allocate.
const DENSE_SPAN_LIMIT: usize = 1 << 16;

impl MidTable {
    fn build(entries: impl Iterator<Item = (i64, u32)> + Clone) -> MidTable {
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for (mid, _) in entries.clone() {
            min = min.min(mid);
            max = max.max(mid);
        }
        let span = max
            .checked_sub(min)
            .and_then(|s| usize::try_from(s).ok())
            .and_then(|s| s.checked_add(1));
        match span {
            Some(span) if span <= DENSE_SPAN_LIMIT => {
                let mut slots = vec![NO_RULES; span];
                for (mid, group) in entries {
                    slots[(mid - min) as usize] = group;
                }
                MidTable::Dense { min, slots }
            }
            _ => MidTable::Sparse(entries.collect()),
        }
    }

    #[inline]
    fn get(&self, mid: i64) -> Option<u32> {
        match self {
            MidTable::Dense { min, slots } => {
                let idx = usize::try_from(mid.wrapping_sub(*min)).ok()?;
                match slots.get(idx) {
                    Some(&group) if group != NO_RULES => Some(group),
                    _ => None,
                }
            }
            MidTable::Sparse(map) => map.get(&mid).copied(),
        }
    }
}

/// Conservative global message-id prefilter: one bit per id in the union
/// band of *all* rule mids, set when any bus has rules for that id. The
/// kernel scan consults it before touching the bus column, so the ~95+% of
/// rows whose id carries no selected signal cost one cache-hot bitset test
/// — no `Arc` compare, no per-bus table walk. A set bit only *admits* a
/// row to the exact `(bus, m_id)` probe; it never decides a match.
enum MidFilter {
    /// One byte per id over `mid - min` (≤64 KiB, cache-resident); ids
    /// outside the band test as absent. A byte table beats a bitset here:
    /// the admit test is a single indexed load with no shift/mask chain,
    /// and the scan is instruction-bound, not footprint-bound.
    Band { min: i64, set: Vec<u8> },
    /// Id band too wide for a cache-resident table: probe every row.
    Wide,
}

impl MidFilter {
    fn build(mids: impl Iterator<Item = i64>) -> MidFilter {
        let mids: Vec<i64> = mids.collect();
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for &mid in &mids {
            min = min.min(mid);
            max = max.max(mid);
        }
        let span = max
            .checked_sub(min)
            .and_then(|s| usize::try_from(s).ok())
            .and_then(|s| s.checked_add(1));
        match span {
            // `min > i64::MIN` lets the scan fold null ids into an
            // `i64::MIN` sentinel that provably lands outside every band
            // (the matching index would need a rule mid of `i64::MIN`).
            Some(span) if span <= DENSE_SPAN_LIMIT && min > i64::MIN => {
                let mut set = vec![0u8; span];
                for &mid in &mids {
                    set[(mid - min) as usize] = 1;
                }
                MidFilter::Band { min, set }
            }
            _ => MidFilter::Wide,
        }
    }
}

/// The broadcast rule table of the fused kernel: interned buses, per-bus
/// message-id tables, and rule groups in ascending rule order (matching the
/// reference join's build-insertion order).
struct RuleLut {
    interner: BusInterner,
    by_bus: Vec<MidTable>,
    /// Rule-index groups; `MidTable` values index into this.
    groups: Vec<Vec<u32>>,
    /// Global id prefilter for the batch-columnar scan.
    prefilter: MidFilter,
}

/// Per-partition probe state: a learned table of bus `Arc` data pointers.
/// `trace_to_frame` shares one interned `Arc<str>` per bus, so a partition
/// sees only a handful of distinct pointers — each resolved by string
/// lookup once and by pointer comparison ever after, even when adjacent
/// rows alternate between buses (gateway copies). Unknown buses are
/// learned too, so their rows stay on the pointer path.
struct ProbeState {
    seen: Vec<(*const u8, usize, Option<u32>)>,
    hint: usize,
}

/// Cap on learned bus pointers per partition; beyond it (a frame built
/// without interned bus strings) lookups fall back to the interner scan.
const PROBE_PTR_LIMIT: usize = 32;

impl ProbeState {
    fn new() -> ProbeState {
        ProbeState {
            seen: Vec::new(),
            hint: 0,
        }
    }
}

impl RuleLut {
    fn build(u_comb: &RuleSet) -> RuleLut {
        let interner = BusInterner::from_rules(u_comb);
        let mut keyed: HashMap<(u32, i64), u32> = HashMap::new();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for (i, rule) in u_comb.rules().iter().enumerate() {
            let bid = interner
                .id_of(&rule.bus)
                .expect("interner covers all rule buses");
            let group = *keyed
                .entry((bid, i64::from(rule.message_id)))
                .or_insert_with(|| {
                    groups.push(Vec::new());
                    (groups.len() - 1) as u32
                });
            groups[group as usize].push(i as u32);
        }
        let by_bus = (0..interner.buses.len() as u32)
            .map(|bid| {
                MidTable::build(
                    keyed
                        .iter()
                        .filter(move |((b, _), _)| *b == bid)
                        .map(|((_, mid), group)| (*mid, *group))
                        .collect::<Vec<_>>()
                        .into_iter(),
                )
            })
            .collect();
        let prefilter = MidFilter::build(keyed.keys().map(|&(_, mid)| mid));
        RuleLut {
            interner,
            by_bus,
            groups,
            prefilter,
        }
    }

    /// Rule indices (ascending) for a row's `(bus, m_id)`, or `None`.
    #[inline]
    fn probe(&self, bus: &Arc<str>, mid: i64, state: &mut ProbeState) -> Option<&[u32]> {
        self.probe_group(bus, mid, state)
            .map(|(group, _)| self.groups[group as usize].as_slice())
    }

    /// Like [`RuleLut::probe`] but returns the `(group, bus_id)` pair, so
    /// run-length dispatch can carry the interned bus through to emission.
    #[inline]
    fn probe_group(&self, bus: &Arc<str>, mid: i64, state: &mut ProbeState) -> Option<(u32, u32)> {
        let learned = state
            .seen
            .iter()
            .find(|&&(p, l, _)| p == bus.as_ptr() && l == bus.len())
            .map(|&(_, _, id)| id);
        let bid = match learned {
            Some(id) => id?,
            None => {
                let id = self.interner.lookup(bus, &mut state.hint);
                if state.seen.len() < PROBE_PTR_LIMIT {
                    state.seen.push((bus.as_ptr(), bus.len(), id));
                }
                id?
            }
        };
        let group = self.by_bus[bid as usize].get(mid)?;
        Some((group, bid))
    }
}

/// Preselection (line 3): keeps only rows whose `(b_id, m_id)` occurs in
/// `U_comb`.
///
/// Implemented as a vectorized columnar scan (no per-row allocation): this
/// step runs over the *entire* raw trace, so it must be the cheapest
/// operator in the pipeline — that is exactly why the paper performs it
/// before the expensive interpretation. Bus names are interned to small
/// ints once per query, so the per-row membership check hashes a single
/// `i64` under the interned bus id instead of a `(&str, i64)` tuple.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn preselect(raw: &DataFrame, u_comb: &RuleSet) -> Result<DataFrame> {
    let lut = RuleLut::build(u_comb);
    let bus_idx = raw.schema().index_of(c::BUS)?;
    let mid_idx = raw.schema().index_of(c::MESSAGE_ID)?;
    let parts: Vec<Batch> = raw
        .executor()
        .map_ref(raw.partitions(), |batch| {
            let buses = str_column(batch, bus_idx)?;
            let mids = int_column(batch, mid_idx)?;
            let mut probe = ProbeState::new();
            let mask: Vec<bool> = buses
                .iter()
                .zip(mids)
                .map(|(b, m)| match (b, m) {
                    (Some(b), Some(m)) => lut.probe(b, *m, &mut probe).is_some(),
                    _ => false,
                })
                .collect();
            batch.filter(&mask)
        })
        .into_iter()
        .collect::<std::result::Result<_, _>>()?;
    Ok(DataFrame::from_partitions(raw.schema().clone(), parts)?.with_executor(raw.executor()))
}

fn str_column(batch: &Batch, idx: usize) -> ivnt_frame::Result<&[Option<Arc<str>>]> {
    batch
        .column(idx)
        .as_str_slice()
        .ok_or_else(|| ivnt_frame::Error::TypeMismatch {
            expected: "str".into(),
            actual: batch.column(idx).data_type().to_string(),
        })
}

fn int_column(batch: &Batch, idx: usize) -> ivnt_frame::Result<&[Option<i64>]> {
    batch
        .column(idx)
        .as_int_slice()
        .ok_or_else(|| ivnt_frame::Error::TypeMismatch {
            expected: "int".into(),
            actual: batch.column(idx).data_type().to_string(),
        })
}

fn float_column(batch: &Batch, idx: usize) -> ivnt_frame::Result<&[Option<f64>]> {
    batch
        .column(idx)
        .as_float_slice()
        .ok_or_else(|| ivnt_frame::Error::TypeMismatch {
            expected: "float".into(),
            actual: batch.column(idx).data_type().to_string(),
        })
}

fn bytes_column(batch: &Batch, idx: usize) -> ivnt_frame::Result<&[Option<Arc<[u8]>>]> {
    batch
        .column(idx)
        .as_bytes_slice()
        .ok_or_else(|| ivnt_frame::Error::TypeMismatch {
            expected: "bytes".into(),
            actual: batch.column(idx).data_type().to_string(),
        })
}

/// Best-effort cache-line prefetch. The batch-columnar kernel touches hit
/// rows at strides the hardware prefetcher cannot follow; requesting the
/// lines a few candidates ahead turns four serialized misses per hit into
/// overlapped ones. A miss or junk address only wastes the request, so
/// this is safe for any pointer and compiles to nothing off x86-64.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure cache hint; it never faults and
    // performs no memory access observable by the program.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Schema of the interpreted signal table `K_s`.
pub fn signal_schema() -> Arc<Schema> {
    Schema::from_pairs([
        (c::T, DataType::Float),
        (c::SIGNAL, DataType::Str),
        (c::BUS, DataType::Str),
        (c::VALUE_NUM, DataType::Float),
        (c::VALUE_TEXT, DataType::Str),
    ])
    .expect("static schema is valid")
    .into_shared()
}

/// Builds the tabular form of `U_comb` for the interpretation join:
/// one row `(s_id, rule_bus, rule_mid, rule_idx)` per rule.
fn rules_frame(u_comb: &RuleSet) -> Result<DataFrame> {
    let schema = Schema::from_pairs([
        (c::SIGNAL, DataType::Str),
        ("rule_bus", DataType::Str),
        ("rule_mid", DataType::Int),
        (RULE_IDX, DataType::Int),
    ])?
    .into_shared();
    let rows = u_comb.rules().iter().enumerate().map(|(i, r)| {
        vec![
            Value::from(r.signal.as_str()),
            Value::from(r.bus.as_str()),
            Value::Int(i64::from(r.message_id)),
            Value::Int(i64::try_from(i).expect("rule count fits i64")),
        ]
    });
    Ok(DataFrame::from_rows(schema, rows)?)
}

/// `u1 ∘ u2` for one instance, with the error policy shared by both
/// interpretation paths: decode *errors* yield `Some(None)` (a null-valued
/// instance, kept and flagged downstream), *absence* of a
/// presence-conditional field yields `None` (no instance at all), and a
/// null payload yields a null-valued instance.
#[inline]
fn decode_instance(rule: &Rule, payload: Option<&[u8]>) -> Option<Option<PhysicalValue>> {
    match payload {
        Some(payload) => match rule.relevant_bytes(payload) {
            Ok(Some(rel)) => Some(rule.decode_relevant(rel).ok()),
            Ok(None) => None,
            Err(_) => Some(None),
        },
        None => Some(None),
    }
}

/// Interpretation (lines 4–6), reference relational path: join with the
/// rule table and decode.
///
/// Returns `K_s` with one row per signal instance:
/// `(t, s_id, b_id, v_num, v_text)`. Undecodable instances (truncated
/// payloads, unlabeled raw values) decode to null values rather than
/// failing the batch — on real traces single corrupt frames must not abort
/// fleet-scale extraction.
///
/// The `u1`/`u2` mappings run as one fused columnar pass per partition:
/// logically `u1` (relevant-byte slice) feeds `u2` (value decode) per row,
/// but the intermediate `l_rel` never hits a column. The join output
/// itself *is* materialized here, which is what [`interpret_fused`]
/// additionally avoids; this path is kept as the executable specification
/// the fused kernel is tested against.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn interpret(pre: &DataFrame, u_comb: &RuleSet) -> Result<DataFrame> {
    let rules = rules_frame(u_comb)?;
    // Line 4: K_join = K_pre ⋈ U_comb on (b_id, m_id).
    let joined = pre.join(&rules, &[c::BUS, c::MESSAGE_ID], &["rule_bus", "rule_mid"])?;

    // Lines 5–6: u1 ∘ u2 per row, vectorized per partition.
    let rule_vec: Arc<Vec<Arc<Rule>>> = Arc::new(u_comb.rules().to_vec());
    let schema = joined.schema();
    let idx_t = schema.index_of(c::T)?;
    let idx_sig = schema.index_of(c::SIGNAL)?;
    let idx_bus = schema.index_of(c::BUS)?;
    let idx_payload = schema.index_of(c::PAYLOAD)?;
    let idx_rule = schema.index_of(RULE_IDX)?;
    let out_schema = signal_schema();

    let parts: Vec<Batch> = joined
        .executor()
        .map_ref(joined.partitions(), |batch| {
            let rule_idx = batch.column(idx_rule).as_int_slice().unwrap_or(&[]);
            let payloads = batch.column(idx_payload).as_bytes_slice().unwrap_or(&[]);
            let n = batch.num_rows();
            let mut v_num: Vec<Option<f64>> = Vec::with_capacity(n);
            let mut v_text: Vec<Option<Arc<str>>> = Vec::with_capacity(n);
            // Presence-conditional fields (SOME/IP optional fields) may be
            // absent from an instance; such rows produce no signal instance
            // and are dropped.
            let mut present: Vec<bool> = Vec::with_capacity(n);
            for row in 0..n {
                let rule = rule_idx
                    .get(row)
                    .copied()
                    .flatten()
                    .and_then(|i| usize::try_from(i).ok())
                    .and_then(|i| rule_vec.get(i));
                let decoded = rule.and_then(|rule| {
                    decode_instance(rule, payloads.get(row).and_then(|p| p.as_deref()))
                });
                match decoded {
                    Some(Some(PhysicalValue::Num(v))) => {
                        v_num.push(Some(v));
                        v_text.push(None);
                        present.push(true);
                    }
                    Some(Some(PhysicalValue::Text(s))) => {
                        v_num.push(None);
                        v_text.push(Some(Arc::from(s.as_str())));
                        present.push(true);
                    }
                    Some(None) => {
                        v_num.push(None);
                        v_text.push(None);
                        present.push(true);
                    }
                    None => {
                        v_num.push(None);
                        v_text.push(None);
                        present.push(false);
                    }
                }
            }
            let columns = vec![
                batch.column(idx_t).clone(),
                batch.column(idx_sig).clone(),
                batch.column(idx_bus).clone(),
                Column::Float(v_num),
                Column::Str(v_text),
            ];
            let out = Batch::new(out_schema.clone(), columns)?;
            if present.iter().all(|&p| p) {
                Ok(out)
            } else {
                out.filter(&present)
            }
        })
        .into_iter()
        .collect::<std::result::Result<_, _>>()?;
    Ok(DataFrame::from_partitions(out_schema, parts)?.with_executor(joined.executor()))
}

/// Row-at-a-time fused interpretation: the pre-vectorization kernel,
/// retained as the scalar baseline the batch-columnar [`interpret_fused`]
/// is benchmarked (and property-tested) against.
///
/// Same contract as [`interpret_fused`]: bit-identical to
/// `interpret(&preselect(raw)?, u_comb)`.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn interpret_fused_scalar(raw: &DataFrame, u_comb: &RuleSet) -> Result<DataFrame> {
    let schema = raw.schema();
    let idx_t = schema.index_of(c::T)?;
    let idx_bus = schema.index_of(c::BUS)?;
    let idx_mid = schema.index_of(c::MESSAGE_ID)?;
    let idx_payload = schema.index_of(c::PAYLOAD)?;
    let out_schema = signal_schema();

    // Broadcast side, built once per query: interned bus ids, per-bus
    // message-id tables with rule indices ascending, and one shared
    // `Arc<str>` per signal name so emission is a refcount bump.
    let lut = RuleLut::build(u_comb);
    let rules: Vec<(Arc<Rule>, Arc<str>)> = u_comb
        .rules()
        .iter()
        .map(|r| (r.clone(), Arc::from(r.signal.as_str())))
        .collect();

    let parts: Vec<Batch> = raw
        .executor()
        .map_ref(raw.partitions(), |batch| {
            let ts = float_column(batch, idx_t)?;
            let buses = str_column(batch, idx_bus)?;
            let mids = int_column(batch, idx_mid)?;
            let payloads = bytes_column(batch, idx_payload)?;
            let mut t_out: Vec<Option<f64>> = Vec::new();
            let mut s_out: Vec<Option<Arc<str>>> = Vec::new();
            let mut b_out: Vec<Option<Arc<str>>> = Vec::new();
            let mut v_num: Vec<Option<f64>> = Vec::new();
            let mut v_text: Vec<Option<Arc<str>>> = Vec::new();
            let mut probe = ProbeState::new();
            for (((t, bus), mid), payload) in ts.iter().zip(buses).zip(mids).zip(payloads) {
                // Null bus or m_id never matches a rule (inner-join
                // semantics); unknown pairs are preselection drops.
                let (Some(bus), Some(mid)) = (bus, mid) else {
                    continue;
                };
                let Some(rule_hits) = lut.probe(bus, *mid, &mut probe) else {
                    continue;
                };
                for &ri in rule_hits {
                    let (rule, signal) = &rules[ri as usize];
                    let Some(value) = decode_instance(rule, payload.as_deref()) else {
                        continue;
                    };
                    t_out.push(*t);
                    s_out.push(Some(signal.clone()));
                    b_out.push(Some(bus.clone()));
                    match value {
                        Some(PhysicalValue::Num(v)) => {
                            v_num.push(Some(v));
                            v_text.push(None);
                        }
                        Some(PhysicalValue::Text(s)) => {
                            v_num.push(None);
                            v_text.push(Some(Arc::from(s.as_str())));
                        }
                        None => {
                            v_num.push(None);
                            v_text.push(None);
                        }
                    }
                }
            }
            Batch::new(
                out_schema.clone(),
                vec![
                    Column::Float(t_out),
                    Column::Str(s_out),
                    Column::Str(b_out),
                    Column::Float(v_num),
                    Column::Str(v_text),
                ],
            )
        })
        .into_iter()
        .collect::<std::result::Result<_, _>>()?;
    Ok(DataFrame::from_partitions(out_schema, parts)?.with_executor(raw.executor()))
}

/// A maximal stretch of consecutive rows sharing one matched `(bus, m_id)`
/// key. Cyclic in-vehicle traffic produces long runs, letting the kernel
/// probe once and decode in a tight per-run loop.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: usize,
    len: usize,
    group: u32,
    bus: u32,
}

/// All signals of one message fused onto a single payload window: one LE
/// load (plus at most one byte-swap) per row feeds every signal's
/// shift/mask program. Built only when every rule in the group compiled to
/// an ungated word plan and the union of their windows fits 8 bytes.
struct FusedGroup {
    first: usize,
    span: usize,
    needs_be: bool,
    /// One op per rule, parallel to the group's rule-index list.
    ops: Vec<crate::rules::WindowOp>,
}

/// The compiled broadcast side of the batch-columnar kernel: the probe LUT
/// plus, per rule, its [`DecodePlan`] and dictionary-encoded signal name,
/// and per group an optional fused payload window.
struct Kernel {
    lut: RuleLut,
    plans: Vec<DecodePlan>,
    /// Per rule: index into `signal_names`.
    signal_idx: Vec<u32>,
    signal_names: Vec<Arc<str>>,
    /// Per LUT group: the fused window, when expressible.
    fused: Vec<Option<FusedGroup>>,
}

impl Kernel {
    fn build(u_comb: &RuleSet) -> Kernel {
        let lut = RuleLut::build(u_comb);
        let plans: Vec<DecodePlan> = u_comb.rules().iter().map(DecodePlan::compile).collect();
        let mut signal_names: Vec<Arc<str>> = Vec::new();
        let signal_idx = u_comb
            .rules()
            .iter()
            .map(|r| {
                match signal_names
                    .iter()
                    .position(|s| s.as_ref() == r.signal.as_str())
                {
                    Some(i) => i as u32,
                    None => {
                        signal_names.push(Arc::from(r.signal.as_str()));
                        (signal_names.len() - 1) as u32
                    }
                }
            })
            .collect();
        let fused = lut
            .groups
            .iter()
            .map(|g| Kernel::fuse_group(g, &plans))
            .collect();
        Kernel {
            lut,
            plans,
            signal_idx,
            signal_names,
            fused,
        }
    }

    fn fuse_group(group: &[u32], plans: &[DecodePlan]) -> Option<FusedGroup> {
        let mut first = usize::MAX;
        let mut end = 0usize;
        for &ri in group {
            let (f, e) = plans[ri as usize].word_window()?;
            first = first.min(f);
            end = end.max(e);
        }
        let span = end.checked_sub(first)?;
        if span > 8 {
            return None;
        }
        let mut needs_be = false;
        let mut ops = Vec::with_capacity(group.len());
        for &ri in group {
            let op = plans[ri as usize].rebase_to_window(first, span)?;
            needs_be |= op.big_endian();
            ops.push(op);
        }
        Some(FusedGroup {
            first,
            span,
            needs_be,
            ops,
        })
    }

    /// Pass 1 of the kernel: scan only the key columns and emit the run
    /// list. ~95+% of rows miss the LUT (that is what preselection is
    /// for), so the miss path is the one that must be near-free: with a
    /// banded id set the scan reads *only* the `m_id` column and rejects
    /// misses on a single bitset test, touching the bus column (and the
    /// exact per-bus probe) for admitted rows alone. Rows rejected by the
    /// prefilter are guaranteed probe misses, so run boundaries are
    /// identical to the probe-every-row scan.
    fn scan_runs(&self, buses: &[Option<Arc<str>>], mids: &[Option<i64>], dense: bool) -> Vec<Run> {
        let mut scan = RunScanner::new(&self.lut);
        match &self.lut.prefilter {
            MidFilter::Band { min, set } => {
                // Admit loop: one branchless table load per row, ids only.
                // Admitted rows land in a (small) candidate list so the
                // hot loop carries no probe state or bus access at all.
                let min = *min;
                let mut cand: Vec<usize> = Vec::new();
                for (row, mid) in mids.iter().enumerate() {
                    // Null ids fold to a sentinel that is never admitted
                    // (see `MidFilter::build`), keeping the loop free of
                    // a validity branch.
                    let idx = mid.unwrap_or(i64::MIN).wrapping_sub(min) as usize;
                    if set.get(idx).copied().unwrap_or(0) != 0 {
                        cand.push(row);
                    }
                }
                for &row in &cand {
                    if let (Some(bus), Some(mid)) = (buses[row].as_ref(), mids[row]) {
                        scan.step(row, bus, mid);
                    }
                }
            }
            MidFilter::Wide if dense => {
                // Null-free fast path: both key columns are fully valid,
                // so skip the per-row Option match.
                for (row, (bus, mid)) in buses.iter().zip(mids).enumerate() {
                    let (Some(bus), Some(mid)) = (bus.as_ref(), mid) else {
                        debug_assert!(false, "dense scan saw a null key");
                        continue;
                    };
                    scan.step(row, bus, *mid);
                }
            }
            MidFilter::Wide => {
                for (row, (bus, mid)) in buses.iter().zip(mids).enumerate() {
                    // Null bus or m_id never matches a rule (inner-join
                    // semantics); unknown pairs are preselection drops.
                    if let (Some(bus), Some(mid)) = (bus.as_ref(), mid) {
                        scan.step(row, bus, *mid);
                    }
                }
            }
        }
        scan.runs
    }

    /// Dispatches one matched row to the cheapest applicable decode path:
    /// the group's fused single-word program, the per-rule plans, or the
    /// null-payload emission.
    #[inline]
    fn dispatch_row<S: EmitSink>(
        &self,
        group: u32,
        payload: Option<&[u8]>,
        t: Option<f64>,
        bus: u32,
        out: &mut S,
    ) {
        let group_rules = self.lut.groups[group as usize].as_slice();
        match (self.fused[group as usize].as_ref(), payload) {
            (Some(f), Some(p)) if p.len() >= f.first + f.span => {
                self.decode_row_fused(f, group_rules, p, t, bus, out);
            }
            (_, Some(p)) => self.decode_row_plans(group_rules, p, t, bus, out),
            (_, None) => self.emit_null_row(group_rules, t, bus, out),
        }
    }

    /// Decodes one row whose payload covers the group's fused window: one
    /// word load, then a shift/mask program per signal.
    #[inline]
    fn decode_row_fused<S: EmitSink>(
        &self,
        f: &FusedGroup,
        group_rules: &[u32],
        p: &[u8],
        t: Option<f64>,
        bus: u32,
        out: &mut S,
    ) {
        let (le, be) = load_window(p, f.first, f.span, f.needs_be);
        for (op, &ri) in f.ops.iter().zip(group_rules) {
            out.push(t, self.signal_idx[ri as usize], bus, op.eval(le, be));
        }
    }

    /// Decodes one row through the per-rule plans (gated signals, scalar
    /// fallbacks, payloads shorter than the fused window).
    #[inline]
    fn decode_row_plans<S: EmitSink>(
        &self,
        group_rules: &[u32],
        p: &[u8],
        t: Option<f64>,
        bus: u32,
        out: &mut S,
    ) {
        for &ri in group_rules {
            match self.plans[ri as usize].decode_slice(p) {
                PlanDecoded::Absent => {}
                decoded => out.push(t, self.signal_idx[ri as usize], bus, decoded),
            }
        }
    }

    /// Null payload: a null-valued instance per rule of the group.
    #[inline]
    fn emit_null_row<S: EmitSink>(
        &self,
        group_rules: &[u32],
        t: Option<f64>,
        bus: u32,
        out: &mut S,
    ) {
        for &ri in group_rules {
            out.push(t, self.signal_idx[ri as usize], bus, PlanDecoded::Null);
        }
    }
}

/// Emission sink of the batch-columnar kernel. The decode paths are
/// generic over it so the single-table [`Builders`] and the multi-query
/// [`RoutedBuilders`] monomorphize separately — the solo path pays
/// nothing for routing support.
trait EmitSink {
    fn push(&mut self, t: Option<f64>, s: u32, b: u32, decoded: PlanDecoded);
}

/// Pre-sized dictionary-encoded output builders for the signal table:
/// signal and bus are `u32` dictionary indices while decoding, turned
/// into shared `Arc<str>` columns once per batch.
struct Builders {
    t: Vec<Option<f64>>,
    s: Vec<u32>,
    b: Vec<u32>,
    num: Vec<Option<f64>>,
    text: Vec<Option<Arc<str>>>,
}

impl Builders {
    fn with_capacity(n: usize) -> Builders {
        Builders {
            t: Vec::with_capacity(n),
            s: Vec::with_capacity(n),
            b: Vec::with_capacity(n),
            num: Vec::with_capacity(n),
            text: Vec::with_capacity(n),
        }
    }

    #[inline]
    fn push_row(&mut self, t: Option<f64>, s: u32, b: u32, decoded: PlanDecoded) {
        self.t.push(t);
        self.s.push(s);
        self.b.push(b);
        match decoded {
            PlanDecoded::Num(v) => {
                self.num.push(Some(v));
                self.text.push(None);
            }
            PlanDecoded::Text(label) => {
                self.num.push(None);
                self.text.push(Some(label));
            }
            PlanDecoded::Null | PlanDecoded::Absent => {
                self.num.push(None);
                self.text.push(None);
            }
        }
    }

    /// Materializes the dictionary columns — one shared `Arc<str>` per
    /// distinct signal/bus, cloned in a tight index loop — and assembles
    /// the output batch.
    fn into_batch(self, schema: &Arc<Schema>, kernel: &Kernel) -> ivnt_frame::Result<Batch> {
        let s_out: Vec<Option<Arc<str>>> = self
            .s
            .iter()
            .map(|&i| Some(kernel.signal_names[i as usize].clone()))
            .collect();
        let b_out: Vec<Option<Arc<str>>> = self
            .b
            .iter()
            .map(|&i| Some(kernel.lut.interner.buses[i as usize].clone()))
            .collect();
        Batch::new(
            schema.clone(),
            vec![
                Column::Float(self.t),
                Column::Str(s_out),
                Column::Str(b_out),
                Column::Float(self.num),
                Column::Str(self.text),
            ],
        )
    }
}

impl EmitSink for Builders {
    #[inline]
    fn push(&mut self, t: Option<f64>, s: u32, b: u32, decoded: PlanDecoded) {
        self.push_row(t, s, b, decoded);
    }
}

/// N per-query [`Builders`] behind one signal-index route table: the
/// multi-query planner's union kernel emits each decoded row straight
/// into its owning query's output, so no post-hoc routing pass (name
/// lookups plus a gather per query) ever touches the emitted rows.
/// Slot `outs.len() - 1` is the discard lane for unrouted signals.
struct RoutedBuilders<'r> {
    route: &'r [u32],
    outs: Vec<Builders>,
}

impl<'r> RoutedBuilders<'r> {
    /// `route` maps kernel signal index → output slot; slots `>= lanes`
    /// are clamped to the discard lane by the caller. `upper` is the
    /// whole batch's emission bound, split evenly as a pre-size hint.
    fn with_capacity(route: &'r [u32], lanes: usize, upper: usize) -> RoutedBuilders<'r> {
        let per = upper / lanes.max(1) + 1;
        RoutedBuilders {
            route,
            outs: (0..lanes + 1)
                .map(|_| Builders::with_capacity(per))
                .collect(),
        }
    }

    /// One batch per non-discard lane, in lane order.
    fn into_batches(self, schema: &Arc<Schema>, kernel: &Kernel) -> ivnt_frame::Result<Vec<Batch>> {
        let mut outs = self.outs;
        outs.pop(); // discard lane
        outs.into_iter()
            .map(|b| b.into_batch(schema, kernel))
            .collect()
    }
}

impl EmitSink for RoutedBuilders<'_> {
    #[inline]
    fn push(&mut self, t: Option<f64>, s: u32, b: u32, decoded: PlanDecoded) {
        self.outs[self.route[s as usize] as usize].push_row(t, s, b, decoded);
    }
}

/// Streaming run detector: memoizes the last key's probe result so a run
/// of identical `(bus, m_id)` rows costs one pointer-and-int compare per
/// row, with the LUT probed only on key changes.
struct RunScanner<'a> {
    lut: &'a RuleLut,
    probe: ProbeState,
    runs: Vec<Run>,
    last_ptr: *const u8,
    last_len: usize,
    last_mid: i64,
    last_hit: Option<(u32, u32)>,
}

impl<'a> RunScanner<'a> {
    fn new(lut: &'a RuleLut) -> RunScanner<'a> {
        RunScanner {
            lut,
            probe: ProbeState::new(),
            runs: Vec::new(),
            last_ptr: std::ptr::null(),
            last_len: 0,
            last_mid: 0,
            last_hit: None,
        }
    }

    /// The memoized probe alone: one `(bus, m_id)` LUT probe per run of
    /// identical keys, a three-compare no-op for every later row of it.
    #[inline]
    fn probe_memo(&mut self, bus: &Arc<str>, mid: i64) -> Option<(u32, u32)> {
        let same =
            self.last_ptr == bus.as_ptr() && self.last_len == bus.len() && self.last_mid == mid;
        if same {
            self.last_hit
        } else {
            let hit = self.lut.probe_group(bus, mid, &mut self.probe);
            self.last_ptr = bus.as_ptr();
            self.last_len = bus.len();
            self.last_mid = mid;
            self.last_hit = hit;
            hit
        }
    }

    #[inline]
    fn step(&mut self, row: usize, bus: &Arc<str>, mid: i64) {
        if let Some((group, bus_id)) = self.probe_memo(bus, mid) {
            match self.runs.last_mut() {
                // Same group ⇒ same key; extend only over gapless rows so
                // skipped (null-key) rows break runs.
                Some(run) if run.group == group && run.start + run.len == row => run.len += 1,
                _ => self.runs.push(Run {
                    start: row,
                    len: 1,
                    group,
                    bus: bus_id,
                }),
            }
        }
    }
}

/// Fused interpretation (lines 3–6 in one kernel), batch-columnar: rules
/// are compiled to [`DecodePlan`]s once per query, rows are grouped into
/// `(bus, m_id)` runs probed once each, and all signals of a message
/// decode from a single loaded payload word where the layout allows.
/// Output columns are built dictionary-encoded (signal/bus as `u32`
/// indices) and materialized to shared `Arc<str>`s once per batch.
///
/// Feeding it the *raw* trace is the intended use — rows without a
/// matching `(b_id, m_id)` rule are skipped inline, which is exactly
/// preselection — so neither `K_pre` nor the joined intermediate (which
/// duplicates each payload once per matching rule) is ever materialized.
/// Output is bit-identical to `interpret(&preselect(raw)?, u_comb)`:
/// rule hits are emitted in ascending rule order, matching the reference
/// join's build-insertion order.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn interpret_fused(raw: &DataFrame, u_comb: &RuleSet) -> Result<DataFrame> {
    let schema = raw.schema();
    let idx = BatchCols {
        t: schema.index_of(c::T)?,
        bus: schema.index_of(c::BUS)?,
        mid: schema.index_of(c::MESSAGE_ID)?,
        payload: schema.index_of(c::PAYLOAD)?,
    };
    let out_schema = signal_schema();
    let kernel = Kernel::build(u_comb);

    let parts: Vec<Batch> = raw
        .executor()
        .map_ref(raw.partitions(), |batch| {
            decode_batch(&kernel, batch, idx, &Builders::with_capacity)?
                .into_batch(&out_schema, &kernel)
        })
        .into_iter()
        .collect::<std::result::Result<_, _>>()?;
    Ok(DataFrame::from_partitions(out_schema, parts)?.with_executor(raw.executor()))
}

/// Multi-query interpretation: one union-kernel pass whose emissions are
/// routed at the emission site into `n_routes` per-query outputs.
///
/// `route_of` maps a signal name to its owning route; values `>=
/// n_routes` send that signal's rows to a discard lane. Routing happens
/// *inside* the kernel's emit step (an index load per emitted row), so
/// answering N disjoint queries costs one decode plus one table build per
/// query — no name hashing or gather over the emitted rows.
///
/// Returns `out[route]` = one batch per input partition, in partition
/// order. For each route, concatenating its batches yields exactly the
/// rows (and row order) that [`extract_signals`] over the same input
/// with only that route's rules would produce, provided no signal name
/// is claimed by two routes.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn extract_signals_routed(
    raw: &DataFrame,
    u_comb: &RuleSet,
    n_routes: usize,
    route_of: impl Fn(&str) -> usize,
) -> Result<Vec<Vec<Batch>>> {
    let schema = raw.schema();
    let idx = BatchCols {
        t: schema.index_of(c::T)?,
        bus: schema.index_of(c::BUS)?,
        mid: schema.index_of(c::MESSAGE_ID)?,
        payload: schema.index_of(c::PAYLOAD)?,
    };
    let out_schema = signal_schema();
    let kernel = Kernel::build(u_comb);
    // Signal index → route, resolved once per kernel; out-of-range
    // claims clamp to the discard lane.
    let route: Vec<u32> = kernel
        .signal_names
        .iter()
        .map(|s| route_of(s).min(n_routes) as u32)
        .collect();

    let per_part: Vec<Vec<Batch>> = raw
        .executor()
        .map_ref(raw.partitions(), |batch| {
            decode_batch(&kernel, batch, idx, &|upper| {
                RoutedBuilders::with_capacity(&route, n_routes, upper)
            })?
            .into_batches(&out_schema, &kernel)
        })
        .into_iter()
        .collect::<std::result::Result<_, _>>()?;

    let mut out: Vec<Vec<Batch>> = (0..n_routes)
        .map(|_| Vec::with_capacity(per_part.len()))
        .collect();
    for batches in per_part {
        for (qi, batch) in batches.into_iter().enumerate() {
            out[qi].push(batch);
        }
    }
    Ok(out)
}

/// The raw-trace key/payload column indices one decode pass reads.
#[derive(Clone, Copy)]
struct BatchCols {
    t: usize,
    bus: usize,
    mid: usize,
    payload: usize,
}

/// One batch through the batch-columnar kernel into `new_sink(upper)`,
/// where `upper` bounds the batch's emission count. Generic over the
/// sink so the solo and routed paths share every decode line.
fn decode_batch<S: EmitSink>(
    kernel: &Kernel,
    batch: &Batch,
    idx: BatchCols,
    new_sink: &impl Fn(usize) -> S,
) -> ivnt_frame::Result<S> {
    let ts = float_column(batch, idx.t)?;
    let buses = str_column(batch, idx.bus)?;
    let mids = int_column(batch, idx.mid)?;
    let payloads = bytes_column(batch, idx.payload)?;

    match &kernel.lut.prefilter {
        // Banded ids, two passes. The admit pass rejects the
        // ~95+% misses on a single cache-hot bitset test over the
        // id column alone — no bus access, no probe state. The
        // decode pass then walks the (short) candidate list with a
        // two-stage software-prefetch pipeline: admitted rows sit
        // ~dozens of rows apart, a stride the hardware prefetcher
        // cannot follow, so the `t`/payload cells (and the payload
        // heap block behind the `Arc`) are pulled in ahead of use
        // instead of serializing four cache misses per hit.
        MidFilter::Band { min, set } => {
            let min = *min;
            let mut cand: Vec<(u32, i64)> = Vec::new();
            for (row, mid) in mids.iter().enumerate() {
                // Branchless null fold: the sentinel can never be
                // admitted (see `MidFilter::build`), so admitted
                // `m` is always the row's real id.
                let m = mid.unwrap_or(i64::MIN);
                let idx = m.wrapping_sub(min) as usize;
                if set.get(idx).copied().unwrap_or(0) != 0 {
                    cand.push((row as u32, m));
                }
            }

            let widest = kernel.lut.groups.iter().map(Vec::len).max().unwrap_or(0);
            let mut out = new_sink(cand.len() * widest);
            let mut scan = RunScanner::new(&kernel.lut);
            // Far stage: request the column cells of the row
            // `FAR` candidates ahead; near stage: their cells are
            // warm by now, so chase the payload `Arc` and request
            // its heap block.
            const FAR: usize = 32;
            const NEAR: usize = 16;
            for (i, &(row, mid)) in cand.iter().enumerate() {
                let row = row as usize;
                if let Some(&(ahead, _)) = cand.get(i + FAR) {
                    let ahead = ahead as usize;
                    prefetch(&raw const payloads[ahead]);
                    prefetch(&raw const ts[ahead]);
                    prefetch(&raw const buses[ahead]);
                }
                if let Some(&(near, _)) = cand.get(i + NEAR) {
                    if let Some(p) = payloads[near as usize].as_ref() {
                        prefetch(p.as_ptr());
                    }
                }
                let Some(bus) = buses[row].as_ref() else {
                    continue;
                };
                // Probe once per (bus, m_id) run; the memo makes
                // every later row of a run a three-compare no-op.
                if let Some((group, bus_id)) = scan.probe_memo(bus, mid) {
                    kernel.dispatch_row(group, payloads[row].as_deref(), ts[row], bus_id, &mut out);
                }
            }
            Ok(out)
        }
        // Wide ids: no cache-resident prefilter exists, so scan
        // with the probe-every-row pass into a run list, then
        // decode runs. Null-free fast paths are gated on an O(n)
        // column scan (`Column::has_nulls`), so they only run
        // where they can amortize: keys always (every row probes),
        // payloads only when a sizeable share of rows decodes.
        MidFilter::Wide => {
            let keys_dense =
                !batch.column(idx.bus).has_nulls() && !batch.column(idx.mid).has_nulls();
            let runs = kernel.scan_runs(buses, mids, keys_dense);
            let hit_rows: usize = runs.iter().map(|r| r.len).sum();
            let payloads_dense =
                hit_rows * 4 >= batch.num_rows() && !batch.column(idx.payload).has_nulls();
            let upper: usize = runs
                .iter()
                .map(|r| r.len * kernel.lut.groups[r.group as usize].len())
                .sum();
            let mut out = new_sink(upper);
            for run in &runs {
                let group_rules = kernel.lut.groups[run.group as usize].as_slice();
                let rows = run.start..run.start + run.len;
                match kernel.fused[run.group as usize].as_ref() {
                    // Whole-group fast path: one word load per row
                    // serves every signal of the message.
                    Some(f) if payloads_dense => {
                        let end = f.first + f.span;
                        for row in rows {
                            let p = payloads[row].as_deref().unwrap_or_default();
                            if p.len() >= end {
                                kernel.decode_row_fused(
                                    f,
                                    group_rules,
                                    p,
                                    ts[row],
                                    run.bus,
                                    &mut out,
                                );
                            } else {
                                kernel.decode_row_plans(group_rules, p, ts[row], run.bus, &mut out);
                            }
                        }
                    }
                    _ => {
                        for row in rows {
                            kernel.dispatch_row(
                                run.group,
                                payloads[row].as_deref(),
                                ts[row],
                                run.bus,
                                &mut out,
                            );
                        }
                    }
                }
            }
            Ok(out)
        }
    }
}

/// Run-length diagnostics for the batch-columnar kernel: counts matched
/// `(bus, m_id)` runs bucketed by `floor(log2(len))` — index 0 counts
/// runs of length 1, index 1 lengths 2–3, index 2 lengths 4–7, and so on.
/// Long runs mean the workload amortizes LUT probes well.
///
/// # Errors
///
/// Propagates tabular-engine failures (missing/mistyped key columns).
pub fn run_length_histogram(raw: &DataFrame, u_comb: &RuleSet) -> Result<Vec<u64>> {
    let schema = raw.schema();
    let idx_bus = schema.index_of(c::BUS)?;
    let idx_mid = schema.index_of(c::MESSAGE_ID)?;
    let kernel = Kernel::build(u_comb);
    let mut hist: Vec<u64> = Vec::new();
    for batch in raw.partitions() {
        let buses = str_column(batch, idx_bus)?;
        let mids = int_column(batch, idx_mid)?;
        for run in kernel.scan_runs(buses, mids, false) {
            let bucket = usize::BITS as usize - 1 - run.len.leading_zeros() as usize;
            if hist.len() <= bucket {
                hist.resize(bucket + 1, 0);
            }
            hist[bucket] += 1;
        }
    }
    Ok(hist)
}

/// Convenience: preselection followed by interpretation (lines 3–6),
/// executed by the fused kernel.
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn extract_signals(raw: &DataFrame, u_comb: &RuleSet) -> Result<DataFrame> {
    interpret_fused(raw, u_comb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleSet;
    use crate::tabular::trace_to_frame;
    use ivnt_protocol::catalog::Catalog;
    use ivnt_protocol::message::{MessageSpec, Protocol};
    use ivnt_protocol::signal::SignalSpec;
    use ivnt_simulator::network::NetworkModel;
    use ivnt_simulator::trace::{Record, Trace};

    fn network() -> NetworkModel {
        let mut catalog = Catalog::new();
        catalog
            .add_message(
                MessageSpec::builder(3, "WiperStatus", "FC", Protocol::Can)
                    .dlc(4)
                    .signal(
                        SignalSpec::builder("wpos", 0, 16)
                            .factor(0.5)
                            .build()
                            .unwrap(),
                    )
                    .signal(SignalSpec::builder("wvel", 16, 16).build().unwrap())
                    .build()
                    .unwrap(),
            )
            .unwrap();
        catalog
            .add_message(
                MessageSpec::builder(9, "Noise", "FC", Protocol::Can)
                    .dlc(2)
                    .signal(SignalSpec::builder("noise", 0, 8).build().unwrap())
                    .build()
                    .unwrap(),
            )
            .unwrap();
        NetworkModel::new(catalog)
    }

    fn trace() -> Trace {
        // Fig. 2's example: wpos 45° then 60°, wvel constant 1.
        let rec = |t_us: u64, id: u32, payload: Vec<u8>| Record {
            timestamp_us: t_us,
            bus: Arc::from("FC"),
            message_id: id,
            payload,
            protocol: Protocol::Can,
        };
        Trace::from_records(vec![
            rec(2_000_000, 3, vec![0x5A, 0x00, 0x01, 0x00]),
            rec(2_200_000, 9, vec![0xFF, 0xFF]),
            rec(2_500_000, 3, vec![0x78, 0x00, 0x01, 0x00]),
        ])
    }

    #[test]
    fn preselect_filters_irrelevant_messages() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wpos", "wvel"]).unwrap();
        let raw = trace_to_frame(&trace(), 2).unwrap();
        let pre = preselect(&raw, &u_comb).unwrap();
        assert_eq!(pre.num_rows(), 2); // the Noise message is dropped
    }

    #[test]
    fn interpretation_matches_fig2() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wpos", "wvel"]).unwrap();
        let raw = trace_to_frame(&trace(), 2).unwrap();
        let ks = extract_signals(&raw, &u_comb).unwrap();
        // 2 relevant messages x 2 signals = 4 signal instances.
        assert_eq!(ks.num_rows(), 4);
        let rows = ks.sort_by(&[c::T, c::SIGNAL], &[true, true]).unwrap();
        let rows = rows.collect_rows().unwrap();
        // t=2s: wpos=45, wvel=1.
        assert_eq!(rows[0][1], Value::from("wpos"));
        assert_eq!(rows[0][3], Value::Float(45.0));
        assert_eq!(rows[1][1], Value::from("wvel"));
        assert_eq!(rows[1][3], Value::Float(1.0));
        // t=2.5s: wpos=60.
        assert_eq!(rows[2][3], Value::Float(60.0));
        // Numeric signals have null text.
        assert!(rows[0][4].is_null());
    }

    #[test]
    fn selecting_one_signal_extracts_only_it() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wpos"]).unwrap();
        let raw = trace_to_frame(&trace(), 1).unwrap();
        let ks = extract_signals(&raw, &u_comb).unwrap();
        assert_eq!(ks.num_rows(), 2);
        assert!(ks
            .column_values(c::SIGNAL)
            .unwrap()
            .iter()
            .all(|v| v == &Value::from("wpos")));
    }

    #[test]
    fn truncated_payload_yields_null_not_error() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wvel"]).unwrap();
        let t = Trace::from_records(vec![Record {
            timestamp_us: 0,
            bus: Arc::from("FC"),
            message_id: 3,
            payload: vec![0x01], // too short for wvel (bytes 2..4)
            protocol: Protocol::Can,
        }]);
        let raw = trace_to_frame(&t, 1).unwrap();
        let ks = extract_signals(&raw, &u_comb).unwrap();
        assert_eq!(ks.num_rows(), 1);
        assert!(ks.column_values(c::VALUE_NUM).unwrap()[0].is_null());
    }

    #[test]
    fn enumerated_signal_fills_text_column() {
        let mut catalog = Catalog::new();
        catalog
            .add_message(
                MessageSpec::builder(5, "Belt", "BC", Protocol::Can)
                    .dlc(1)
                    .signal(
                        SignalSpec::builder("belt", 0, 1)
                            .labels([(0u64, "OFF"), (1, "ON")])
                            .build()
                            .unwrap(),
                    )
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let n = NetworkModel::new(catalog);
        let u_comb = RuleSet::from_network(&n);
        let t = Trace::from_records(vec![Record {
            timestamp_us: 1_400_000,
            bus: Arc::from("BC"),
            message_id: 5,
            payload: vec![0x01],
            protocol: Protocol::Can,
        }]);
        let raw = trace_to_frame(&t, 1).unwrap();
        let ks = extract_signals(&raw, &u_comb).unwrap();
        let rows = ks.collect_rows().unwrap();
        assert_eq!(rows[0][4], Value::from("ON"));
        assert!(rows[0][3].is_null());
    }

    #[test]
    fn interpretation_deterministic_across_partitions() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wpos", "wvel"]).unwrap();
        let a = extract_signals(&trace_to_frame(&trace(), 1).unwrap(), &u_comb)
            .unwrap()
            .sort_by(&[c::T, c::SIGNAL], &[true, true])
            .unwrap()
            .collect_rows()
            .unwrap();
        let b = extract_signals(&trace_to_frame(&trace(), 3).unwrap(), &u_comb)
            .unwrap()
            .sort_by(&[c::T, c::SIGNAL], &[true, true])
            .unwrap()
            .collect_rows()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fused_matches_reference_path() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wpos", "wvel"]).unwrap();
        for parts in [1usize, 2, 3] {
            let raw = trace_to_frame(&trace(), parts).unwrap();
            let fused = interpret_fused(&raw, &u_comb).unwrap();
            let scalar = interpret_fused_scalar(&raw, &u_comb).unwrap();
            let reference = interpret(&preselect(&raw, &u_comb).unwrap(), &u_comb).unwrap();
            let reference = reference.collect_rows().unwrap();
            assert_eq!(
                fused.collect_rows().unwrap(),
                reference,
                "fused != reference at {parts} partitions"
            );
            assert_eq!(
                scalar.collect_rows().unwrap(),
                reference,
                "scalar fused != reference at {parts} partitions"
            );
        }
    }

    #[test]
    fn run_length_histogram_buckets_by_log2() {
        let u_rel = RuleSet::from_network(&network());
        let u_comb = u_rel.select(&["wpos", "wvel"]).unwrap();
        // trace(): one id-3 row, one id-9 row (miss), one id-3 row — two
        // runs of length 1 on the matched key.
        let raw = trace_to_frame(&trace(), 1).unwrap();
        let hist = run_length_histogram(&raw, &u_comb).unwrap();
        assert_eq!(hist, vec![2]);
    }
}

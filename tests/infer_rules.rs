//! Acceptance contract of the `RuleSource` redesign: when boundary
//! inference recovers a layout *exactly*, the synthesized tables are a
//! drop-in replacement for authored ones — a pipeline run over the
//! `Inferred` catalog, and over the `Merged` catalog, is bit-identical to
//! the run over equivalent `Authored` tables. Merging is pure extension:
//! regions claimed by authored rules are never overridden.

use std::sync::Arc;

use ivnt::cluster::codec::encode_batch;
use ivnt::core::pipeline::{PipelineOutput, RunOptions};
use ivnt::core::prelude::*;
use ivnt::core::rules::RuleSet;
use ivnt::infer::{infer_trace, SignalClass};
use ivnt::protocol::{Protocol, RawKind, SignalSpec};
use ivnt::simulator::{Record, Trace};

/// Two full-range 8-bit wrapping fields at bytes 0 and 4 of one CAN
/// message, separated by constant padding — a layout inference recovers
/// exactly (every bit flips, boundaries sit on inactive bytes). The
/// second field strides by 3 so its bit pattern decorrelates from the
/// first (it classifies as sensor, not counter — only boundaries matter
/// for the bit-identity contract).
fn counter_trace(rows: u64) -> Trace {
    let bus: Arc<str> = Arc::from("B");
    let mut trace = Trace::new();
    for i in 0..rows {
        trace.push(Record {
            timestamp_us: i * 1_000,
            bus: Arc::clone(&bus),
            message_id: 0x77,
            payload: vec![
                (i & 0xFF) as u8,
                0x5A,
                0,
                0,
                (i.wrapping_mul(3) & 0xFF) as u8,
                0,
                0,
                0,
            ],
            protocol: Protocol::Can,
        });
    }
    trace
}

/// Authored tables for the same layout with the caller's signal names,
/// using the spec shape inference synthesizes (factor 1, no offset,
/// unsigned raw) so exact recovery implies rule-for-rule equality.
fn authored_rules(names: [&str; 2]) -> RuleSet {
    let mut rules = RuleSet::new();
    for (name, start) in [(names[0], 0u16), (names[1], 32u16)] {
        let spec = SignalSpec::builder(name, start, 8)
            .raw_kind(RawKind::Unsigned)
            .build()
            .expect("spec builds");
        rules.push_spec("B", 0x77, &spec, true, true, None);
    }
    rules
}

fn run(catalog: &RuleCatalog, trace: &Trace) -> PipelineOutput {
    Pipeline::from_catalog(catalog, DomainProfile::new("infer-rules"))
        .expect("pipeline builds")
        .session(RunOptions::trace(trace))
        .run()
        .expect("run succeeds")
}

/// Every output frame partition re-encoded, plus per-signal metadata;
/// byte-for-byte comparable.
fn fingerprint(output: &PipelineOutput) -> Vec<Vec<u8>> {
    let mut fp = Vec::new();
    for frame in [&output.extensions, &output.merged, &output.state] {
        fp.extend(frame.partitions().iter().map(encode_batch));
    }
    for s in &output.signals {
        fp.push(
            format!(
                "{}|{}|{}|{}",
                s.signal, s.classification.branch, s.rows_interpreted, s.rows_reduced
            )
            .into_bytes(),
        );
    }
    fp
}

#[test]
fn exact_recovery_is_bit_identical_to_authored_tables() {
    let trace = counter_trace(1024);
    let tables = infer_trace(&trace, &InferParams::default());

    // The layout is recovered exactly: both counters, full width, and the
    // constant padding claims nothing.
    let got: Vec<(u16, u16, SignalClass)> = tables
        .signals
        .iter()
        .map(|s| (s.start_bit, s.bit_len, s.class))
        .collect();
    assert_eq!(
        got,
        vec![(0, 8, SignalClass::Counter), (32, 8, SignalClass::Sensor)],
        "recovered layout: {:?}",
        tables.signals
    );

    // Authored tables written with the names inference synthesizes: exact
    // recovery implies rule-for-rule equality, so the runs — frames and
    // signal metadata alike — must be bit-identical.
    let authored = RuleCatalog::from_authored(authored_rules(["inf_077_0", "inf_077_32"]));
    let inferred = tables.to_catalog().expect("inferred catalog");
    assert_eq!(authored.source().label(), "authored");
    assert_eq!(inferred.source().label(), "inferred");
    assert_eq!(
        fingerprint(&run(&authored, &trace)),
        fingerprint(&run(&inferred, &trace)),
        "inferred-table run must be bit-identical to the authored run"
    );

    // Authored tables under the engineer's own names: exact recovery ⇒
    // every inferred region is already claimed, so merging adds nothing
    // and the merged run reproduces the authored run bit for bit.
    let own = RuleCatalog::from_authored(authored_rules(["ctr_lo", "ctr_hi"]));
    let merged = tables.merged_with(&own).expect("merged catalog");
    assert_eq!(merged.source().label(), "merged");
    assert_eq!(merged.rules().len(), own.rules().len());
    assert_eq!(
        fingerprint(&run(&own, &trace)),
        fingerprint(&run(&merged, &trace)),
        "merged-catalog run must be bit-identical to the authored run"
    );

    // Reusing an inferred name in the authored table is a typed conflict,
    // not a silent override.
    let clash = RuleCatalog::from_authored(authored_rules(["inf_077_0", "ctr_hi"]));
    assert!(matches!(
        tables.merged_with(&clash),
        Err(ivnt::core::Error::RuleConflict { .. })
    ));
}

#[test]
fn merge_only_fills_unclaimed_regions() {
    let trace = counter_trace(1024);
    let tables = infer_trace(&trace, &InferParams::default());

    // Author only the first counter; the merge may add the second but
    // must leave the authored rule untouched.
    let mut rules = RuleSet::new();
    let spec = SignalSpec::builder("ctr_lo", 0, 8)
        .raw_kind(RawKind::Unsigned)
        .build()
        .expect("spec builds");
    rules.push_spec("B", 0x77, &spec, true, true, None);
    let authored = RuleCatalog::from_authored(rules);

    let merged = tables.merged_with(&authored).expect("merged catalog");
    let names: Vec<&str> = merged
        .rules()
        .rules()
        .iter()
        .map(|r| r.signal.as_str())
        .collect();
    assert!(names.contains(&"ctr_lo"), "authored rule kept: {names:?}");
    assert!(
        names.contains(&"inf_077_32"),
        "unclaimed region filled from inference: {names:?}"
    );
    assert!(
        !names.contains(&"inf_077_0"),
        "claimed region must not be double-decoded: {names:?}"
    );
}

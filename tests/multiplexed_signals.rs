//! Multiplexed CAN signals: the multiplexor's value gates which signals the
//! payload carries — the classic DBC `m<k>` case, a second flavour of
//! "values of preceding bytes define the presence of a signal" alongside
//! SOME/IP optional fields.

use std::sync::Arc;

use ivnt::core::prelude::*;
use ivnt::core::tabular::columns as c;
use ivnt::protocol::message::Protocol;
use ivnt::protocol::SignalSpec;
use ivnt::simulator::prelude::*;

/// A diagnostic message: byte 0 selects the page; bytes 1..3 carry either
/// oil data (page 0) or coolant data (page 1).
fn mux_trace() -> Trace {
    let rec = |t_ms: u64, page: u8, value: u16| Record {
        timestamp_us: t_ms * 1000,
        bus: Arc::from("PT"),
        message_id: 0x60,
        payload: {
            let mut p = vec![page, 0, 0];
            p[1..3].copy_from_slice(&value.to_le_bytes());
            p
        },
        protocol: Protocol::Can,
    };
    Trace::from_records(vec![
        rec(0, 0, 820),   // oil_temp raw
        rec(100, 1, 905), // coolant_temp raw
        rec(200, 0, 825),
        rec(300, 1, 910),
        rec(400, 0, 830),
    ])
}

fn mux_rules() -> RuleSet {
    let selector = SignalSpec::builder("diag_page", 0, 8).build().unwrap();
    let mut rules = RuleSet::new();
    // Both signals live at bytes 1..3; presence depends on the page.
    rules.push_multiplexed(
        "PT",
        0x60,
        selector.clone(),
        0,
        1,
        2,
        SignalSpec::builder("oil_temp", 0, 16)
            .factor(0.1)
            .offset(-40.0)
            .build()
            .unwrap(),
        None,
    );
    rules.push_multiplexed(
        "PT",
        0x60,
        selector,
        1,
        1,
        2,
        SignalSpec::builder("coolant_temp", 0, 16)
            .factor(0.1)
            .offset(-40.0)
            .build()
            .unwrap(),
        None,
    );
    rules
}

#[test]
fn multiplexed_signals_extract_per_page() {
    let pipeline = Pipeline::new(mux_rules(), DomainProfile::new("mux")).expect("pipeline");
    let ks = pipeline
        .session(RunOptions::trace(&mux_trace()))
        .extract()
        .expect("extract")
        .frame;
    let rows = ks
        .sort_by(&[c::T, c::SIGNAL], &[true, true])
        .expect("sort")
        .collect_rows()
        .expect("rows");
    // 3 oil pages + 2 coolant pages.
    let oil: Vec<f64> = rows
        .iter()
        .filter(|r| r[1].as_str() == Some("oil_temp"))
        .map(|r| r[3].as_float().expect("value"))
        .collect();
    let coolant: Vec<f64> = rows
        .iter()
        .filter(|r| r[1].as_str() == Some("coolant_temp"))
        .map(|r| r[3].as_float().expect("value"))
        .collect();
    assert_eq!(oil.len(), 3);
    assert_eq!(coolant.len(), 2);
    assert!((oil[0] - 42.0).abs() < 1e-9); // 820 * 0.1 - 40
    assert!((coolant[0] - 50.5).abs() < 1e-9); // 905 * 0.1 - 40
}

#[test]
fn wrong_page_instances_are_dropped_not_nulled() {
    let pipeline = Pipeline::new(mux_rules(), DomainProfile::new("mux")).expect("pipeline");
    let ks = pipeline
        .session(RunOptions::trace(&mux_trace()))
        .extract()
        .expect("extract")
        .frame;
    assert_eq!(ks.num_rows(), 5); // 3 + 2, not 5 * 2
    for r in ks.collect_rows().expect("rows") {
        assert!(!r[3].is_null(), "dropped instance leaked as null: {r:?}");
    }
}

#[test]
fn multiplexed_signals_flow_through_pipeline() {
    let output = Pipeline::new(mux_rules(), DomainProfile::new("mux"))
        .expect("pipeline")
        .session(RunOptions::trace(&mux_trace()))
        .run()
        .expect("run");
    assert_eq!(output.signals.len(), 2);
    assert!(output.state.schema().contains("oil_temp"));
    assert!(output.state.schema().contains("coolant_temp"));
    // Page-interleaved values forward-fill correctly in the state table.
    let rows = output.state.collect_rows().expect("rows");
    let last = rows.last().expect("rows exist");
    assert!(!last[1].is_null() && !last[2].is_null());
}

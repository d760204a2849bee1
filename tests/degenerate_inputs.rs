//! Degenerate pipeline inputs: empty traces, traces without relevant
//! messages, single-instance signals — everything a fleet job encounters
//! on short or idle recordings must flow through without panics.

use std::sync::Arc;

use ivnt::core::prelude::*;
use ivnt::protocol::message::Protocol;
use ivnt::simulator::functions;
use ivnt::simulator::prelude::*;

fn network() -> NetworkModel {
    let mut n = NetworkModel::new(ivnt::protocol::Catalog::new());
    n.add_function(functions::wiper().expect("wiper"))
        .expect("install");
    n.auto_senders();
    n
}

#[test]
fn empty_trace_produces_empty_output() {
    let n = network();
    let output = Pipeline::new(RuleSet::from_network(&n), DomainProfile::new("empty"))
        .expect("pipeline")
        .session(RunOptions::trace(&Trace::new()))
        .run()
        .expect("run");
    assert!(output.signals.is_empty());
    assert_eq!(output.state.num_rows(), 0);
    assert_eq!(output.outlier_count().expect("count"), 0);
}

#[test]
fn trace_with_only_irrelevant_messages() {
    let n = network();
    let trace = Trace::from_records(vec![Record {
        timestamp_us: 0,
        bus: Arc::from("UNKNOWN"),
        message_id: 9999,
        payload: vec![1, 2, 3],
        protocol: Protocol::Can,
    }]);
    let output = Pipeline::new(RuleSet::from_network(&n), DomainProfile::new("none"))
        .expect("pipeline")
        .session(RunOptions::trace(&trace))
        .run()
        .expect("run");
    assert!(output.signals.is_empty());
    assert_eq!(output.state.num_rows(), 0);
}

#[test]
fn single_message_trace() {
    let n = network();
    let trace = Trace::from_records(vec![Record {
        timestamp_us: 2_000_000,
        bus: Arc::from("FC"),
        message_id: 3,
        payload: vec![0x5A, 0x00, 0x01, 0x00],
        protocol: Protocol::Can,
    }]);
    let output = Pipeline::new(
        RuleSet::from_network(&n),
        DomainProfile::new("single").with_signals(["wpos", "wvel"]),
    )
    .expect("pipeline")
    .session(RunOptions::trace(&trace))
    .run()
    .expect("run");
    assert_eq!(output.signals.len(), 2);
    for s in &output.signals {
        assert_eq!(s.rows_interpreted, 1);
        assert_eq!(s.rows_reduced, 1);
    }
    assert_eq!(output.state.num_rows(), 1);
}

#[test]
fn all_payloads_corrupt_still_flows() {
    let n = network();
    // Payloads too short for any wiper signal: every decode fails, and the
    // pipeline must flag the instances rather than die.
    let trace = Trace::from_records(
        (0..20)
            .map(|i| Record {
                timestamp_us: i * 100_000,
                bus: Arc::from("FC"),
                message_id: 3,
                payload: vec![0x01],
                protocol: Protocol::Can,
            })
            .collect(),
    );
    let output = Pipeline::new(
        RuleSet::from_network(&n),
        DomainProfile::new("corrupt").with_signals(["wvel"]),
    )
    .expect("pipeline")
    .session(RunOptions::trace(&trace))
    .run()
    .expect("run");
    let wvel = output.signal("wvel").expect("wvel present");
    // Every instance is a decode failure -> flagged outliers downstream.
    assert!(output.outlier_count().expect("count") >= 1);
    assert_eq!(wvel.rows_interpreted, 20);
}

#[test]
fn profile_with_empty_constraint_list_keeps_everything() {
    let n = network();
    let trace = n.simulate(2.0, 4, &FaultPlan::new()).expect("simulate");
    let output = Pipeline::new(
        RuleSet::from_network(&n),
        DomainProfile::new("keep-all")
            .with_signals(["wpos"])
            .with_constraints(vec![]),
    )
    .expect("pipeline")
    .session(RunOptions::trace(&trace))
    .run()
    .expect("run");
    let wpos = output.signal("wpos").expect("wpos");
    assert_eq!(wpos.rows_reduced, wpos.rows_interpreted);
}

#[test]
fn zero_duration_trace_classifies_low_rate() {
    let n = network();
    // Two instances at the identical timestamp: duration 0, rate undefined.
    let trace = Trace::from_records(vec![
        Record {
            timestamp_us: 5_000_000,
            bus: Arc::from("FC"),
            message_id: 3,
            payload: vec![0x5A, 0x00, 0x01, 0x00],
            protocol: Protocol::Can,
        },
        Record {
            timestamp_us: 5_000_000,
            bus: Arc::from("FC"),
            message_id: 3,
            payload: vec![0x78, 0x00, 0x01, 0x00],
            protocol: Protocol::Can,
        },
    ]);
    let output = Pipeline::new(
        RuleSet::from_network(&n),
        DomainProfile::new("instant").with_signals(["wpos"]),
    )
    .expect("pipeline")
    .session(RunOptions::trace(&trace))
    .run()
    .expect("run");
    let wpos = output.signal("wpos").expect("wpos");
    assert_eq!(wpos.classification.criteria.measured_rate_hz, 0.0);
    assert_eq!(wpos.classification.branch, Branch::Gamma); // 2 values, low rate
}

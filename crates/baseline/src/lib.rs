//! # ivnt-baseline — the sequential in-house-tool comparator
//!
//! The DAC'18 paper compares its distributed pipeline against an OEM
//! in-house analyzer (CARMEN, "comparable to Wireshark"): a monitoring tool
//! that **ingests a trace sequentially on one thread, interpreting every
//! signal of every message on ingest**, then looks up the requested signals
//! from the ingested store. Consequently its extraction time is linear in
//! trace rows and *flat* in the number of requested signals — the behaviour
//! Table 6 documents ("this extraction time does not change with the number
//! of extracted signals as extraction is done within one loop").
//!
//! This crate reimplements that comparator faithfully so the Table 6
//! crossover (the proposed approach winning ~5.7× for few signals, ~1.8×
//! for many) can be measured.
//!
//! # Examples
//!
//! ```
//! use ivnt_baseline::SequentialAnalyzer;
//! use ivnt_simulator::prelude::*;
//! use ivnt_simulator::functions;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut network = NetworkModel::new(ivnt_protocol::Catalog::new());
//! network.add_function(functions::wiper()?)?;
//! network.auto_senders();
//! let trace = network.simulate(2.0, 1, &FaultPlan::new())?;
//!
//! let tool = SequentialAnalyzer::new(network);
//! let ingested = tool.ingest(&trace);
//! let wpos = ingested.signal_instances("wpos");
//! assert!(!wpos.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;

use ivnt_protocol::signal::PhysicalValue;
use ivnt_simulator::network::NetworkModel;
use ivnt_simulator::trace::Trace;

/// One interpreted signal instance in the ingested store.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestedInstance {
    /// Timestamp in seconds.
    pub t: f64,
    /// Channel the instance was recorded on.
    pub bus: String,
    /// The decoded physical value.
    pub value: PhysicalValue,
}

/// The in-memory store the tool builds during ingest: every signal of every
/// message, whether anyone asked for it or not.
#[derive(Debug, Clone, Default)]
pub struct IngestedTrace {
    per_signal: HashMap<String, Vec<IngestedInstance>>,
    records_processed: usize,
    decode_failures: usize,
}

impl IngestedTrace {
    /// All decoded instances of one signal, in ingest order.
    pub fn signal_instances(&self, signal: &str) -> &[IngestedInstance] {
        self.per_signal
            .get(signal)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Distinct signals the ingest decoded.
    pub fn num_signals(&self) -> usize {
        self.per_signal.len()
    }

    /// Trace records processed.
    pub fn records_processed(&self) -> usize {
        self.records_processed
    }

    /// Records or signals that failed to decode (skipped, like a monitor
    /// rendering "?" cells).
    pub fn decode_failures(&self) -> usize {
        self.decode_failures
    }

    /// Extracts the requested signals from the store — the cheap second
    /// phase of the in-house workflow. Returns `(signal, instances)` in
    /// request order.
    pub fn extract<'a>(&'a self, signals: &[&str]) -> Vec<(&'a str, &'a [IngestedInstance])> {
        signals
            .iter()
            .filter_map(|&s| {
                self.per_signal
                    .get_key_value(s)
                    .map(|(k, v)| (k.as_str(), v.as_slice()))
            })
            .collect()
    }

    /// Total signal instances decoded on ingest.
    pub fn total_instances(&self) -> usize {
        self.per_signal.values().map(Vec::len).sum()
    }
}

/// The sequential analyzer itself: owns the network documentation it
/// interprets against.
#[derive(Debug, Clone)]
pub struct SequentialAnalyzer {
    network: NetworkModel,
}

impl SequentialAnalyzer {
    /// Creates the analyzer over a network model (catalog plus gateway
    /// routing, which the tool needs to resolve forwarded message copies).
    pub fn new(network: NetworkModel) -> SequentialAnalyzer {
        SequentialAnalyzer { network }
    }

    /// The network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Ingests a trace: one sequential pass over **all** records, decoding
    /// **all** signals of each message. This is the expensive step whose
    /// duration Table 6 reports as the in-house extraction time.
    pub fn ingest(&self, trace: &Trace) -> IngestedTrace {
        let mut store = IngestedTrace::default();
        for record in trace.iter() {
            store.records_processed += 1;
            let Some(spec) = self.network.resolve(&record.bus, record.message_id) else {
                store.decode_failures += 1;
                continue;
            };
            for signal in spec.signals() {
                match signal.decode(&record.payload) {
                    Ok(value) => {
                        store
                            .per_signal
                            .entry(signal.name().to_string())
                            .or_default()
                            .push(IngestedInstance {
                                t: record.timestamp_s(),
                                bus: record.bus.to_string(),
                                value,
                            });
                    }
                    Err(_) => store.decode_failures += 1,
                }
            }
        }
        store
    }

    /// The full in-house extraction workflow: ingest (always everything),
    /// then look up the requested signals. Returns the extracted instance
    /// count — the quantity Table 6's "Extracted rows" column reports.
    pub fn extract_signals(&self, trace: &Trace, signals: &[&str]) -> usize {
        let ingested = self.ingest(trace);
        ingested.extract(signals).iter().map(|(_, v)| v.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivnt_protocol::catalog::Catalog;
    use ivnt_simulator::faults::FaultPlan;
    use ivnt_simulator::functions;
    use ivnt_simulator::network::GatewayRoute;
    use ivnt_simulator::trace::Record;
    use std::sync::Arc;

    fn network() -> NetworkModel {
        let mut n = NetworkModel::new(Catalog::new());
        n.add_function(functions::wiper().unwrap()).unwrap();
        n.add_function(functions::drivetrain().unwrap()).unwrap();
        n.add_gateway(GatewayRoute {
            from_bus: "FC".into(),
            to_bus: "DC".into(),
            message_ids: vec![3],
            delay_us: 100,
        });
        n.auto_senders();
        n
    }

    #[test]
    fn ingest_decodes_everything() {
        let n = network();
        let trace = n.simulate(2.0, 5, &FaultPlan::new()).unwrap();
        let tool = SequentialAnalyzer::new(n);
        let ingested = tool.ingest(&trace);
        assert_eq!(ingested.records_processed(), trace.len());
        // All 8 signals (wiper 4 + drivetrain 4) decoded even though none
        // were "requested".
        assert_eq!(ingested.num_signals(), 8);
        assert_eq!(ingested.decode_failures(), 0);
        assert!(ingested.total_instances() > trace.len());
    }

    #[test]
    fn gateway_copies_are_resolved() {
        let n = network();
        let trace = n.simulate(1.0, 5, &FaultPlan::new()).unwrap();
        let tool = SequentialAnalyzer::new(n);
        let ingested = tool.ingest(&trace);
        let wpos = ingested.signal_instances("wpos");
        // wpos arrives on FC and the DC gateway copy.
        assert!(wpos.iter().any(|i| i.bus == "FC"));
        assert!(wpos.iter().any(|i| i.bus == "DC"));
    }

    #[test]
    fn extract_returns_requested_subset() {
        let n = network();
        let trace = n.simulate(1.0, 5, &FaultPlan::new()).unwrap();
        let tool = SequentialAnalyzer::new(n);
        let ingested = tool.ingest(&trace);
        let got = ingested.extract(&["speed", "wpos", "missing"]);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, "speed");
        let count = tool.extract_signals(&trace, &["speed"]);
        assert_eq!(count, ingested.signal_instances("speed").len());
    }

    #[test]
    fn unknown_messages_counted_as_failures() {
        let n = network();
        let tool = SequentialAnalyzer::new(n);
        let trace = Trace::from_records(vec![Record {
            timestamp_us: 0,
            bus: Arc::from("XX"),
            message_id: 999,
            payload: vec![0],
            protocol: ivnt_protocol::message::Protocol::Can,
        }]);
        let ingested = tool.ingest(&trace);
        assert_eq!(ingested.decode_failures(), 1);
        assert_eq!(ingested.num_signals(), 0);
    }

    #[test]
    fn values_match_catalog_decoding() {
        let n = network();
        let trace = n.simulate(1.0, 5, &FaultPlan::new()).unwrap();
        let spec = n.catalog().message("FC", 3).unwrap().clone();
        let tool = SequentialAnalyzer::new(n);
        let ingested = tool.ingest(&trace);
        let first_rec = trace
            .iter()
            .find(|r| r.bus.as_ref() == "FC" && r.message_id == 3)
            .unwrap();
        let expected = spec
            .signal("wpos")
            .unwrap()
            .decode(&first_rec.payload)
            .unwrap();
        let got = ingested
            .signal_instances("wpos")
            .iter()
            .find(|i| i.bus == "FC")
            .unwrap();
        assert_eq!(got.value, expected);
    }
}

//! The simulated in-vehicle network: ECUs, buses, gateways.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ivnt_protocol::catalog::Catalog;
use ivnt_protocol::message::MessageSpec;
use ivnt_protocol::signal::PhysicalValue;

use crate::behavior::{Behavior, BehaviorState};
use crate::error::{Error, Result};
use crate::faults::FaultPlan;
use crate::trace::{Record, Trace};

/// A gateway forwarding rule: selected messages of one channel are
/// re-transmitted on another channel (with a small forwarding delay).
///
/// Forwarding is what makes identical signal instances appear on multiple
/// channels in the trace — the redundancy exploited by Algorithm 1's
/// equality check `e` (line 9).
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayRoute {
    /// Source channel.
    pub from_bus: String,
    /// Destination channel.
    pub to_bus: String,
    /// Forwarded message identifiers.
    pub message_ids: Vec<u32>,
    /// Forwarding latency in microseconds.
    pub delay_us: u64,
}

/// Emission schedule for one message type.
#[derive(Debug, Clone, PartialEq)]
pub struct Sender {
    /// Channel the message is sent on.
    pub bus: String,
    /// Message identifier.
    pub message_id: u32,
    /// Nominal period in microseconds.
    pub period_us: u64,
    /// Uniform jitter magnitude in microseconds (`± jitter_us`).
    pub jitter_us: u64,
    /// First emission offset in microseconds.
    pub phase_us: u64,
}

/// The complete simulated vehicle network: communication catalog, signal
/// behaviours, emission schedules and gateway topology.
///
/// # Examples
///
/// ```
/// use ivnt_simulator::prelude::*;
/// use ivnt_protocol::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut catalog = Catalog::new();
/// catalog.add_message(
///     MessageSpec::builder(3, "WiperStatus", "FC", Protocol::Can)
///         .dlc(4)
///         .cycle_time_ms(500)
///         .signal(SignalSpec::builder("wpos", 0, 16).factor(0.5).build()?)
///         .build()?,
/// )?;
/// let mut network = NetworkModel::new(catalog);
/// network.set_behavior("wpos", Behavior::Sine { amplitude: 45.0, period_s: 4.0, offset: 90.0 });
/// network.auto_senders();
/// let trace = network.simulate(10.0, 7, &FaultPlan::new())?;
/// assert!(trace.len() >= 19); // ~20 emissions in 10 s at 500 ms
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetworkModel {
    catalog: Catalog,
    behaviors: HashMap<String, Behavior>,
    senders: Vec<Sender>,
    gateways: Vec<GatewayRoute>,
}

impl NetworkModel {
    /// Creates a network over the given communication catalog.
    pub fn new(catalog: Catalog) -> NetworkModel {
        NetworkModel {
            catalog,
            behaviors: HashMap::new(),
            senders: Vec::new(),
            gateways: Vec::new(),
        }
    }

    /// The communication catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog (for installing function models).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The gateway topology.
    pub fn gateways(&self) -> &[GatewayRoute] {
        &self.gateways
    }

    /// The emission schedules.
    pub fn senders(&self) -> &[Sender] {
        &self.senders
    }

    /// Assigns the behaviour generating a signal's values.
    pub fn set_behavior(&mut self, signal: impl Into<String>, behavior: Behavior) {
        self.behaviors.insert(signal.into(), behavior);
    }

    /// Behaviour of a signal, if assigned.
    pub fn behavior(&self, signal: &str) -> Option<&Behavior> {
        self.behaviors.get(signal)
    }

    /// Adds a gateway forwarding route.
    pub fn add_gateway(&mut self, route: GatewayRoute) {
        self.gateways.push(route);
    }

    /// Adds an explicit emission schedule.
    pub fn add_sender(&mut self, sender: Sender) {
        self.senders.push(sender);
    }

    /// Creates one cyclic sender per catalog message from its declared
    /// cycle time (messages without one get a 1 s default), with phases
    /// staggered so buses do not burst at t = 0.
    pub fn auto_senders(&mut self) {
        for (i, m) in self.catalog.messages().iter().enumerate() {
            let period_ms = m.cycle_time_ms().unwrap_or(1000);
            let period_us = period_ms as u64 * 1000;
            self.senders.push(Sender {
                bus: m.bus().to_string(),
                message_id: m.id(),
                period_us,
                jitter_us: period_us / 50,
                phase_us: (i as u64 * 137) % period_us.max(1),
            });
        }
    }

    /// Channels a message is observable on: its home bus plus every gateway
    /// destination forwarding it.
    pub fn channels_of(&self, message: &MessageSpec) -> Vec<String> {
        let mut out = vec![message.bus().to_string()];
        for g in &self.gateways {
            if g.from_bus == message.bus() && g.message_ids.contains(&message.id()) {
                out.push(g.to_bus.clone());
            }
        }
        out
    }

    /// Resolves a recorded `(bus, id)` pair to its defining message spec,
    /// following gateway routes for forwarded copies.
    pub fn resolve(&self, bus: &str, message_id: u32) -> Option<&MessageSpec> {
        if let Ok(m) = self.catalog.message(bus, message_id) {
            return Some(m);
        }
        for g in &self.gateways {
            if g.to_bus == bus && g.message_ids.contains(&message_id) {
                if let Ok(m) = self.catalog.message(&g.from_bus, message_id) {
                    return Some(m);
                }
            }
        }
        None
    }

    /// Runs the simulation for `duration_s` seconds with the given seed and
    /// fault plan, producing the recorded trace `K_b` (time-sorted).
    ///
    /// The same `(model, duration, seed, faults)` always produces the
    /// identical trace.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidScenario`] when a sender references an
    /// unknown message or a signal lacks a behaviour, and propagates payload
    /// encoding failures.
    pub fn simulate(&self, duration_s: f64, seed: u64, faults: &FaultPlan) -> Result<Trace> {
        let duration_us = (duration_s * 1e6) as u64;
        let mut trace = Trace::new();
        let mut bus_cache: HashMap<String, Arc<str>> = HashMap::new();
        let intern = |name: &str, cache: &mut HashMap<String, Arc<str>>| -> Arc<str> {
            cache
                .entry(name.to_string())
                .or_insert_with(|| Arc::from(name))
                .clone()
        };

        for (si, sender) in self.senders.iter().enumerate() {
            let spec = self
                .catalog
                .message(&sender.bus, sender.message_id)
                .map_err(|_| {
                    Error::InvalidScenario(format!(
                        "sender {} references unknown message {} on {}",
                        si, sender.message_id, sender.bus
                    ))
                })?;
            let mut states: Vec<(&str, &Behavior, BehaviorState)> = Vec::new();
            for s in spec.signals() {
                let behavior = self.behaviors.get(s.name()).ok_or_else(|| {
                    Error::InvalidScenario(format!("signal {} has no behaviour", s.name()))
                })?;
                states.push((s.name(), behavior, BehaviorState::new(seed, s.name())));
            }
            let mut jitter_rng = StdRng::seed_from_u64(
                seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(si as u64 + 1)),
            );
            let bus: Arc<str> = intern(&sender.bus, &mut bus_cache);
            let routes: Vec<(Arc<str>, u64)> = self
                .gateways
                .iter()
                .filter(|g| g.from_bus == sender.bus && g.message_ids.contains(&sender.message_id))
                .map(|g| (intern(&g.to_bus, &mut bus_cache), g.delay_us))
                .collect();

            let mut t = sender.phase_us;
            while t < duration_us {
                let jitter: i64 = if sender.jitter_us > 0 {
                    jitter_rng.gen_range(-(sender.jitter_us as i64)..=sender.jitter_us as i64)
                } else {
                    0
                };
                let t_emit = t.saturating_add_signed(jitter);
                let t_s = t_emit as f64 / 1e6;
                // Behaviours advance even for suppressed emissions so a
                // cycle violation leaves a gap, not a time shift.
                let mut values: Vec<(&str, PhysicalValue)> = Vec::with_capacity(states.len());
                for (name, behavior, state) in states.iter_mut() {
                    let v = behavior.value_at(t_s, state);
                    values.push((name, faults.apply(name, t_s, v)));
                }
                if !faults.suppresses(&sender.bus, sender.message_id, t_s) {
                    let payload = spec.encode(&values)?;
                    trace.push(Record {
                        timestamp_us: t_emit,
                        bus: bus.clone(),
                        message_id: sender.message_id,
                        payload: payload.clone(),
                        protocol: spec.protocol(),
                    });
                    for (to_bus, delay) in &routes {
                        trace.push(Record {
                            timestamp_us: t_emit + delay,
                            bus: to_bus.clone(),
                            message_id: sender.message_id,
                            payload: payload.clone(),
                            protocol: spec.protocol(),
                        });
                    }
                }
                t += sender.period_us.max(1);
            }
        }
        trace.sort_by_time();
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Fault;
    use ivnt_protocol::message::Protocol;
    use ivnt_protocol::signal::SignalSpec;

    fn wiper_network() -> NetworkModel {
        let mut catalog = Catalog::new();
        catalog
            .add_message(
                MessageSpec::builder(3, "WiperStatus", "FC", Protocol::Can)
                    .dlc(4)
                    .cycle_time_ms(100)
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
        let mut n = NetworkModel::new(catalog);
        n.set_behavior(
            "wpos",
            Behavior::Sine {
                amplitude: 45.0,
                period_s: 2.0,
                offset: 90.0,
            },
        );
        n.set_behavior("wvel", Behavior::Constant(PhysicalValue::Num(1.0)));
        n.auto_senders();
        n
    }

    #[test]
    fn simulate_emits_cyclically() {
        let n = wiper_network();
        let trace = n.simulate(1.0, 1, &FaultPlan::new()).unwrap();
        // 100 ms cycle over 1 s -> ~10 emissions.
        assert!(trace.len() >= 9 && trace.len() <= 11, "got {}", trace.len());
        // Time sorted.
        let times: Vec<u64> = trace.iter().map(|r| r.timestamp_us).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn simulation_is_deterministic() {
        let n = wiper_network();
        let a = n.simulate(2.0, 99, &FaultPlan::new()).unwrap();
        let b = n.simulate(2.0, 99, &FaultPlan::new()).unwrap();
        assert_eq!(a, b);
        let c = n.simulate(2.0, 100, &FaultPlan::new()).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn gateway_duplicates_records() {
        let mut n = wiper_network();
        n.add_gateway(GatewayRoute {
            from_bus: "FC".into(),
            to_bus: "DC".into(),
            message_ids: vec![3],
            delay_us: 50,
        });
        let trace = n.simulate(1.0, 1, &FaultPlan::new()).unwrap();
        let fc = trace.iter().filter(|r| r.bus.as_ref() == "FC").count();
        let dc = trace.iter().filter(|r| r.bus.as_ref() == "DC").count();
        assert_eq!(fc, dc);
        // Forwarded copies carry the identical payload.
        let first_fc = trace.iter().find(|r| r.bus.as_ref() == "FC").unwrap();
        let twin = trace
            .iter()
            .find(|r| r.bus.as_ref() == "DC" && r.timestamp_us == first_fc.timestamp_us + 50)
            .unwrap();
        assert_eq!(twin.payload, first_fc.payload);
    }

    #[test]
    fn resolve_follows_gateways() {
        let mut n = wiper_network();
        n.add_gateway(GatewayRoute {
            from_bus: "FC".into(),
            to_bus: "DC".into(),
            message_ids: vec![3],
            delay_us: 50,
        });
        assert!(n.resolve("FC", 3).is_some());
        assert_eq!(n.resolve("DC", 3).unwrap().name(), "WiperStatus");
        assert!(n.resolve("DC", 4).is_none());
        assert_eq!(
            n.channels_of(n.catalog().message("FC", 3).unwrap()),
            vec!["FC".to_string(), "DC".to_string()]
        );
    }

    #[test]
    fn cycle_violation_leaves_gap() {
        let n = wiper_network();
        let faults = FaultPlan::new().with(Fault::CycleViolation {
            bus: "FC".into(),
            message_id: 3,
            from_s: 0.4,
            to_s: 0.7,
        });
        let full = n.simulate(1.0, 1, &FaultPlan::new()).unwrap();
        let gapped = n.simulate(1.0, 1, &faults).unwrap();
        assert!(gapped.len() < full.len());
        let max_gap = gapped
            .records()
            .windows(2)
            .map(|w| w[1].timestamp_us - w[0].timestamp_us)
            .max()
            .unwrap();
        assert!(
            max_gap >= 250_000,
            "expected a >=250 ms gap, got {max_gap} us"
        );
    }

    #[test]
    fn missing_behavior_is_error() {
        let mut catalog = Catalog::new();
        catalog
            .add_message(
                MessageSpec::builder(1, "M", "B", Protocol::Can)
                    .signal(SignalSpec::builder("orphan", 0, 8).build().unwrap())
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let mut n = NetworkModel::new(catalog);
        n.auto_senders();
        assert!(matches!(
            n.simulate(1.0, 1, &FaultPlan::new()),
            Err(Error::InvalidScenario(_))
        ));
    }

    #[test]
    fn unknown_sender_is_error() {
        let n0 = wiper_network();
        let mut n = NetworkModel::new(n0.catalog().clone());
        n.add_sender(Sender {
            bus: "XX".into(),
            message_id: 9,
            period_us: 1000,
            jitter_us: 0,
            phase_us: 0,
        });
        assert!(matches!(
            n.simulate(0.1, 1, &FaultPlan::new()),
            Err(Error::InvalidScenario(_))
        ));
    }

    #[test]
    fn spike_fault_reaches_payload() {
        let n = wiper_network();
        let faults = FaultPlan::new().with(Fault::OutlierSpike {
            signal: "wpos".into(),
            at_s: 0.5,
            duration_s: 0.15,
            value: 170.0,
        });
        let trace = n.simulate(1.0, 1, &faults).unwrap();
        let spec = n.catalog().message("FC", 3).unwrap();
        let spiked = trace.iter().any(|r| {
            spec.signal("wpos")
                .unwrap()
                .decode(&r.payload)
                .unwrap()
                .as_num()
                .unwrap()
                > 160.0
        });
        assert!(spiked);
    }
}

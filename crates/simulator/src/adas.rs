//! ADAS object-list traffic: SOME/IP messages with presence-conditional
//! fields.
//!
//! Driver-assistance services publish detected objects over SOME/IP; the
//! payload carries a presence mask and only the fields that apply — the
//! "values of preceding bytes define the presence of a signal type in
//! succeeding bytes" case the paper calls out for interpretation rules
//! (Sec. 3.2).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ivnt_protocol::message::Protocol;
use ivnt_protocol::signal::SignalSpec;
use ivnt_protocol::someip::OptionalFieldLayout;

use crate::error::Result;
use crate::trace::{Record, Trace};

/// The object-list service description: layout plus per-field decode specs
/// (field-relative, i.e. bit positions within the field's bytes).
#[derive(Debug, Clone)]
pub struct ObjectListModel {
    /// Channel the service publishes on.
    pub bus: String,
    /// SOME/IP message id (plays `m_id`).
    pub message_id: u32,
    /// Optional-field layout: presence mask + field widths.
    pub layout: OptionalFieldLayout,
    /// One decode spec per field, rebased to the field's bytes.
    pub field_specs: Vec<SignalSpec>,
    /// Publication period in milliseconds.
    pub period_ms: u32,
}

/// The built-in object-detection service: three conditional fields.
///
/// | field | signal | width | coding |
/// |---|---|---|---|
/// | 0 | `obj_distance` | 2 B | `0.1 m/bit` — present while an object is tracked |
/// | 1 | `obj_rel_speed` | 2 B | signed, `0.05 m/s per bit` — present only while the object moves |
/// | 2 | `obj_class` | 1 B | enumeration — present while an object is tracked |
///
/// # Errors
///
/// Propagates spec-building failures (none for the built-in geometry).
pub fn object_list() -> Result<ObjectListModel> {
    Ok(ObjectListModel {
        bus: "ETH".into(),
        message_id: 0x00D5_0001,
        layout: OptionalFieldLayout::new(vec![2, 2, 1]),
        field_specs: vec![
            SignalSpec::builder("obj_distance", 0, 16)
                .factor(0.1)
                .unit("m")
                .build()?,
            SignalSpec::builder("obj_rel_speed", 0, 16)
                .raw_kind(ivnt_protocol::signal::RawKind::Signed)
                .factor(0.05)
                .unit("m/s")
                .build()?,
            SignalSpec::builder("obj_class", 0, 8)
                .labels([
                    (0u64, "unknown"),
                    (1, "car"),
                    (2, "truck"),
                    (3, "pedestrian"),
                    (4, "cyclist"),
                ])
                .build()?,
        ],
        period_ms: 100,
    })
}

/// Generates the object-list trace for `duration_s` seconds.
///
/// Objects appear and disappear (tracked ~70% of the time); while tracked,
/// the distance and class fields are present, and the relative-speed field
/// is present only while the object actually moves — so field byte offsets
/// shift between instances, exactly the situation conditional rules handle.
///
/// # Errors
///
/// Propagates payload-encoding failures.
pub fn generate_object_trace(model: &ObjectListModel, duration_s: f64, seed: u64) -> Result<Trace> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B1EC7);
    let mut trace = Trace::new();
    let bus: Arc<str> = Arc::from(model.bus.as_str());
    let period_us = model.period_ms as u64 * 1000;
    let duration_us = (duration_s * 1e6) as u64;

    let mut tracked = false;
    let mut next_toggle_us = 0u64;
    let mut distance = 50.0f64;
    let mut rel_speed = 0.0f64;
    let mut class_raw: u64 = 1;

    let mut t = 0u64;
    while t < duration_us {
        if t >= next_toggle_us {
            tracked = rng.gen_bool(0.7);
            next_toggle_us = t + rng.gen_range(2_000_000..8_000_000);
            if tracked {
                distance = rng.gen_range(5.0..120.0);
                rel_speed = rng.gen_range(-15.0..15.0);
                class_raw = rng.gen_range(0..5);
            }
        }
        let payload = if tracked {
            distance = (distance + rel_speed * model.period_ms as f64 / 1e3).clamp(1.0, 200.0);
            if rng.gen_bool(0.1) {
                rel_speed = rng.gen_range(-15.0..15.0);
            }
            let moving = rel_speed.abs() > 0.5;

            let mut dist_bytes = [0u8; 2];
            model.field_specs[0].encode(
                &mut dist_bytes,
                &ivnt_protocol::signal::PhysicalValue::Num((distance * 10.0).round() / 10.0),
            )?;
            let mut speed_bytes = [0u8; 2];
            model.field_specs[1].encode(
                &mut speed_bytes,
                &ivnt_protocol::signal::PhysicalValue::Num((rel_speed * 20.0).round() / 20.0),
            )?;
            let class_bytes = [class_raw as u8];

            let fields: Vec<Option<&[u8]>> = vec![
                Some(&dist_bytes[..]),
                moving.then_some(&speed_bytes[..]),
                Some(&class_bytes[..]),
            ];
            model.layout.encode(&fields)?
        } else {
            // No object: presence mask only.
            model.layout.encode(&[None, None, None])?
        };
        trace.push(Record {
            timestamp_us: t,
            bus: bus.clone(),
            message_id: model.message_id,
            payload,
            protocol: Protocol::SomeIp,
        });
        t += period_us;
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_trace_has_shifting_offsets() {
        let model = object_list().unwrap();
        let trace = generate_object_trace(&model, 60.0, 9).unwrap();
        assert_eq!(trace.len(), 600);
        // All three presence patterns occur: empty, full, and no-speed.
        let masks: std::collections::HashSet<u8> = trace.iter().map(|r| r.payload[0]).collect();
        assert!(masks.contains(&0b000), "no-object instants missing");
        assert!(masks.contains(&0b111), "full instants missing");
        assert!(masks.contains(&0b101), "stationary-object instants missing");
    }

    #[test]
    fn fields_decode_at_dynamic_offsets() {
        let model = object_list().unwrap();
        let trace = generate_object_trace(&model, 30.0, 4).unwrap();
        let mut decoded_any = false;
        for r in trace.iter() {
            if let Some(bytes) = model.layout.decode_field(&r.payload, 2).unwrap() {
                let v = model.field_specs[2].decode(&bytes).unwrap();
                assert!(v.as_text().is_some());
                decoded_any = true;
            }
        }
        assert!(decoded_any);
    }

    #[test]
    fn deterministic_generation() {
        let model = object_list().unwrap();
        let a = generate_object_trace(&model, 10.0, 7).unwrap();
        let b = generate_object_trace(&model, 10.0, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn payload_sizes_vary_with_presence() {
        let model = object_list().unwrap();
        let trace = generate_object_trace(&model, 60.0, 9).unwrap();
        let sizes: std::collections::HashSet<usize> =
            trace.iter().map(|r| r.payload.len()).collect();
        // 1 (mask only), 4 (mask+dist+class), 6 (all fields).
        assert!(sizes.contains(&1));
        assert!(sizes.contains(&4));
        assert!(sizes.contains(&6));
    }
}

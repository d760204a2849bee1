//! Property tests of the cluster wire protocol and result codec.
//!
//! Three claims, held against randomized input:
//!
//! 1. every message type round-trips through a frame byte-identically,
//! 2. any single-byte corruption or truncation of a frame yields a typed
//!    [`Error`] — never a panic, never a silently wrong message,
//! 3. the batch codec is bit-exact, including NaN payloads, signed
//!    zeros, infinities and subnormals.

use std::sync::Arc;

use ivnt_cluster::codec::{
    decode_batch, decode_batch_compressed, encode_batch, encode_batch_compressed,
};
use ivnt_cluster::plan::ShardTask;
use ivnt_cluster::wire::{decode_message, encode_frame, read_frame, Message};
use ivnt_cluster::{Error, JobSpec, PartialAccum};
use ivnt_frame::batch::Batch;
use ivnt_frame::column::Column;
use ivnt_frame::datatype::{DataType, Schema};
use proptest::prelude::*;

/// (selector, strings, numbers, blob) — enough entropy to build any
/// message variant.
fn message_from(
    selector: u8,
    s1: String,
    s2: String,
    signals: Vec<String>,
    nums: (u64, u64, u64, u64),
    blobs: Vec<Vec<u8>>,
) -> Message {
    let (a, b, c, d) = nums;
    match selector % 12 {
        0 => Message::Hello {
            version: a as u32,
            peer: s1,
        },
        1 => {
            // Finite parameter floats only: the round-trip is asserted via
            // `PartialEq`, which NaN would defeat even though the wire
            // preserves its bits.
            let params = ivnt_core::rules::InferParams {
                min_samples: b,
                rise_ratio: (c % 1_000) as f64 * 0.125,
                counter_fraction: (d % 1_000) as f64 * 0.001,
                carry_fraction: (a % 1_000) as f64 * 0.001,
            };
            let rule_source = match d % 3 {
                0 => ivnt_core::rules::RuleSource::Authored,
                1 => ivnt_core::rules::RuleSource::Inferred { params },
                _ => ivnt_core::rules::RuleSource::Merged { params },
            };
            Message::Job {
                job: JobSpec {
                    scenario: s1,
                    seed: (a % 2 == 0).then_some(b),
                    examples: (c % 2 == 0).then_some(d),
                    signals,
                    store_path: s2,
                    rule_source,
                },
                heartbeat_ms: a as u32,
            }
        }
        2 => Message::Assign {
            task: ShardTask {
                task_id: a as u32,
                group_start: (b % 1_000) as u32,
                group_end: (b % 1_000) as u32 + (c % 1_000) as u32,
                rows_estimated: d,
            },
        },
        3 => Message::Heartbeat {
            task_id: a as u32,
            seq: b,
        },
        4 => Message::TaskError {
            task_id: a as u32,
            message: s1,
        },
        5 => Message::MetricsRequest,
        6 => {
            // Finite floats only: the round-trip is asserted via
            // `PartialEq`, which NaN would defeat even though the wire
            // preserves its bits.
            let mut snapshot = ivnt_obs::Snapshot::default();
            snapshot.counters.insert(s1.clone(), a);
            snapshot.gauges.insert(s2, (b % 1_000_000) as f64 * 0.125);
            snapshot.histograms.insert(
                format!("{s1}_hist"),
                ivnt_obs::HistogramSnapshot {
                    bounds: vec![(c % 100) as f64, (c % 100) as f64 + 1.0],
                    buckets: vec![a % 7, b % 7, c % 7],
                    count: (a % 7) + (b % 7) + (c % 7),
                    sum: (d % 1_000) as f64 * 0.5,
                },
            );
            snapshot.spans.insert(
                format!("run/{s1}"),
                ivnt_obs::SpanStat {
                    name: s1,
                    parent: "run".into(),
                    count: d % 16,
                    seconds: (a % 1_000) as f64 * 0.25,
                },
            );
            Message::Metrics { snapshot }
        }
        7 => Message::PartialResult {
            task_id: a as u32,
            seq: (b % 1_000) as u32,
            group: (c % 1_000) as u32,
            raw_bytes: d,
            batches: blobs,
        },
        8 => Message::TaskDone {
            task_id: a as u32,
            parts: (b % 1_000) as u32,
            group_end: (c % 1_000) as u32,
        },
        9 => Message::Truncate {
            task_id: a as u32,
            group_end: (b % 1_000) as u32,
        },
        10 => Message::Truncated {
            task_id: a as u32,
            group_end: (b % 1_000) as u32,
        },
        _ => Message::Shutdown,
    }
}

proptest! {
    /// Claim 1: encode → frame → decode is the identity for every
    /// message variant.
    #[test]
    fn every_message_type_roundtrips(
        selector in 0u8..12,
        s1 in "\\PC{0,24}",
        s2 in "\\PC{0,24}",
        signals in prop::collection::vec("\\PC{0,12}", 0..5),
        nums in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        blobs in prop::collection::vec(prop::collection::vec(0u8..=255, 0..32), 0..4),
    ) {
        let msg = message_from(selector, s1, s2, signals, nums, blobs);
        let frame = encode_frame(&msg);
        let decoded = read_frame(&mut std::io::Cursor::new(frame)).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// Claim 2a: flipping any byte of a frame is detected with a typed
    /// error. The length prefix, payload and checksum are all covered.
    #[test]
    fn corrupted_frame_yields_typed_error(
        selector in 0u8..12,
        s1 in "\\PC{0,16}",
        seq in 0u64..u64::MAX,
        victim in 0usize..4096,
        mask in 1u8..=255,
    ) {
        let msg = message_from(
            selector, s1, String::new(), Vec::new(), (seq, seq, 3, 4), vec![vec![9, 9]],
        );
        let mut frame = encode_frame(&msg);
        let victim = victim % frame.len();
        frame[victim] ^= mask;
        match read_frame(&mut std::io::Cursor::new(frame)) {
            // Typed rejection is the expected outcome.
            Err(
                Error::FrameChecksum
                | Error::FrameTooLarge(_)
                | Error::Truncated(_)
                | Error::Protocol(_)
                | Error::Io(_),
            ) => {}
            Err(other) => prop_assert!(false, "untyped rejection: {other:?}"),
            // A flipped length prefix can only "succeed" by reading a
            // *shorter* self-consistent frame — never the original.
            Ok(decoded) => prop_assert_ne!(decoded, msg),
        }
    }

    /// Claim 2b: every strict prefix of a frame is a typed truncation,
    /// not a panic or a hang.
    #[test]
    fn truncated_frame_yields_typed_error(
        selector in 0u8..12,
        s1 in "\\PC{0,16}",
        cut in 0usize..4096,
    ) {
        let msg = message_from(
            selector, s1, String::new(), Vec::new(), (1, 2, 3, 4), vec![vec![7; 3]],
        );
        let frame = encode_frame(&msg);
        let cut = cut % frame.len();
        let err = read_frame(&mut std::io::Cursor::new(frame[..cut].to_vec())).unwrap_err();
        prop_assert!(
            matches!(err, Error::Truncated(_)),
            "cut at {cut}: {err:?}"
        );
    }

    /// Claim 2c: fully arbitrary bytes never panic either decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = read_frame(&mut std::io::Cursor::new(bytes.clone()));
        let _ = decode_message(&bytes);
        let schema = wide_schema();
        let _ = decode_batch(&bytes, &schema);
        let _ = decode_batch_compressed(&bytes, &schema);
    }

    /// Claim 3: the batch codec is bit-exact over all five column types,
    /// nulls included; floats are compared as raw bit patterns.
    #[test]
    fn batch_codec_is_bit_exact(
        bools in prop::collection::vec(prop::option::of(0u8..2), 0..40),
        ints in prop::collection::vec(prop::option::of(i64::MIN..i64::MAX), 0..40),
        float_bits in prop::collection::vec(prop::option::of(0u64..u64::MAX), 0..40),
        strs in prop::collection::vec(prop::option::of("\\PC{0,8}"), 0..40),
        blobs in prop::collection::vec(
            prop::option::of(prop::collection::vec(0u8..=255, 0..8)), 0..40,
        ),
    ) {
        let rows = bools
            .len()
            .min(ints.len())
            .min(float_bits.len())
            .min(strs.len())
            .min(blobs.len());
        let batch = Batch::new(
            wide_schema(),
            vec![
                Column::Bool(bools[..rows].iter().map(|c| c.map(|b| b == 1)).collect()),
                Column::Int(ints[..rows].to_vec()),
                Column::Float(
                    float_bits[..rows]
                        .iter()
                        .map(|c| c.map(f64::from_bits))
                        .collect(),
                ),
                Column::Str(
                    strs[..rows]
                        .iter()
                        .map(|c| c.as_deref().map(Arc::from))
                        .collect(),
                ),
                Column::Bytes(
                    blobs[..rows]
                        .iter()
                        .map(|c| c.as_deref().map(Arc::from))
                        .collect(),
                ),
            ],
        )
        .unwrap();
        let encoded = encode_batch(&batch);
        let decoded = decode_batch(&encoded, &wide_schema()).unwrap();
        prop_assert_eq!(decoded.num_rows(), rows);
        // Canonical encoding: re-encoding the decoded batch reproduces
        // the exact bytes, which subsumes per-cell bit equality.
        prop_assert_eq!(encode_batch(&decoded), encoded);

        // Claim 3b, the v3 compressed codec: same canonical-encoding
        // property, and decoding lands on the identical batch — so the
        // compressed wire path cannot perturb a single bit either.
        let packed = encode_batch_compressed(&batch);
        let unpacked = decode_batch_compressed(&packed, &wide_schema()).unwrap();
        prop_assert_eq!(encode_batch_compressed(&unpacked), packed);
        prop_assert_eq!(encode_batch(&unpacked), encode_batch(&batch));
    }

    /// Claim 4: however `PartialResult` slices interleave on the wire,
    /// the accumulator reassembles the exact in-order blob list — the
    /// merge is a function of the slice *contents*, not their arrival
    /// order.
    #[test]
    fn partial_slices_merge_identically_in_any_arrival_order(
        sizes in prop::collection::vec(0usize..4, 1..12),
        keys in prop::collection::vec(0u64..u64::MAX, 12),
    ) {
        // Slice `seq` covers group `2 * seq` and carries `sizes[seq]`
        // distinguishable blobs.
        let slices: Vec<(u32, u32, Vec<Vec<u8>>)> = sizes
            .iter()
            .enumerate()
            .map(|(seq, &n)| {
                let blobs = (0..n).map(|j| vec![seq as u8, j as u8]).collect();
                (seq as u32, 2 * seq as u32, blobs)
            })
            .collect();

        let mut in_order = PartialAccum::new();
        for (seq, group, blobs) in &slices {
            in_order.insert(*seq, *group, blobs.clone()).unwrap();
        }
        let expected = in_order.finish(slices.len() as u32).unwrap();

        // A key-sorted permutation of the arrival order.
        let mut shuffled: Vec<&(u32, u32, Vec<Vec<u8>>)> = slices.iter().collect();
        shuffled.sort_by_key(|(seq, _, _)| keys[*seq as usize]);
        let mut accum = PartialAccum::new();
        for (seq, group, blobs) in shuffled {
            accum.insert(*seq, *group, blobs.clone()).unwrap();
        }
        prop_assert_eq!(accum.finish(slices.len() as u32).unwrap(), expected);
    }
}

fn wide_schema() -> Arc<Schema> {
    Schema::from_pairs([
        ("b", DataType::Bool),
        ("i", DataType::Int),
        ("f", DataType::Float),
        ("s", DataType::Str),
        ("y", DataType::Bytes),
    ])
    .expect("static schema")
    .into_shared()
}

/// The floats that break text-based protocols must survive ours.
#[test]
fn adversarial_floats_roundtrip_bitwise() {
    let specials = [
        f64::NAN,
        f64::from_bits(0x7FF8_0000_0000_0001), // NaN with payload
        f64::from_bits(0xFFF0_0000_0000_0001), // signaling-ish NaN
        f64::NEG_INFINITY,
        f64::INFINITY,
        -0.0,
        0.0,
        f64::MIN_POSITIVE / 2.0, // subnormal
        f64::MAX,
    ];
    let schema = Schema::from_pairs([("f", DataType::Float)])
        .unwrap()
        .into_shared();
    let batch = Batch::new(
        schema.clone(),
        vec![Column::Float(specials.iter().copied().map(Some).collect())],
    )
    .unwrap();
    let decoded = decode_batch(&encode_batch(&batch), &schema).unwrap();
    match &decoded.columns()[0] {
        Column::Float(cells) => {
            for (got, want) in cells.iter().zip(specials.iter()) {
                assert_eq!(got.unwrap().to_bits(), want.to_bits());
            }
        }
        other => panic!("wrong column type: {other:?}"),
    }
}

//! Property tests: round-trip fidelity, zone-map soundness and
//! corruption robustness of the store format.

use std::io::Cursor;
use std::sync::Arc;

use ivnt_protocol::message::Protocol;
use ivnt_store::{Error, Predicate, Record, StoreReader, StoreWriter, WriterOptions};
use proptest::prelude::*;

const BUSES: [&str; 3] = ["FC", "DC", "K-LIN"];

/// Raw generator tuple per record: (time delta µs, bus index, message id,
/// payload, protocol tag).
type RawRecord = (u32, usize, u32, Vec<u8>, u8);

fn build_records(raw: Vec<RawRecord>) -> Vec<Record> {
    let buses: Vec<Arc<str>> = BUSES.iter().map(|&b| Arc::from(b)).collect();
    let mut t = 0u64;
    raw.into_iter()
        .map(|(dt, bus, mid, payload, proto)| {
            t += u64::from(dt);
            Record {
                timestamp_us: t,
                bus: buses[bus % BUSES.len()].clone(),
                message_id: mid,
                payload,
                protocol: match proto % 4 {
                    0 => Protocol::Can,
                    1 => Protocol::Lin,
                    2 => Protocol::SomeIp,
                    _ => Protocol::CanFd,
                },
            }
        })
        .collect()
}

fn raw_record_strategy() -> impl Strategy<Value = RawRecord> {
    (
        0u32..50_000,
        0usize..BUSES.len(),
        0u32..24,
        prop::collection::vec(0u8..=255, 0..9),
        0u8..4,
    )
}

fn write_store(records: &[Record], options: WriterOptions) -> Vec<u8> {
    let mut writer = StoreWriter::new(Vec::new(), options).unwrap();
    for r in records {
        writer.append(r).unwrap();
    }
    writer.finish().unwrap()
}

proptest! {
    /// Whatever layout parameters the writer uses, a full scan returns
    /// the exact input sequence.
    #[test]
    fn roundtrip_is_lossless(
        raw in prop::collection::vec(raw_record_strategy(), 0..400),
        chunk_rows in 1usize..96,
        chunks_per_group in 1usize..6,
        cluster_bit in 0u8..2,
    ) {
        let records = build_records(raw);
        let bytes = write_store(&records, WriterOptions {
            chunk_rows,
            chunks_per_group,
            cluster: cluster_bit == 1,
        });
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        prop_assert_eq!(reader.footer().rows, records.len() as u64);
        prop_assert_eq!(reader.read_all().unwrap(), records);
    }

    /// Zone-map soundness, stated end-to-end: a predicate scan returns
    /// exactly the brute-force row filter. If a skipped chunk ever held a
    /// matching row, that row would be missing here.
    #[test]
    fn scan_equals_brute_force_filter(
        raw in prop::collection::vec(raw_record_strategy(), 0..400),
        chunk_rows in 1usize..64,
        chunks_per_group in 1usize..6,
        cluster_bit in 0u8..2,
        sel_bus in 0usize..BUSES.len(),
        sel_mid in 0u32..24,
        from_us in 0u64..6_000_000,
        window_us in 0u64..6_000_000,
    ) {
        let records = build_records(raw);
        let bytes = write_store(&records, WriterOptions {
            chunk_rows,
            chunks_per_group,
            cluster: cluster_bit == 1,
        });
        let to_us = from_us.saturating_add(window_us);
        let pred = Predicate::for_messages([(BUSES[sel_bus], sel_mid)])
            .with_time_range_us(from_us, to_us);
        let mut got = Vec::new();
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        let stats = reader.scan::<Error, _>(&pred, |mut g| {
            got.append(&mut g);
            Ok(())
        }).unwrap();
        let expected: Vec<Record> = records
            .iter()
            .filter(|r| {
                r.bus.as_ref() == BUSES[sel_bus]
                    && r.message_id == sel_mid
                    && (from_us..=to_us).contains(&r.timestamp_us)
            })
            .cloned()
            .collect();
        prop_assert_eq!(stats.rows_emitted, expected.len() as u64);
        prop_assert_eq!(got, expected);
        prop_assert!(stats.peak_rows_buffered <= chunk_rows * chunks_per_group);
    }

    /// The dictionary may grow for the whole life of the file: bus
    /// `B{i/stride}` first appears at row `i*stride`, so later groups keep
    /// widening the footer bitset past byte boundaries after earlier
    /// groups already flushed shorter ones.
    #[test]
    fn growing_bus_dictionary_roundtrips(
        n in 1usize..300,
        stride in 1usize..24,
        chunk_rows in 1usize..32,
        chunks_per_group in 1usize..4,
    ) {
        let records: Vec<Record> = (0..n)
            .map(|i| Record {
                timestamp_us: i as u64 * 100,
                bus: Arc::from(format!("B{}", i / stride).as_str()),
                message_id: (i % 7) as u32,
                payload: vec![i as u8],
                protocol: Protocol::Can,
            })
            .collect();
        let bytes = write_store(&records, WriterOptions {
            chunk_rows,
            chunks_per_group,
            cluster: true,
        });
        let mut reader = StoreReader::from_reader(Cursor::new(bytes)).unwrap();
        prop_assert_eq!(reader.footer().buses.len(), records.len().div_ceil(stride));
        prop_assert_eq!(reader.read_all().unwrap(), records);
    }

    /// Damaged files yield typed errors, never panics and never silently
    /// wrong data: any truncation, single-byte flip or file of arbitrary
    /// bytes is either caught at open or at scan time. The one exception
    /// is a flip inside a group frame header: those headers index the file
    /// for recovery and followers, a sealed file's reader never consults
    /// them, so it must still read back exactly the original records.
    #[test]
    fn corruption_never_panics(
        raw in prop::collection::vec(raw_record_strategy(), 1..150),
        chunk_rows in 1usize..32,
        damage_kind in 0u8..3,
        damage_at in 0usize..10_000,
        noise in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let records = build_records(raw);
        let mut bytes = write_store(&records, WriterOptions {
            chunk_rows,
            chunks_per_group: 2,
            cluster: true,
        });
        let chunks = StoreReader::from_reader(Cursor::new(bytes.clone()))
            .unwrap()
            .footer()
            .chunks
            .clone();
        let frames_end = chunks.last().map_or(8, |c| c.offset + u64::from(c.len));
        let in_frame_header = |at: u64| {
            (8..frames_end).contains(&at)
                && !chunks
                    .iter()
                    .any(|c| (c.offset..c.offset + u64::from(c.len)).contains(&at))
        };
        let mut header_flip = false;
        match damage_kind {
            0 => {
                // Truncate somewhere strictly inside the file.
                let cut = damage_at % bytes.len().max(1);
                bytes.truncate(cut);
            }
            1 => {
                let at = damage_at % bytes.len();
                header_flip = in_frame_header(at as u64);
                bytes[at] ^= 0x5A;
            }
            _ => bytes = noise,
        }
        match StoreReader::from_reader(Cursor::new(bytes)) {
            Err(_) => prop_assert!(!header_flip),
            Ok(mut reader) if header_flip => {
                prop_assert_eq!(reader.read_all().unwrap(), records);
            }
            Ok(mut reader) => {
                prop_assert!(reader.read_all().is_err());
            }
        }
    }
}

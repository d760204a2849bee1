//! The canonical tabular shape of a raw trace (`K_b`).
//!
//! Column names and the raw schema live here — *below* the pipeline — so
//! the on-disk store, the simulator's repository and the interpretation
//! engine all agree on one definition (`ivnt_core::tabular` re-exports
//! these).

use std::sync::Arc;

use ivnt_frame::prelude::*;

use crate::error::Result;
use crate::record::Record;

/// Column names of the raw-trace frame.
pub mod columns {
    /// Timestamp in seconds (`t`).
    pub const T: &str = "t";
    /// Payload bytes (`l`).
    pub const PAYLOAD: &str = "l";
    /// Channel identifier (`b_id`).
    pub const BUS: &str = "b_id";
    /// Message identifier (`m_id`).
    pub const MESSAGE_ID: &str = "m_id";
    /// Protocol tag (`m_info`).
    pub const INFO: &str = "m_info";
}

/// Schema of the tabular raw trace `K_b`.
pub fn raw_trace_schema() -> Arc<Schema> {
    Schema::from_pairs([
        (columns::T, DataType::Float),
        (columns::PAYLOAD, DataType::Bytes),
        (columns::BUS, DataType::Str),
        (columns::MESSAGE_ID, DataType::Int),
        (columns::INFO, DataType::Str),
    ])
    .expect("static schema is valid")
    .into_shared()
}

/// Converts one batch of records into a raw-trace [`Batch`], column-wise.
///
/// This is the one conversion from records to the tabular `K_b`: store
/// scans and in-memory traces (`ivnt_core::tabular::trace_to_frame`) both
/// go through it, so their frames agree by construction. Cells are
/// seconds as `µs / 1e6`, protocol display names and the records' shared
/// bus `Arc`s (downstream operators exploit the pointer identity of
/// repeated bus names).
///
/// # Errors
///
/// Propagates tabular-engine failures.
pub fn records_to_batch(schema: Arc<Schema>, records: &[Record]) -> Result<Batch> {
    // Protocol display names repeat endlessly; intern them per batch.
    let mut proto_names: Vec<(ivnt_protocol::message::Protocol, Arc<str>)> = Vec::new();
    let mut protos = Vec::with_capacity(records.len());
    for r in records {
        let name = match proto_names.iter().find(|(p, _)| *p == r.protocol) {
            Some((_, name)) => name.clone(),
            None => {
                let name: Arc<str> = Arc::from(r.protocol.to_string().as_str());
                proto_names.push((r.protocol, name.clone()));
                name
            }
        };
        protos.push(name);
    }
    let columns = vec![
        Column::from_floats(records.iter().map(Record::timestamp_s)),
        Column::from_byte_payloads(records.iter().map(|r| Arc::from(r.payload.as_slice()))),
        Column::from_strs(records.iter().map(|r| r.bus.clone())),
        Column::from_ints(records.iter().map(|r| i64::from(r.message_id))),
        Column::from_strs(protos),
    ];
    Ok(Batch::new(schema, columns)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivnt_protocol::message::Protocol;

    #[test]
    fn batch_matches_row_wise_conversion() {
        let records = vec![
            Record {
                timestamp_us: 1_000,
                bus: Arc::from("FC"),
                message_id: 3,
                payload: vec![0xAB],
                protocol: Protocol::Can,
            },
            Record {
                timestamp_us: 2_500,
                bus: Arc::from("DC"),
                message_id: 9,
                payload: vec![],
                protocol: Protocol::Lin,
            },
        ];
        let schema = raw_trace_schema();
        let batch = records_to_batch(schema.clone(), &records).unwrap();
        let row_wise = Batch::from_rows(
            schema,
            records.iter().map(|r| {
                vec![
                    Value::Float(r.timestamp_s()),
                    Value::from(r.payload.clone()),
                    Value::Str(r.bus.clone()),
                    Value::Int(i64::from(r.message_id)),
                    Value::from(r.protocol.to_string()),
                ]
            }),
        )
        .unwrap();
        assert_eq!(batch, row_wise);
    }

    #[test]
    fn empty_batch_keeps_schema() {
        let batch = records_to_batch(raw_trace_schema(), &[]).unwrap();
        assert_eq!(batch.num_rows(), 0);
        assert_eq!(batch.schema().len(), 5);
    }
}

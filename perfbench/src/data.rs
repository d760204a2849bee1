//! Workload inputs beyond what `ivnt-bench` already generates (journeys,
//! domain signal selections and pipelines come from there): the stores
//! written from a journey, and the raw size of a trace.

use std::path::Path;

use ivnt_simulator::scenario::GeneratedDataSet;
use ivnt_simulator::store::to_store_record;
use ivnt_store::{StoreWriter, WriterOptions};

use crate::Result;

/// Writes `data`'s trace as a batch `.ivns` store with the default layout
/// and returns its size in bytes.
///
/// # Errors
///
/// Store I/O failures.
pub fn write_store(data: &GeneratedDataSet, path: &Path) -> Result<u64> {
    let mut writer = StoreWriter::create(path, WriterOptions::default())?;
    for r in data.trace.records() {
        writer.append(&to_store_record(r))?;
    }
    writer.finish()?;
    Ok(std::fs::metadata(path)?.len())
}

/// Raw bytes a trace carries: per record its timestamp (8), message id
/// (4), protocol (1) and payload; the bus name is dictionary-encoded.
pub fn trace_bytes(data: &GeneratedDataSet) -> u64 {
    data.trace
        .records()
        .iter()
        .map(|r| 13 + r.payload.len() as u64)
        .sum()
}

//! Hash joins between DataFrames.

use std::collections::HashMap;
use std::sync::Arc;

use crate::batch::Batch;
use crate::column::Column;
use crate::datatype::{DataType, Field, Schema};
use crate::error::{Error, Result};
use crate::exec::Executor;
use crate::frame::DataFrame;
use crate::value::Value;

/// Coordinates of a build-side row: (partition, row).
type RowRef = (u32, u32);

/// The build-side hash table, specialized by key type.
///
/// The paper's hot join is `K_pre ⋈ U_comb` on `(b_id, m_id)` — a `(Str,
/// Int)` key — and trace tables are keyed by `m_id` alone elsewhere, so
/// those two shapes get fast paths that hash primitives directly instead of
/// allocating a boxed `Vec<Value>` key per row on both build and probe
/// sides. Strings are interned once on the (small, broadcast) build side;
/// probes then hash a `(u32, i64)` pair.
enum BuildTable {
    /// Single `Int` key.
    Int(HashMap<i64, Vec<RowRef>>),
    /// `(Str, Int)` composite key with build-side string interning.
    StrInt {
        ids: HashMap<Arc<str>, u32>,
        table: HashMap<(u32, i64), Vec<RowRef>>,
    },
    /// Any other key shape: boxed values (reference path).
    General(HashMap<Vec<Value>, Vec<RowRef>>),
}

fn key_types(schema: &Schema, idx: &[usize]) -> Vec<DataType> {
    idx.iter()
        .map(|&i| schema.fields()[i].data_type())
        .collect()
}

fn build_table(right: &DataFrame, right_key_idx: &[usize], kinds: &[DataType]) -> BuildTable {
    match kinds {
        [DataType::Int] => {
            let mut table: HashMap<i64, Vec<RowRef>> = HashMap::new();
            for (pi, batch) in right.partitions().iter().enumerate() {
                let keys = batch
                    .column(right_key_idx[0])
                    .as_int_slice()
                    .expect("schema-checked int key column");
                for (row, key) in keys.iter().enumerate() {
                    if let Some(k) = key {
                        table.entry(*k).or_default().push((pi as u32, row as u32));
                    }
                }
            }
            BuildTable::Int(table)
        }
        [DataType::Str, DataType::Int] => {
            let mut ids: HashMap<Arc<str>, u32> = HashMap::new();
            let mut table: HashMap<(u32, i64), Vec<RowRef>> = HashMap::new();
            for (pi, batch) in right.partitions().iter().enumerate() {
                let strs = batch
                    .column(right_key_idx[0])
                    .as_str_slice()
                    .expect("schema-checked str key column");
                let ints = batch
                    .column(right_key_idx[1])
                    .as_int_slice()
                    .expect("schema-checked int key column");
                for (row, (s, i)) in strs.iter().zip(ints).enumerate() {
                    let (Some(s), Some(i)) = (s, i) else {
                        continue; // null keys never match, as in SQL
                    };
                    let next_id = ids.len() as u32;
                    let sid = *ids.entry(s.clone()).or_insert(next_id);
                    table
                        .entry((sid, *i))
                        .or_default()
                        .push((pi as u32, row as u32));
                }
            }
            BuildTable::StrInt { ids, table }
        }
        _ => {
            let mut table: HashMap<Vec<Value>, Vec<RowRef>> = HashMap::new();
            for (pi, batch) in right.partitions().iter().enumerate() {
                for row in 0..batch.num_rows() {
                    let key: Vec<Value> = right_key_idx
                        .iter()
                        .map(|&ci| batch.column(ci).get(row))
                        .collect();
                    if key.iter().any(Value::is_null) {
                        continue; // null keys never match, as in SQL
                    }
                    table.entry(key).or_default().push((pi as u32, row as u32));
                }
            }
            BuildTable::General(table)
        }
    }
}

/// Inner hash join: builds a hash table over the (usually smaller) right
/// side, then probes left partitions in parallel.
///
/// This mirrors a Spark broadcast join, which is exactly the paper's use:
/// the raw trace `K_pre` (huge, partitioned) is joined with the rule table
/// `U_comb` (tiny, broadcast) on `(m_id, b_id)`.
pub(crate) fn hash_join(
    left: &DataFrame,
    right: &DataFrame,
    left_keys: &[&str],
    right_keys: &[&str],
    exec: Executor,
) -> Result<DataFrame> {
    if left_keys.is_empty() || left_keys.len() != right_keys.len() {
        return Err(Error::InvalidArgument(
            "join requires equally many non-empty left and right keys".into(),
        ));
    }
    let left_schema = left.schema();
    let right_schema = right.schema();
    let left_key_idx: Vec<usize> = left_keys
        .iter()
        .map(|k| left_schema.index_of(k))
        .collect::<Result<_>>()?;
    let right_key_idx: Vec<usize> = right_keys
        .iter()
        .map(|k| right_schema.index_of(k))
        .collect::<Result<_>>()?;

    // Output carries all left columns plus the right side's non-key columns.
    let right_out_idx: Vec<usize> = (0..right_schema.len())
        .filter(|i| !right_key_idx.contains(i))
        .collect();
    let mut fields: Vec<Field> = left_schema.fields().to_vec();
    for &i in &right_out_idx {
        let f = &right_schema.fields()[i];
        if left_schema.contains(f.name()) {
            return Err(Error::DuplicateColumn(f.name().to_string()));
        }
        fields.push(f.clone());
    }
    let out_schema = Schema::new(fields)?.into_shared();

    // The typed fast paths require the same key shape on both sides;
    // mismatched shapes fall back to boxed values (and never match, as
    // before).
    let left_kinds = key_types(left_schema, &left_key_idx);
    let right_kinds = key_types(right_schema, &right_key_idx);
    let kinds = if left_kinds == right_kinds {
        left_kinds
    } else {
        Vec::new()
    };
    let table = Arc::new(build_table(right, &right_key_idx, &kinds));
    let right_parts: Arc<Vec<Batch>> = Arc::new(right.partitions().to_vec());

    let probed: Vec<Result<Batch>> = exec.map_ref(left.partitions(), |lbatch| {
        probe_partition(
            lbatch,
            &left_key_idx,
            &table,
            &right_parts,
            &right_out_idx,
            &out_schema,
        )
    });
    let partitions = probed.into_iter().collect::<Result<Vec<_>>>()?;
    Ok(DataFrame::from_partitions(out_schema, partitions)?.with_executor(exec))
}

/// Collects the match coordinates for one left partition: `left_rows[k]` is
/// the probe row of output row `k` and `right_rows[k]` its build-side hit.
/// Unmatched probe rows emit nothing.
fn probe_matches(
    lbatch: &Batch,
    left_key_idx: &[usize],
    table: &BuildTable,
) -> (Vec<usize>, Vec<RowRef>) {
    let mut left_rows: Vec<usize> = Vec::new();
    let mut right_rows: Vec<RowRef> = Vec::new();
    let mut emit = |row: usize, hits: Option<&Vec<RowRef>>| {
        for &hit in hits.into_iter().flatten() {
            left_rows.push(row);
            right_rows.push(hit);
        }
    };
    match table {
        BuildTable::Int(table) => {
            let keys = lbatch
                .column(left_key_idx[0])
                .as_int_slice()
                .expect("schema-checked int key column");
            for (row, key) in keys.iter().enumerate() {
                emit(row, key.and_then(|k| table.get(&k)));
            }
        }
        BuildTable::StrInt { ids, table } => {
            let strs = lbatch
                .column(left_key_idx[0])
                .as_str_slice()
                .expect("schema-checked str key column");
            let ints = lbatch
                .column(left_key_idx[1])
                .as_int_slice()
                .expect("schema-checked int key column");
            for (row, (s, i)) in strs.iter().zip(ints).enumerate() {
                let hits = match (s, i) {
                    (Some(s), Some(i)) => ids
                        .get(s.as_ref() as &str)
                        .and_then(|sid| table.get(&(*sid, *i))),
                    _ => None,
                };
                emit(row, hits);
            }
        }
        BuildTable::General(table) => {
            let mut key = Vec::with_capacity(left_key_idx.len());
            for row in 0..lbatch.num_rows() {
                key.clear();
                key.extend(left_key_idx.iter().map(|&ci| lbatch.column(ci).get(row)));
                let hits = if key.iter().any(Value::is_null) {
                    None
                } else {
                    table.get(&key)
                };
                emit(row, hits);
            }
        }
    }
    (left_rows, right_rows)
}

/// Typed gather of one right-side column along the hit list — the
/// columnar replacement for materializing each cell through
/// `Column::push(Value)`.
fn gather_right_column(
    right_parts: &[Batch],
    column_idx: usize,
    dtype: DataType,
    hits: &[RowRef],
) -> Column {
    macro_rules! gather {
        ($variant:ident, $slice:ident) => {{
            let slices: Vec<_> = right_parts
                .iter()
                .map(|b| {
                    b.column(column_idx)
                        .$slice()
                        .expect("schema-checked column type")
                })
                .collect();
            Column::$variant(
                hits.iter()
                    .map(|&(pi, ri)| slices[pi as usize][ri as usize].clone())
                    .collect(),
            )
        }};
    }
    match dtype {
        DataType::Bool => gather!(Bool, as_bool_slice),
        DataType::Int => gather!(Int, as_int_slice),
        DataType::Float => gather!(Float, as_float_slice),
        DataType::Str => gather!(Str, as_str_slice),
        DataType::Bytes => gather!(Bytes, as_bytes_slice),
    }
}

fn probe_partition(
    lbatch: &Batch,
    left_key_idx: &[usize],
    table: &BuildTable,
    right_parts: &[Batch],
    right_out_idx: &[usize],
    out_schema: &Arc<Schema>,
) -> Result<Batch> {
    // Gather match coordinates first, then materialize with typed takes on
    // the left and typed gathers on the right (no per-cell boxing on either
    // side).
    let (left_rows, right_rows) = probe_matches(lbatch, left_key_idx, table);
    let left_out = lbatch.take(&left_rows);
    let n_left = lbatch.num_columns();
    let mut columns: Vec<Column> = left_out.columns().to_vec();
    for (out_off, &rci) in right_out_idx.iter().enumerate() {
        let dtype = out_schema.fields()[n_left + out_off].data_type();
        columns.push(gather_right_column(right_parts, rci, dtype, &right_rows));
    }
    Batch::new(out_schema.clone(), columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::frame::DataFrame;

    fn left() -> DataFrame {
        DataFrame::from_rows(
            Schema::from_pairs([("m_id", DataType::Int), ("payload", DataType::Str)])
                .unwrap()
                .into_shared(),
            vec![
                vec![Value::Int(3), Value::from("aa")],
                vec![Value::Int(7), Value::from("bb")],
                vec![Value::Int(3), Value::from("cc")],
                vec![Value::Null, Value::from("dd")],
            ],
        )
        .unwrap()
    }

    fn right() -> DataFrame {
        DataFrame::from_rows(
            Schema::from_pairs([("id", DataType::Int), ("rule", DataType::Str)])
                .unwrap()
                .into_shared(),
            vec![
                vec![Value::Int(3), Value::from("wpos")],
                vec![Value::Int(3), Value::from("wvel")],
                vec![Value::Int(9), Value::from("xx")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn inner_join_one_to_many() {
        let j = left().join(&right(), &["m_id"], &["id"]).unwrap();
        // rows with m_id=3 each match two rules
        assert_eq!(j.num_rows(), 4);
        let rows = j.collect_rows().unwrap();
        assert!(rows.iter().all(|r| r[0] == Value::Int(3)));
    }

    #[test]
    fn null_keys_never_match() {
        let j = left().join(&right(), &["m_id"], &["id"]).unwrap();
        assert!(j.collect_rows().unwrap().iter().all(|r| !r[0].is_null()));
    }

    #[test]
    fn str_int_composite_key_fast_path() {
        let l = DataFrame::from_rows(
            Schema::from_pairs([
                ("b_id", DataType::Str),
                ("m_id", DataType::Int),
                ("payload", DataType::Str),
            ])
            .unwrap()
            .into_shared(),
            vec![
                vec![Value::from("FC"), Value::Int(3), Value::from("aa")],
                vec![Value::from("DC"), Value::Int(3), Value::from("bb")],
                vec![Value::from("FC"), Value::Int(9), Value::from("cc")],
                vec![Value::Null, Value::Int(3), Value::from("dd")],
                vec![Value::from("ZZ"), Value::Int(3), Value::from("ee")],
            ],
        )
        .unwrap();
        let r = DataFrame::from_rows(
            Schema::from_pairs([
                ("rule_bus", DataType::Str),
                ("rule_mid", DataType::Int),
                ("rule", DataType::Str),
            ])
            .unwrap()
            .into_shared(),
            vec![
                vec![Value::from("FC"), Value::Int(3), Value::from("wpos")],
                vec![Value::from("FC"), Value::Int(3), Value::from("wvel")],
                vec![Value::from("DC"), Value::Int(3), Value::from("dpos")],
            ],
        )
        .unwrap();
        let j = l
            .join(&r, &["b_id", "m_id"], &["rule_bus", "rule_mid"])
            .unwrap();
        let rows = j.collect_rows().unwrap();
        // FC/3 matches two rules in build order, DC/3 one; 9, null and
        // unknown-bus rows match nothing.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][3], Value::from("wpos"));
        assert_eq!(rows[1][3], Value::from("wvel"));
        assert_eq!(rows[2][3], Value::from("dpos"));
    }

    #[test]
    fn mismatched_key_types_join_empty() {
        // Int-vs-Str keys can never be equal; the join is valid but empty.
        let r = DataFrame::from_rows(
            Schema::from_pairs([("id", DataType::Str), ("rule", DataType::Str)])
                .unwrap()
                .into_shared(),
            vec![vec![Value::from("3"), Value::from("wpos")]],
        )
        .unwrap();
        let j = left().join(&r, &["m_id"], &["id"]).unwrap();
        assert_eq!(j.num_rows(), 0);
    }

    #[test]
    fn duplicate_output_name_rejected() {
        let r = DataFrame::from_rows(
            Schema::from_pairs([("id", DataType::Int), ("payload", DataType::Str)])
                .unwrap()
                .into_shared(),
            vec![vec![Value::Int(3), Value::from("zz")]],
        )
        .unwrap();
        let err = left().join(&r, &["m_id"], &["id"]).unwrap_err();
        assert!(matches!(err, Error::DuplicateColumn(_)));
    }

    #[test]
    fn key_arity_validated() {
        let err = left().join(&right(), &[], &[]).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)));
        let err = left()
            .join(&right(), &["m_id"], &["id", "rule"])
            .unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)));
    }

    #[test]
    fn join_deterministic_across_worker_counts() {
        let l = left().repartition(3).unwrap();
        let run = |workers: usize| {
            l.clone()
                .with_executor(Executor::new(workers))
                .join(&right(), &["m_id"], &["id"])
                .unwrap()
                .collect_rows()
                .unwrap()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn join_result_keeps_executor() {
        let l = left().with_executor(Executor::new(5));
        let j = l.join(&right(), &["m_id"], &["id"]).unwrap();
        assert_eq!(j.executor(), Executor::new(5));
    }
}

//! Edge cases: empty frames, single rows, empty join sides — paths that
//! real pipelines hit whenever a preselection matches nothing.

use ivnt_frame::prelude::*;

fn schema() -> std::sync::Arc<Schema> {
    Schema::from_pairs([("k", DataType::Int), ("v", DataType::Float)])
        .unwrap()
        .into_shared()
}

fn empty() -> DataFrame {
    DataFrame::empty(schema())
}

fn one_row() -> DataFrame {
    DataFrame::from_rows(schema(), vec![vec![Value::Int(1), Value::Float(2.0)]]).unwrap()
}

/// A one-row join partner whose column names differ from [`schema`]'s.
fn rule_row() -> DataFrame {
    DataFrame::from_rows(
        Schema::from_pairs([("k2", DataType::Int), ("w", DataType::Str)])
            .unwrap()
            .into_shared(),
        vec![vec![Value::Int(1), Value::from("wpos")]],
    )
    .unwrap()
}

#[test]
fn sort_and_collect_on_empty() {
    let e = empty();
    assert_eq!(e.sort_by(&["k"], &[true]).unwrap().num_rows(), 0);
    assert_eq!(e.to_single_batch().unwrap().num_rows(), 0);
    assert!(e.collect_rows().unwrap().is_empty());
}

#[test]
fn join_with_empty_right_side() {
    let left = one_row();
    let right = DataFrame::empty(rule_row().schema().clone());
    let inner = left.join(&right, &["k"], &["k2"]).unwrap();
    assert_eq!(inner.num_rows(), 0);
    assert_eq!(inner.schema().len(), 3);
}

#[test]
fn join_with_empty_left_side() {
    let joined = empty().join(&rule_row(), &["k"], &["k2"]).unwrap();
    assert_eq!(joined.num_rows(), 0);
    assert_eq!(joined.schema().len(), 3);
}

#[test]
fn union_empty_with_nonempty() {
    let u = empty().union(&one_row()).unwrap();
    assert_eq!(u.num_rows(), 1);
    let u = one_row().union(&empty()).unwrap();
    assert_eq!(u.num_rows(), 1);
}

#[test]
fn repartition_empty() {
    let r = empty().repartition(4).unwrap();
    assert_eq!(r.num_rows(), 0);
    // A single empty partition keeps operators working.
    assert!(r.num_partitions() <= 1);
}

#[test]
fn csv_roundtrip_empty() {
    let mut buf = Vec::new();
    ivnt_frame::csv::write_csv(&empty(), &mut buf).unwrap();
    let parsed = ivnt_frame::csv::read_csv(buf.as_slice(), schema()).unwrap();
    assert_eq!(parsed.num_rows(), 0);
}

#[test]
fn single_row_sort_join_and_repartition() {
    let df = one_row();
    let s = df.sort_by(&["v"], &[false]).unwrap();
    assert_eq!(s.collect_rows().unwrap(), df.collect_rows().unwrap());
    let j = df.join(&rule_row(), &["k"], &["k2"]).unwrap();
    assert_eq!(
        j.collect_rows().unwrap(),
        vec![vec![Value::Int(1), Value::Float(2.0), Value::from("wpos")]]
    );
    let r = df.repartition(3).unwrap();
    assert_eq!(r.num_partitions(), 1);
    assert_eq!(r.num_rows(), 1);
}

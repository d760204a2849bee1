//! Property-based tests for the frame engine's relational invariants.

use ivnt_frame::prelude::*;
use proptest::prelude::*;

fn arb_rows() -> impl Strategy<Value = Vec<(i64, f64, bool)>> {
    prop::collection::vec((-1000i64..1000, -1e6f64..1e6, any::<bool>()), 0..200)
}

fn frame_of(rows: &[(i64, f64, bool)], parts: usize) -> DataFrame {
    let schema = Schema::from_pairs([
        ("k", DataType::Int),
        ("x", DataType::Float),
        ("b", DataType::Bool),
    ])
    .unwrap()
    .into_shared();
    DataFrame::from_rows(
        schema,
        rows.iter()
            .map(|&(k, x, b)| vec![Value::Int(k), Value::Float(x), Value::Bool(b)]),
    )
    .unwrap()
    .repartition(parts.max(1))
    .unwrap()
}

proptest! {
    /// A per-partition mask filter (σ) keeps exactly the matching rows, in
    /// order.
    #[test]
    fn filter_matches_reference(rows in arb_rows(), parts in 1usize..8) {
        let df = frame_of(&rows, parts);
        let kept = df
            .partitions()
            .iter()
            .map(|b| {
                let mask: Vec<bool> = b.column(0).as_int_slice().unwrap()
                    .iter().map(|k| k.is_some_and(|k| k >= 0)).collect();
                b.filter(&mask)
            })
            .collect::<ivnt_frame::Result<Vec<_>>>()
            .unwrap();
        let out = DataFrame::from_partitions(df.schema().clone(), kept).unwrap();
        let expected = frame_of(
            &rows.iter().copied().filter(|(k, _, _)| *k >= 0).collect::<Vec<_>>(),
            1,
        );
        prop_assert_eq!(out.collect_rows().unwrap(), expected.collect_rows().unwrap());
    }

    /// Repartitioning never changes content or global order.
    #[test]
    fn repartition_is_content_preserving(rows in arb_rows(), a in 1usize..7, b in 1usize..7) {
        let df = frame_of(&rows, a);
        let re = df.repartition(b).unwrap();
        prop_assert_eq!(df.collect_rows().unwrap(), re.collect_rows().unwrap());
    }

    /// Join, sort and repartition results are bit-identical for 1 worker
    /// and many workers.
    #[test]
    fn parallelism_is_deterministic(rows in arb_rows(), parts in 1usize..8) {
        let df = frame_of(&rows, parts);
        let rules = DataFrame::from_rows(
            Schema::from_pairs([("rk", DataType::Int), ("tag", DataType::Int)])
                .unwrap().into_shared(),
            (-1000i64..1000).step_by(7).map(|k| vec![Value::Int(k), Value::Int(k * 3)]),
        ).unwrap();
        let run = |workers: usize| {
            let df = df.clone().with_executor(Executor::new(workers));
            let joined = df.join(&rules, &["k"], &["rk"]).unwrap();
            let sorted = joined.sort_by(&["x", "k"], &[false, true]).unwrap();
            let re = sorted.repartition(parts).unwrap();
            (joined.collect_rows().unwrap(), re.collect_rows().unwrap(), re.num_partitions())
        };
        prop_assert_eq!(run(1), run(6));
    }

    /// Sorting yields a non-decreasing key column and preserves multiset.
    #[test]
    fn sort_orders_and_preserves(rows in arb_rows(), parts in 1usize..8) {
        let df = frame_of(&rows, parts);
        let sorted = df.sort_by(&["k"], &[true]).unwrap();
        let keys: Vec<i64> = sorted
            .column_values("k").unwrap()
            .iter().map(|v| v.as_int().unwrap()).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        let mut orig: Vec<i64> = rows.iter().map(|r| r.0).collect();
        orig.sort_unstable();
        prop_assert_eq!(keys, orig);
    }

    /// Join with a key subset behaves like nested-loop reference on small input.
    #[test]
    fn join_matches_nested_loop(rows in prop::collection::vec((-5i64..5, -5i64..5), 0..40)) {
        let schema_l = Schema::from_pairs([("k", DataType::Int), ("a", DataType::Int)])
            .unwrap().into_shared();
        let schema_r = Schema::from_pairs([("k2", DataType::Int), ("b", DataType::Int)])
            .unwrap().into_shared();
        let left = DataFrame::from_rows(
            schema_l,
            rows.iter().map(|&(k, a)| vec![Value::Int(k), Value::Int(a)]),
        ).unwrap().repartition(3).unwrap();
        let right = DataFrame::from_rows(
            schema_r,
            rows.iter().map(|&(k, a)| vec![Value::Int(k + 1), Value::Int(a)]),
        ).unwrap();
        let joined = left.join(&right, &["k"], &["k2"]).unwrap();
        let mut expected = 0usize;
        for &(lk, _) in &rows {
            expected += rows.iter().filter(|&&(rk, _)| rk + 1 == lk).count();
        }
        prop_assert_eq!(joined.num_rows(), expected);
    }

    /// `f ∪ g` holds the rows of `f` followed by the rows of `g`.
    #[test]
    fn union_appends_in_order(f in arb_rows(), g in arb_rows(), a in 1usize..5, b in 1usize..5) {
        let (df, dg) = (frame_of(&f, a), frame_of(&g, b));
        let u = df.union(&dg).unwrap();
        prop_assert_eq!(u.num_partitions(), df.num_partitions() + dg.num_partitions());
        let mut expected = df.collect_rows().unwrap();
        expected.extend(dg.collect_rows().unwrap());
        prop_assert_eq!(u.collect_rows().unwrap(), expected);
    }
}

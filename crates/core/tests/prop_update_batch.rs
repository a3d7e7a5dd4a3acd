//! `update_batch(ops)` ≡ the same ops one call at a time.
//!
//! Two identically configured engines interpret the same program of range
//! queries (which instantiate and crack the column) and update batches; one
//! applies each batch with a single `update_batch`, the other issues its
//! elements through `insert` / `delete`. After every batch the two must
//! agree on everything a caller can observe: the per-element results, the
//! base column bit for bit (and its scalar statistics), the cracker's value
//! multiset, its invariants including every cached sum
//! (`Database::validate`), and the answers on a spread of ranges. The value
//! domain is small so batches are full of duplicates, deletes of absent
//! values and values inserted and deleted inside one batch; the sharded
//! variant uses an extent small enough that batches cross shard spills.

use proptest::prelude::*;

use holistic_core::{ColumnId, Database, HolisticConfig, IndexingStrategy, Query, UpdateOp};

/// One step of the program: a range query, or a batch of `(insert?, value)`.
#[derive(Debug, Clone)]
enum Step {
    Query(i64, i64),
    Batch(Vec<(bool, i64)>),
}

prop_compose! {
    fn arb_program()(raw in prop::collection::vec(
        (0u8..3, -70i64..70, 1i64..60, prop::collection::vec((any::<bool>(), -60i64..60), 0..24)),
        1..10,
    )) -> Vec<Step> {
        raw.into_iter()
            .map(|(tag, lo, width, batch)| match tag {
                0 => Step::Query(lo, lo + width),
                _ => Step::Batch(batch),
            })
            .collect()
    }
}

fn engine(config: HolisticConfig, values: &[i64]) -> (Database, ColumnId) {
    let mut db = Database::new(config, IndexingStrategy::Holistic);
    let t = db
        .create_table("t", vec![("v", values.to_vec())])
        .expect("create table");
    let col = db.column_id(t, "v").expect("column id");
    (db, col)
}

fn update_ops(column: ColumnId, batch: &[(bool, i64)]) -> Vec<UpdateOp> {
    batch
        .iter()
        .map(|&(insert, value)| {
            if insert {
                UpdateOp::Insert { column, value }
            } else {
                UpdateOp::Delete { column, value }
            }
        })
        .collect()
}

/// Everything observable about `db` that the two application orders must
/// agree on, checked against the base column as the model.
fn observe(db: &Database, col: ColumnId) -> (Vec<i64>, Vec<(u64, i128)>) {
    let base = db.base_column(col).expect("base column");
    let model = base.values().to_vec();
    let stats = base.stats();
    assert_eq!(stats.count as usize, model.len());
    assert_eq!(
        stats.sum,
        model.iter().map(|&v| i128::from(v)).sum::<i128>()
    );
    assert_eq!(stats.min, model.iter().copied().min());
    assert_eq!(stats.max, model.iter().copied().max());
    assert!(db.validate(), "cracker invariants (cached sums included)");
    let mut held = db
        .execute(&Query::range_materialized(col, i64::MIN / 2, i64::MAX / 2))
        .expect("full materialization")
        .values
        .expect("materialized");
    held.sort_unstable();
    let mut want = model.clone();
    want.sort_unstable();
    assert_eq!(held, want, "cracker multiset vs base column");
    let answers = (-7..7)
        .map(|i| {
            let (lo, hi) = (i * 11 - 3, i * 11 + 19);
            let r = db.execute(&Query::range(col, lo, hi)).expect("range");
            let in_range = model.iter().filter(|&&v| v >= lo && v < hi);
            assert_eq!(r.count, in_range.clone().count() as u64, "[{lo}, {hi})");
            assert_eq!(r.sum, in_range.map(|&v| i128::from(v)).sum::<i128>());
            (r.count, r.sum)
        })
        .collect();
    (model, answers)
}

fn run_program(config: HolisticConfig, values: &[i64], program: &[Step]) {
    let (mut batched, bcol) = engine(config.clone(), values);
    let (mut single, scol) = engine(config, values);
    for step in program {
        match step {
            Step::Query(lo, hi) => {
                let a = batched
                    .execute(&Query::range(bcol, *lo, *hi))
                    .expect("batched query");
                let b = single
                    .execute(&Query::range(scol, *lo, *hi))
                    .expect("single query");
                assert_eq!((a.count, a.sum), (b.count, b.sum));
            }
            Step::Batch(batch) => {
                let got = batched
                    .update_batch(&update_ops(bcol, batch))
                    .expect("update_batch");
                let want: Vec<bool> = batch
                    .iter()
                    .map(|&(insert, value)| {
                        if insert {
                            single.insert(scol, value).map(|()| true)
                        } else {
                            single.delete(scol, value)
                        }
                        .expect("single update")
                    })
                    .collect();
                assert_eq!(got, want, "per-element results of {batch:?}");
                assert_eq!(observe(&batched, bcol), observe(&single, scol));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn update_batch_equals_one_call_at_a_time(
        values in prop::collection::vec(-50i64..50, 0..300),
        program in arb_program(),
        keep_rowids in any::<bool>(),
    ) {
        let config = HolisticConfig::for_testing().with_rowids(keep_rowids);
        run_program(config.clone(), &values, &program);
        run_program(config.with_shard_extent(16), &values, &program);
    }
}

/// The cases the property is meant to reach, spelled out so none depends on
/// the generator's luck.
#[test]
fn update_batch_edge_cases_equal_one_call_at_a_time() {
    let values: Vec<i64> = vec![5, 9, 5, 1, 7, 5, 3, 9, 2, 8, 6, 4];
    let ins = |v| (true, v);
    let del = |v| (false, v);
    let program = vec![
        // Before the cracker exists.
        Step::Batch(vec![ins(4), del(5)]),
        Step::Query(2, 8),
        Step::Batch(vec![]),
        // Duplicates: three copies exist, four are asked for.
        Step::Batch(vec![del(5), del(5), del(5), del(5)]),
        // Absent values, before and after an insert of the same value.
        Step::Batch(vec![del(40), ins(40), del(40), del(40)]),
        // A delete reaches the batch's own insert only once the column's
        // own copies are used up, and takes the earliest such insert.
        Step::Batch(vec![ins(9), ins(9), del(9), del(9), del(9), del(9), ins(9)]),
        Step::Query(0, 10),
        // Twenty inserts cross several spills at extent 4, with deletes of
        // old and of just-inserted values in between.
        Step::Batch(
            (0..20)
                .flat_map(|i| {
                    [
                        ins(100 + i % 7),
                        del(if i % 3 == 0 { 100 + i % 7 } else { i }),
                    ]
                })
                .collect(),
        ),
        Step::Query(98, 104),
        // Empties the column, then refills it.
        Step::Batch((0..12).chain(100..107).map(del).collect()),
        Step::Batch(vec![del(1), ins(1), ins(2)]),
    ];
    for extent in [0, 4] {
        for keep_rowids in [false, true] {
            let config = HolisticConfig::for_testing()
                .with_rowids(keep_rowids)
                .with_shard_extent(extent);
            run_program(config, &values, &program);
        }
    }
}

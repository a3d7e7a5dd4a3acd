//! Fault-injection recovery properties.
//!
//! The kill-point sweep drives a random
//! create/insert/delete/update-batch/query/snapshot workload against a persisted engine **once per IO operation the workload
//! performs**, arming the deterministic fault injector to crash at that
//! operation. After every crash the directory is recovered with a fresh
//! (disarmed) injector and the recovered state must equal the in-memory
//! reference model — exactly, up to the single operation in flight at the
//! kill (WAL-before-apply means that operation is either fully absent or
//! fully present, never torn; of an update batch in flight, a prefix).
//!
//! The corruption fuzz flips an arbitrary byte of an arbitrary persistence
//! file. Recovery must *detect* the damage (checksums), degrade along the
//! ladder (older generation → WAL truncation), and hand back a state that
//! matches the reference model after some prefix of the workload — wrong
//! answers are never acceptable, missing tail records after a detected torn
//! WAL are.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use holistic_core::{
    flip_byte, Database, FaultInjector, HolisticConfig, HolisticError, IndexingStrategy, Query,
    RecoveryOutcome, UpdateOp,
};

const SLOTS: usize = 3;

/// One workload step. `Create` seeds a deterministic per-slot base table so
/// the op stream alone describes the whole history.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Create(usize),
    Insert(usize, i64),
    Delete(usize, i64),
    /// One `update_batch` of `(insert?, value)` elements.
    Batch(usize, Vec<(bool, i64)>),
    Query(usize, i64, i64),
    Snapshot,
}

fn slot_name(slot: usize) -> String {
    format!("t{slot}")
}

fn seed_values(slot: usize) -> Vec<i64> {
    (0..40 + slot as i64 * 17)
        .map(|i| (i * 37 + slot as i64 * 11) % 200 - 100)
        .collect()
}

/// The reference model: per slot, the multiset of values the table holds
/// (`None` = table does not exist).
type Model = Vec<Option<Vec<i64>>>;

fn empty_model() -> Model {
    vec![None; SLOTS]
}

fn apply_model(model: &mut Model, op: &Op) {
    match op {
        Op::Create(s) => {
            if model[*s].is_none() {
                model[*s] = Some(seed_values(*s));
            }
        }
        Op::Insert(s, v) => {
            if let Some(vals) = &mut model[*s] {
                vals.push(*v);
            }
        }
        Op::Delete(s, v) => {
            if let Some(vals) = &mut model[*s] {
                if let Some(pos) = vals.iter().position(|x| x == v) {
                    vals.remove(pos);
                }
            }
        }
        Op::Batch(s, elements) => {
            for &(insert, v) in elements {
                let single = if insert {
                    Op::Insert(*s, v)
                } else {
                    Op::Delete(*s, v)
                };
                apply_model(model, &single);
            }
        }
        Op::Query(..) | Op::Snapshot => {}
    }
}

/// Applies one op to the engine, cross-checking query/delete results against
/// the model *before* this op. An `Err` is a crash (the injector fired);
/// logical no-ops (duplicate create, update on a missing table) are skipped
/// so the engine never sees a non-crash error.
fn apply_engine(db: &mut Database, model: &Model, op: &Op) -> Result<(), HolisticError> {
    let col_of = |db: &Database, s: usize| {
        let t = db.table_id(&slot_name(s)).expect("model says table exists");
        db.column_id(t, "v").expect("single column v")
    };
    match op {
        Op::Create(s) => {
            if model[*s].is_some() {
                return Ok(());
            }
            db.create_table(slot_name(*s), vec![("v", seed_values(*s))])
                .map(|_| ())
        }
        Op::Insert(s, v) => {
            if model[*s].is_none() {
                return Ok(());
            }
            let col = col_of(db, *s);
            db.insert(col, *v)
        }
        Op::Delete(s, v) => {
            let Some(vals) = &model[*s] else {
                return Ok(());
            };
            let col = col_of(db, *s);
            let found = db.delete(col, *v)?;
            assert_eq!(found, vals.contains(v), "delete disagrees with the model");
            Ok(())
        }
        Op::Batch(s, elements) => {
            if model[*s].is_none() {
                return Ok(());
            }
            let column = col_of(db, *s);
            let ops: Vec<UpdateOp> = elements
                .iter()
                .map(|&(insert, value)| {
                    if insert {
                        UpdateOp::Insert { column, value }
                    } else {
                        UpdateOp::Delete { column, value }
                    }
                })
                .collect();
            let applied = db.update_batch(&ops)?;
            // Element by element against the model, as `Delete` does.
            let mut stepped = model.clone();
            for (&(insert, v), got) in elements.iter().zip(applied) {
                let held = stepped[*s].as_ref().is_some_and(|vals| vals.contains(&v));
                assert_eq!(got, insert || held, "update batch disagrees with the model");
                let single = if insert {
                    Op::Insert(*s, v)
                } else {
                    Op::Delete(*s, v)
                };
                apply_model(&mut stepped, &single);
            }
            Ok(())
        }
        Op::Query(s, lo, hi) => {
            let Some(vals) = &model[*s] else {
                return Ok(());
            };
            let col = col_of(db, *s);
            let r = db.execute(&Query::range(col, *lo, *hi))?;
            let expected = vals.iter().filter(|&&v| v >= *lo && v < *hi).count() as u64;
            assert_eq!(r.count, expected, "query disagrees with the model");
            Ok(())
        }
        Op::Snapshot => db.snapshot().map(|_| ()),
    }
}

/// Whether the recovered engine's data state equals the model: the same
/// tables exist and every table holds the same multiset of values.
fn matches_model(db: &Database, model: &Model) -> bool {
    for (s, entry) in model.iter().enumerate() {
        let table = db.table_id(&slot_name(s));
        match (table, entry) {
            (None, None) => {}
            (Some(t), Some(vals)) => {
                let col = db.column_id(t, "v").expect("recovered column");
                let r = db
                    .execute(&Query::range_materialized(col, -10_000, 10_000))
                    .expect("materialized scan on recovered engine");
                let mut got = r.values.expect("materialized");
                let mut want = vals.clone();
                got.sort_unstable();
                want.sort_unstable();
                if got != want {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "holistic-prop-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn recover_fresh(dir: &Path) -> (Database, RecoveryOutcome) {
    // A crash never survives into recovery: the recovering process has its
    // own, disarmed injector.
    Database::recover(
        HolisticConfig::for_testing(),
        IndexingStrategy::Holistic,
        dir,
        FaultInjector::new(),
    )
    .expect("recovery with a healthy disk must succeed")
}

/// Runs `ops` against a fresh persisted engine in `dir`, stopping at the
/// first crash. Returns the model of applied ops and the op in flight when
/// the injector fired (if it was a mutation).
fn run_workload(
    dir: &Path,
    inj: &std::sync::Arc<FaultInjector>,
    ops: &[Op],
) -> (Model, Option<Op>) {
    let mut db = Database::new(HolisticConfig::for_testing(), IndexingStrategy::Holistic);
    let mut model = empty_model();
    if let Err(e) = db.set_persistence(dir, std::sync::Arc::clone(inj)) {
        // The kill point can land inside WAL creation itself: nothing was
        // applied, recovery sees an empty (or torn-empty) directory.
        assert!(
            e.is_crash(),
            "set_persistence may only fail by crashing: {e}"
        );
        return (model, None);
    }
    for op in ops {
        match apply_engine(&mut db, &model, op) {
            Ok(()) => apply_model(&mut model, op),
            Err(e) => {
                assert!(e.is_crash(), "only injected crashes may fail ops: {e}");
                let pending = match op {
                    Op::Create(..) | Op::Insert(..) | Op::Delete(..) | Op::Batch(..) => {
                        Some(op.clone())
                    }
                    Op::Query(..) | Op::Snapshot => None,
                };
                return (model, pending);
            }
        }
    }
    (model, None)
}

prop_compose! {
    /// A short random workload: raw `(tag, slot, value, width)` tuples
    /// decoded into ops (the vendored proptest has no `prop_oneof`).
    fn arb_ops()(raw in prop::collection::vec(
        (0u8..8, 0usize..SLOTS, -500i64..500, 0i64..300),
        4..12,
    )) -> Vec<Op> {
        raw.into_iter()
            .map(|(tag, slot, v, w)| match tag {
                0 | 1 => Op::Create(slot),
                2 | 3 => Op::Insert(slot, v),
                4 => Op::Delete(slot, v % 200 - 100), // often hits a seed value
                5 => Op::Query(slot, v, v + w),
                // Mixed kinds, often hitting seed values and each other.
                6 => Op::Batch(
                    slot,
                    (0..5)
                        .map(|k| ((w >> k) & 1 == 1, (v + k * 37).rem_euclid(200) - 100))
                        .collect(),
                ),
                _ => Op::Snapshot,
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole property: crash at *every* IO operation the workload
    /// performs, recover, and the recovered state must equal the reference
    /// model (up to the single WAL-before-apply op in flight).
    #[test]
    fn recovery_equals_reference_under_kill_at_every_io_op(ops in arb_ops()) {
        // Disarmed run to learn the workload's IO-op count and final model.
        let dir = tmpdir("sweep-count");
        let inj = FaultInjector::new();
        let (final_model, crashed) = run_workload(&dir, &inj, &ops);
        prop_assert!(crashed.is_none(), "disarmed run must not crash");
        let total_ops = inj.ops_performed();
        prop_assert!(total_ops > 0);
        // Sanity: a healthy directory recovers to exactly the final model.
        let (db, _) = recover_fresh(&dir);
        prop_assert!(matches_model(&db, &final_model));
        drop(db);

        for kill_at in 0..total_ops {
            let dir = tmpdir("sweep-kill");
            let inj = FaultInjector::new();
            inj.arm(kill_at);
            let (model, pending) = run_workload(&dir, &inj, &ops);
            let (recovered, outcome) = recover_fresh(&dir);
            prop_assert!(
                recovered.validate(),
                "kill at op {kill_at}: recovered invariants broken ({outcome:?})"
            );
            // WAL-before-apply: the op in flight is either absent (crash
            // before its record was durable) or fully present (crash after
            // the record hit the disk but before the in-memory apply). An
            // update batch is a sequence of such ops under one fsync: a
            // torn append leaves a prefix of it.
            let in_flight: Vec<Op> = match pending.clone() {
                Some(Op::Batch(s, elements)) => (1..=elements.len())
                    .map(|k| Op::Batch(s, elements[..k].to_vec()))
                    .collect(),
                other => other.into_iter().collect(),
            };
            let matches = matches_model(&recovered, &model)
                || in_flight.iter().any(|op| {
                    let mut with_pending = model.clone();
                    apply_model(&mut with_pending, op);
                    matches_model(&recovered, &with_pending)
                });
            prop_assert!(
                matches,
                "kill at op {kill_at}/{total_ops}: recovered state diverged \
                 (pending = {pending:?}, outcome = {outcome:?}, ops = {ops:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Byte-flip corruption anywhere in the persistence directory: recovery
    /// detects it, degrades (older generation, truncated WAL tail, dropped
    /// learned state), and never fabricates answers — the recovered state
    /// always equals the model after some prefix of the workload.
    #[test]
    fn corrupted_files_degrade_without_wrong_answers(
        file_pick in any::<prop::sample::Index>(),
        offset in 0u64..1_000_000,
        salt in -500i64..500,
    ) {
        let dir = tmpdir("fuzz-corrupt");
        // Fixed workload shape (salted values) crossing two snapshot
        // generations plus a WAL tail; remember the model after each op.
        let mut ops = vec![Op::Create(0)];
        for i in 0..8 {
            ops.push(Op::Insert(0, salt + i));
        }
        ops.push(Op::Snapshot);
        ops.push(Op::Create(1));
        for i in 0..6 {
            ops.push(Op::Insert(1, salt - i));
            ops.push(Op::Delete(0, salt + i));
        }
        ops.push(Op::Snapshot);
        for i in 0..5 {
            ops.push(Op::Insert(0, salt + 100 + i));
        }
        let inj = FaultInjector::new();
        let mut db = Database::new(HolisticConfig::for_testing(), IndexingStrategy::Holistic);
        db.set_persistence(&dir, std::sync::Arc::clone(&inj)).unwrap();
        let mut model = empty_model();
        let mut prefixes = vec![model.clone()];
        for op in &ops {
            apply_engine(&mut db, &model, op).expect("no faults armed");
            apply_model(&mut model, op);
            prefixes.push(model.clone());
        }
        drop(db);

        // Flip one byte of one file.
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        files.sort();
        prop_assert!(!files.is_empty());
        let target = &files[file_pick.index(files.len())];
        flip_byte(target, offset).unwrap();

        match Database::recover(
            HolisticConfig::for_testing(),
            IndexingStrategy::Holistic,
            &dir,
            FaultInjector::new(),
        ) {
            Ok((recovered, outcome)) => {
                prop_assert!(recovered.validate());
                let hit = prefixes.iter().rposition(|m| matches_model(&recovered, m));
                prop_assert!(
                    hit.is_some(),
                    "corrupting {target:?} at {offset} produced a state outside \
                     the workload history (outcome = {outcome:?})"
                );
                if hit != Some(prefixes.len() - 1) {
                    // Losing history is only legal when the damage was
                    // *detected* — a skipped generation or a truncated WAL
                    // tail, never a silent misread.
                    prop_assert!(
                        outcome.snapshots_skipped > 0 || outcome.wal_bytes_dropped > 0,
                        "state rolled back with no detected corruption \
                         ({target:?} at {offset}, outcome = {outcome:?})"
                    );
                }
            }
            Err(e) => {
                // Refusing to recover is a legal (detected) outcome, but it
                // must be the typed recovery error, not a crash or a panic.
                prop_assert!(
                    matches!(e, HolisticError::Recovery(_)),
                    "unexpected recovery failure: {e}"
                );
            }
        }
    }
}

//! The sharding tentpole's headline property: a sharded engine is
//! *observationally identical* to an unsharded one.
//!
//! Two engines run the same randomized program side by side — one with
//! `shard_extent = 0` (the classic single-latch cracker column), one with a
//! small extent that splits every column into many shards. The program
//! interleaves every operation the engine exposes:
//!
//! * count/sum range queries and materializing queries,
//! * single inserts and deletes, mixed-kind `update_batch` groups and
//!   grouped query batches,
//! * idle-time tuner batches (refinement, prefix seeding, scrubbing),
//! * full snapshot → crash → recover cycles,
//! * injected corruption followed by quarantine and idle-time rebuild.
//!
//! After every step the two engines must return bit-identical answers
//! (counts, sums, and materialized value multisets), and both must agree
//! with a plain `Vec<i64>` reference model. Across a snapshot/recover
//! cycle the sharded engine must additionally restore its *physical*
//! state bit for bit: the per-shard piece tables (boundaries, cached sums,
//! sorted flags, prefix arrays) after recovery equal the tables before the
//! crash.
//!
//! This is the differential harness the refactor is judged by: any
//! divergence between the fan-out/compose path and the single-latch path —
//! in answers, in cache classification, in persistence, in healing — fails
//! here first.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use holistic_core::{
    ColumnHealth, CorruptionInjector, CorruptionKind, Database, FaultInjector, HolisticConfig,
    IdleBudget, IndexingStrategy, Query, UpdateOp,
};
use holistic_storage::ColumnId;

const ROWS: i64 = 2000;

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "holistic-prop-shard-eq-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn dataset(salt: i64) -> Vec<i64> {
    (0..ROWS)
        .map(|i| (i * 6211 + salt * 17).rem_euclid(ROWS))
        .collect()
}

fn expected(model: &[i64], lo: i64, hi: i64) -> (u64, i128, Vec<i64>) {
    let mut values: Vec<i64> = model
        .iter()
        .copied()
        .filter(|&v| v >= lo && v < hi)
        .collect();
    values.sort_unstable();
    let count = values.len() as u64;
    let sum = values.iter().map(|&v| i128::from(v)).sum();
    (count, sum, values)
}

/// One step of the randomized program both engines interpret.
#[derive(Debug, Clone)]
enum Op {
    Range {
        lo: i64,
        width: i64,
    },
    Materialize {
        lo: i64,
        width: i64,
    },
    Insert(i64),
    Delete {
        pick: usize,
    },
    /// A mixed-kind `update_batch`: per element `Ok(value)` inserts it and
    /// `Err(pick)` deletes the model's `pick`-th value (or, for an odd
    /// pick, a value nothing holds).
    UpdateBatch(Vec<Result<i64, usize>>),
    Batch(Vec<(i64, i64)>),
    Idle(u64),
    SnapshotRecover,
    CorruptAndHeal(usize),
}

const ALL_KINDS: [CorruptionKind; 4] = [
    CorruptionKind::SumFlip,
    CorruptionKind::PrefixFlip,
    CorruptionKind::BoundaryFlip,
    CorruptionKind::Panic,
];

prop_compose! {
    /// A short random program: raw `(tag, lo, width, pick)` tuples decoded
    /// into ops (the vendored proptest has no `prop_oneof`). Plain range
    /// queries dominate so cracked structure accumulates between the
    /// rarer structural ops.
    fn arb_ops()(raw in prop::collection::vec(
        (0u8..16, 0i64..ROWS - 1, 1i64..ROWS / 2, 0usize..1 << 16),
        12..32,
    )) -> Vec<Op> {
        raw.into_iter()
            .map(|(tag, lo, width, pick)| match tag {
                0..=5 => Op::Range { lo, width },
                6 | 7 => Op::Materialize { lo, width },
                8 => Op::Insert(lo - 300),
                9 => Op::UpdateBatch(
                    (0..7)
                        .map(|k| {
                            if (pick >> k) & 1 == 1 {
                                Ok(lo - 300 + (width * k as i64) % 5)
                            } else {
                                Err(pick / 128 + k * 7919)
                            }
                        })
                        .collect(),
                ),
                10 => Op::Delete { pick },
                11 => Op::Batch(
                    (0..3)
                        .map(|k| {
                            let lo = (lo + k * 709).rem_euclid(ROWS - 1);
                            (lo, 1 + (width + k * 131).rem_euclid(ROWS / 2))
                        })
                        .collect(),
                ),
                12 => Op::Idle(1 + pick as u64 % 8),
                13 => Op::SnapshotRecover,
                _ => Op::CorruptAndHeal(pick % ALL_KINDS.len()),
            })
            .collect()
    }
}

/// The two engines under comparison plus the ground-truth model.
struct Pair {
    reference: Database,
    sharded: Database,
    ref_col: ColumnId,
    shard_col: ColumnId,
    model: Vec<i64>,
    ref_dir: PathBuf,
    shard_dir: PathBuf,
    extent: usize,
}

fn mk_engine(config: HolisticConfig, tag: &str, model: &[i64]) -> (Database, ColumnId, PathBuf) {
    let dir = tmpdir(tag);
    let mut db = Database::new(config, IndexingStrategy::Holistic);
    db.set_persistence(&dir, FaultInjector::new())
        .expect("persistence");
    let t = db
        .create_table("t", vec![("v", model.to_vec())])
        .expect("create table");
    let col = db.column_id(t, "v").expect("column id");
    (db, col, dir)
}

impl Pair {
    fn new(salt: i64, extent: usize) -> Self {
        let model = dataset(salt);
        let (reference, ref_col, ref_dir) = mk_engine(HolisticConfig::for_testing(), "ref", &model);
        let (sharded, shard_col, shard_dir) = mk_engine(
            HolisticConfig::for_testing().with_shard_extent(extent),
            "shard",
            &model,
        );
        Pair {
            reference,
            sharded,
            ref_col,
            shard_col,
            model,
            ref_dir,
            shard_dir,
            extent,
        }
    }

    /// Runs idle batches until no column is quarantined (bounded).
    fn heal(db: &Database) -> bool {
        for _ in 0..64 {
            if db.quarantined_columns().is_empty() {
                return true;
            }
            let _ = db.run_idle(IdleBudget::Actions(8));
        }
        db.quarantined_columns().is_empty()
    }

    fn check_range(&self, lo: i64, hi: i64, materialize: bool) {
        let (want_count, want_sum, want_values) = expected(&self.model, lo, hi);
        let q = |col| {
            if materialize {
                Query::range_materialized(col, lo, hi)
            } else {
                Query::range(col, lo, hi)
            }
        };
        let a = self.reference.execute(&q(self.ref_col)).expect("reference");
        let b = self.sharded.execute(&q(self.shard_col)).expect("sharded");
        prop_assert_eq!(
            (a.count, a.sum),
            (want_count, want_sum),
            "reference vs model on [{lo}, {hi})"
        );
        prop_assert_eq!(
            (b.count, b.sum),
            (want_count, want_sum),
            "sharded vs model on [{lo}, {hi})"
        );
        if materialize {
            let mut got_a = a.values.expect("reference materialization");
            let mut got_b = b.values.expect("sharded materialization");
            got_a.sort_unstable();
            got_b.sort_unstable();
            prop_assert_eq!(&got_a, &want_values, "reference multiset");
            prop_assert_eq!(&got_b, &want_values, "sharded multiset");
        }
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Range { lo, width } => self.check_range(lo, lo + width, false),
            Op::Materialize { lo, width } => self.check_range(lo, lo + width, true),
            Op::Insert(v) => {
                self.reference.insert(self.ref_col, v).expect("ref insert");
                self.sharded
                    .insert(self.shard_col, v)
                    .expect("shard insert");
                self.model.push(v);
                self.check_range(v, v + 1, false);
            }
            Op::Delete { pick } => {
                if self.model.is_empty() {
                    return;
                }
                let victim = self.model[pick % self.model.len()];
                let a = self
                    .reference
                    .delete(self.ref_col, victim)
                    .expect("ref delete");
                let b = self
                    .sharded
                    .delete(self.shard_col, victim)
                    .expect("shard delete");
                prop_assert_eq!(a, b, "delete outcome diverged");
                if a {
                    let pos = self
                        .model
                        .iter()
                        .position(|&v| v == victim)
                        .expect("model victim");
                    self.model.swap_remove(pos);
                }
                self.check_range(victim, victim + 1, false);
            }
            Op::UpdateBatch(ref elements) => {
                // The model applies the elements one at a time; both
                // engines take them as one `update_batch`.
                let mut values = Vec::with_capacity(elements.len());
                let mut want = Vec::with_capacity(elements.len());
                for element in elements {
                    match *element {
                        Ok(v) => {
                            self.model.push(v);
                            values.push((true, v));
                            want.push(true);
                        }
                        Err(pick) => {
                            let victim = if pick % 2 == 1 || self.model.is_empty() {
                                ROWS * 3
                            } else {
                                self.model[pick % self.model.len()]
                            };
                            let pos = self.model.iter().position(|&v| v == victim);
                            if let Some(pos) = pos {
                                self.model.swap_remove(pos);
                            }
                            values.push((false, victim));
                            want.push(pos.is_some());
                        }
                    }
                }
                let mk = |column: ColumnId| -> Vec<UpdateOp> {
                    values
                        .iter()
                        .map(|&(insert, value)| {
                            if insert {
                                UpdateOp::Insert { column, value }
                            } else {
                                UpdateOp::Delete { column, value }
                            }
                        })
                        .collect()
                };
                let a = self
                    .reference
                    .update_batch(&mk(self.ref_col))
                    .expect("ref update batch");
                let b = self
                    .sharded
                    .update_batch(&mk(self.shard_col))
                    .expect("shard update batch");
                prop_assert_eq!(&a, &want, "reference update batch vs model");
                prop_assert_eq!(&b, &want, "sharded update batch vs model");
                for &(_, v) in &values {
                    self.check_range(v, v + 1, false);
                }
            }
            Op::Batch(ref ranges) => {
                let mk = |col: ColumnId| -> Vec<Query> {
                    ranges
                        .iter()
                        .map(|&(lo, width)| Query::range(col, lo, lo + width))
                        .collect()
                };
                let a = self
                    .reference
                    .execute_batch(&mk(self.ref_col))
                    .expect("ref batch");
                let b = self
                    .sharded
                    .execute_batch(&mk(self.shard_col))
                    .expect("shard batch");
                prop_assert_eq!(a.len(), b.len());
                for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
                    let (lo, width) = ranges[i];
                    let (want_count, want_sum, _) = expected(&self.model, lo, lo + width);
                    prop_assert_eq!(
                        (ra.count, ra.sum),
                        (want_count, want_sum),
                        "reference batch query {i}"
                    );
                    prop_assert_eq!(
                        (rb.count, rb.sum),
                        (want_count, want_sum),
                        "sharded batch query {i}"
                    );
                }
            }
            Op::Idle(actions) => {
                let _ = self.reference.run_idle(IdleBudget::Actions(actions));
                let _ = self.sharded.run_idle(IdleBudget::Actions(actions));
            }
            Op::SnapshotRecover => {
                let ref_pieces = self.reference.cracker_pieces(self.ref_col);
                let shard_pieces = self.sharded.cracker_pieces(self.shard_col);
                self.reference.snapshot().expect("ref snapshot");
                self.sharded.snapshot().expect("shard snapshot");
                // Crash both: dropping is the only shutdown there is.
                let dummy =
                    || Database::new(HolisticConfig::for_testing(), IndexingStrategy::Holistic);
                drop(std::mem::replace(&mut self.reference, dummy()));
                drop(std::mem::replace(&mut self.sharded, dummy()));
                let (reference, ro) = Database::recover(
                    HolisticConfig::for_testing(),
                    IndexingStrategy::Holistic,
                    &self.ref_dir,
                    FaultInjector::new(),
                )
                .expect("ref recovery");
                let (sharded, so) = Database::recover(
                    HolisticConfig::for_testing().with_shard_extent(self.extent),
                    IndexingStrategy::Holistic,
                    &self.shard_dir,
                    FaultInjector::new(),
                )
                .expect("shard recovery");
                prop_assert!(ro.cold_columns.is_empty(), "reference came up cold");
                prop_assert!(so.cold_columns.is_empty(), "sharded came up cold");
                self.reference = reference;
                self.sharded = sharded;
                // Bit-for-bit: recovery restored the exact piece tables —
                // for the sharded engine that means every shard's
                // boundaries, cached sums, sorted flags and prefix arrays.
                prop_assert_eq!(
                    self.reference.cracker_pieces(self.ref_col),
                    ref_pieces,
                    "reference piece table changed across snapshot/recover"
                );
                prop_assert_eq!(
                    self.sharded.cracker_pieces(self.shard_col),
                    shard_pieces,
                    "sharded piece tables changed across snapshot/recover"
                );
                prop_assert!(self.reference.validate());
                prop_assert!(self.sharded.validate());
            }
            Op::CorruptAndHeal(kind_index) => {
                let kind = ALL_KINDS[kind_index];
                for db in [&mut self.reference, &mut self.sharded] {
                    let injector = CorruptionInjector::new();
                    injector.arm(0, kind);
                    db.set_corruption_injector(Arc::clone(&injector));
                }
                // The probing query trips the fault on both engines; its
                // answer must be contained and correct on both.
                self.check_range(0, ROWS / 4, false);
                prop_assert!(Pair::heal(&self.reference), "reference never healed");
                prop_assert!(Pair::heal(&self.sharded), "sharded never healed");
                prop_assert_eq!(
                    self.reference.column_health(self.ref_col),
                    ColumnHealth::Healthy
                );
                prop_assert_eq!(
                    self.sharded.column_health(self.shard_col),
                    ColumnHealth::Healthy
                );
                prop_assert!(self.reference.validate());
                prop_assert!(self.sharded.validate());
            }
        }
    }

    fn cleanup(self) {
        let _ = std::fs::remove_dir_all(&self.ref_dir);
        let _ = std::fs::remove_dir_all(&self.shard_dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The differential property: for any program over the engine's whole
    /// operation surface, a sharded engine and an unsharded engine are
    /// indistinguishable — and both match the reference model exactly.
    #[test]
    fn sharded_engine_is_observationally_identical_to_unsharded(
        salt in -400i64..400,
        extent in 64usize..512,
        ops in arb_ops(),
    ) {
        let mut pair = Pair::new(salt, extent);
        prop_assert!(
            pair.sharded.piece_count(pair.shard_col) == 0,
            "no cracker before the first query"
        );
        for op in &ops {
            pair.apply(op);
            prop_assert!(
                holistic_sync::held_locks().is_empty(),
                "latch residue after {op:?}"
            );
        }
        // The program must really have exercised a multi-shard column:
        // every shard contributes at least one piece (at most 32 ops ran,
        // so deletes cannot have emptied a >= 64-value shard).
        pair.check_range(0, ROWS, false);
        prop_assert!(
            pair.sharded.piece_count(pair.shard_col) >= (ROWS as usize).div_ceil(extent),
            "sharded engine degenerated to fewer pieces than shards"
        );
        // Closing sweep: a spread of ranges plus the full domain, all three
        // answer sources (model, unsharded, sharded) in exact agreement.
        for i in 0..8i64 {
            let lo = (i * 311 + salt).rem_euclid(ROWS - 40);
            pair.check_range(lo, lo + 250, true);
        }
        pair.check_range(i64::MIN / 2, i64::MAX / 2, true);
        prop_assert!(pair.reference.validate());
        prop_assert!(pair.sharded.validate());
        pair.cleanup();
    }
}

//! Negative test for the latch hierarchy: the whole engine surface —
//! queries, batches, updates, idle refinement, full-index builds,
//! persistence, recovery, structural DDL and the background tuner — runs
//! with lock-order enforcement switched on and never trips it.
//!
//! Enforcement panics on any acquisition that violates the `LockLevel`
//! order documented in `holistic-sync` (and ARCHITECTURE.md), so a clean
//! run of this test is machine-checked evidence that the hierarchy is
//! respected on every one of these paths, not just documented.

use std::path::PathBuf;
use std::sync::Arc;

use holistic_core::{
    BackgroundConfig, BackgroundTuner, Database, FaultInjector, HolisticConfig, IdleBudget,
    IndexingStrategy, Query,
};

const ROWS: i64 = 20_000;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "holistic-integration-latch-order-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dataset(seed: i64) -> Vec<i64> {
    (0..ROWS)
        .map(|i| (i.wrapping_mul(7919).wrapping_add(seed * 131)).rem_euclid(ROWS))
        .collect()
}

#[test]
fn engine_surface_runs_clean_under_latch_order_enforcement() {
    holistic_sync::set_enforcement(true);

    // `for_testing()` sets `paranoia`, so `Database::new` would switch
    // enforcement on anyway (the production wiring this test also covers).
    let mut db = Database::new(HolisticConfig::for_testing(), IndexingStrategy::Holistic);
    let table = db
        .create_table("t", vec![("a", dataset(1)), ("b", dataset(2))])
        .unwrap();
    let a = db.column_id(table, "a").unwrap();
    let b = db.column_id(table, "b").unwrap();
    // Single-value updates are only supported on single-column tables.
    let updates_table = db.create_table("u", vec![("c", dataset(3))]).unwrap();
    let c = db.column_id(updates_table, "c").unwrap();

    // Persistence attached: from here on every mutation layers the
    // Persistence latch under the Column latches it WAL-logs for.
    let dir = tmpdir("surface");
    db.set_persistence(&dir, FaultInjector::new()).unwrap();

    // Single queries and batches crack both columns and feed statistics
    // (CrackerMap -> Column -> StatsMap).
    for i in 0..48 {
        let lo = (i * 389) % ROWS;
        db.execute(&Query::range(a, lo, lo + 200)).unwrap();
        db.execute(&Query::range(b, lo, lo + 500)).unwrap();
    }
    let batch: Vec<Query> = (0..16)
        .map(|i| Query::range(if i % 2 == 0 { a } else { b }, i * 700, i * 700 + 300))
        .collect();
    db.execute_batch(&batch).unwrap();

    // Updates ripple through a cracked column under the WAL.
    db.execute(&Query::range(c, 100, 4_000)).unwrap();
    for v in 0..32 {
        db.insert(c, ROWS + v).unwrap();
    }
    for v in 0..16 {
        db.delete(c, ROWS + v).unwrap();
    }

    // Idle refinement, explicit warming, prefix-sum seeding, sorting and
    // full-index lifecycle exercise the tuner-side lock paths.
    db.run_idle(IdleBudget::Actions(64));
    db.warm_column(a, 8).unwrap();
    db.seed_prefix_sums();
    db.sort_column(b).unwrap();
    db.build_full_index(b).unwrap();
    db.execute(&Query::range(b, 100, 900)).unwrap();
    db.drop_full_index(b).unwrap();

    // Checkpointing holds Persistence while walking every Column.
    db.snapshot().unwrap();
    db.execute(&Query::range(a, 0, 50)).unwrap();
    db.charge_pending_penalty(std::time::Duration::from_micros(10));
    db.snapshot_if_dirty().unwrap();
    assert!(db.validate());

    // Concurrent phase: the background tuner races query threads on the
    // shared engine, all under enforcement.
    let shared = db.into_shared();
    let tuner = BackgroundTuner::spawn(Arc::clone(&shared), BackgroundConfig::default());
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let db = Arc::clone(&shared);
            std::thread::spawn(move || {
                for i in 0..64 {
                    let lo = ((w * 37 + i) * 211) % ROWS;
                    db.read().execute(&Query::range(a, lo, lo + 400)).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    tuner.stop();

    // Structural teardown and recovery, still under enforcement.
    let lock = Arc::try_unwrap(shared).expect("all clones dropped");
    let mut db = lock.into_inner();
    assert!(db.drop_table(table).unwrap());
    let (recovered, _outcome) = Database::recover(
        HolisticConfig::for_testing(),
        IndexingStrategy::Holistic,
        &dir,
        FaultInjector::new(),
    )
    .unwrap();
    assert!(recovered.validate());

    // Nothing may leak out of any of the paths above.
    assert!(holistic_sync::held_locks().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same surface with `shard_extent` set, so every path runs through
/// the sharded layout: the `Shard`-level shard-list latch slots between
/// `CrackerMap` and the per-shard `Column` latches, fan-outs visit shards
/// one at a time, and insert spill appends shards — all under enforcement.
#[test]
fn sharded_engine_surface_runs_clean_under_latch_order_enforcement() {
    holistic_sync::set_enforcement(true);

    let config = HolisticConfig::for_testing().with_shard_extent(ROWS as usize / 8);
    let mut db = Database::new(config.clone(), IndexingStrategy::Holistic);
    let table = db.create_table("t", vec![("a", dataset(4))]).unwrap();
    let a = db.column_id(table, "a").unwrap();

    let dir = tmpdir("sharded-surface");
    db.set_persistence(&dir, FaultInjector::new()).unwrap();

    // Queries and a batch fan out across shards; the cache classification
    // composes per-shard aggregates under the Shard -> Column order.
    for i in 0..48 {
        let lo = (i * 389) % ROWS;
        db.execute(&Query::range(a, lo, lo + 200)).unwrap();
    }
    let batch: Vec<Query> = (0..16)
        .map(|i| Query::range(a, i * 700, i * 700 + 300))
        .collect();
    db.execute_batch(&batch).unwrap();

    // Inserts past the last shard's extent spill fresh shards (Shard-level
    // write latch) while the WAL logs under Persistence.
    for v in 0..32 {
        db.insert(a, ROWS + v).unwrap();
    }
    for v in 0..8 {
        db.delete(a, ROWS + v).unwrap();
    }

    // Idle refinement and prefix seeding walk the per-shard latches.
    db.run_idle(IdleBudget::Actions(64));
    db.seed_prefix_sums();
    db.snapshot().unwrap();
    assert!(db.validate());

    // Concurrent phase: readers fan out across shards while the tuner
    // refines individual shards, all under enforcement.
    let shared = db.into_shared();
    let tuner = BackgroundTuner::spawn(Arc::clone(&shared), BackgroundConfig::default());
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let db = Arc::clone(&shared);
            std::thread::spawn(move || {
                for i in 0..64 {
                    let lo = ((w * 37 + i) * 211) % ROWS;
                    db.read().execute(&Query::range(a, lo, lo + 400)).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    tuner.stop();

    // Recovery rebuilds the sharded layout from the per-shard sections.
    let lock = Arc::try_unwrap(shared).expect("all clones dropped");
    drop(lock.into_inner());
    let (recovered, _outcome) = Database::recover(
        config,
        IndexingStrategy::Holistic,
        &dir,
        FaultInjector::new(),
    )
    .unwrap();
    assert!(recovered.validate());

    assert!(holistic_sync::held_locks().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

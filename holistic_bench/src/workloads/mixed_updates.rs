//! `mixed.updates` — writes beside reads on the same layers. One
//! closed-loop client on a single-column table whose cracker is sharded (the
//! fan-out path, insert-spilled shards, per-shard snapshot sections), with
//! persistence on: count/sum reads, materializing reads and grouped updates,
//! a checkpoint every few thousand ops, and at the end a simulated crash and
//! a recovery that must bring back every acknowledged update. A read-path
//! gain that makes cached sums or prefix arrays dearer to patch, log or
//! snapshot shows up here as a loss.
//!
//! Flush policy: one fsync per `update_batch` (group commit); `snapshot()`
//! fsyncs the image and the compacted log before it returns.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::Rng;

use holistic_core::{
    ColumnId, Database, FaultInjector, HolisticConfig, HolisticError, IndexingStrategy, Query,
    RecoveryOutcome, UpdateOp,
};

use crate::gen::{rng_for, uniform_column};
use crate::ladder::LadderInput;
use crate::oracle::{multiset_hash, CountSum, FenwickOracle};
use crate::report::{peak_rss_mb, Ctx, Metric, Outcome, Res};
use crate::stats::{median, summarize, UnitLatencies};
use crate::workloads::{base_config, load_table, repeat_set_up, ReadOp};

/// Workload name.
pub const NAME: &str = "mixed.updates";

/// The flush policy, stated in the output.
pub const FLUSH_POLICY: &str =
    "one fsync per update_batch; snapshot() fsyncs image and compacted log";

/// Frozen sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows loaded.
    pub rows: usize,
    /// Shard extent of the cracker column.
    pub shard_extent: usize,
    /// Share of the domain a count/sum read covers.
    pub read_selectivity: f64,
    /// Share of the domain a materializing read covers.
    pub materialize_selectivity: f64,
    /// Inserts and deletes per `update_batch`.
    pub batch: usize,
    /// A checkpoint follows every this many ops.
    pub snapshot_every: usize,
    /// Ops generated; the run ends early if it uses them all.
    pub max_ops: usize,
    /// Checkpoint cycles run whatever `--seconds` says.
    pub min_cycles: usize,
    /// Read ops the traced run replays.
    pub ladder_ops: usize,
}

/// Sizes of a real run.
pub const FULL: Sizes = Sizes {
    rows: 100_000,
    shard_extent: 1 << 15,
    read_selectivity: 0.01,
    materialize_selectivity: 0.001,
    batch: 16,
    snapshot_every: 1_000,
    max_ops: 60_000,
    min_cycles: 5,
    ladder_ops: 8_192,
};

/// Sizes of a smoke run.
pub const SMOKE: Sizes = Sizes {
    rows: 20_000,
    shard_extent: 1 << 12,
    read_selectivity: 0.01,
    materialize_selectivity: 0.001,
    batch: 16,
    snapshot_every: 100,
    max_ops: 2_000,
    min_cycles: 5,
    ladder_ops: 512,
};

/// Op mix, in tenths: count/sum reads, then materializing reads; the rest
/// are update batches.
const READ_TENTHS: u32 = 7;
const MATERIALIZE_TENTHS: u32 = 1;

/// Ranges the recovered engine is compared on: the whole domain plus this
/// many slices partitioning it.
const RECOVERY_PROBES: usize = 32;

/// The sizes for `ctx`.
#[must_use]
pub fn sizes(ctx: &Ctx) -> Sizes {
    if ctx.smoke {
        SMOKE
    } else {
        FULL
    }
}

/// The sizes as a JSON object, for the provenance line.
#[must_use]
pub fn frozen(ctx: &Ctx) -> String {
    let s = sizes(ctx);
    format!(
        "{{\"rows\": {}, \"shard_extent\": {}, \"mix\": \"70% count/sum ({}), 10% materialize ({}), 20% update_batch of {}\", \"snapshot_every\": {}, \"clients\": 1, \"loop\": \"closed\", \"flush_policy\": \"{FLUSH_POLICY}\"}}",
        s.rows, s.shard_extent, s.read_selectivity, s.materialize_selectivity, s.batch, s.snapshot_every
    )
}

fn config(s: &Sizes) -> HolisticConfig {
    base_config().with_shard_extent(s.shard_extent)
}

/// One insert or delete of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Change {
    insert: bool,
    value: i64,
}

/// One pre-generated op with the answer the model gives it.
#[derive(Debug, Clone)]
enum Op {
    Read {
        lo: i64,
        hi: i64,
        expect: CountSum,
    },
    Materialize {
        lo: i64,
        hi: i64,
        expect: CountSum,
        hash: u64,
    },
    /// Every delete names a value the model holds, so each element of the
    /// batch is expected to apply.
    Update(Vec<Change>),
}

fn apply_changes(model: &mut FenwickOracle, changes: &[Change]) {
    for change in changes {
        if change.insert {
            model.insert(change.value);
        } else {
            model.delete(change.value);
        }
    }
}

/// Generates the op sequence by running the model alongside.
fn generate_ops(ctx: &Ctx, s: &Sizes, data: &[i64]) -> Vec<Op> {
    let mut model = FenwickOracle::new(s.rows + 1, data);
    let mut rng = rng_for(ctx.seed, 300);
    let width = |selectivity: f64| ((s.rows as f64 * selectivity).round() as i64).max(1);
    let (read_width, mat_width) = (width(s.read_selectivity), width(s.materialize_selectivity));
    (0..s.max_ops)
        .map(|_| {
            let kind = rng.gen_range(0..10u32);
            if kind < READ_TENTHS + MATERIALIZE_TENTHS {
                let w = if kind < READ_TENTHS {
                    read_width
                } else {
                    mat_width
                };
                let lo = rng.gen_range(1..=(s.rows as i64 + 1 - w).max(1));
                let expect = model.count_sum(lo, lo + w);
                if kind < READ_TENTHS {
                    Op::Read {
                        lo,
                        hi: lo + w,
                        expect,
                    }
                } else {
                    Op::Materialize {
                        lo,
                        hi: lo + w,
                        expect,
                        hash: model.range_hash(lo, lo + w),
                    }
                }
            } else {
                let changes: Vec<Change> = (0..s.batch)
                    .map(|_| {
                        let victim = if rng.gen_bool(0.5) {
                            None
                        } else {
                            model.value_at_rank(rng.gen_range(0..model.len().max(1)))
                        };
                        let change = match victim {
                            Some(value) => Change {
                                insert: false,
                                value,
                            },
                            None => Change {
                                insert: true,
                                value: rng.gen_range(1..=s.rows as i64),
                            },
                        };
                        apply_changes(&mut model, &[change]);
                        change
                    })
                    .collect();
                Op::Update(changes)
            }
        })
        .collect()
}

/// The model's state after the updates among `ops` have applied to `data`.
fn model_after(s: &Sizes, data: &[i64], ops: &[Op]) -> FenwickOracle {
    let mut model = FenwickOracle::new(s.rows + 1, data);
    for op in ops {
        if let Op::Update(changes) = op {
            apply_changes(&mut model, changes);
        }
    }
    model
}

fn update_ops(column: ColumnId, changes: &[Change]) -> Vec<UpdateOp> {
    changes
        .iter()
        .map(|c| {
            if c.insert {
                UpdateOp::Insert {
                    column,
                    value: c.value,
                }
            } else {
                UpdateOp::Delete {
                    column,
                    value: c.value,
                }
            }
        })
        .collect()
}

struct Prepared {
    data: Vec<i64>,
    ops: Vec<Op>,
    db: Database,
    column: ColumnId,
    injector: Arc<FaultInjector>,
    dir: PathBuf,
}

fn set_up(ctx: &Ctx, s: &Sizes) -> Res<Prepared> {
    let data = uniform_column(s.rows, &mut rng_for(ctx.seed, 0));
    let ops = generate_ops(ctx, s, &data);
    let (mut db, columns) = load_table(
        config(s),
        IndexingStrategy::Holistic,
        std::slice::from_ref(&data),
    )?;
    let dir = ctx.out_dir.join(format!("persist.{}", std::process::id()));
    let injector = FaultInjector::new();
    db.set_persistence(&dir, Arc::clone(&injector))?;
    Ok(Prepared {
        data,
        ops,
        db,
        column: columns[0],
        injector,
        dir,
    })
}

/// Bytes of every file in `dir` (the log and the kept snapshot images).
fn disk_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// Runs `op` against the engine; whether its answer was right.
fn run_op(db: &mut Database, column: ColumnId, op: &Op) -> Res<(bool, f64)> {
    match op {
        Op::Read { lo, hi, expect } => {
            let query = Query::range(column, *lo, *hi);
            let started = Instant::now();
            let result = db.execute(&query)?;
            let us = started.elapsed().as_nanos() as f64 / 1e3;
            Ok(((result.count, result.sum) == *expect, us))
        }
        Op::Materialize {
            lo,
            hi,
            expect,
            hash,
        } => {
            let query = Query::range_materialized(column, *lo, *hi);
            let started = Instant::now();
            let result = db.execute(&query)?;
            let us = started.elapsed().as_nanos() as f64 / 1e3;
            let right = (result.count, result.sum) == *expect
                && result
                    .values
                    .as_deref()
                    .is_some_and(|v| v.len() as u64 == expect.0 && multiset_hash(v) == *hash);
            Ok((right, us))
        }
        Op::Update(changes) => {
            let batch = update_ops(column, changes);
            let started = Instant::now();
            let applied = db.update_batch(&batch)?;
            let us = started.elapsed().as_nanos() as f64 / 1e3;
            Ok((
                applied.len() == batch.len() && applied.iter().all(|&a| a),
                us,
            ))
        }
    }
}

/// What the crash-and-recover check found.
struct Durability {
    held: bool,
    recover_s: f64,
    /// How many records of the torn batch recovery brought back.
    recovered_prefix: Option<usize>,
    outcome: RecoveryOutcome,
}

/// Crashes the engine inside its next update batch — the injector tears the
/// log write, so bytes not yet fsynced are lost — then recovers into a fresh
/// engine and compares it with the model: every acknowledged batch must be
/// there, and of the torn batch only a prefix (the engine's stated contract:
/// records land in order, recovery drops the torn tail).
fn crash_and_recover(s: &Sizes, prepared: Prepared, done: usize) -> Res<Durability> {
    let Prepared {
        data,
        ops,
        mut db,
        column,
        injector,
        dir,
    } = prepared;
    let torn: &[Change] = ops[done..]
        .iter()
        .find_map(|op| match op {
            Op::Update(changes) => Some(changes.as_slice()),
            _ => None,
        })
        .ok_or("no update batch left to crash in")?;
    injector.arm(injector.ops_performed());
    match db.update_batch(&update_ops(column, torn)) {
        Err(HolisticError::Crashed { .. }) => {}
        Err(other) => return Err(other.into()),
        Ok(_) => return Err("the armed injector did not crash the update batch".into()),
    }
    drop(db);

    let started = Instant::now();
    let (recovered, outcome) = Database::recover(
        config(s),
        IndexingStrategy::Holistic,
        &dir,
        FaultInjector::new(),
    )?;
    let recover_s = started.elapsed().as_secs_f64();

    let table = recovered
        .table_id("t")
        .ok_or("recovered engine lost the table")?;
    let column = recovered.column_ids(table)?[0];
    let top = s.rows as i64 + 1;
    let mut probes = vec![(0, top + 1)];
    probes.extend((0..RECOVERY_PROBES).map(|i| {
        let at = |k: usize| (top + 1) * k as i64 / RECOVERY_PROBES as i64;
        (at(i), at(i + 1))
    }));
    let mut got = Vec::with_capacity(probes.len());
    for &(lo, hi) in &probes {
        let result = recovered.execute(&Query::range(column, lo, hi))?;
        got.push((result.count, result.sum));
    }
    let mut model = model_after(s, &data, &ops[..done]);
    let matches = |model: &FenwickOracle| {
        probes
            .iter()
            .zip(&got)
            .all(|(&(lo, hi), answer)| model.count_sum(lo, hi) == *answer)
    };
    let mut recovered_prefix = matches(&model).then_some(0);
    for (k, change) in torn.iter().enumerate() {
        if recovered_prefix.is_some() {
            break;
        }
        apply_changes(&mut model, &[*change]);
        recovered_prefix = matches(&model).then_some(k + 1);
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir)?;
    Ok(Durability {
        held: recovered_prefix.is_some(),
        recover_s,
        recovered_prefix,
        outcome,
    })
}

/// The timed run.
pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let s = sizes(ctx);
    let (mut prepared, setup_s) = repeat_set_up(|| set_up(ctx, &s))?;
    println!("flush policy: {FLUSH_POLICY}");

    let (mut reads_us, mut writes_us, mut cycle_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies = UnitLatencies::default();
    let (mut cycle_seconds, mut snapshot_seconds, mut disk_ratio) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;
    let mut live_rows = s.rows as i64;
    let mut peak_rss = 0.0;
    let fsyncs_before = prepared.injector.ops_performed();
    let mut done = 0usize;
    let started = Instant::now();
    let mut cycle_started = started;
    while done < prepared.ops.len()
        && (cycle_seconds.len() < s.min_cycles || started.elapsed().as_secs_f64() < ctx.seconds)
    {
        let op = &prepared.ops[done];
        let (right, us) = run_op(&mut prepared.db, prepared.column, op)?;
        failed += u64::from(!right);
        cycle_us.push(us);
        match op {
            Op::Update(changes) => {
                writes_us.push(us);
                live_rows += changes
                    .iter()
                    .map(|c| if c.insert { 1 } else { -1 })
                    .sum::<i64>();
            }
            _ => reads_us.push(us),
        }
        done += 1;
        if done.is_multiple_of(s.snapshot_every) {
            let snapshot_started = Instant::now();
            prepared.db.snapshot()?;
            snapshot_seconds.push(snapshot_started.elapsed().as_secs_f64());
            cycle_seconds.push(cycle_started.elapsed().as_secs_f64());
            latencies.push_unit(std::mem::take(&mut cycle_us));
            disk_ratio.push(disk_bytes(&prepared.dir)? as f64 / (8.0 * live_rows as f64));
            if cycle_seconds.len() == 1 {
                peak_rss = peak_rss_mb();
            }
            cycle_started = Instant::now();
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let io_ops = prepared.injector.ops_performed() - fsyncs_before;
    let durability = crash_and_recover(&s, prepared, done)?;
    if !durability.held {
        println!(
            "DURABILITY CHECK FAILED: the recovered engine matches no prefix of the torn batch"
        );
    }

    let reads = summarize(&mut reads_us);
    let writes = summarize(&mut writes_us);
    println!("read latency (us):  {reads}");
    println!("write latency (us): {writes}");
    println!("all ops (us):       {}", latencies.pooled());
    let levelled = match (disk_ratio.get(disk_ratio.len() / 2), disk_ratio.last()) {
        (Some(mid), Some(last)) => last / mid,
        _ => 0.0,
    };

    Ok(Outcome {
        attempted: done as u64 + 1,
        failed: failed + u64::from(!durability.held),
        correct: failed == 0 && durability.held,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("throughput_ops", done as f64 / wall_s, "1/s"),
            Metric::new("cum_response_s", median(&cycle_seconds), "s"),
            Metric::new("p50_us", latencies.p50(), "us"),
            Metric::new("p99_us", latencies.p99(), "us"),
            Metric::new("peak_rss_mb", peak_rss, "MB"),
        ],
        diagnostics: vec![
            Metric::new("read_p50_us", reads.p50, "us"),
            Metric::new("read_p99_us", reads.p99, "us"),
            Metric::new("write_p50_us", writes.p50, "us"),
            Metric::new("write_p99_us", writes.p99, "us"),
            Metric::new("recover_s", durability.recover_s, "s"),
            Metric::new(
                "disk_bytes_per_user_byte",
                disk_ratio.last().copied().unwrap_or(0.0),
                "ratio",
            ),
            Metric::new("disk_ratio_last_over_mid_cycle", levelled, "ratio"),
            Metric::new("snapshot_cycles", snapshot_seconds.len() as f64, "count"),
            Metric::new("snapshot_s", median(&snapshot_seconds), "s"),
            Metric::new("io_ops_through_injector", io_ops as f64, "count"),
            Metric::new(
                "recovery.torn_batch_prefix_applied",
                durability.recovered_prefix.map_or(-1.0, |k| k as f64),
                "count",
            ),
            Metric::new(
                "recovery.wal_records_replayed",
                durability.outcome.wal_records_replayed as f64,
                "count",
            ),
            Metric::new(
                "recovery.wal_bytes_dropped",
                durability.outcome.wal_bytes_dropped as f64,
                "count",
            ),
            Metric::new(
                "recovery.cold_columns",
                durability.outcome.cold_columns.len() as f64,
                "count",
            ),
            Metric::new(
                "recovery.snapshot_generation",
                durability.outcome.snapshot_generation.unwrap_or(0) as f64,
                "count",
            ),
        ],
    })
}

/// The traced run's input: the read ops of the generated sequence, on the
/// loaded data (the ladder's rungs below the engine have no update path, so
/// the traced stream is read-only; `update_probe` covers the write path).
pub fn ladder_input(ctx: &Ctx) -> LadderInput {
    let s = sizes(ctx);
    let data = uniform_column(s.rows, &mut rng_for(ctx.seed, 0));
    let stream = generate_ops(ctx, &s, &data)
        .into_iter()
        .filter_map(|op| match op {
            Op::Read { lo, hi, .. } => Some(ReadOp {
                column: 0,
                lo,
                hi,
                materialize: false,
            }),
            Op::Materialize { lo, hi, .. } => Some(ReadOp {
                column: 0,
                lo,
                hi,
                materialize: true,
            }),
            Op::Update(_) => None,
        })
        .take(s.ladder_ops)
        .collect();
    LadderInput {
        workload: NAME,
        columns: vec![data],
        warm: Vec::new(),
        stream,
        idle: None,
        config: config(&s),
        shard_extent: s.shard_extent,
    }
}

/// Write-path diagnostics for the traced run: the same update batches with
/// persistence off and on (the difference is the log), and one checkpoint.
pub fn update_probe(ctx: &Ctx, input: &LadderInput) -> Res<Vec<Metric>> {
    const BATCHES: usize = 200;
    let s = sizes(ctx);
    let data = &input.columns[0];
    let batches: Vec<Vec<Change>> = generate_ops(ctx, &s, data)
        .into_iter()
        .filter_map(|op| match op {
            Op::Update(changes) => Some(changes),
            _ => None,
        })
        .take(BATCHES)
        .collect();
    let dir = ctx
        .out_dir
        .join(format!("persist-probe.{}", std::process::id()));
    let mut out = Vec::new();
    let mut medians = Vec::new();
    for persist in [false, true] {
        let (mut db, columns) = load_table(config(&s), IndexingStrategy::Holistic, &input.columns)?;
        let injector = FaultInjector::new();
        if persist {
            db.set_persistence(&dir, Arc::clone(&injector))?;
        }
        // Instantiate the cracker, so updates ripple through it as they do
        // in the timed run.
        db.execute(&Query::range(columns[0], 1, s.rows as i64 / 2))?;
        let io_before = injector.ops_performed();
        let mut us = Vec::with_capacity(batches.len());
        for changes in &batches {
            let batch = update_ops(columns[0], changes);
            let started = Instant::now();
            db.update_batch(&batch)?;
            us.push(started.elapsed().as_nanos() as f64 / 1e3);
        }
        medians.push(median(&us));
        if persist {
            let io_per_batch = (injector.ops_performed() - io_before) as f64 / batches.len() as f64;
            let log_bytes = disk_bytes(&dir)? as f64;
            let started = Instant::now();
            db.snapshot()?;
            out.push(Metric::new(
                "persist.snapshot_s",
                started.elapsed().as_secs_f64(),
                "s",
            ));
            out.push(Metric::new(
                "persist.io_ops_per_update_batch",
                io_per_batch,
                "count",
            ));
            out.push(Metric::new(
                "persist.log_bytes_per_user_byte_before_snapshot",
                log_bytes / (8.0 * s.rows as f64),
                "ratio",
            ));
            out.push(Metric::new(
                "persist.disk_bytes_per_user_byte_after_snapshot",
                disk_bytes(&dir)? as f64 / (8.0 * s.rows as f64),
                "ratio",
            ));
        }
    }
    std::fs::remove_dir_all(&dir)?;
    out.push(Metric::new(
        "core.engine.update.batch_us_persistence_off",
        medians[0],
        "us",
    ));
    out.push(Metric::new(
        "core.engine.update.batch_us_persistence_on",
        medians[1],
        "us",
    ));
    out.push(Metric::new(
        "persist.wal_us_per_update_batch",
        medians[1] - medians[0],
        "us",
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Ctx {
        Ctx {
            seed: 11,
            seconds: 0.0,
            smoke: true,
            out_dir: std::env::temp_dir(),
        }
    }

    #[test]
    fn generated_deletes_always_name_a_held_value() {
        let s = SMOKE;
        let data = uniform_column(s.rows, &mut rng_for(11, 0));
        let ops = generate_ops(&ctx(), &s, &data);
        let mut model = FenwickOracle::new(s.rows + 1, &data);
        let mut kinds = [0usize; 3];
        for op in &ops {
            match op {
                Op::Read { lo, hi, expect } => {
                    kinds[0] += 1;
                    assert_eq!(model.count_sum(*lo, *hi), *expect);
                }
                Op::Materialize {
                    lo,
                    hi,
                    expect,
                    hash,
                } => {
                    kinds[1] += 1;
                    assert_eq!(model.count_sum(*lo, *hi), *expect);
                    assert_eq!(model.range_hash(*lo, *hi), *hash);
                }
                Op::Update(changes) => {
                    kinds[2] += 1;
                    assert_eq!(changes.len(), s.batch);
                    for c in changes {
                        if c.insert {
                            model.insert(c.value);
                        } else {
                            assert!(model.delete(c.value), "delete of a value not held");
                        }
                    }
                }
            }
        }
        // 70 / 10 / 20 within sampling noise.
        assert!((1_250..1_550).contains(&kinds[0]), "{kinds:?}");
        assert!((120..280).contains(&kinds[1]), "{kinds:?}");
        assert!((300..500).contains(&kinds[2]), "{kinds:?}");
        assert_eq!(model_after(&s, &data, &ops).len(), model.len());
    }
}

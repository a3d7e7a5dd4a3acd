//! The traced run: a *layer ladder*. The workload's read stream is replayed
//! against one public entry point per rung — raw crack kernels, the cracker
//! column, the latched column (one shard, then sharded), `Database::execute`,
//! `execute_batch`, the in-process service core, the TCP client — on state
//! prepared the same way each time. A layer's self time is its rung minus
//! the rung below on the same inputs. Every op is recorded as a span with
//! the call and the oracle check as children.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use holistic_core::{
    ColumnId, CrackKernel, CrackPolicy, HolisticConfig, IdleBudget, IndexingStrategy,
    KernelDispatches, SharedDatabase,
};
use holistic_cracking::{ConcurrentCrackerColumn, CrackerColumn};
use holistic_server::{serve, Client, QueryReq, RespStatus, ServiceConfig, ServiceCore};

use crate::oracle::SortedOracle;
use crate::report::{Ctx, Metric, Outcome, Res};
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{answer_is_right, load_table, result_is_right, warm_engine, ReadOp};

/// Queries per `execute_batch` call, per service admission burst and per TCP
/// pipeline window: `ServiceConfig::default().max_batch`.
pub const BATCH: usize = 64;

/// Ops the two service rungs replay (a prefix of the stream; the batch rung
/// is compared on the same prefix).
const SERVICE_OPS: usize = 8_192;

/// Predicates timed against the base-column scan.
const SCAN_SAMPLE: usize = 50;

/// Seed of the refinement generator the rungs below the engine use, so the
/// kernel rung and the cracker rung see identical piece tables.
const REFINE_SEED: u64 = 0x1D1E;

const L_SCAN: &str = "storage.scan";
const L_KERNELS: &str = "cracking.kernels";
const L_CRACKER: &str = "cracking.cracker";
const L_LATCHED: &str = "cracking.concurrent";
const L_SHARDED: &str = "cracking.concurrent.sharded";
const L_ENGINE: &str = "core.engine";
const L_BATCH: &str = "core.engine.batch";
const L_SERVICE: &str = "server.core";
const L_NET: &str = "server.net";

/// What the ladder replays for one workload.
#[derive(Debug)]
pub struct LadderInput {
    /// Workload name, for the trace file.
    pub workload: &'static str,
    /// Base data, one vector per column.
    pub columns: Vec<Vec<i64>>,
    /// Predicates replayed untimed on each rung's fresh state before the
    /// stream. Non-empty means the stream only repeats these predicates, so
    /// it changes no state and rungs may share one prepared structure.
    pub warm: Vec<ReadOp>,
    /// The timed read stream.
    pub stream: Vec<ReadOp>,
    /// `(every, actions)`: after every `every` stream ops, `actions`
    /// refinement actions — `run_idle` at the engine rungs, random cracks
    /// spread over the columns below them. Timed apart from the ops.
    pub idle: Option<(usize, u64)>,
    /// Engine configuration of the workload.
    pub config: HolisticConfig,
    /// Shard extent of the sharded rung.
    pub shard_extent: usize,
}

/// One rung's measurements.
#[derive(Debug)]
struct Rung {
    layer: &'static str,
    /// Nanoseconds inside the layer, per call.
    call_ns: Vec<u64>,
    /// Stream ops answered per call (1, or [`BATCH`]).
    ops_per_call: usize,
    /// Stream ops replayed.
    ops: usize,
    failed: u64,
}

impl Rung {
    fn new(layer: &'static str, ops_per_call: usize) -> Self {
        Rung {
            layer,
            call_ns: Vec::new(),
            ops_per_call,
            ops: 0,
            failed: 0,
        }
    }

    /// Microseconds per op over the first `ops` ops (all when `None`).
    fn us_per_op(&self, ops: Option<usize>) -> f64 {
        let ops = ops.unwrap_or(self.ops).min(self.ops).max(1);
        let calls = ops.div_ceil(self.ops_per_call);
        let ns: u64 = self.call_ns.iter().take(calls).sum();
        ns as f64 / 1e3 / ops as f64
    }

    fn call_seconds(&self) -> f64 {
        self.call_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Counters read from public accessors while the rungs run.
#[derive(Debug, Default)]
struct Counters {
    kernel_dispatches: KernelDispatches,
    values_swept: u64,
    pieces: usize,
    cached_sum_pieces: usize,
    prefix_pieces: usize,
    zero_read_ratio: f64,
    exclusive_share: f64,
    engine_dispatches: KernelDispatches,
    idle_applied: u64,
    idle_effective: u64,
    idle_seconds: f64,
    mean_batch: f64,
}

/// Runs the ladder for `input` and writes `trace.<workload>.json`.
pub fn run(ctx: &Ctx, input: &LadderInput) -> Res<Outcome> {
    let oracles: Vec<SortedOracle> = input.columns.iter().map(|c| SortedOracle::new(c)).collect();
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();

    let scan = rung_scan(input, &oracles, &mut tracer);
    let (kernels, cracker) = rungs_kernels_and_cracker(input, &oracles, &mut tracer, &mut counters);
    let latched = rung_latched(input, &oracles, &mut tracer, &mut counters, 0, L_LATCHED);
    let sharded = rung_latched(
        input,
        &oracles,
        &mut tracer,
        &mut counters,
        input.shard_extent,
        L_SHARDED,
    );
    let mut engines = Engines::new(input);
    let untraced_seconds = engine_untraced(&mut engines)?;
    let (engine, traced_seconds) = rung_engine(&mut engines, &oracles, &mut tracer, &mut counters)?;
    let batch = rung_batch(&mut engines, &oracles, &mut tracer)?;
    let service = rung_service(&mut engines, &oracles, &mut tracer)?;
    let net = rung_net(&mut engines, &oracles, &mut tracer, &mut counters)?;

    // The engine sits on the sharded column when the workload shards.
    let below_engine = if input.config.shard_extent == 0 {
        &latched
    } else {
        &sharded
    };
    let service_ops = Some(service.ops);
    let overhead_pct = (traced_seconds - untraced_seconds) / untraced_seconds * 100.0;
    let rungs = [
        &scan, &kernels, &cracker, &latched, &sharded, &engine, &batch, &service, &net,
    ];
    let failed: u64 = rungs.iter().map(|r| r.failed).sum();
    let attempted: u64 = rungs.iter().map(|r| r.ops as u64).sum();

    let us = |name, value| Metric::new(name, value, "us");
    let metrics = vec![
        us("storage.scan.us_per_q", scan.us_per_op(None)),
        us("cracking.kernels.us_per_q", kernels.us_per_op(None)),
        Metric::new(
            "cracking.kernels.dispatches",
            counters.kernel_dispatches.total() as f64,
            "count",
        ),
        Metric::new(
            "cracking.kernels.values_swept",
            counters.values_swept as f64,
            "count",
        ),
        us(
            "cracking.cracker.self_us_per_q",
            cracker.us_per_op(None) - kernels.us_per_op(None),
        ),
        Metric::new("cracking.cracker.pieces", counters.pieces as f64, "count"),
        Metric::new(
            "cracking.cracker.zero_read_ratio",
            counters.zero_read_ratio,
            "ratio",
        ),
        us(
            "cracking.concurrent.self_us_per_q",
            latched.us_per_op(None) - cracker.us_per_op(None),
        ),
        us(
            "cracking.concurrent.sharded_self_us_per_q",
            sharded.us_per_op(None) - latched.us_per_op(None),
        ),
        Metric::new(
            "cracking.concurrent.exclusive_share",
            counters.exclusive_share,
            "ratio",
        ),
        us(
            "core.engine.self_us_per_q",
            engine.us_per_op(None) - below_engine.us_per_op(None),
        ),
        us("core.engine.batch_us_per_q", batch.us_per_op(None)),
        us(
            "server.core.self_us_per_q",
            service.us_per_op(None) - batch.us_per_op(service_ops),
        ),
        Metric::new("server.core.mean_batch", counters.mean_batch, "count"),
        us(
            "server.net.self_us_per_q",
            net.us_per_op(None) - service.us_per_op(None),
        ),
        Metric::new("trace_overhead_pct", overhead_pct, "%"),
    ];

    let mut diagnostics = Vec::new();
    for rung in rungs {
        diagnostics.push(Metric::owned(
            format!("rung.{}.us_per_q", rung.layer),
            rung.us_per_op(None),
            "us",
        ));
        diagnostics.push(Metric::owned(
            format!("rung.{}.busy_s", rung.layer),
            rung.call_seconds(),
            "s",
        ));
        diagnostics.push(Metric::owned(
            format!("rung.{}.failed", rung.layer),
            rung.failed as f64,
            "count",
        ));
    }
    // Which layer holds the most self time on this workload.
    let selfs = [
        (L_KERNELS, kernels.us_per_op(None)),
        (L_CRACKER, cracker.us_per_op(None) - kernels.us_per_op(None)),
        (
            L_LATCHED,
            below_engine.us_per_op(None) - cracker.us_per_op(None),
        ),
        (
            L_ENGINE,
            engine.us_per_op(None) - below_engine.us_per_op(None),
        ),
    ];
    let self_sum: f64 = selfs.iter().map(|(_, v)| v).sum();
    diagnostics.push(Metric::new(
        "ladder.self_sum_over_engine_rung",
        self_sum / engine.us_per_op(None),
        "ratio",
    ));
    for (layer, value) in selfs {
        diagnostics.push(Metric::owned(
            format!("ladder.share.{layer}"),
            value / engine.us_per_op(None),
            "ratio",
        ));
    }
    diagnostics.extend([
        Metric::new(
            "cracking.kernels.dispatches_branchy",
            counters.kernel_dispatches.branchy as f64,
            "count",
        ),
        Metric::new(
            "cracking.kernels.dispatches_predicated",
            counters.kernel_dispatches.predicated as f64,
            "count",
        ),
        Metric::new(
            "cracking.cracker.cached_sum_pieces",
            counters.cached_sum_pieces as f64,
            "count",
        ),
        Metric::new(
            "cracking.cracker.prefix_pieces",
            counters.prefix_pieces as f64,
            "count",
        ),
        Metric::new(
            "core.engine.kernel_dispatches",
            counters.engine_dispatches.total() as f64,
            "count",
        ),
        Metric::new("core.engine.idle_s", counters.idle_seconds, "s"),
        Metric::new(
            "core.engine.idle_actions_applied",
            counters.idle_applied as f64,
            "count",
        ),
        Metric::new(
            "core.engine.idle_effective_ratio",
            if counters.idle_applied == 0 {
                0.0
            } else {
                counters.idle_effective as f64 / counters.idle_applied as f64
            },
            "ratio",
        ),
        Metric::new("trace.engine_rung_untraced_s", untraced_seconds, "s"),
        Metric::new("trace.engine_rung_traced_s", traced_seconds, "s"),
    ]);

    let path = ctx.out_dir.join(format!("trace.{}.json", input.workload));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"stream_ops\":{},\"warm_ops\":{},\"note\":\"spans are recorded by the benchmark around each public call; the kernel rung is an estimate on scratch copies\"}}",
        input.workload,
        ctx.seed,
        input.stream.len(),
        input.warm.len()
    );
    tracer.write_json(&path, &header)?;
    println!("trace written to {}", path.display());

    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics,
        diagnostics,
    })
}

/// The refinement actions due once `ops_done` ops have run, if an idle
/// window falls there.
fn idle_due(input: &LadderInput, ops_done: usize) -> Option<u64> {
    let (every, actions) = input.idle?;
    ops_done.is_multiple_of(every).then_some(actions)
}

// ---------------------------------------------------------------------
// storage.scan: the no-index ceiling
// ---------------------------------------------------------------------

fn rung_scan(input: &LadderInput, oracles: &[SortedOracle], tracer: &mut Tracer) -> Rung {
    let mut rung = Rung::new(L_SCAN, 1);
    for op in input.stream.iter().take(SCAN_SAMPLE) {
        let data = &input.columns[op.column];
        let start = tracer.now_ns();
        let count = black_box(holistic_storage::scan_count(data, op.lo, op.hi));
        let sum = black_box(holistic_storage::scan_sum(data, op.lo, op.hi));
        let called = tracer.now_ns();
        let plain = ReadOp {
            materialize: false,
            ..*op
        };
        rung.failed += u64::from(!answer_is_right(oracles, &plain, count, sum, None));
        tracer.record_op(L_SCAN, start, called, tracer.now_ns());
        rung.call_ns.push(called - start);
        rung.ops += 1;
    }
    rung
}

// ---------------------------------------------------------------------
// cracking.kernels and cracking.cracker
// ---------------------------------------------------------------------

/// The kernel passes `CrackerColumn::crack_select(lo, hi)` is about to run,
/// read from the public piece table: `(piece start, piece end, pivots)`.
fn planned_passes(column: &CrackerColumn, lo: i64, hi: i64) -> Vec<(usize, usize, Vec<i64>)> {
    if hi <= lo || column.is_empty() {
        return Vec::new();
    }
    let index = column.index();
    let unresolved = |v: i64| {
        if index.resolved_boundary(v).is_some() {
            return None;
        }
        let piece = &column.pieces()[index.find_piece_for_value(v)?];
        // A sorted piece is split by binary search: no kernel runs.
        (!piece.sorted).then_some((piece.start, piece.end))
    };
    match (unresolved(lo), unresolved(hi)) {
        (Some(a), Some(b)) if a == b => vec![(a.0, a.1, vec![lo, hi])],
        (a, b) => a
            .map(|p| (p.0, p.1, vec![lo]))
            .into_iter()
            .chain(b.map(|p| (p.0, p.1, vec![hi])))
            .collect(),
    }
}

/// Applies `actions` random cracks round-robin over `columns`.
fn refine_columns(columns: &mut [CrackerColumn], actions: u64, rng: &mut StdRng) {
    let n = columns.len().max(1);
    for i in 0..actions as usize {
        columns[i % n].random_crack(rng);
    }
}

/// The two rungs, each on its own copy of one prepared set of cracker
/// columns; the same refinement seed keeps their piece tables identical op
/// for op.
fn rungs_kernels_and_cracker(
    input: &LadderInput,
    oracles: &[SortedOracle],
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> (Rung, Rung) {
    let mut columns: Vec<CrackerColumn> = input
        .columns
        .iter()
        .map(|c| CrackerColumn::from_values(c.clone()).with_kernel(CrackKernel::auto()))
        .collect();
    for op in &input.warm {
        columns[op.column].crack_select(op.lo, op.hi);
    }
    for column in &mut columns {
        column.seed_prefix_sums();
    }
    let kernels = rung_kernels(input, columns.clone(), tracer, counters);
    let cracker = rung_cracker(input, columns, oracles, tracer, counters);
    (kernels, cracker)
}

/// Before each `crack_select` of a probe column, the kernel passes it is
/// about to run are timed on scratch copies of the pieces it will partition
/// (an estimate: the copy is warm in cache where the real pass streams from
/// the column); the probe then takes the real call, untimed.
fn rung_kernels(
    input: &LadderInput,
    mut probes: Vec<CrackerColumn>,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Rung {
    let kernel = CrackKernel::auto();
    let mut rng = StdRng::seed_from_u64(REFINE_SEED);
    let mut rung = Rung::new(L_KERNELS, 1);
    let mut scratch: Vec<i64> = Vec::new();
    for (i, op) in input.stream.iter().enumerate() {
        let probe = &mut probes[op.column];
        let passes = planned_passes(probe, op.lo, op.hi);
        let op_start = tracer.now_ns();
        let op_span = tracer.record("op", L_KERNELS, op_start, op_start, NO_PARENT);
        let mut kernel_ns = 0u64;
        for (start, end, pivots) in passes {
            scratch.clear();
            scratch.extend_from_slice(&probe.data()[start..end]);
            counters.values_swept += (end - start) as u64;
            counters
                .kernel_dispatches
                .record(kernel.choose(end - start));
            let t0 = tracer.now_ns();
            if let [lo, hi] = pivots[..] {
                black_box(kernel.crack_in_three_sums(&mut scratch, lo, hi));
            } else {
                black_box(kernel.crack_in_two_sums(&mut scratch, pivots[0]));
            }
            let t1 = tracer.now_ns();
            tracer.record("call", L_KERNELS, t0, t1, op_span);
            kernel_ns += t1 - t0;
        }
        let op_end = tracer.now_ns();
        tracer.close(op_span, op_end);
        // With nothing to crack the op is charged the empty timed span: the
        // timer's own cost, which every other span carries too.
        rung.call_ns.push(if kernel_ns == 0 {
            op_end - op_start
        } else {
            kernel_ns
        });
        rung.ops += 1;
        probe.crack_select(op.lo, op.hi);
        if let Some(actions) = idle_due(input, i + 1) {
            refine_columns(&mut probes, actions, &mut rng);
        }
    }
    tracer.sample(
        L_KERNELS,
        vec![
            (
                "dispatches_branchy",
                counters.kernel_dispatches.branchy as f64,
            ),
            (
                "dispatches_predicated",
                counters.kernel_dispatches.predicated as f64,
            ),
            ("values_swept", counters.values_swept as f64),
        ],
    );
    rung
}

/// `CrackerColumn::select_if_answerable` or `crack_select`, then
/// `aggregate_range` (+ a copy of the view when the op materializes).
fn rung_cracker(
    input: &LadderInput,
    mut columns: Vec<CrackerColumn>,
    oracles: &[SortedOracle],
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Rung {
    let dispatched_before: u64 = columns.iter().map(|c| c.kernel_dispatches().total()).sum();
    let mut rng = StdRng::seed_from_u64(REFINE_SEED);
    let mut rung = Rung::new(L_CRACKER, 1);
    for (i, op) in input.stream.iter().enumerate() {
        let column = &mut columns[op.column];
        let start = tracer.now_ns();
        // What the latched column does under its latch: the read-only probe
        // first, the cracking select only when a bound is unresolved.
        let range = match column.select_if_answerable(op.lo, op.hi) {
            Some(range) => range,
            None => column.crack_select(op.lo, op.hi),
        };
        let agg = column.aggregate_range(range.clone(), op.lo, op.hi);
        let values = op.materialize.then(|| column.view(range).to_vec());
        let called = tracer.now_ns();
        let right = answer_is_right(oracles, op, agg.count, agg.sum, values.as_deref());
        rung.failed += u64::from(!right);
        tracer.record_op(L_CRACKER, start, called, tracer.now_ns());
        rung.call_ns.push(called - start);
        rung.ops += 1;
        if let Some(actions) = idle_due(input, i + 1) {
            refine_columns(&mut columns, actions, &mut rng);
        }
    }
    counters.pieces = columns.iter().map(CrackerColumn::piece_count).sum();
    counters.cached_sum_pieces = columns.iter().map(CrackerColumn::cached_sum_pieces).sum();
    counters.prefix_pieces = columns.iter().map(CrackerColumn::prefix_pieces).sum();
    let dispatched: u64 = columns.iter().map(|c| c.kernel_dispatches().total()).sum();
    tracer.sample(
        L_CRACKER,
        vec![
            ("pieces", counters.pieces as f64),
            ("cached_sum_pieces", counters.cached_sum_pieces as f64),
            ("prefix_pieces", counters.prefix_pieces as f64),
            (
                "cracks_performed",
                columns
                    .iter()
                    .map(CrackerColumn::cracks_performed)
                    .sum::<u64>() as f64,
            ),
            (
                "kernel_dispatches_incl_refinement",
                (dispatched - dispatched_before) as f64,
            ),
        ],
    );
    rung
}

// ---------------------------------------------------------------------
// cracking.concurrent: one shard, then sharded
// ---------------------------------------------------------------------

fn rung_latched(
    input: &LadderInput,
    oracles: &[SortedOracle],
    tracer: &mut Tracer,
    counters: &mut Counters,
    extent: usize,
    layer: &'static str,
) -> Rung {
    let columns: Vec<ConcurrentCrackerColumn> = input
        .columns
        .iter()
        .map(|c| {
            if extent == 0 {
                ConcurrentCrackerColumn::from_values(c.clone())
            } else {
                ConcurrentCrackerColumn::from_values_sharded(c.clone(), extent)
            }
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(REFINE_SEED);
    for op in &input.warm {
        columns[op.column].select_with_policy(op.lo, op.hi, false, CrackPolicy::Standard, &mut rng);
    }
    for column in &columns {
        column.seed_prefix_sums();
    }
    let before: Vec<_> = columns
        .iter()
        .map(ConcurrentCrackerColumn::latch_stats)
        .collect();
    let mut rung = Rung::new(layer, 1);
    for (i, op) in input.stream.iter().enumerate() {
        let column = &columns[op.column];
        let start = tracer.now_ns();
        let out = column.select_with_policy(
            op.lo,
            op.hi,
            op.materialize,
            CrackPolicy::Standard,
            &mut rng,
        );
        let called = tracer.now_ns();
        let right = answer_is_right(oracles, op, out.count, out.sum, out.values.as_deref());
        rung.failed += u64::from(!right);
        tracer.record_op(layer, start, called, tracer.now_ns());
        rung.call_ns.push(called - start);
        rung.ops += 1;
        if let Some(actions) = idle_due(input, i + 1) {
            for k in 0..actions as usize {
                columns[k % columns.len()].refine(&mut rng);
            }
        }
    }
    let (mut shared, mut exclusive) = (0u64, 0u64);
    for (column, before) in columns.iter().zip(before) {
        let now = column.latch_stats();
        shared += now.shared_selects - before.shared_selects;
        exclusive += now.exclusive_selects - before.exclusive_selects;
    }
    let share = exclusive as f64 / (shared + exclusive).max(1) as f64;
    if extent == input.config.shard_extent {
        counters.exclusive_share = share;
    }
    tracer.sample(
        layer,
        vec![
            ("shared_selects", shared as f64),
            ("exclusive_selects", exclusive as f64),
            (
                "pieces",
                columns
                    .iter()
                    .map(ConcurrentCrackerColumn::piece_count)
                    .sum::<usize>() as f64,
            ),
            (
                "shards",
                columns
                    .iter()
                    .map(ConcurrentCrackerColumn::shard_count)
                    .sum::<usize>() as f64,
            ),
        ],
    );
    rung
}

// ---------------------------------------------------------------------
// core.engine, core.engine.batch, server.core, server.net
// ---------------------------------------------------------------------

/// Prepared engines for the rungs from `Database::execute` up. A stream
/// that changes state gets a fresh engine per rung; a warmed stream changes
/// nothing, so one prepared engine serves every rung.
struct Engines<'a> {
    input: &'a LadderInput,
    shared: Option<(SharedDatabase, Vec<ColumnId>)>,
}

impl<'a> Engines<'a> {
    fn new(input: &'a LadderInput) -> Self {
        Engines {
            input,
            shared: None,
        }
    }

    fn next(&mut self) -> Res<(SharedDatabase, Vec<ColumnId>)> {
        if let Some((db, columns)) = &self.shared {
            return Ok((Arc::clone(db), columns.clone()));
        }
        let (db, columns) = load_table(
            self.input.config.clone(),
            IndexingStrategy::Holistic,
            &self.input.columns,
        )?;
        if self.input.warm.is_empty() {
            return Ok((db.into_shared(), columns));
        }
        warm_engine(&db, &columns, &self.input.warm)?;
        let db = db.into_shared();
        self.shared = Some((Arc::clone(&db), columns.clone()));
        Ok((db, columns))
    }
}

/// The engine rung with tracing and checking off: seconds spent on the
/// stream's ops (idle windows excluded), the base of `trace_overhead_pct`.
fn engine_untraced(engines: &mut Engines<'_>) -> Res<f64> {
    let input = engines.input;
    let (db, columns) = engines.next()?;
    let db = db.read();
    let mut idle = Duration::ZERO;
    let started = Instant::now();
    for (i, op) in input.stream.iter().enumerate() {
        black_box(db.execute(&op.query(&columns))?);
        if let Some(actions) = idle_due(input, i + 1) {
            idle += db.run_idle(IdleBudget::Actions(actions)).elapsed;
        }
    }
    Ok((started.elapsed() - idle).as_secs_f64())
}

/// `Database::execute`, traced. Also returns the seconds spent on the ops
/// with tracing and checking on (idle windows excluded).
fn rung_engine(
    engines: &mut Engines<'_>,
    oracles: &[SortedOracle],
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Res<(Rung, f64)> {
    let input = engines.input;
    let (db, columns) = engines.next()?;
    let db = db.read();
    let cache_before = db.metrics().aggregate_cache();
    let dispatches_before = db.metrics().kernel_dispatches();
    let mut rung = Rung::new(L_ENGINE, 1);
    let mut idle = Duration::ZERO;
    let started = Instant::now();
    for (i, op) in input.stream.iter().enumerate() {
        let query = op.query(&columns);
        let start = tracer.now_ns();
        let result = db.execute(&query)?;
        let called = tracer.now_ns();
        rung.failed += u64::from(!result_is_right(oracles, op, &result));
        tracer.record_op(L_ENGINE, start, called, tracer.now_ns());
        rung.call_ns.push(called - start);
        rung.ops += 1;
        if let Some(actions) = idle_due(input, i + 1) {
            let start = tracer.now_ns();
            let report = db.run_idle(IdleBudget::Actions(actions));
            tracer.record("idle", L_ENGINE, start, tracer.now_ns(), NO_PARENT);
            idle += report.elapsed;
            counters.idle_applied += report.actions_applied;
            counters.idle_effective += report.effective_actions;
        }
    }
    let traced_seconds = (started.elapsed() - idle).as_secs_f64();
    counters.idle_seconds = idle.as_secs_f64();
    let cache = db.metrics().aggregate_cache();
    let zero_read = cache.zero_read() - cache_before.zero_read();
    // Every query's count/sum is classified once, materializing or not.
    let aggregates = input.stream.len();
    counters.zero_read_ratio = zero_read as f64 / aggregates.max(1) as f64;
    counters.engine_dispatches = db.metrics().kernel_dispatches().since(dispatches_before);
    tracer.sample(
        L_ENGINE,
        vec![
            ("zero_read_answers", zero_read as f64),
            ("aggregate_queries", aggregates as f64),
            (
                "scanned_values",
                (cache.scanned_values - cache_before.scanned_values) as f64,
            ),
            (
                "kernel_dispatches_branchy",
                counters.engine_dispatches.branchy as f64,
            ),
            (
                "kernel_dispatches_predicated",
                counters.engine_dispatches.predicated as f64,
            ),
            (
                "pieces",
                columns.iter().map(|&c| db.piece_count(c)).sum::<usize>() as f64,
            ),
            (
                "cracks_performed",
                columns.iter().map(|&c| db.cracks_performed(c)).sum::<u64>() as f64,
            ),
            ("idle_actions_applied", counters.idle_applied as f64),
            ("idle_actions_effective", counters.idle_effective as f64),
        ],
    );
    Ok((rung, traced_seconds))
}

/// Idle windows that fall inside the chunk of ops `done - len .. done`.
fn idle_windows_crossed(input: &LadderInput, done: usize, len: usize) -> u64 {
    input.idle.map_or(0, |(every, actions)| {
        (done / every - (done - len) / every) as u64 * actions
    })
}

/// `Database::execute_batch`, [`BATCH`] queries per call.
fn rung_batch(
    engines: &mut Engines<'_>,
    oracles: &[SortedOracle],
    tracer: &mut Tracer,
) -> Res<Rung> {
    let input = engines.input;
    let (db, columns) = engines.next()?;
    let db = db.read();
    let mut rung = Rung::new(L_BATCH, BATCH);
    for chunk in input.stream.chunks(BATCH) {
        let queries: Vec<_> = chunk.iter().map(|op| op.query(&columns)).collect();
        let start = tracer.now_ns();
        let results = db.execute_batch(&queries)?;
        let called = tracer.now_ns();
        for (op, result) in chunk.iter().zip(&results) {
            rung.failed += u64::from(!result_is_right(oracles, op, result));
        }
        rung.failed += (chunk.len() - results.len().min(chunk.len())) as u64;
        tracer.record_op(L_BATCH, start, called, tracer.now_ns());
        rung.call_ns.push(called - start);
        rung.ops += chunk.len();
        let actions = idle_windows_crossed(input, rung.ops, chunk.len());
        if actions > 0 {
            db.run_idle(IdleBudget::Actions(actions));
        }
    }
    Ok(rung)
}

/// The service configuration of the two service rungs: the defaults, with
/// the per-client rate limit and the default deadline lifted. A closed loop
/// replays faster than the 50,000 q/s fairness bucket admits, and a burst of
/// 64 first-touch cracks outlasts the 100 ms deadline; either would turn
/// replayed ops into sheds. The rungs measure cost, not policy.
fn ladder_service_config() -> ServiceConfig {
    ServiceConfig {
        tokens_per_sec: 1e12,
        token_burst: 1e12,
        default_deadline: Duration::ZERO,
        ..ServiceConfig::default()
    }
}

/// In-process `ServiceCore`: admit a burst of [`BATCH`], dispatch it with
/// `flush` (batch formation without the `batch_deadline` wait), collect the
/// responses.
fn rung_service(
    engines: &mut Engines<'_>,
    oracles: &[SortedOracle],
    tracer: &mut Tracer,
) -> Res<Rung> {
    const CLIENT: u64 = 1;
    let input = engines.input;
    let (db, columns) = engines.next()?;
    let core = ServiceCore::new(Arc::clone(&db), ladder_service_config());
    let responses = core.connect(CLIENT);
    let stream = &input.stream[..input.stream.len().min(SERVICE_OPS)];
    let mut rung = Rung::new(L_SERVICE, BATCH);
    let mut base = 0usize;
    for chunk in stream.chunks(BATCH) {
        let start = tracer.now_ns();
        let mut owed = 0usize;
        for (i, op) in chunk.iter().enumerate() {
            match core.admit(CLIENT, (base + i) as u64, op.query(&columns), None) {
                Ok(()) => owed += 1,
                Err(_) => rung.failed += 1,
            }
        }
        core.flush();
        let mut answers = Vec::with_capacity(owed);
        while answers.len() < owed {
            answers.push(responses.recv_timeout(Duration::from_secs(10))?);
        }
        let called = tracer.now_ns();
        for answer in answers {
            let op = chunk.get((answer.request_id as usize).wrapping_sub(base));
            let right = op.is_some_and(|op| {
                answer
                    .result
                    .is_ok_and(|result| result_is_right(oracles, op, &result))
            });
            rung.failed += u64::from(!right);
        }
        tracer.record_op(L_SERVICE, start, called, tracer.now_ns());
        rung.call_ns.push(called - start);
        rung.ops += chunk.len();
        base += chunk.len();
        let actions = idle_windows_crossed(input, rung.ops, chunk.len());
        if actions > 0 {
            db.read().run_idle(IdleBudget::Actions(actions));
        }
    }
    core.disconnect(CLIENT);
    Ok(rung)
}

/// `Client` over loopback TCP, closed loop with a window of [`BATCH`]:
/// send the window, then read its responses.
fn rung_net(
    engines: &mut Engines<'_>,
    oracles: &[SortedOracle],
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Res<Rung> {
    let input = engines.input;
    let (db, columns) = engines.next()?;
    let (batches_before, batched_before) = {
        let db = db.read();
        (
            db.metrics().batches_executed(),
            db.metrics().batched_queries(),
        )
    };
    let core = ServiceCore::new(Arc::clone(&db), ladder_service_config());
    let server = serve(core, "127.0.0.1:0")?;
    let outcome = net_replay(input, &columns, &db, server.addr(), oracles, tracer);
    server.shutdown();
    let rung = outcome?;
    let db = db.read();
    let batches = db.metrics().batches_executed() - batches_before;
    let batched = db.metrics().batched_queries() - batched_before;
    counters.mean_batch = batched as f64 / batches.max(1) as f64;
    let service = db.metrics().service();
    tracer.sample(
        L_NET,
        vec![
            ("batches", batches as f64),
            ("batched_queries", batched as f64),
            ("admitted_total", service.admitted as f64),
            (
                "rejected_total",
                (service.rejected_global + service.rejected_client) as f64,
            ),
            ("shed_deadline_total", service.shed_deadline as f64),
            ("degraded_answers_total", service.degraded_answers as f64),
            ("peak_queue_depth", service.peak_queue_depth as f64),
        ],
    );
    Ok(rung)
}

fn net_replay(
    input: &LadderInput,
    columns: &[ColumnId],
    db: &SharedDatabase,
    addr: std::net::SocketAddr,
    oracles: &[SortedOracle],
    tracer: &mut Tracer,
) -> Res<Rung> {
    let mut client = Client::connect(addr, 1)?;
    client.set_recv_timeout(Some(Duration::from_secs(10)))?;
    let stream = &input.stream[..input.stream.len().min(SERVICE_OPS)];
    let mut rung = Rung::new(L_NET, BATCH);
    let mut base = 0usize;
    for chunk in stream.chunks(BATCH) {
        let start = tracer.now_ns();
        for (i, op) in chunk.iter().enumerate() {
            client.send(&QueryReq {
                request_id: (base + i) as u64,
                column: columns[op.column],
                lo: op.lo,
                hi: op.hi,
                materialize: op.materialize,
                deadline_ms: 0,
            })?;
        }
        let mut frames = Vec::with_capacity(chunk.len());
        for _ in 0..chunk.len() {
            frames.push(client.recv()?.ok_or("server closed the connection")?);
        }
        let called = tracer.now_ns();
        for frame in frames {
            let op = chunk.get((frame.request_id as usize).wrapping_sub(base));
            let right = frame.status == RespStatus::Ok
                && op.is_some_and(|op| {
                    answer_is_right(oracles, op, frame.count, frame.sum, frame.values.as_deref())
                });
            rung.failed += u64::from(!right);
        }
        tracer.record_op(L_NET, start, called, tracer.now_ns());
        rung.call_ns.push(called - start);
        rung.ops += chunk.len();
        base += chunk.len();
        let actions = idle_windows_crossed(input, rung.ops, chunk.len());
        if actions > 0 {
            db.read().run_idle(IdleBudget::Actions(actions));
        }
    }
    Ok(rung)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_passes_mirror_crack_select() {
        let mut column = CrackerColumn::from_values((0..1_000).rev().collect());
        // Both bounds in the one unsorted piece: a single three-way pass.
        assert_eq!(
            planned_passes(&column, 100, 200),
            vec![(0, 1_000, vec![100, 200])]
        );
        column.crack_select(100, 200);
        // Resolved bounds need no pass.
        assert!(planned_passes(&column, 100, 200).is_empty());
        // One new bound in the top piece: a single two-way pass over it.
        assert_eq!(
            planned_passes(&column, 100, 600),
            vec![(200, 1_000, vec![600])]
        );
        // Bounds in two different pieces: one two-way pass each.
        assert_eq!(
            planned_passes(&column, 50, 600),
            vec![(0, 100, vec![50]), (200, 1_000, vec![600])]
        );
        let dispatched = column.kernel_dispatches().total();
        column.crack_select(50, 600);
        assert_eq!(column.kernel_dispatches().total() - dispatched, 2);
        assert!(planned_passes(&column, 10, 5).is_empty());
    }

    #[test]
    fn idle_windows_are_counted_once_each() {
        let input = LadderInput {
            workload: "test",
            columns: Vec::new(),
            warm: Vec::new(),
            stream: Vec::new(),
            idle: Some((200, 50)),
            config: crate::workloads::base_config(),
            shard_extent: 0,
        };
        assert_eq!(idle_windows_crossed(&input, 64, 64), 0);
        assert_eq!(idle_windows_crossed(&input, 256, 64), 50);
        assert_eq!(idle_windows_crossed(&input, 448, 64), 50);
        assert_eq!(idle_windows_crossed(&input, 512, 512), 100);
        assert_eq!(idle_due(&input, 200), Some(50));
        assert_eq!(idle_due(&input, 201), None);
    }
}

//! `explore.cold` — the paper's scenario: an exploratory query sequence
//! that starts with no index and uses idle time. One closed-loop client; an
//! *epoch* is a freshly loaded table followed by a fixed sequence of
//! count/sum range queries with an inline idle window (a fixed action
//! budget) after every few hundred. Crack data movement dominates: the
//! kernels and the cracker column's piece table do most of the work, the
//! service does none.

use std::time::Instant;

use holistic_core::{IdleBudget, IndexingStrategy};

use crate::gen::{rng_for, uniform_column, uniform_ranges};
use crate::ladder::LadderInput;
use crate::oracle::SortedOracle;
use crate::report::{peak_rss_mb, Ctx, Metric, Outcome, Res};
use crate::stats::{median, UnitLatencies};
use crate::workloads::{base_config, load_table, repeat_set_up, result_is_right, ReadOp};

/// Workload name.
pub const NAME: &str = "explore.cold";

/// Frozen sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows per column.
    pub rows: usize,
    /// Columns, queried round-robin.
    pub columns: usize,
    /// Queries per epoch.
    pub queries: usize,
    /// Share of the domain each query covers.
    pub selectivity: f64,
    /// An idle window follows every this many queries.
    pub idle_every: usize,
    /// Refinement actions per idle window.
    pub idle_actions: u64,
    /// Epochs run whatever `--seconds` says.
    pub min_epochs: usize,
}

/// Sizes of a real run.
pub const FULL: Sizes = Sizes {
    rows: 1 << 22,
    columns: 4,
    queries: 8_000,
    selectivity: 0.01,
    idle_every: 200,
    idle_actions: 50,
    min_epochs: 3,
};

/// Sizes of a smoke run.
pub const SMOKE: Sizes = Sizes {
    rows: 20_000,
    columns: 4,
    queries: 400,
    selectivity: 0.01,
    idle_every: 50,
    idle_actions: 10,
    min_epochs: 2,
};

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
        "{{\"rows\": {}, \"columns\": {}, \"queries_per_epoch\": {}, \"selectivity\": {}, \"idle_every\": {}, \"idle_actions\": {}, \"clients\": 1, \"loop\": \"closed\"}}",
        s.rows, s.columns, s.queries, s.selectivity, s.idle_every, s.idle_actions
    )
}

struct Inputs {
    data: Vec<Vec<i64>>,
    oracles: Vec<SortedOracle>,
}

fn column_data(ctx: &Ctx, s: &Sizes) -> Vec<Vec<i64>> {
    (0..s.columns)
        .map(|c| uniform_column(s.rows, &mut rng_for(ctx.seed, c as u64)))
        .collect()
}

/// One set-up: generate the data, build the oracle, load the table once.
fn set_up(ctx: &Ctx, s: &Sizes) -> Res<Inputs> {
    let data = column_data(ctx, s);
    let oracles = data.iter().map(|c| SortedOracle::new(c)).collect();
    load_table(base_config(), IndexingStrategy::Holistic, &data)?;
    Ok(Inputs { data, oracles })
}

/// The query sequence of epoch `epoch`: round-robin over the columns,
/// uniformly placed ranges.
fn epoch_ops(ctx: &Ctx, s: &Sizes, epoch: u64) -> Vec<ReadOp> {
    let mut rng = rng_for(ctx.seed, 1_000 + epoch);
    uniform_ranges(s.rows, s.selectivity, s.queries, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, (lo, hi))| ReadOp {
            column: i % s.columns,
            lo,
            hi,
            materialize: false,
        })
        .collect()
}

/// What one epoch measured.
struct Epoch {
    build_s: f64,
    cum_response_s: f64,
    idle_s: f64,
    first_touch_ms: f64,
    failed: u64,
    idle_applied: u64,
    idle_effective: u64,
}

/// Runs one epoch on a fresh engine under `strategy`, adding its query
/// latencies (µs) to `latencies` as one unit. Offline indexing builds its full indexes
/// before the first query; the time is reported apart as `build_s`.
fn run_epoch(
    s: &Sizes,
    inputs: &Inputs,
    ops: &[ReadOp],
    strategy: IndexingStrategy,
    latencies: &mut UnitLatencies,
) -> Res<Epoch> {
    let (mut db, columns) = load_table(base_config(), strategy, &inputs.data)?;
    let mut build_s = 0.0;
    if strategy == IndexingStrategy::Offline {
        for &column in &columns {
            build_s += db.build_full_index(column)?.as_secs_f64();
        }
    }
    let mut latencies_us = Vec::with_capacity(ops.len());
    let mut epoch = Epoch {
        build_s,
        cum_response_s: 0.0,
        idle_s: 0.0,
        first_touch_ms: 0.0,
        failed: 0,
        idle_applied: 0,
        idle_effective: 0,
    };
    for (i, op) in ops.iter().enumerate() {
        let query = op.query(&columns);
        let started = Instant::now();
        let result = db.execute(&query)?;
        let elapsed = started.elapsed().as_secs_f64();
        epoch.failed += u64::from(!result_is_right(&inputs.oracles, op, &result));
        epoch.cum_response_s += elapsed;
        latencies_us.push(elapsed * 1e6);
        if i == 0 {
            epoch.first_touch_ms = elapsed * 1e3;
        }
        if (i + 1).is_multiple_of(s.idle_every) {
            let started = Instant::now();
            let report = db.run_idle(IdleBudget::Actions(s.idle_actions));
            epoch.idle_s += started.elapsed().as_secs_f64();
            epoch.idle_applied += report.actions_applied;
            epoch.idle_effective += report.effective_actions;
        }
    }
    latencies.push_unit(latencies_us);
    Ok(epoch)
}

/// The timed run.
pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let s = sizes(ctx);
    let (inputs, setup_s) = repeat_set_up(|| set_up(ctx, &s))?;

    let mut epochs: Vec<Epoch> = Vec::new();
    let mut latencies = UnitLatencies::default();
    let mut peak_rss = 0.0;
    let started = Instant::now();
    while epochs.len() < s.min_epochs || started.elapsed().as_secs_f64() < ctx.seconds {
        let ops = epoch_ops(ctx, &s, epochs.len() as u64);
        let epoch = run_epoch(
            &s,
            &inputs,
            &ops,
            IndexingStrategy::Holistic,
            &mut latencies,
        )?;
        if epochs.is_empty() {
            // Memory after set-up and one fixed unit of work, so it does not
            // depend on how many epochs fit into the run.
            peak_rss = peak_rss_mb();
        }
        epochs.push(epoch);
    }

    let column = |f: fn(&Epoch) -> f64| -> Vec<f64> { epochs.iter().map(f).collect() };
    let cum_response_s = median(&column(|e| e.cum_response_s));
    let epoch_s = median(&column(|e| e.cum_response_s + e.idle_s));
    let failed: u64 = epochs.iter().map(|e| e.failed).sum();
    let applied: u64 = epochs.iter().map(|e| e.idle_applied).sum();
    let effective: u64 = epochs.iter().map(|e| e.idle_effective).sum();
    println!(
        "query latency (us), all epochs pooled: {}",
        latencies.pooled()
    );

    Ok(Outcome {
        attempted: (epochs.len() * s.queries) as u64,
        failed,
        correct: failed == 0,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("throughput_ops", s.queries as f64 / epoch_s, "1/s"),
            Metric::new("cum_response_s", cum_response_s, "s"),
            Metric::new("p50_us", latencies.p50(), "us"),
            Metric::new("p99_us", latencies.p99(), "us"),
            Metric::new("peak_rss_mb", peak_rss, "MB"),
        ],
        diagnostics: vec![
            Metric::new("epochs", epochs.len() as f64, "count"),
            Metric::new(
                "first_touch_ms",
                median(&column(|e| e.first_touch_ms)),
                "ms",
            ),
            Metric::new("idle_s", median(&column(|e| e.idle_s)), "s"),
            Metric::new(
                "idle_effective_ratio",
                effective as f64 / applied.max(1) as f64,
                "ratio",
            ),
        ],
    })
}

/// The traced run's input: epoch 0 of the timed run.
pub fn ladder_input(ctx: &Ctx) -> LadderInput {
    let s = sizes(ctx);
    LadderInput {
        workload: NAME,
        columns: column_data(ctx, &s),
        warm: Vec::new(),
        stream: epoch_ops(ctx, &s, 0),
        idle: Some((s.idle_every, s.idle_actions)),
        config: base_config(),
        shard_extent: s.rows / 4,
    }
}

/// Paper-shape cross-check for the traced run: the ladder's epoch under scan,
/// offline, adaptive and holistic indexing. Scan answers only a prefix of
/// the epoch (a full column pass per query) and is scaled up to the whole
/// epoch.
pub fn strategy_cross_check(ctx: &Ctx, input: &LadderInput) -> Res<Vec<Metric>> {
    const SCAN_QUERIES: usize = 80;
    let s = sizes(ctx);
    let inputs = Inputs {
        data: input.columns.clone(),
        oracles: input.columns.iter().map(|c| SortedOracle::new(c)).collect(),
    };
    let ops = &input.stream;
    let mut out = Vec::new();
    let epoch = |strategy: IndexingStrategy, ops: &[ReadOp]| -> Res<Epoch> {
        let epoch = run_epoch(&s, &inputs, ops, strategy, &mut UnitLatencies::default())?;
        if epoch.failed > 0 {
            return Err(format!("{strategy} answered {} queries wrongly", epoch.failed).into());
        }
        Ok(epoch)
    };
    let scan_ops = &ops[..ops.len().min(SCAN_QUERIES)];
    let scan = epoch(IndexingStrategy::ScanOnly, scan_ops)?.cum_response_s * ops.len() as f64
        / scan_ops.len() as f64;
    let offline = epoch(IndexingStrategy::Offline, ops)?;
    let adaptive = epoch(IndexingStrategy::Adaptive, ops)?.cum_response_s;
    let holistic = epoch(IndexingStrategy::Holistic, ops)?.cum_response_s;
    out.push(Metric::new("strategy.scan.cum_response_s", scan, "s"));
    out.push(Metric::new(
        "strategy.offline.build_s",
        offline.build_s,
        "s",
    ));
    out.push(Metric::new(
        "strategy.offline.cum_response_s",
        offline.cum_response_s,
        "s",
    ));
    out.push(Metric::new(
        "strategy.adaptive.cum_response_s",
        adaptive,
        "s",
    ));
    out.push(Metric::new(
        "strategy.holistic.cum_response_s",
        holistic,
        "s",
    ));
    if holistic > adaptive {
        println!(
            "WARNING: holistic cum_response_s {holistic:.4} exceeds adaptive {adaptive:.4} on this epoch — not the paper's shape"
        );
    }
    Ok(out)
}

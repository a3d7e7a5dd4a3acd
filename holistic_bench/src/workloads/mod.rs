//! The four workloads and what they share: the read-op type, the answer
//! check, repeated set-up, and engine construction.

use std::time::Instant;

use holistic_core::{
    ColumnId, Database, HolisticConfig, IdleBudget, IndexingStrategy, Query, QueryResult,
};

use crate::ladder::LadderInput;
use crate::oracle::{same_multiset, SortedOracle};
use crate::report::{Ctx, Metric, Outcome, Res};
use crate::stats::median;

pub mod explore_cold;
pub mod explore_warm;
pub mod mixed_updates;
pub mod service_tcp;

/// One workload: its name and the entry points the command needs.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The timed (tracing off) run.
    pub run: fn(&Ctx) -> Res<Outcome>,
    /// The traced run's input.
    pub ladder_input: fn(&Ctx) -> LadderInput,
    /// Workload-specific diagnostics of the traced run.
    pub traced_extras: fn(&Ctx, &LadderInput) -> Res<Vec<Metric>>,
    /// Concurrent clients, for the provenance line.
    pub clients: fn(&Ctx) -> usize,
    /// The frozen sizes and rates as a JSON object, for the provenance line.
    pub frozen: fn(&Ctx) -> String,
}

/// The workloads, in the order the all-workloads command runs them.
pub const ALL: [Workload; 4] = [
    Workload {
        name: explore_cold::NAME,
        run: explore_cold::run,
        ladder_input: explore_cold::ladder_input,
        traced_extras: explore_cold::strategy_cross_check,
        clients: |_| 1,
        frozen: explore_cold::frozen,
    },
    Workload {
        name: explore_warm::NAME,
        run: explore_warm::run,
        ladder_input: explore_warm::ladder_input,
        traced_extras: |_, _| Ok(Vec::new()),
        clients: |ctx| explore_warm::sizes(ctx).clients,
        frozen: explore_warm::frozen,
    },
    Workload {
        name: mixed_updates::NAME,
        run: mixed_updates::run,
        ladder_input: mixed_updates::ladder_input,
        traced_extras: mixed_updates::update_probe,
        clients: |_| 1,
        frozen: mixed_updates::frozen,
    },
    Workload {
        name: service_tcp::NAME,
        run: service_tcp::run,
        ladder_input: service_tcp::ladder_input,
        traced_extras: |_, _| Ok(Vec::new()),
        clients: |ctx| service_tcp::sizes(ctx).connections,
        frozen: service_tcp::frozen,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Res<&'static Workload> {
    ALL.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<&str> = ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {known:?}").into()
    })
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Action budget that lets idle refinement run to convergence in set-up.
const CONVERGE_ACTIONS: u64 = 1 << 20;

/// One read: a range predicate on a column, answered as count and sum, or
/// with the qualifying values as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOp {
    /// Position of the column in the workload's table.
    pub column: usize,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Exclusive upper bound.
    pub hi: i64,
    /// Whether the qualifying values are returned too.
    pub materialize: bool,
}

impl ReadOp {
    /// The engine query for this op.
    #[must_use]
    pub fn query(&self, columns: &[ColumnId]) -> Query {
        let column = columns[self.column];
        if self.materialize {
            Query::range_materialized(column, self.lo, self.hi)
        } else {
            Query::range(column, self.lo, self.hi)
        }
    }
}

/// Whether an answer (count, sum and, when asked for, the multiset of
/// values) equals the oracle's for `op`.
#[must_use]
pub fn answer_is_right(
    oracles: &[SortedOracle],
    op: &ReadOp,
    count: u64,
    sum: i128,
    values: Option<&[i64]>,
) -> bool {
    let oracle = &oracles[op.column];
    if (count, sum) != oracle.count_sum(op.lo, op.hi) {
        return false;
    }
    match (op.materialize, values) {
        (false, _) => true,
        (true, Some(values)) => same_multiset(values, oracle.values(op.lo, op.hi)),
        (true, None) => false,
    }
}

/// [`answer_is_right`] for an engine result.
#[must_use]
pub fn result_is_right(oracles: &[SortedOracle], op: &ReadOp, result: &QueryResult) -> bool {
    answer_is_right(
        oracles,
        op,
        result.count,
        result.sum,
        result.values.as_deref(),
    )
}

/// Runs `set_up` [`SETUP_REPEATS`] times, dropping each result before the
/// next is built, and returns the last result with the median set-up time.
pub fn repeat_set_up<T>(mut set_up: impl FnMut() -> Res<T>) -> Res<(T, f64)> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let started = Instant::now();
        last = Some(set_up()?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    let value = last.ok_or("set-up never ran")?;
    Ok((value, median(&seconds)))
}

/// The engine configuration every workload starts from: the defaults, with
/// the one environment-driven field pinned so no environment knob is read.
#[must_use]
pub fn base_config() -> HolisticConfig {
    HolisticConfig::default().with_paranoia(false)
}

/// The configuration of the workloads that measure the *converged* regime
/// (`explore.warm`, `service.tcp`): [`base_config`] with hot-range boosting
/// off. Boosting has no piece-size floor: with the default threshold every
/// query on a range seen eight times takes the exclusive latch and splits
/// two more pieces, so a workload that repeats its predicates never stops
/// cracking and its per-query cost grows with the run. That is a finding
/// about the engine (see README), not a regime a benchmark can hold steady.
#[must_use]
pub fn converged_config() -> HolisticConfig {
    HolisticConfig {
        hot_range_query_threshold: u64::MAX,
        ..base_config()
    }
}

/// A fresh engine under `strategy` holding one table `t` whose columns are
/// copies of `data`.
pub fn load_table(
    config: HolisticConfig,
    strategy: IndexingStrategy,
    data: &[Vec<i64>],
) -> Res<(Database, Vec<ColumnId>)> {
    let mut db = Database::new(config, strategy);
    let names: Vec<String> = (0..data.len()).map(|i| format!("c{i}")).collect();
    let columns = names
        .iter()
        .zip(data)
        .map(|(name, values)| (name.as_str(), values.clone()))
        .collect();
    let table = db.create_table("t", columns)?;
    let ids = db.column_ids(table)?;
    Ok((db, ids))
}

/// Warms `db`: replays `warm` once, lets idle refinement converge, and seeds
/// prefix sums, so the warmed predicates are answered without reading data.
pub fn warm_engine(db: &Database, columns: &[ColumnId], warm: &[ReadOp]) -> Res<()> {
    for op in warm {
        db.execute(&op.query(columns))?;
    }
    let report = db.run_idle(IdleBudget::Actions(CONVERGE_ACTIONS));
    if !report.converged && report.actions_applied >= CONVERGE_ACTIONS {
        return Err("idle refinement did not converge within the set-up budget".into());
    }
    db.seed_prefix_sums();
    Ok(())
}

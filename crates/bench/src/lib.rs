//! Shared infrastructure for the benchmark harness.
//!
//! Every table and figure of the paper has a dedicated bench target (see
//! `benches/`); they all build on the helpers here: dataset generation that
//! matches the paper's setup (uniformly distributed integers in `[1, N]`),
//! workload replay against a [`Database`] under any [`IndexingStrategy`],
//! cumulative-response-time series extraction, and simple aligned-column
//! report printing.
//!
//! Scale knobs (environment variables), so the harness runs on a laptop yet
//! can be pushed toward the paper's original sizes:
//!
//! * `HOLISTIC_SCALE` — values per column (default 1,000,000; paper: 10^8)
//! * `HOLISTIC_QUERIES` — queries per experiment (default 1,000; paper: 10^4)

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use holistic_core::{Database, HolisticConfig, IdleBudget, IndexingStrategy, Query};
use holistic_storage::ColumnId;
use holistic_workload::{IdleWindow, RangeQuery, WorkloadEvent};

pub use holistic_core as core;
pub use holistic_workload as workload;

/// Values per column used by the experiment benches.
#[must_use]
pub fn scale() -> usize {
    std::env::var("HOLISTIC_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000)
}

/// Number of queries per experiment.
#[must_use]
pub fn query_count() -> usize {
    std::env::var("HOLISTIC_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000)
}

/// Generates a column of `n` uniformly distributed integers in `[1, n]`,
/// matching the paper's data generator.
#[must_use]
pub fn uniform_column(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(1..=n as i64)).collect()
}

/// Builds a database with `columns` columns of `n` uniform values each and
/// returns it together with the column ids (in positional order).
#[must_use]
pub fn build_database(
    strategy: IndexingStrategy,
    config: HolisticConfig,
    columns: usize,
    n: usize,
) -> (Database, Vec<ColumnId>) {
    let mut db = Database::new(config, strategy);
    let names: Vec<String> = (0..columns).map(|i| format!("a{i}")).collect();
    let data: Vec<(&str, Vec<i64>)> = names
        .iter()
        .enumerate()
        .map(|(i, name)| (name.as_str(), uniform_column(n, 0xC0FFEE + i as u64)))
        .collect();
    let table = db.create_table("r", data).expect("create table");
    let ids = db.column_ids(table).expect("column ids");
    (db, ids)
}

/// The outcome of replaying a workload session against one strategy.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Strategy name.
    pub strategy: String,
    /// Cumulative query response time (micros) after each query.
    pub cumulative_micros: Vec<u128>,
    /// Total query response time.
    pub total_query_time: Duration,
    /// Total time spent on idle-time tuning.
    pub tuning_time: Duration,
    /// Total time spent building full indexes.
    pub build_time: Duration,
    /// Auxiliary refinement actions applied.
    pub auxiliary_actions: u64,
    /// Crack-kernel dispatches, split by physical form (branchy/predicated).
    pub kernel_dispatches: holistic_core::KernelDispatches,
}

impl RunOutcome {
    /// Total time including tuning and builds (the "investment" view).
    #[must_use]
    pub fn total_with_tuning(&self) -> Duration {
        self.total_query_time + self.tuning_time + self.build_time
    }
}

/// Replays a workload session (queries + idle windows) against the database.
///
/// * Query events execute a range query on the event's column (resolved via
///   `columns[event.column]`).
/// * Idle events hand the engine an idle budget — strategies that cannot
///   exploit idle time (scan, adaptive) simply skip them, which is exactly
///   how the paper treats them.
///
/// The cumulative series and the total are built from each answer's
/// latency (the engine itself only keeps counters).
pub fn replay_session(
    db: &mut Database,
    columns: &[ColumnId],
    events: &[WorkloadEvent],
    exploit_idle: bool,
) -> RunOutcome {
    let mut cumulative_micros = Vec::new();
    let mut total_query_time = Duration::ZERO;
    let mut acc = 0u128;
    for event in events {
        match event {
            WorkloadEvent::Query(RangeQuery { column, lo, hi }) => {
                let col = columns[*column % columns.len()];
                let result = db.execute(&Query::range(col, *lo, *hi)).expect("query");
                total_query_time += result.latency;
                acc += result.latency.as_micros();
                cumulative_micros.push(acc);
            }
            WorkloadEvent::Idle(window) => {
                if exploit_idle {
                    let budget = match window {
                        IdleWindow::Actions(a) => IdleBudget::Actions(*a),
                        IdleWindow::Micros(m) => IdleBudget::Duration(Duration::from_micros(*m)),
                    };
                    db.run_idle(budget);
                }
            }
        }
    }
    let metrics = db.metrics();
    RunOutcome {
        strategy: db.strategy().to_string(),
        cumulative_micros,
        total_query_time,
        tuning_time: metrics.tuning_time(),
        build_time: metrics.build_time(),
        auxiliary_actions: metrics.auxiliary_actions(),
        kernel_dispatches: metrics.kernel_dispatches(),
    }
}

/// Log-spaced sample points (1, 2, …, 10, 20, …, 100, 200, …) up to `max`,
/// matching the log-scale x-axis of the paper's figures.
#[must_use]
pub fn log_points(max: usize) -> Vec<usize> {
    let mut points = Vec::new();
    let mut decade = 1usize;
    while decade <= max {
        for step in 1..10 {
            let p = decade * step;
            if p > max {
                break;
            }
            points.push(p);
        }
        decade *= 10;
    }
    if points.last().copied() != Some(max) && max > 0 {
        points.push(max);
    }
    points
}

/// Prints a cumulative-response-time series table: one row per sample point,
/// one column per outcome.
pub fn print_series(title: &str, outcomes: &[RunOutcome]) {
    println!("\n=== {title} ===");
    print!("{:>10}", "query");
    for o in outcomes {
        print!("{:>18}", o.strategy);
    }
    println!();
    let max = outcomes
        .iter()
        .map(|o| o.cumulative_micros.len())
        .min()
        .unwrap_or(0);
    for &p in &log_points(max) {
        print!("{:>10}", p);
        for o in outcomes {
            print!("{:>18}", o.cumulative_micros[p - 1]);
        }
        println!();
    }
    println!("(cumulative response time in microseconds)");
}

/// Prints the total-time summary (the shape of the paper's Table 2).
pub fn print_totals(title: &str, outcomes: &[RunOutcome]) {
    println!("\n--- {title}: totals ---");
    println!(
        "{:>12} {:>16} {:>16} {:>16} {:>12} {:>18}",
        "strategy", "queries (ms)", "tuning (ms)", "builds (ms)", "aux actions", "cracks (br/pred)"
    );
    for o in outcomes {
        println!(
            "{:>12} {:>16.1} {:>16.1} {:>16.1} {:>12} {:>18}",
            o.strategy,
            o.total_query_time.as_secs_f64() * 1e3,
            o.tuning_time.as_secs_f64() * 1e3,
            o.build_time.as_secs_f64() * 1e3,
            o.auxiliary_actions,
            format!(
                "{}/{}",
                o.kernel_dispatches.branchy, o.kernel_dispatches.predicated
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_points_cover_the_range() {
        assert_eq!(log_points(10), vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let p = log_points(1000);
        assert_eq!(p.first(), Some(&1));
        assert_eq!(p.last(), Some(&1000));
        assert!(p.contains(&100) && p.contains(&900));
        let p = log_points(37);
        assert_eq!(p.last(), Some(&37));
        assert!(log_points(0).is_empty());
    }

    #[test]
    fn uniform_column_matches_paper_domain() {
        let c = uniform_column(10_000, 1);
        assert_eq!(c.len(), 10_000);
        assert!(c.iter().all(|&v| (1..=10_000).contains(&v)));
        // Deterministic for a fixed seed.
        assert_eq!(c, uniform_column(10_000, 1));
        assert_ne!(c, uniform_column(10_000, 2));
    }

    #[test]
    fn replay_session_runs_queries_and_idle_windows() {
        let (mut db, cols) = build_database(
            IndexingStrategy::Holistic,
            HolisticConfig::for_testing(),
            2,
            5_000,
        );
        let events = vec![
            WorkloadEvent::Idle(IdleWindow::Actions(10)),
            WorkloadEvent::Query(RangeQuery::new(0, 100, 200)),
            WorkloadEvent::Query(RangeQuery::new(1, 500, 700)),
            WorkloadEvent::Idle(IdleWindow::Micros(200)),
            WorkloadEvent::Query(RangeQuery::new(0, 100, 200)),
        ];
        let outcome = replay_session(&mut db, &cols, &events, true);
        assert_eq!(outcome.cumulative_micros.len(), 3);
        assert!(outcome.auxiliary_actions >= 10);
        assert!(outcome.total_with_tuning() >= outcome.total_query_time);
        assert_eq!(outcome.strategy, "holistic");
    }

    #[test]
    fn scan_strategy_ignores_idle_windows() {
        let (mut db, cols) = build_database(
            IndexingStrategy::ScanOnly,
            HolisticConfig::for_testing(),
            1,
            2_000,
        );
        let events = vec![
            WorkloadEvent::Idle(IdleWindow::Actions(100)),
            WorkloadEvent::Query(RangeQuery::new(0, 10, 500)),
        ];
        let outcome = replay_session(&mut db, &cols, &events, false);
        assert_eq!(outcome.auxiliary_actions, 0);
        assert_eq!(outcome.tuning_time, Duration::ZERO);
    }
}

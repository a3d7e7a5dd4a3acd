//! Ablation A4: hot-range boosting during query processing (the paper's
//! "No Time" case).
//!
//! When no idle time ever appears, holistic indexing can still use its
//! statistics: if a column/value range is hot (more than n queries cracked
//! it), the select operator applies a few extra random cracks in that range
//! while it is there anyway, until the range's pieces reach the cache floor
//! (`cache_piece_target`). On a skewed workload this accelerates later
//! queries on the hot range; the ablation compares boost on vs off under a
//! steady (no-idle) arrival model.
//!
//! The ranges are sized from the floor: each is `4 × cache_piece_target`
//! values wide (capped at the whole column), so a hot range's inner piece
//! starts above the floor and the boost has work to do at every
//! `HOLISTIC_SCALE` of at least `4 × cache_piece_target` values. (Ranges
//! narrower than the floor make boost-on run exactly boost-off's work.)
//! Two session shapes are run:
//!
//! * **repeated** — 64 Zipf buckets, each about one range wide, so every
//!   query on a bucket asks the same range again;
//! * **moving** — buckets four range widths wide, so the queries on a hot
//!   region move within it.

use holistic_bench::{build_database, print_totals, replay_session, scale};
use holistic_core::{HolisticConfig, IndexingStrategy};
use holistic_workload::{ArrivalModel, QueryGenerator, SessionBuilder, ZipfRangeGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

const QUERIES: usize = 2_000;

fn main() {
    let n = scale();
    // The column holds about one value per domain unit, so a range's width
    // is also about the number of values in it.
    let floor = HolisticConfig::default().cache_piece_target;
    let width = (4 * floor).min(n);
    let selectivity = width as f64 / n as f64;
    println!(
        "Ablation A4: hot-range boosting — one column of {n} values, {QUERIES} zipf-skewed \
         queries of {width} values ({:.3} % of the column, {}× the {floor}-value floor), \
         no idle time",
        selectivity * 100.0,
        width / floor,
    );
    run_shape("repeated", n, selectivity, 64);
    run_shape("moving", n, selectivity, (n / (4 * width)).clamp(1, 64));
}

/// Replays one Zipf session with boosting on and off and prints time,
/// boost splits, the boost's exclusive-latch acquisitions and piece counts.
fn run_shape(shape: &str, n: usize, selectivity: f64, buckets: usize) {
    let mut generator = ZipfRangeGenerator::new(0, 1, n as i64 + 1, selectivity, buckets, 1.2);
    let mut rng = StdRng::seed_from_u64(21);
    let events = SessionBuilder::new(ArrivalModel::Steady).build(&mut generator, QUERIES, &mut rng);
    // Sanity check that the generator produces usable queries.
    let mut probe_rng = StdRng::seed_from_u64(22);
    assert!(generator.next_query(&mut probe_rng).hi > 0);

    let boosted_cfg = HolisticConfig {
        hot_range_query_threshold: 4,
        boost_cracks_per_query: 4,
        ..HolisticConfig::default()
    };
    let (mut boosted_db, cols) = build_database(IndexingStrategy::Holistic, boosted_cfg, 1, n);
    let mut boosted = replay_session(&mut boosted_db, &cols, &events, false);
    boosted.strategy = "boost-on".to_string();

    let plain_cfg = HolisticConfig {
        boost_cracks_per_query: 0,
        ..HolisticConfig::default()
    };
    let (mut plain_db, plain_cols) = build_database(IndexingStrategy::Holistic, plain_cfg, 1, n);
    let mut plain = replay_session(&mut plain_db, &plain_cols, &events, false);
    plain.strategy = "boost-off".to_string();

    let title = format!("A4 {shape} ({buckets} hot regions)");
    print_totals(&title, &[plain.clone(), boosted.clone()]);
    println!(
        "{:>12} {:>16} {:>14} {:>16} {:>8}",
        "strategy", "queries (ms)", "boost splits", "boost_exclusive", "pieces"
    );
    for (outcome, db, col) in [
        (&plain, &plain_db, plain_cols[0]),
        (&boosted, &boosted_db, cols[0]),
    ] {
        println!(
            "{:>12} {:>16.1} {:>14} {:>16} {:>8}",
            outcome.strategy,
            outcome.total_query_time.as_secs_f64() * 1e3,
            db.stats().column(col).map_or(0, |c| c.auxiliary_actions),
            db.latch_stats(col).boost_exclusive,
            db.piece_count(col),
        );
    }
    println!(
        "{shape}: boost-on / boost-off query time {:.3}",
        boosted.total_query_time.as_secs_f64() / plain.total_query_time.as_secs_f64()
    );
}

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

use holistic_bench::{build_database, print_totals, replay_session, scale};
use holistic_core::{HolisticConfig, IndexingStrategy};
use holistic_workload::{ArrivalModel, QueryGenerator, SessionBuilder, ZipfRangeGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = scale();
    let queries = 2_000;
    println!(
        "Ablation A4: hot-range boosting — one column of {n} values, {queries} zipf-skewed queries, no idle time"
    );

    let mut generator = ZipfRangeGenerator::new(0, 1, n as i64 + 1, 0.001, 64, 1.2);
    let mut rng = StdRng::seed_from_u64(21);
    let events = SessionBuilder::new(ArrivalModel::Steady).build(&mut generator, queries, &mut rng);
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
    let boosted_aux = boosted_db
        .stats()
        .column(cols[0])
        .map_or(0, |c| c.auxiliary_actions);
    let boosted_exclusive = boosted_db.latch_stats(cols[0]).boost_exclusive;

    let plain_cfg = HolisticConfig {
        boost_cracks_per_query: 0,
        ..HolisticConfig::default()
    };
    let (mut plain_db, plain_cols) = build_database(IndexingStrategy::Holistic, plain_cfg, 1, n);
    let mut plain = replay_session(&mut plain_db, &plain_cols, &events, false);
    plain.strategy = "boost-off".to_string();

    let outcomes = vec![plain, boosted];
    print_totals("A4: hot-range boosting", &outcomes);
    println!(
        "boost-on: {boosted_aux} boost splits inside hot ranges, {boosted_exclusive} exclusive latch acquisitions by the boost (pivots within the cache floor crack nothing)"
    );
    println!(
        "piece counts after the workload: boost-off={}, boost-on={}",
        plain_db.piece_count(plain_cols[0]),
        boosted_db.piece_count(cols[0])
    );
}

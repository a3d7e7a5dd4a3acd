//! `explore.warm` — the converged regime. Closed-loop clients (one per
//! hardware thread of the reference box) share one engine whose columns were
//! warmed in set-up: every distinct predicate replayed once, idle refinement
//! run to convergence, prefix sums seeded. The measured stream repeats those
//! predicates, Zipf-skewed, so every answer is composed from cached piece
//! sums without reading data: the kernels do nothing and the layers above
//! them (latch, piece lookup in a piece table far larger than L2, engine
//! metrics and statistics, the query log) do all the work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use holistic_core::{ColumnId, Database, IndexingStrategy, Query};
use holistic_workload::Zipf;

use crate::gen::{rng_for, uniform_column, uniform_ranges, Range};
use crate::ladder::LadderInput;
use crate::oracle::{CountSum, SortedOracle};
use crate::report::{peak_rss_mb, Ctx, Metric, Outcome, Res};
use crate::stats::{median, UnitLatencies};
use crate::workloads::{converged_config, load_table, repeat_set_up, warm_engine, ReadOp};

/// Workload name.
pub const NAME: &str = "explore.warm";

/// Frozen sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows per column.
    pub rows: usize,
    /// Columns, queried alternately.
    pub columns: usize,
    /// Distinct predicates per column.
    pub distinct: usize,
    /// Share of the domain each predicate covers.
    pub selectivity: f64,
    /// Zipf skew of the predicate choice.
    pub theta: f64,
    /// Closed-loop clients.
    pub clients: usize,
    /// Queries per block; statistics are medians over blocks.
    pub block: usize,
    /// Pre-generated predicate choices per client, cycled through.
    pub draws: usize,
    /// Every this-many-th query is timed on its own.
    pub sample_every: usize,
    /// Rounds run whatever `--seconds` says.
    pub min_blocks: usize,
    /// Ops of client 0's stream the traced run replays.
    pub ladder_ops: usize,
}

/// Each block shifts the Zipf ranks by this many places in the distinct
/// table (modulo its length), so the few predicates that draw most of the
/// traffic change from block to block and the median over blocks does not
/// hang on which predicates one seed happened to make hot.
const HOT_SET_STRIDE: usize = 7_919;

/// Sizes of a real run.
pub const FULL: Sizes = Sizes {
    rows: 1 << 22,
    columns: 2,
    distinct: 10_000,
    selectivity: 0.01,
    theta: 1.0,
    clients: 2,
    block: 1 << 18,
    draws: 1 << 20,
    sample_every: 16,
    min_blocks: 3,
    ladder_ops: 1 << 14,
};

/// Sizes of a smoke run.
pub const SMOKE: Sizes = Sizes {
    rows: 20_000,
    columns: 2,
    distinct: 500,
    selectivity: 0.01,
    theta: 1.0,
    clients: 2,
    block: 4_096,
    draws: 8_192,
    sample_every: 16,
    min_blocks: 2,
    ladder_ops: 2_048,
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
        "{{\"rows\": {}, \"columns\": {}, \"distinct_ranges_per_column\": {}, \"selectivity\": {}, \"zipf_theta\": {}, \"clients\": {}, \"block\": {}, \"sample_every\": {}, \"loop\": \"closed\"}}",
        s.rows, s.columns, s.distinct, s.selectivity, s.theta, s.clients, s.block, s.sample_every
    )
}

fn column_data(ctx: &Ctx, s: &Sizes) -> Vec<Vec<i64>> {
    (0..s.columns)
        .map(|c| uniform_column(s.rows, &mut rng_for(ctx.seed, c as u64)))
        .collect()
}

/// The distinct predicates of each column.
fn distinct_ranges(ctx: &Ctx, s: &Sizes) -> Vec<Vec<Range>> {
    (0..s.columns)
        .map(|c| {
            let mut rng = rng_for(ctx.seed, 100 + c as u64);
            uniform_ranges(s.rows, s.selectivity, s.distinct, &mut rng)
        })
        .collect()
}

/// Client `client`'s predicate choices: Zipf ranks into the distinct table.
fn client_draws(ctx: &Ctx, s: &Sizes, client: usize) -> Vec<u32> {
    let zipf = Zipf::new(s.distinct, s.theta);
    let mut rng = rng_for(ctx.seed, 200 + client as u64);
    (0..s.draws).map(|_| zipf.sample(&mut rng) as u32).collect()
}

/// Every distinct predicate once, column by column: the warm-up replay.
fn warm_ops(ranges: &[Vec<Range>]) -> Vec<ReadOp> {
    ranges
        .iter()
        .enumerate()
        .flat_map(|(column, ranges)| {
            ranges.iter().map(move |&(lo, hi)| ReadOp {
                column,
                lo,
                hi,
                materialize: false,
            })
        })
        .collect()
}

/// The warmed engine with its pre-built queries and their right answers.
struct Prepared {
    db: Database,
    /// `queries[column][rank]`.
    queries: Vec<Vec<Query>>,
    /// `expected[column][rank]`.
    expected: Vec<Vec<CountSum>>,
    draws: Vec<Vec<u32>>,
}

fn set_up(ctx: &Ctx, s: &Sizes) -> Res<Prepared> {
    let data = column_data(ctx, s);
    let ranges = distinct_ranges(ctx, s);
    let expected = data
        .iter()
        .zip(&ranges)
        .map(|(values, ranges)| {
            let oracle = SortedOracle::new(values);
            ranges
                .iter()
                .map(|&(lo, hi)| oracle.count_sum(lo, hi))
                .collect()
        })
        .collect();
    let (db, columns) = load_table(converged_config(), IndexingStrategy::Holistic, &data)?;
    warm_engine(&db, &columns, &warm_ops(&ranges))?;
    let queries = ranges
        .iter()
        .zip(&columns)
        .map(|(ranges, &column): (_, &ColumnId)| {
            ranges
                .iter()
                .map(|&(lo, hi)| Query::range(column, lo, hi))
                .collect()
        })
        .collect();
    let draws = (0..s.clients).map(|c| client_draws(ctx, s, c)).collect();
    Ok(Prepared {
        db,
        queries,
        expected,
        draws,
    })
}

/// What one block of queries measured.
struct Block {
    seconds: f64,
    /// Latency (µs) of every `sample_every`-th query.
    sampled_us: Vec<f64>,
    failed: u64,
}

/// Runs one block of `client`'s stream, starting at op index `first`.
fn run_block(
    s: &Sizes,
    prepared: &Prepared,
    client: usize,
    first: usize,
    shift: usize,
) -> Res<Block> {
    let draws = &prepared.draws[client];
    let mut block = Block {
        seconds: 0.0,
        sampled_us: Vec::with_capacity(s.block / s.sample_every + 1),
        failed: 0,
    };
    let started = Instant::now();
    for i in first..first + s.block {
        let column = i % s.columns;
        let rank = (draws[i % draws.len()] as usize + shift) % s.distinct;
        let query = &prepared.queries[column][rank];
        let result = if i.is_multiple_of(s.sample_every) {
            let started = Instant::now();
            let result = prepared.db.execute(query)?;
            block
                .sampled_us
                .push(started.elapsed().as_nanos() as f64 / 1e3);
            result
        } else {
            prepared.db.execute(query)?
        };
        // The check is two integer compares against a precomputed table,
        // cheap enough to stay inside the block on both sides of any
        // comparison; the sampled span above excludes it.
        let right = (result.count, result.sum) == prepared.expected[column][rank];
        block.failed += u64::from(!right);
    }
    block.seconds = started.elapsed().as_secs_f64();
    Ok(block)
}

#[derive(Default)]
struct ClientStats {
    /// Blocks run while every client was running one.
    shared: Vec<Block>,
    /// Blocks client 0 ran alone.
    solo: Vec<Block>,
    rss_after_first_round: f64,
}

/// One closed-loop client. A *round* is a block every client runs at the
/// same time, then a block client 0 runs alone while the others wait.
/// Throughput is quoted from the shared blocks, where the clients contend;
/// latency percentiles from the solo blocks, because which of two contending
/// threads waits for the other flips between regimes that last seconds, and
/// a percentile taken there is a coin toss per run (kept as a diagnostic).
fn client_loop(
    s: &Sizes,
    prepared: &Prepared,
    client: usize,
    round_start: &Barrier,
    stop: &AtomicBool,
    seconds: f64,
) -> Res<ClientStats> {
    let mut stats = ClientStats::default();
    // A client that fails keeps meeting the others at the barrier, so none
    // is left waiting; the failure ends the run for all at the next round.
    let mut error = None;
    let mut next_op = 0usize;
    let started = Instant::now();
    loop {
        round_start.wait();
        // Every write to `stop` precedes its writer's arrival at the barrier.
        if stop.load(Ordering::SeqCst) {
            return error.map_or(Ok(stats), Err);
        }
        let shift = stats.shared.len() * HOT_SET_STRIDE;
        let shared = run_block(s, prepared, client, next_op, shift);
        next_op += s.block;
        round_start.wait();
        let solo = (client == 0 && shared.is_ok()).then(|| {
            let solo = run_block(s, prepared, client, next_op, shift);
            next_op += s.block;
            solo
        });
        for (block, blocks) in [(Some(shared), &mut stats.shared), (solo, &mut stats.solo)] {
            match block {
                Some(Ok(block)) => blocks.push(block),
                Some(Err(e)) => {
                    error.get_or_insert(e);
                    stop.store(true, Ordering::SeqCst);
                }
                None => {}
            }
        }
        if client == 0 {
            if stats.solo.len() == 1 {
                stats.rss_after_first_round = peak_rss_mb();
            }
            if stats.shared.len() >= s.min_blocks && started.elapsed().as_secs_f64() >= seconds {
                stop.store(true, Ordering::SeqCst);
            }
        }
    }
}

/// The timed run.
pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let s = sizes(ctx);
    let (prepared, setup_s) = repeat_set_up(|| set_up(ctx, &s))?;
    let dispatches_before = prepared.db.metrics().kernel_dispatches().total();
    let cache_before = prepared.db.metrics().aggregate_cache();

    let round_start = Barrier::new(s.clients);
    let stop = AtomicBool::new(false);
    let results: Vec<Res<ClientStats>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..s.clients)
            .map(|client| {
                let (prepared, round_start, stop, s) = (&prepared, &round_start, &stop, &s);
                scope
                    .spawn(move || client_loop(s, prepared, client, round_start, stop, ctx.seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".into()))
            })
            .collect()
    });
    let mut clients = Vec::with_capacity(s.clients);
    for result in results {
        clients.push(result?);
    }

    let shared_seconds: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.shared.iter().map(|b| b.seconds))
        .collect();
    let block_s = median(&shared_seconds);
    let (mut solo, mut contended) = (UnitLatencies::default(), UnitLatencies::default());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut peak_rss = 0.0f64;
    for client in clients {
        peak_rss = peak_rss.max(client.rss_after_first_round);
        for block in client.shared {
            attempted += s.block as u64;
            failed += block.failed;
            contended.push_unit(block.sampled_us);
        }
        for block in client.solo {
            attempted += s.block as u64;
            failed += block.failed;
            solo.push_unit(block.sampled_us);
        }
    }
    let dispatches = prepared.db.metrics().kernel_dispatches().total() - dispatches_before;
    let cache = prepared.db.metrics().aggregate_cache();
    let zero_read = cache.zero_read() - cache_before.zero_read();
    let pieces: usize = prepared
        .queries
        .iter()
        .filter_map(|q| q.first())
        .map(|q| prepared.db.piece_count(q.column))
        .sum();
    println!(
        "sampled query latency (us), one client alone:  {}",
        solo.pooled()
    );
    let contended_pooled = contended.pooled();
    println!("sampled query latency (us), clients contending: {contended_pooled}");

    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "throughput_ops",
                s.clients as f64 * s.block as f64 / block_s,
                "1/s",
            ),
            Metric::new("cum_response_s", block_s, "s"),
            Metric::new("p50_us", solo.p50(), "us"),
            Metric::new("p99_us", solo.p99(), "us"),
            Metric::new("peak_rss_mb", peak_rss, "MB"),
        ],
        diagnostics: vec![
            Metric::new(
                "rounds",
                shared_seconds.len() as f64 / s.clients as f64,
                "count",
            ),
            Metric::new("contended_p50_us", contended.p50(), "us"),
            Metric::new("contended_p99_us", contended.p99(), "us"),
            Metric::new("kernel_dispatches", dispatches as f64, "count"),
            Metric::new(
                "zero_read_ratio",
                zero_read as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            Metric::new("pieces", pieces as f64, "count"),
            Metric::new("rss_at_end_mb", peak_rss_mb(), "MB"),
        ],
    })
}

/// The traced run's input: the warm-up replay, then the head of client 0's
/// stream.
pub fn ladder_input(ctx: &Ctx) -> LadderInput {
    let s = sizes(ctx);
    let ranges = distinct_ranges(ctx, &s);
    let stream = client_draws(ctx, &s, 0)
        .into_iter()
        .take(s.ladder_ops)
        .enumerate()
        .map(|(i, rank)| {
            let column = i % s.columns;
            let (lo, hi) = ranges[column][rank as usize];
            ReadOp {
                column,
                lo,
                hi,
                materialize: false,
            }
        })
        .collect();
    LadderInput {
        workload: NAME,
        columns: column_data(ctx, &s),
        warm: warm_ops(&ranges),
        stream,
        idle: None,
        config: converged_config(),
        shard_extent: s.rows / 4,
    }
}

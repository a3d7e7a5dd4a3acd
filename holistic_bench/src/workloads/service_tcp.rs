//! `service.tcp` — arrivals as they come. An in-process `serve()` on
//! loopback with the default service configuration, its column warmed in
//! set-up so engine work is a cached lookup; a few connections offer
//! **open-loop** Poisson arrivals at a fixed ladder of rates. Latency is
//! timed from each request's *due* time, so a stalled generator or server
//! charges the wait to the requests behind it, and generator lateness is
//! reported. What is measured is `server::core` (admission, the
//! `batch_deadline` queue wait, batch formation) and `server::net` (codec,
//! syscalls).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;

use holistic_core::{ColumnId, IndexingStrategy};
use holistic_server::{serve, Client, QueryReq, RespStatus, Server, ServiceConfig, ServiceCore};

use crate::gen::{poisson_arrivals, rng_for, uniform_column, uniform_ranges, Arrival, Range};
use crate::ladder::LadderInput;
use crate::oracle::{CountSum, SortedOracle};
use crate::report::{peak_rss_mb, Ctx, Metric, Outcome, Res};
use crate::stats::{median, percentile, sort, summarize, LatencySummary};
use crate::workloads::{converged_config, load_table, repeat_set_up, warm_engine, ReadOp};

/// Workload name.
pub const NAME: &str = "service.tcp";

/// Offered rates of the ladder, queries per second over all connections.
pub const RATES: [f64; 5] = [2_000.0, 3_000.0, 4_500.0, 6_750.0, 10_000.0];

/// The rung whose latency the end-to-end metrics quote.
const REFERENCE_RUNG: usize = 2;

/// Latency limit on the 99th percentile, from due time to reply.
const LATENCY_LIMIT_US: f64 = 10_000.0;

/// Share of a rung's requests that may fail before the rung is not OK.
const FAIL_SHARE_LIMIT: f64 = 0.001;

/// How long a receiver waits for one reply before giving the rest up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// Lead before a rung's first due time, so every thread is in place.
const RUNG_LEAD: Duration = Duration::from_millis(5);

/// Frozen sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows of the one column.
    pub rows: usize,
    /// Distinct predicates (all warmed).
    pub distinct: usize,
    /// Share of the domain each predicate covers.
    pub selectivity: f64,
    /// Connections, each with one generator and one reader thread.
    pub connections: usize,
    /// Shortest rung, in seconds, whatever `--seconds` says.
    pub min_rung_seconds: f64,
    /// Ops the traced run replays.
    pub ladder_ops: usize,
}

/// Sizes of a real run.
pub const FULL: Sizes = Sizes {
    rows: 1_000_000,
    distinct: 1_000,
    selectivity: 0.01,
    connections: 2,
    min_rung_seconds: 0.25,
    ladder_ops: 8_192,
};

/// Sizes of a smoke run.
pub const SMOKE: Sizes = Sizes {
    rows: 20_000,
    distinct: 100,
    selectivity: 0.01,
    connections: 2,
    min_rung_seconds: 0.1,
    ladder_ops: 512,
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
        "{{\"rows\": {}, \"distinct_ranges\": {}, \"selectivity\": {}, \"connections\": {}, \"rates_qps\": {RATES:?}, \"reference_rate_qps\": {}, \"latency_limit_us\": {LATENCY_LIMIT_US}, \"loop\": \"open (Poisson)\", \"service_config\": \"default\"}}",
        s.rows, s.distinct, s.selectivity, s.connections, RATES[REFERENCE_RUNG]
    )
}

fn ranges(ctx: &Ctx, s: &Sizes) -> Vec<Range> {
    uniform_ranges(
        s.rows,
        s.selectivity,
        s.distinct,
        &mut rng_for(ctx.seed, 100),
    )
}

fn warm_ops(ranges: &[Range]) -> Vec<ReadOp> {
    ranges
        .iter()
        .map(|&(lo, hi)| ReadOp {
            column: 0,
            lo,
            hi,
            materialize: false,
        })
        .collect()
}

/// What the generator and reader threads need: the predicates and their
/// right answers.
struct Plan {
    column: ColumnId,
    ranges: Vec<Range>,
    expected: Vec<CountSum>,
}

/// A running server over a warmed engine. Dropping it shuts the server down
/// and joins its threads.
struct Prepared {
    server: Option<Server>,
    plan: Plan,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn set_up(ctx: &Ctx, s: &Sizes) -> Res<Prepared> {
    let data = uniform_column(s.rows, &mut rng_for(ctx.seed, 0));
    let ranges = ranges(ctx, s);
    let oracle = SortedOracle::new(&data);
    let expected = ranges
        .iter()
        .map(|&(lo, hi)| oracle.count_sum(lo, hi))
        .collect();
    let (db, columns) = load_table(converged_config(), IndexingStrategy::Holistic, &[data])?;
    warm_engine(&db, &columns, &warm_ops(&ranges))?;
    let core = ServiceCore::new(db.into_shared(), ServiceConfig::default());
    let server = serve(core, "127.0.0.1:0")?;
    Ok(Prepared {
        server: Some(server),
        plan: Plan {
            column: columns[0],
            ranges,
            expected,
        },
    })
}

/// Microseconds from a request's due time to `at_ns` (both on the rung's
/// clock); 0 if `at_ns` is earlier. With the send time this is the
/// generator's lateness, with the reply time the latency the user saw —
/// open-loop latency runs from when the request was due, not when it left.
#[must_use]
pub fn us_after_due(due_ns: u64, at_ns: u64) -> f64 {
    at_ns.saturating_sub(due_ns) as f64 / 1e3
}

/// Sends connection `connection`'s arrivals on schedule; returns the
/// lateness (µs) of each send. A generator that falls behind sends at once
/// and the delay shows as lateness, never as a lighter load.
fn send_loop(
    sender: &mut Client,
    arrivals: &[Arrival],
    connection: usize,
    plan: &Plan,
    rung_start: Instant,
) -> Res<Vec<f64>> {
    let mut lateness = Vec::new();
    for (id, arrival) in arrivals.iter().enumerate() {
        if arrival.connection != connection {
            continue;
        }
        let due = rung_start + Duration::from_nanos(arrival.due_ns);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let (lo, hi) = plan.ranges[arrival.range as usize];
        let sent_ns = rung_start.elapsed().as_nanos() as u64;
        sender.send(&QueryReq {
            request_id: id as u64,
            column: plan.column,
            lo,
            hi,
            materialize: false,
            deadline_ms: 0,
        })?;
        lateness.push(us_after_due(arrival.due_ns, sent_ns));
    }
    Ok(lateness)
}

/// What one connection's reader saw.
#[derive(Default)]
struct Received {
    /// Latency from due time (µs) of each right answer, in arrival order.
    ok_us: Vec<f64>,
    failed: u64,
}

/// Reads `expect` replies (fewer if the connection goes quiet).
fn receive_loop(
    receiver: &mut Client,
    arrivals: &[Arrival],
    expect: usize,
    plan: &Plan,
    rung_start: Instant,
) -> Received {
    let mut seen = Received::default();
    for got in 0..expect {
        let Ok(Some(frame)) = receiver.recv() else {
            // Quiet or closed: whatever is still owed counts as failed.
            seen.failed += (expect - got) as u64;
            break;
        };
        let replied_ns = rung_start.elapsed().as_nanos() as u64;
        let right = arrivals.get(frame.request_id as usize).filter(|arrival| {
            frame.status == RespStatus::Ok
                && (frame.count, frame.sum) == plan.expected[arrival.range as usize]
        });
        match right {
            Some(arrival) => seen.ok_us.push(us_after_due(arrival.due_ns, replied_ns)),
            None => seen.failed += 1,
        }
    }
    seen
}

/// What one rung of the ladder measured.
struct Rung {
    rate: f64,
    sent: usize,
    failed: u64,
    wall_s: f64,
    latency: LatencySummary,
    mean_us: f64,
    lateness_p99_us: f64,
    /// Median latency of the last quarter of replies over the first
    /// quarter's: well above 1 means a backlog grew across the rung.
    backlog_growth: f64,
}

impl Rung {
    fn ok(&self) -> bool {
        self.latency.p99 <= LATENCY_LIMIT_US
            && self.failed as f64 <= FAIL_SHARE_LIMIT * self.sent as f64
            && self.backlog_growth <= 2.0
    }
}

/// Offers one rung's arrivals over the open connections.
fn run_rung(
    rate: f64,
    arrivals: &[Arrival],
    connections: &mut [(Client, Client)],
    plan: &Plan,
) -> Res<Rung> {
    let rung_start = Instant::now() + RUNG_LEAD;
    type Joined = (Res<Vec<f64>>, Received);
    let joined: Vec<Joined> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .enumerate()
            .map(|(c, (sender, receiver))| {
                let expect = arrivals.iter().filter(|a| a.connection == c).count();
                let send = scope.spawn(move || send_loop(sender, arrivals, c, plan, rung_start));
                let receive =
                    scope.spawn(move || receive_loop(receiver, arrivals, expect, plan, rung_start));
                (send, receive, expect)
            })
            .collect();
        handles
            .into_iter()
            .map(|(send, receive, expect)| {
                let sent = send
                    .join()
                    .unwrap_or_else(|_| Err("a generator thread panicked".into()));
                let received = receive.join().unwrap_or(Received {
                    ok_us: Vec::new(),
                    failed: expect as u64,
                });
                (sent, received)
            })
            .collect()
    });
    let wall_s = rung_start.elapsed().as_secs_f64();

    let (mut lateness, mut ok_us, mut quarters) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0;
    for (sent, received) in joined {
        lateness.extend(sent?);
        failed += received.failed;
        let q = received.ok_us.len() / 4;
        if q > 0 {
            let first = median(&received.ok_us[..q]);
            let last = median(&received.ok_us[received.ok_us.len() - q..]);
            quarters.push(last / first.max(1.0));
        }
        ok_us.extend(received.ok_us);
    }
    sort(&mut lateness);
    let mean_us = ok_us.iter().sum::<f64>() / ok_us.len().max(1) as f64;
    Ok(Rung {
        rate,
        sent: arrivals.len(),
        failed,
        wall_s,
        latency: summarize(&mut ok_us),
        mean_us,
        lateness_p99_us: percentile(&lateness, 99.0),
        backlog_growth: quarters.into_iter().fold(0.0, f64::max),
    })
}

fn connect(addr: SocketAddr, connections: usize) -> Res<Vec<(Client, Client)>> {
    (0..connections)
        .map(|c| {
            let sender = Client::connect(addr, 100 + c as u64)?;
            let receiver = sender.try_clone()?;
            receiver.set_recv_timeout(Some(REPLY_TIMEOUT))?;
            Ok((sender, receiver))
        })
        .collect()
}

/// The timed run.
pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let s = sizes(ctx);
    let (prepared, setup_s) = repeat_set_up(|| set_up(ctx, &s))?;
    let rung_seconds = (ctx.seconds / RATES.len() as f64).max(s.min_rung_seconds);
    let schedules: Vec<Vec<Arrival>> = RATES
        .iter()
        .enumerate()
        .map(|(r, &rate)| {
            let mut rng = rng_for(ctx.seed, 400 + r as u64);
            poisson_arrivals(
                rate,
                rung_seconds,
                s.connections,
                s.distinct as u32,
                &mut rng,
            )
        })
        .collect();
    let server = prepared.server.as_ref().ok_or("the server is gone")?;
    let engine = Arc::clone(server.core().engine());
    let mut connections = connect(server.addr(), s.connections)?;

    let mut rungs = Vec::with_capacity(RATES.len());
    let mut peak_rss = 0.0;
    for (&rate, arrivals) in RATES.iter().zip(&schedules) {
        rungs.push(run_rung(rate, arrivals, &mut connections, &prepared.plan)?);
        if rungs.len() == 1 {
            peak_rss = peak_rss_mb();
        }
    }
    drop(connections);
    let service = engine.read().metrics().service();
    let batches = engine.read().metrics().batches_executed();
    let batched = engine.read().metrics().batched_queries();

    println!(
        "{:>9} {:>7} {:>6} {:>10} {:>10} {:>12} {:>8} {:>4}",
        "rate q/s", "sent", "failed", "p50 us", "p99 us", "late p99 us", "backlog", "ok"
    );
    for r in &rungs {
        println!(
            "{:>9.0} {:>7} {:>6} {:>10.1} {:>10.1} {:>12.1} {:>8.2} {:>4}",
            r.rate,
            r.sent,
            r.failed,
            r.latency.p50,
            r.latency.p99,
            r.lateness_p99_us,
            r.backlog_growth,
            if r.ok() { "yes" } else { "no" }
        );
    }
    let reference = &rungs[REFERENCE_RUNG];
    println!("reference rung latency (us): {}", reference.latency);
    let attempted: u64 = rungs.iter().map(|r| r.sent as u64).sum();
    let failed: u64 = rungs.iter().map(|r| r.failed).sum();
    let wall_s: f64 = rungs.iter().map(|r| r.wall_s).sum();
    let max_rate_ok = rungs
        .iter()
        .take_while(|r| r.ok())
        .last()
        .map_or(0.0, |r| r.rate);

    let mut diagnostics = vec![
        Metric::new("max_rate_ok_qps", max_rate_ok, "1/s"),
        Metric::new("rung_seconds", rung_seconds, "s"),
        Metric::new("admitted", service.admitted as f64, "count"),
        Metric::new(
            "rejected",
            (service.rejected_global + service.rejected_client) as f64,
            "count",
        ),
        Metric::new("shed_deadline", service.shed_deadline as f64, "count"),
        Metric::new("degraded_answers", service.degraded_answers as f64, "count"),
        Metric::new("peak_queue_depth", service.peak_queue_depth as f64, "count"),
        Metric::new(
            "mean_formed_batch",
            batched as f64 / batches.max(1) as f64,
            "count",
        ),
    ];
    for r in &rungs {
        let tag = format!("r{:.0}", r.rate);
        diagnostics.push(Metric::owned(format!("p50_us.{tag}"), r.latency.p50, "us"));
        diagnostics.push(Metric::owned(format!("p99_us.{tag}"), r.latency.p99, "us"));
        diagnostics.push(Metric::owned(
            format!("generator_lateness_p99_us.{tag}"),
            r.lateness_p99_us,
            "us",
        ));
    }

    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "throughput_ops",
                (attempted - failed) as f64 / wall_s,
                "1/s",
            ),
            Metric::new("cum_response_s", reference.mean_us * 1e-6 * 1_000.0, "s"),
            Metric::new("p50_us", reference.latency.p50, "us"),
            Metric::new("p99_us", reference.latency.p99, "us"),
            Metric::new("peak_rss_mb", peak_rss, "MB"),
        ],
        diagnostics,
    })
}

/// The traced run's input: the warm-up replay, then uniformly chosen warmed
/// predicates, as the arrivals choose them.
pub fn ladder_input(ctx: &Ctx) -> LadderInput {
    let s = sizes(ctx);
    let ranges = ranges(ctx, &s);
    let warm = warm_ops(&ranges);
    let mut rng = rng_for(ctx.seed, 400);
    let stream = (0..s.ladder_ops)
        .map(|_| warm[rng.gen_range(0..warm.len())])
        .collect();
    LadderInput {
        workload: NAME,
        columns: vec![uniform_column(s.rows, &mut rng_for(ctx.seed, 0))],
        warm,
        stream,
        idle: None,
        config: converged_config(),
        shard_extent: s.rows / 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        // Due at 1 ms, sent 0.4 ms late, replied at 3 ms: the request waited
        // 2 ms as its user saw it, whatever the generator did.
        let (due, sent, replied) = (1_000_000, 1_400_000, 3_000_000);
        assert_eq!(us_after_due(due, sent), 400.0);
        assert_eq!(us_after_due(due, replied), 2_000.0);
        // The clock read just before the due time: no negative lateness.
        assert_eq!(us_after_due(due, 900_000), 0.0);
    }

    #[test]
    fn a_rung_fails_on_latency_failures_or_backlog() {
        let us: Vec<f64> = (0..1_000).map(f64::from).collect();
        let rung = |p99_shift: f64, failed: u64, backlog_growth: f64| {
            let mut shifted: Vec<f64> = us.iter().map(|v| v + p99_shift).collect();
            Rung {
                rate: 1_000.0,
                sent: 1_000,
                failed,
                wall_s: 1.0,
                latency: summarize(&mut shifted),
                mean_us: 0.0,
                lateness_p99_us: 0.0,
                backlog_growth,
            }
        };
        assert!(rung(0.0, 0, 1.0).ok());
        assert!(rung(0.0, 1, 1.0).ok());
        assert!(!rung(0.0, 2, 1.0).ok());
        assert!(!rung(LATENCY_LIMIT_US, 0, 1.0).ok());
        assert!(!rung(0.0, 0, 2.5).ok());
    }
}

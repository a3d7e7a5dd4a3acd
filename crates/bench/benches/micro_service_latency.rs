//! Service latency vs. offered load over a real loopback connection.
//!
//! The query service's whole point is graceful degradation: below
//! saturation it should add little latency over raw batch execution; past
//! saturation it must shed typed work instead of letting queues (and
//! latency) grow without bound. This bench measures that curve.
//!
//! Method: a closed-loop pipelined burst first *calibrates* the service's
//! capacity (achieved queries/second with a full pipeline — this also
//! warms the index). The open-loop sweep then offers Poisson arrivals at
//! 0.25×, 0.5×, 1× and 2× of calibrated capacity and records, per load
//! point, achieved throughput, p50/p99 latency of answered queries, and
//! the shed/rejection counts. At 2× the interesting numbers are the
//! *bounded* p99 of answered queries (deadline-capped) and the nonzero
//! shed column — an unprotected server would instead show unbounded
//! latency and zero sheds.
//!
//! The whole sweep runs twice, against a fresh server each time: once
//! with FIFO dispatch (`edf_dispatch: false`, the pre-EDF baseline) and
//! once with earliest-deadline-first ordering within admission buckets,
//! with sheds reported *by cause* (admission rejections vs. deadline
//! sheds vs. cancellations) so the effect of dispatch order — fewer
//! `shed_deadline` at overload — is separable from load shaping.
//!
//! Each load point emits one machine-readable line:
//!
//! ```text
//! BENCH_JSON {"bench":"micro_service_latency","offered_qps":…,…}
//! ```
//!
//! Scale knobs: `HOLISTIC_SCALE` (rows, default 1,000,000) and
//! `HOLISTIC_QUERIES` (arrivals per load point, default 1,000).

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use holistic_bench::{query_count, scale, uniform_column};
use holistic_core::{Database, HolisticConfig, IndexingStrategy, SharedDatabase};
use holistic_server::{serve, Client, QueryReq, RespStatus, Server, ServiceConfig, ServiceCore};
use holistic_storage::ColumnId;
use holistic_workload::{OpenLoopBuilder, UniformRangeGenerator};

const SELECTIVITY: f64 = 0.01;
const LOAD_CLIENTS: usize = 4;
const LOAD_MULTIPLIERS: [f64; 4] = [0.25, 0.5, 1.0, 2.0];
const QUERY_DEADLINE: Duration = Duration::from_millis(100);
const CALIBRATION_WINDOW: usize = 64;

fn service_config(edf_dispatch: bool) -> ServiceConfig {
    let base = ServiceConfig::default();
    ServiceConfig {
        max_batch: 64,
        default_deadline: QUERY_DEADLINE,
        // Four load clients must be able to push the *global* queue past
        // the saturation high watermark, or the degradation ladder never
        // shows.
        per_client_cap: base.global_queue_cap,
        edf_dispatch,
        ..base
    }
}

fn start_server(rows: usize, edf_dispatch: bool) -> (Server, SharedDatabase, ColumnId) {
    let mut db = Database::new(HolisticConfig::default(), IndexingStrategy::Holistic);
    let table = db
        .create_table("t", vec![("v", uniform_column(rows, 7))])
        .expect("create table");
    let column = db.column_id(table, "v").expect("column");
    let engine = db.into_shared();
    let core = ServiceCore::new(Arc::clone(&engine), service_config(edf_dispatch));
    let server = serve(core, "127.0.0.1:0").expect("bind loopback");
    (server, engine, column)
}

/// Closed-loop pipelined burst: `n` queries with a sliding in-flight
/// window (below the per-client admission cap, so nothing is rejected).
/// Returns achieved queries/second. Doubles as index warmup.
fn calibrate(addr: std::net::SocketAddr, column: ColumnId, rows: usize, n: usize) -> f64 {
    use holistic_workload::QueryGenerator;
    let mut generator = UniformRangeGenerator::new(0, 1, rows as i64, SELECTIVITY);
    let mut rng = StdRng::seed_from_u64(11);
    let mut client = Client::connect(addr, 1).expect("connect");
    client
        .set_recv_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");

    let mut send_one = |client: &mut Client, i: usize| {
        let q = generator.next_query(&mut rng);
        client
            .send(&QueryReq {
                request_id: i as u64,
                column,
                lo: q.lo,
                hi: q.hi,
                materialize: false,
                deadline_ms: 30_000,
            })
            .expect("send");
    };
    let recv_one = |client: &mut Client| {
        client
            .recv()
            .expect("recv")
            .expect("server closed during calibration");
    };

    let start = Instant::now();
    let window = CALIBRATION_WINDOW.min(n);
    for i in 0..window {
        send_one(&mut client, i);
    }
    for i in window..n {
        recv_one(&mut client);
        send_one(&mut client, i);
    }
    for _ in 0..window {
        recv_one(&mut client);
    }
    n as f64 / start.elapsed().as_secs_f64()
}

struct LoadPoint {
    offered_qps: f64,
    achieved_qps: f64,
    p50_us: u128,
    p99_us: u128,
    ok: usize,
    shed: usize,
    duration_s: f64,
}

/// One open-loop Poisson run at `rate` queries/second across
/// `LOAD_CLIENTS` connections.
fn run_load(
    addr: std::net::SocketAddr,
    column: ColumnId,
    rows: usize,
    rate: f64,
    arrivals: usize,
    seed: u64,
) -> LoadPoint {
    let schedule = OpenLoopBuilder::new(rate).with_clients(LOAD_CLIENTS).build(
        &mut UniformRangeGenerator::new(0, 1, rows as i64, SELECTIVITY),
        arrivals,
        &mut StdRng::seed_from_u64(seed),
    );

    let start = Instant::now();
    let mut handles = Vec::new();
    for client in 0..LOAD_CLIENTS {
        let mine: Vec<_> = schedule
            .iter()
            .filter(|a| a.client == client)
            .copied()
            .collect();
        handles.push(thread::spawn(move || {
            let sender = Client::connect(addr, 100 + client as u64).expect("connect");
            let mut receiver = sender.try_clone().expect("clone");
            receiver
                .set_recv_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            let mut sender = sender;

            let (meta_tx, meta_rx) = mpsc::channel::<(u64, Instant)>();
            let expected = mine.len();
            let collector = thread::spawn(move || {
                let mut pending = std::collections::HashMap::new();
                let mut ok = Vec::new();
                let mut shed = 0usize;
                for _ in 0..expected {
                    let Ok(Some(resp)) = receiver.recv() else {
                        break;
                    };
                    while let Ok((id, at)) = meta_rx.try_recv() {
                        pending.insert(id, at);
                    }
                    let sent_at = pending[&resp.request_id];
                    if resp.status == RespStatus::Ok {
                        ok.push(sent_at.elapsed());
                    } else {
                        shed += 1;
                    }
                }
                (ok, shed)
            });

            let run_start = Instant::now();
            for (i, arrival) in mine.iter().enumerate() {
                if let Some(wait) = arrival.at.checked_sub(run_start.elapsed()) {
                    thread::sleep(wait);
                }
                let req = QueryReq {
                    request_id: i as u64,
                    column,
                    lo: arrival.query.lo,
                    hi: arrival.query.hi,
                    materialize: false,
                    deadline_ms: 0,
                };
                meta_tx
                    .send((req.request_id, Instant::now()))
                    .expect("collector");
                if sender.send(&req).is_err() {
                    break;
                }
            }
            drop(meta_tx);
            collector.join().expect("collector panicked")
        }));
    }

    let mut latencies: Vec<Duration> = Vec::new();
    let mut shed = 0usize;
    for handle in handles {
        let (ok, s) = handle.join().expect("load client panicked");
        latencies.extend(ok);
        shed += s;
    }
    let elapsed = start.elapsed().as_secs_f64();

    latencies.sort();
    let pct = |p: usize| -> u128 {
        if latencies.is_empty() {
            0
        } else {
            latencies[(latencies.len() - 1) * p / 100].as_micros()
        }
    };
    LoadPoint {
        offered_qps: rate,
        achieved_qps: latencies.len() as f64 / elapsed,
        p50_us: pct(50),
        p99_us: pct(99),
        ok: latencies.len(),
        shed,
        duration_s: elapsed,
    }
}

/// One full calibrate-and-sweep pass against a fresh server, so the two
/// dispatch modes see identical starting state and their shed counters
/// never mix.
fn run_mode(rows: usize, arrivals: usize, edf_dispatch: bool) {
    let mode = if edf_dispatch { "edf" } else { "fifo" };
    let (server, engine, column) = start_server(rows, edf_dispatch);
    let addr = server.addr();

    let capacity = calibrate(addr, column, rows, (arrivals * 2).max(2_000));
    println!("# [{mode}] calibrated capacity: {capacity:.0} q/s (closed-loop pipeline)");
    println!(
        "{:>6} {:>12} {:>14} {:>10} {:>10} {:>8} {:>8}",
        "mode", "offered q/s", "achieved q/s", "p50 µs", "p99 µs", "ok", "shed"
    );

    for (i, mult) in LOAD_MULTIPLIERS.iter().enumerate() {
        let rate = capacity * mult;
        // Each point offers at least ~0.5s of load so queueing actually
        // builds against the deadline — otherwise the overloaded points
        // finish before backpressure has anything to push back on.
        let point_arrivals = arrivals.max((rate * 0.5) as usize).min(50_000);
        let point = run_load(addr, column, rows, rate, point_arrivals, 100 + i as u64);
        println!(
            "{:>6} {:>12.0} {:>14.0} {:>10} {:>10} {:>8} {:>8}",
            mode,
            point.offered_qps,
            point.achieved_qps,
            point.p50_us,
            point.p99_us,
            point.ok,
            point.shed
        );
        let svc = engine.read().metrics().service();
        println!(
            "BENCH_JSON {{\"bench\":\"micro_service_latency\",\"dispatch\":\"{}\",\"offered_qps\":{:.1},\"achieved_qps\":{:.1},\"p50_us\":{},\"p99_us\":{},\"ok\":{},\"shed\":{},\"duration_s\":{:.3},\"load_multiplier\":{},\"deadline_ms\":{},\"admitted_total\":{},\"rejected_global\":{},\"rejected_client\":{},\"shed_deadline\":{},\"cancelled\":{},\"peak_queue_depth\":{}}}",
            mode,
            point.offered_qps,
            point.achieved_qps,
            point.p50_us,
            point.p99_us,
            point.ok,
            point.shed,
            point.duration_s,
            mult,
            QUERY_DEADLINE.as_millis(),
            svc.admitted,
            svc.rejected_global,
            svc.rejected_client,
            svc.shed_deadline,
            svc.cancelled,
            svc.peak_queue_depth,
        );
    }

    // Sheds by cause: admission rejections (global/per-client caps) are
    // load-shaping and should not move with dispatch order; deadline sheds
    // are the column EDF exists to cut.
    let svc = engine.read().metrics().service();
    println!(
        "# [{mode}] totals: admitted={} rejected_global={} rejected_client={} shed_deadline={} cancelled={} degraded={} saturation_entries={} peak_queue_depth={}",
        svc.admitted,
        svc.rejected_global,
        svc.rejected_client,
        svc.shed_deadline,
        svc.cancelled,
        svc.degraded_answers,
        svc.saturation_entries,
        svc.peak_queue_depth,
    );
    server.shutdown();
}

fn main() {
    let rows = scale();
    let arrivals = query_count();
    println!("# micro_service_latency: rows={rows} arrivals/load={arrivals}");
    // FIFO first (the pre-EDF baseline), then EDF, so the shed-by-cause
    // totals line up as a before/after pair.
    run_mode(rows, arrivals, false);
    run_mode(rows, arrivals, true);
}

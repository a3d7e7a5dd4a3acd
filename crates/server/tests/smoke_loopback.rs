//! End-to-end smoke: a real loopback server under an open-loop Poisson
//! load, driven by the workload crate's generator. This is the CI smoke
//! job's target — it runs under `HOLISTIC_PARANOIA=1` and keeps its
//! runtime to well under a second of offered load.
//!
//! Checked end to end:
//!
//! * every request sent on an intact connection receives exactly one
//!   response frame (admission rejections arrive as typed frames too);
//! * every `Ok` answer equals a brute-force scan of the column;
//! * every non-`Ok` status is a typed shed, never `Error`;
//! * the service ledger balances: `admitted = delivered Ok + engine sheds`
//!   and `rejected` equals the typed rejection frames the clients saw;
//! * no latch residue on the driving thread.
//!
//! Beside it ride the tests of the event-driven thread model, which need a
//! real socket: no lost dispatcher wake-up under bursty arrivals, a lone
//! request answered without a timer in its way, buffered reads that keep
//! frame boundaries, and an accept loop that tracks live connections only.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use holistic_core::{
    Database, HolisticConfig, HolisticError, IndexingStrategy, Query, SharedDatabase,
};
use holistic_server::protocol::{read_frame, write_frame, Request};
use holistic_server::{
    serve, Client, QueryReq, RespStatus, ResponseFrame, Server, ServiceConfig, ServiceCore,
};
use holistic_storage::ColumnId;
use holistic_workload::{OpenLoopBuilder, UniformRangeGenerator};

const ROWS: i64 = 5_000;
const ARRIVALS: usize = 240;
const RATE_QPS: f64 = 600.0;
const LOAD_CLIENTS: usize = 3;

fn values() -> Vec<i64> {
    (0..ROWS).map(|i| (i * 7919) % ROWS).collect()
}

fn reference(lo: i64, hi: i64) -> (u64, i128) {
    let mut count = 0u64;
    let mut sum = 0i128;
    for v in values() {
        if v >= lo && v < hi {
            count += 1;
            sum += i128::from(v);
        }
    }
    (count, sum)
}

/// A loopback server over the one test column, latch enforcement on.
fn start(config: ServiceConfig) -> (Server, SharedDatabase, ColumnId) {
    holistic_sync::set_enforcement(true);
    let mut db = Database::new(HolisticConfig::for_testing(), IndexingStrategy::Holistic);
    let table = db.create_table("t", vec![("v", values())]).unwrap();
    let column = db.column_id(table, "v").unwrap();
    let engine = db.into_shared();
    let core = ServiceCore::new(Arc::clone(&engine), config);
    let server = serve(core, "127.0.0.1:0").expect("bind loopback");
    (server, engine, column)
}

fn count_query(request_id: u64, column: ColumnId, lo: i64, hi: i64) -> QueryReq {
    QueryReq {
        request_id,
        column,
        lo,
        hi,
        materialize: false,
        deadline_ms: 0,
    }
}

#[test]
fn poisson_load_over_loopback_answers_everything_exactly_once() {
    let (server, engine, column) = start(ServiceConfig {
        max_batch: 16,
        default_deadline: Duration::from_secs(5),
        ..ServiceConfig::default()
    });
    let addr = server.addr();

    // An open-loop Poisson schedule over the load clients: arrival times
    // are fixed up front; senders pace against the wall clock regardless
    // of response progress.
    let schedule = OpenLoopBuilder::new(RATE_QPS)
        .with_clients(LOAD_CLIENTS)
        .build(
            &mut UniformRangeGenerator::new(0, 0, ROWS, 0.01),
            ARRIVALS,
            &mut StdRng::seed_from_u64(42),
        );

    let mut handles = Vec::new();
    for client in 0..LOAD_CLIENTS {
        let mine: Vec<_> = schedule
            .iter()
            .filter(|a| a.client == client)
            .copied()
            .collect();
        handles.push(thread::spawn(move || {
            let sender = Client::connect(addr, client as u64).expect("connect");
            let mut receiver = sender.try_clone().expect("clone");
            receiver
                .set_recv_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");

            // The sender tells the collector what it sent (and when) over
            // a channel; the collector correlates response frames by id.
            let (meta_tx, meta_rx) = mpsc::channel::<(u64, i64, i64, Instant)>();
            let expected = mine.len();
            let collector = thread::spawn(move || {
                let mut pending = std::collections::HashMap::new();
                let mut seen = std::collections::HashSet::new();
                let mut ok = 0usize;
                let mut shed = 0usize;
                let mut latencies = Vec::new();
                for _ in 0..expected {
                    let resp = receiver
                        .recv()
                        .expect("recv failed")
                        .expect("server closed early");
                    while let Ok((id, lo, hi, at)) = meta_rx.try_recv() {
                        pending.insert(id, (lo, hi, at));
                    }
                    let (lo, hi, sent_at) = pending
                        .get(&resp.request_id)
                        .copied()
                        .expect("response for a request never sent");
                    assert!(
                        seen.insert(resp.request_id),
                        "request {} answered twice",
                        resp.request_id
                    );
                    match resp.status {
                        RespStatus::Ok => {
                            let (count, sum) = reference(lo, hi);
                            assert_eq!(resp.count, count, "wrong count for [{lo}, {hi})");
                            assert_eq!(resp.sum, sum, "wrong sum for [{lo}, {hi})");
                            latencies.push(sent_at.elapsed());
                            ok += 1;
                        }
                        RespStatus::Error => panic!("untyped error: {}", resp.detail),
                        _ => shed += 1,
                    }
                }
                (ok, shed, latencies)
            });

            let mut sender = sender;
            let start = Instant::now();
            for (i, arrival) in mine.iter().enumerate() {
                if let Some(wait) = arrival.at.checked_sub(start.elapsed()) {
                    thread::sleep(wait);
                }
                let req = count_query(i as u64, column, arrival.query.lo, arrival.query.hi);
                meta_tx
                    .send((req.request_id, req.lo, req.hi, Instant::now()))
                    .expect("collector alive");
                sender.send(&req).expect("send");
            }
            drop(meta_tx);
            collector.join().expect("collector panicked")
        }));
    }

    let mut ok = 0usize;
    let mut shed = 0usize;
    let mut latencies: Vec<Duration> = Vec::new();
    for handle in handles {
        let (o, s, l) = handle.join().expect("load client panicked");
        ok += o;
        shed += s;
        latencies.extend(l);
    }

    // Exactly one response per send, across all clients.
    assert_eq!(ok + shed, ARRIVALS, "lost or duplicated responses");
    // This load is far below capacity: the vast majority must succeed.
    assert!(
        ok * 10 >= ARRIVALS * 9,
        "excessive shedding: {ok}/{ARRIVALS} ok"
    );

    // Latency sanity: an Ok answer implies dispatch before its deadline;
    // wire latency stays within the same order of magnitude.
    latencies.sort();
    let p99 = latencies[latencies.len() * 99 / 100];
    assert!(p99 < Duration::from_secs(6), "p99 {p99:?} out of bounds");

    server.shutdown();

    // The service ledger balances against what the clients observed.
    let svc = engine.read().metrics().service();
    assert_eq!(
        svc.admitted as usize,
        ok + shed - (svc.rejected_global + svc.rejected_client) as usize,
        "admitted = responses - typed rejections"
    );
    assert!(
        holistic_sync::held_locks().is_empty(),
        "latch residue on the driving thread"
    );
}

/// The dispatcher parks whenever the queue runs dry and is woken by the
/// next admission. Four clients send small bursts, wait for the answers,
/// and pause 0–3 ms, so between them the queue empties and refills
/// thousands of times; one lost wake-up leaves a request unanswered and a
/// `recv` timing out.
#[test]
fn bursty_clients_never_lose_a_dispatcher_wake_up() {
    const CLIENTS: u64 = 4;
    const REQUESTS_PER_CLIENT: u64 = 512;
    let (server, engine, column) = start(ServiceConfig {
        default_deadline: Duration::from_secs(5),
        ..ServiceConfig::default()
    });
    let addr = server.addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(c);
                let mut client = Client::connect(addr, c).expect("connect");
                client
                    .set_recv_timeout(Some(Duration::from_secs(5)))
                    .expect("timeout");
                let mut answered = std::collections::HashSet::new();
                let mut next = 0u64;
                while next < REQUESTS_PER_CLIENT {
                    let burst = rng.gen_range(1..=8u64).min(REQUESTS_PER_CLIENT - next);
                    for id in next..next + burst {
                        let lo = rng.gen_range(0..ROWS - 100);
                        client
                            .send(&count_query(id, column, lo, lo + 100))
                            .expect("send");
                    }
                    for _ in 0..burst {
                        let resp = client
                            .recv()
                            .expect("an answer within 5 s: a wake-up was lost")
                            .expect("server closed early");
                        assert_eq!(resp.status, RespStatus::Ok, "{}", resp.detail);
                        assert!(
                            (next..next + burst).contains(&resp.request_id)
                                && answered.insert(resp.request_id),
                            "request {} answered twice or never sent",
                            resp.request_id
                        );
                    }
                    next += burst;
                    thread::sleep(Duration::from_micros(rng.gen_range(0..3_000)));
                }
                client
            })
        })
        .collect();
    let mut clients: Vec<Client> = handles
        .into_iter()
        .map(|h| h.join().expect("burst client panicked"))
        .collect();

    server.shutdown();
    // Exactly once: nothing further was queued behind the last answer.
    for client in &mut clients {
        assert!(matches!(client.recv(), Ok(None)), "a stray extra frame");
    }
    let svc = engine.read().metrics().service();
    assert_eq!(svc.admitted, CLIENTS * REQUESTS_PER_CLIENT);
    assert!(
        svc.dispatched_batches >= REQUESTS_PER_CLIENT / 8,
        "the dispatcher ran per burst, not once"
    );
    assert!(
        holistic_sync::held_locks().is_empty(),
        "latch residue on the driving thread"
    );
}

/// With the formation timer gone, a lone request on an idle default
/// service costs its work and two wake-ups — about 0.1 ms here. The timer
/// made 2 ms the floor; 1 ms tells the two apart with room for a busy box.
#[test]
fn a_lone_request_is_answered_without_waiting_for_a_timer() {
    let (server, _engine, column) = start(ServiceConfig::default());
    let mut client = Client::connect(server.addr(), 1).expect("connect");
    client
        .set_recv_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut round_trip = |id: u64| {
        let sent = Instant::now();
        client
            .send(&count_query(id, column, 1_000, 1_100))
            .expect("send");
        let resp = client.recv().expect("recv").expect("server closed early");
        assert_eq!((resp.request_id, resp.status), (id, RespStatus::Ok));
        sent.elapsed()
    };
    // Warm the column: the first touches crack it.
    for id in 0..8 {
        round_trip(id);
    }
    let mut latencies: Vec<Duration> = (8..208).map(&mut round_trip).collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "median round trip {median:?}: something waits on a clock again"
    );
    server.shutdown();
}

/// The reader parses out of a buffer, so one segment may carry several
/// frames and end inside one. Two whole queries and half of a third, then
/// end-of-stream: the whole ones are answered (or shed typed — the torn
/// tail cancels the session under them), the half one is not, and the
/// session is gone.
#[test]
fn two_frames_and_a_torn_third_in_one_write_get_exactly_two_answers() {
    const CLIENT: u64 = 77;
    let (server, _engine, column) = start(ServiceConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write_frame(&mut stream, &Request::Hello { client: CLIENT }.encode()).expect("hello");

    let mut wire = Vec::new();
    for id in 0..3 {
        write_frame(
            &mut wire,
            &Request::Query(count_query(id, column, 0, 50)).encode(),
        )
        .expect("encode");
    }
    let third = wire.len() / 3;
    stream
        .write_all(&wire[..2 * third + third / 2])
        .expect("one write");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut ids = Vec::new();
    while let Some(frame) = read_frame(&mut stream).expect("intact frames, then a clean close") {
        let resp = ResponseFrame::decode(&frame).expect("decodes");
        assert!(
            resp.status == RespStatus::Ok || resp.status == RespStatus::Cancelled,
            "untyped outcome: {resp:?}"
        );
        ids.push(resp.request_id);
    }
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1]);
    // The writer closes only after the session was deregistered.
    let gone = server
        .core()
        .admit(CLIENT, 9, Query::range(column, 0, 50), None);
    assert!(
        matches!(gone, Err(HolisticError::Unsupported(_))),
        "{gone:?}"
    );
    server.shutdown();
    assert!(holistic_sync::held_locks().is_empty());
}

/// The accept loop joins finished connection threads as it accepts, so the
/// handles it holds follow the connections that are open — and shutdown,
/// which has to wake a blocked `accept` and an idle reader, stays prompt.
#[test]
fn accept_loop_tracks_live_connections_only_and_shuts_down_promptly() {
    let (server, _engine, column) = start(ServiceConfig::default());
    let addr = server.addr();
    let session = |client: u64| {
        let mut c = Client::connect(addr, client).expect("connect");
        c.set_recv_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        c.send(&count_query(0, column, 0, 50)).expect("send");
        let resp = c.recv().expect("recv").expect("server closed early");
        assert_eq!(resp.status, RespStatus::Ok);
        c
    };
    let idle = session(1);
    for i in 0..200 {
        drop(session(100 + i));
    }
    // A connection's thread outlives its socket by a teardown; each further
    // session reaps what has finished since. Two stay: `idle` and the probe.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let probe = session(1_000);
        if server.tracked_connections() <= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{} handles tracked for 2 live connections",
            server.tracked_connections()
        );
        drop(probe);
    }

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown took {:?} with an idle client connected",
        started.elapsed()
    );
    drop(idle);
}

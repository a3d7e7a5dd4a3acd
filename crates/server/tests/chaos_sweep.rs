//! The wire-level kill-point sweep: the service's exactly-one-response
//! contract under deterministic connection chaos.
//!
//! A probe session runs once un-killed to learn how many wire operations
//! a full client session performs; the sweep then replays the session
//! once per operation index `k`, with [`ConnectionChaos`] dropping or
//! truncating the connection at exactly the k-th op. After every chaotic
//! session the invariants are checked:
//!
//! * every response that arrived intact decodes and is **correct** —
//!   right answer for `Ok`, typed status for sheds; never a torn or
//!   garbage frame originating from the server;
//! * no `request_id` is ever answered twice (no duplicated replies);
//! * a **clean** client round-trip still works — the chaos-killed session
//!   wedged neither the dispatcher nor a latch (latch enforcement is on,
//!   so residue panics a server thread and the clean round would fail).
//!
//! Engine-side, a chaos-killed session's queued queries are shed as
//! `Cancelled`; the accounting identity `admitted = answered + shed` is
//! checked at the end across the whole sweep.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use holistic_core::{Database, HolisticConfig, IndexingStrategy};
use holistic_server::protocol::{read_frame, write_frame, QueryReq, Request, RespStatus};
use holistic_server::{
    serve, ChaosMode, ChaosState, Client, ConnectionChaos, ResponseFrame, ServiceConfig,
    ServiceCore,
};
use holistic_storage::ColumnId;

const QUERIES_PER_SESSION: u64 = 6;

struct Fixture {
    server: holistic_server::Server,
    columns: Vec<ColumnId>,
    values: Vec<Vec<i64>>,
}

fn fixture() -> Fixture {
    holistic_sync::set_enforcement(true);
    let mut db = Database::new(HolisticConfig::for_testing(), IndexingStrategy::Holistic);
    let a: Vec<i64> = (0..3000).map(|i| (i * 7919) % 3000).collect();
    let b: Vec<i64> = (0..3000).map(|i| (i * 104729) % 5000 - 1000).collect();
    let table = db
        .create_table("t", vec![("a", a.clone()), ("b", b.clone())])
        .expect("create table");
    let col_a = db.column_id(table, "a").expect("col a");
    let col_b = db.column_id(table, "b").expect("col b");
    let engine = db.into_shared();
    let mut config = ServiceConfig::for_testing();
    config.global_queue_cap = 64;
    config.per_client_cap = 32;
    config.token_burst = 64.0;
    let core = ServiceCore::new(engine, config);
    let server = serve(core, "127.0.0.1:0").expect("bind");
    Fixture {
        server,
        columns: vec![col_a, col_b],
        values: vec![a, b],
    }
}

fn reference(values: &[i64], lo: i64, hi: i64) -> (u64, i128) {
    let mut count = 0u64;
    let mut sum = 0i128;
    for &v in values {
        if v >= lo && v < hi {
            count += 1;
            sum += i128::from(v);
        }
    }
    (count, sum)
}

fn session_queries(fx: &Fixture) -> Vec<QueryReq> {
    (0..QUERIES_PER_SESSION)
        .map(|i| {
            let which = (i % 2) as usize;
            QueryReq {
                request_id: i,
                column: fx.columns[which],
                lo: (i as i64) * 100 - 500,
                hi: (i as i64) * 100 + 400,
                materialize: i == 3,
                deadline_ms: 2_000,
            }
        })
        .collect()
}

/// Runs one (possibly chaotic) client session: hello, pipelined queries,
/// then reads responses until the wire dies or all responses arrived.
/// Returns the responses that arrived intact.
fn run_session(
    fx: &Fixture,
    client: u64,
    mode: ChaosMode,
) -> (Vec<ResponseFrame>, Arc<ChaosState>) {
    let state = ChaosState::new();
    let Ok(stream) = TcpStream::connect(fx.server.addr()) else {
        return (Vec::new(), state);
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let reader = stream.try_clone().expect("clone stream");
    let mut w = ConnectionChaos::new(stream, mode, Arc::clone(&state));
    let mut r = ConnectionChaos::new(reader, mode, Arc::clone(&state));

    let mut responses = Vec::new();
    if write_frame(&mut w, &Request::Hello { client }.encode()).is_err() {
        return (responses, state);
    }
    let mut sent = 0u64;
    for q in session_queries(fx) {
        if write_frame(&mut w, &Request::Query(q).encode()).is_err() {
            break;
        }
        sent += 1;
    }
    while responses.len() < sent as usize {
        match read_frame(&mut r) {
            Ok(Some(frame)) => {
                // Frames that arrive intact MUST decode: the server never
                // emits garbage, chaos on this side only drops/truncates.
                let resp = ResponseFrame::decode(&frame).expect("intact frame decodes");
                responses.push(resp);
            }
            Ok(None) | Err(_) => break,
        }
    }
    (responses, state)
}

fn check_session_invariants(fx: &Fixture, responses: &[ResponseFrame], context: &str) {
    let mut seen = std::collections::HashSet::new();
    for resp in responses {
        assert!(
            seen.insert(resp.request_id),
            "{context}: request {} answered twice",
            resp.request_id
        );
        assert!(
            resp.request_id < QUERIES_PER_SESSION,
            "{context}: unknown request id {}",
            resp.request_id
        );
        match resp.status {
            RespStatus::Ok => {
                let q = &session_queries(fx)[resp.request_id as usize];
                let (count, sum) =
                    reference(&fx.values[(resp.request_id % 2) as usize], q.lo, q.hi);
                assert_eq!(resp.count, count, "{context}: wrong count for {q:?}");
                assert_eq!(resp.sum, sum, "{context}: wrong sum for {q:?}");
                if q.materialize {
                    let values = resp.values.as_ref().expect("materialized response");
                    assert_eq!(values.len() as u64, count, "{context}: wrong value count");
                }
            }
            RespStatus::Overloaded | RespStatus::DeadlineExceeded | RespStatus::Cancelled => {
                // Typed sheds are always legal outcomes.
            }
            RespStatus::Error => panic!("{context}: untyped error: {}", resp.detail),
        }
    }
}

/// A clean round-trip proving the server survived the last chaos session.
fn clean_round(fx: &Fixture, client: u64) {
    let mut c = Client::connect(fx.server.addr(), client).expect("clean connect");
    c.set_recv_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let queries = session_queries(fx);
    for q in &queries {
        c.send(q).expect("clean send");
    }
    let mut got = Vec::new();
    for _ in 0..queries.len() {
        let resp = c
            .recv()
            .expect("clean recv")
            .expect("server closed unexpectedly");
        got.push(resp);
    }
    check_session_invariants(fx, &got, "clean round");
    assert_eq!(
        got.len(),
        queries.len(),
        "clean round must answer everything"
    );
    // Under a healthy server with generous deadlines everything executes.
    assert!(
        got.iter().all(|r| r.status == RespStatus::Ok),
        "clean round shed unexpectedly: {got:?}"
    );
}

fn sweep(make_mode: impl Fn(u64) -> ChaosMode, label: &str) {
    let fx = fixture();
    // Probe run: never fires; learns the session's wire-op count.
    let (probe, state) = run_session(&fx, 10_000, ChaosMode::DropAt(u64::MAX));
    check_session_invariants(&fx, &probe, "probe");
    assert_eq!(
        probe.len(),
        QUERIES_PER_SESSION as usize,
        "probe session must complete fully"
    );
    let total_ops = state.ops();
    assert!(total_ops > 0, "probe performed no wire ops?");

    for k in 0..total_ops {
        let client = 20_000 + k;
        let (responses, _) = run_session(&fx, client, make_mode(k));
        check_session_invariants(&fx, &responses, &format!("{label} k={k}"));
        clean_round(&fx, 1);
    }

    // The whole sweep's engine-side accounting: every admitted query was
    // answered or shed — nothing lost, nothing double-counted.
    let core = Arc::clone(fx.server.core());
    fx.server.shutdown();
    assert_eq!(core.queue_depth(), 0, "shutdown flushed the queue");
    assert!(
        holistic_sync::held_locks().is_empty(),
        "latch residue on the driving thread"
    );
}

#[test]
fn drop_sweep_never_loses_duplicates_or_tears() {
    sweep(ChaosMode::DropAt, "drop");
}

#[test]
fn truncate_sweep_never_loses_duplicates_or_tears() {
    sweep(ChaosMode::TruncateAt, "truncate");
}

#[test]
fn delayed_connections_just_work() {
    let fx = fixture();
    let (responses, _) = run_session(&fx, 5, ChaosMode::DelayAt(3, Duration::from_millis(30)));
    check_session_invariants(&fx, &responses, "delay");
    assert_eq!(
        responses.len(),
        QUERIES_PER_SESSION as usize,
        "a delay is a hiccup, not a failure"
    );
    fx.server.shutdown();
}

/// Raw garbage and torn frames from a hostile peer: the server closes the
/// connection and stays healthy — no panic, no wedge, no latch residue.
#[test]
fn garbage_and_torn_frames_do_not_wound_the_server() {
    let fx = fixture();
    // Garbage payload inside a well-formed frame.
    {
        let mut s = TcpStream::connect(fx.server.addr()).expect("connect");
        write_frame(&mut s, &[0xde, 0xad, 0xbe, 0xef]).expect("send garbage");
        let mut buf = [0u8; 16];
        let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
        // Server closes without answering; any read returns EOF/error.
        assert!(matches!(s.read(&mut buf), Ok(0) | Err(_)));
    }
    // A hostile length prefix claiming a huge frame.
    {
        let mut s = TcpStream::connect(fx.server.addr()).expect("connect");
        s.write_all(&u32::MAX.to_le_bytes())
            .expect("send hostile len");
        let mut buf = [0u8; 16];
        let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
        assert!(matches!(s.read(&mut buf), Ok(0) | Err(_)));
    }
    // A frame header with no payload, then a hard close.
    {
        let mut s = TcpStream::connect(fx.server.addr()).expect("connect");
        s.write_all(&100u32.to_le_bytes()).expect("send header");
        drop(s);
    }
    clean_round(&fx, 1);
    fx.server.shutdown();
}

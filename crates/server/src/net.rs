//! The TCP shell around [`ServiceCore`]: accept loop, per-connection
//! reader, per-connection writer, and the dispatcher thread.
//!
//! Thread model (all plain `std::thread`, no runtime dependency). No
//! thread polls for work; each blocks on what feeds it:
//!
//! * **accept** — blocks in `accept`; spawns one reader per connection,
//!   joins the finished ones on every accept (the tracked handles follow
//!   the live connections, not the connections ever made) and the rest on
//!   shutdown, which wakes it by connecting to the server's own address.
//! * **reader** (per connection) — expects a `Hello` frame, registers the
//!   session, then decodes `Query` frames and calls
//!   [`ServiceCore::admit`]; admission rejections are routed back through
//!   the session's response channel so the writer stays the connection's
//!   only socket writer (no interleaved frames, ever). It reads through a
//!   per-connection buffer and parses every complete frame already
//!   received before it blocks again, so a pipelined burst costs one
//!   `read` and is admitted together. Reader exit — clean EOF, torn frame,
//!   chaos — deregisters the session, which cooperatively cancels its
//!   queued queries. Its read timeout (set once) is only how it notices
//!   shutdown.
//! * **writer** (per connection) — blocks on the session's response
//!   channel and writes whatever responses are ready in one `write`. Exits
//!   when every sender is gone: the registry entry (dropped at disconnect)
//!   and the queued queries (drained by the dispatcher).
//! * **dispatcher** — [`ServiceCore::pump`] while anything is queued,
//!   parked otherwise; the admission that makes the queue non-empty
//!   unparks it. On shutdown it outlives the connections, so every queued
//!   query is answered before it exits.
//!
//! A connection that dies mid-frame is indistinguishable from hostile
//! input; both paths end at "close the connection, cancel its queue" and
//! never panic a thread or leak a latch.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use holistic_core::Query;

use crate::core::{ServiceCore, ServiceResponse};
use crate::protocol::{first_frame, put_frame, read_frame, write_frame, Request, ResponseFrame};

/// How often an idle reader wakes up to check for shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// A peer that stalls mid-frame longer than this is torn down.
const MID_FRAME_TIMEOUT: Duration = Duration::from_secs(5);
/// Bytes one `read` may take from the socket.
const READ_CHUNK: usize = 4096;
/// The writer stops gathering ready responses into one write past this.
const WRITE_GATHER: usize = 1 << 16;

/// A running TCP service; dropping it without [`Server::shutdown`] leaks
/// the threads, so tests and binaries should always shut down.
pub struct Server {
    core: Arc<ServiceCore>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stop_dispatch: Arc<AtomicBool>,
    tracked_connections: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
    dispatch_thread: Option<JoinHandle<()>>,
}

/// Binds `bind` (e.g. `"127.0.0.1:0"`) and serves `core` on it.
pub fn serve(core: Arc<ServiceCore>, bind: &str) -> io::Result<Server> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_dispatch = Arc::new(AtomicBool::new(false));
    let tracked_connections = Arc::new(AtomicUsize::new(0));

    // If the engine came up through `Database::recover`, say what the
    // degradation ladder actually delivered — the operator's only
    // chance to notice cold/sampled columns before the workload does.
    if let Some(outcome) = core.engine().read().metrics().recovery() {
        eprintln!(
            "holistic-server {addr}: recovered engine \
             (snapshot={:?}, wal_records={}, wal_bytes_dropped={}, \
             cold_columns={}, crackers_reborn={}, sampled_columns={}, \
             learned_dropped={})",
            outcome.snapshot_generation,
            outcome.wal_records_replayed,
            outcome.wal_bytes_dropped,
            outcome.cold_columns.len(),
            outcome.crackers_reborn.len(),
            outcome.sampled_columns.len(),
            outcome.learned_state_dropped,
        );
    }

    let dispatch_thread = {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop_dispatch);
        std::thread::spawn(move || core.run_dispatcher(&stop))
    };

    let accept_thread = {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        let tracked = Arc::clone(&tracked_connections);
        std::thread::spawn(move || {
            let mut connections: Vec<JoinHandle<()>> = Vec::new();
            loop {
                let accepted = listener.accept();
                // Shutdown's wake-up connection lands here too.
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok((stream, _)) = accepted else {
                    break;
                };
                for finished in connections.extract_if(.., |c| c.is_finished()) {
                    let _ = finished.join();
                }
                // Stored before the spawn, so whoever hears from the new
                // connection reads a count that includes it.
                tracked.store(connections.len() + 1, Ordering::Relaxed);
                let core = Arc::clone(&core);
                let stop = Arc::clone(&stop);
                connections.push(std::thread::spawn(move || {
                    let _ = run_connection(&core, stream, &stop);
                }));
            }
            for conn in connections {
                let _ = conn.join();
            }
        })
    };

    Ok(Server {
        core,
        addr,
        stop,
        stop_dispatch,
        tracked_connections,
        accept_thread: Some(accept_thread),
        dispatch_thread: Some(dispatch_thread),
    })
}

impl Server {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service core behind this server.
    #[must_use]
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// Connection threads the accept loop holds a handle to: the live
    /// connections plus any that finished since the last accept.
    #[must_use]
    pub fn tracked_connections(&self) -> usize {
        self.tracked_connections.load(Ordering::Relaxed)
    }

    /// Stops accepting, drains every connection, flushes the queue, and
    /// joins all threads. Order matters: the dispatcher must outlive the
    /// connections so their writers can drain queued responses.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks in `accept`: a connection of our own
        // wakes it (a failed connect means the listener is already gone).
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.stop_dispatch.store(true, Ordering::Release);
        if let Some(t) = self.dispatch_thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

/// A connection's receive side: the socket and the bytes read from it
/// that are not parsed yet.
struct FrameReader {
    stream: TcpStream,
    chunk: [u8; READ_CHUNK],
    /// Received bytes; `buf[head..]` is still to be parsed.
    buf: Vec<u8>,
    head: usize,
    /// When the part-received frame in `buf` last stopped growing.
    stalled_since: Option<Instant>,
}

impl FrameReader {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        Ok(FrameReader {
            stream,
            chunk: [0; READ_CHUNK],
            buf: Vec::new(),
            head: 0,
            stalled_since: None,
        })
    }

    /// The next frame's payload, from the buffer when a whole frame is
    /// already there. `Ok(None)` is shutdown or a clean close between
    /// frames. The socket wakes every [`POLL_INTERVAL`] to check `stop`; a
    /// frame that has started arriving survives those wake-ups and is
    /// given [`MID_FRAME_TIMEOUT`] between bytes, so a slow-but-live peer
    /// never has its frame torn by the poll.
    fn next_frame(&mut self, stop: &AtomicBool) -> io::Result<Option<&[u8]>> {
        loop {
            if stop.load(Ordering::Acquire) {
                return Ok(None);
            }
            if let Some(len) = first_frame(&self.buf[self.head..])?.map(<[u8]>::len) {
                let start = self.head + 4;
                self.head = start + len;
                return Ok(Some(&self.buf[start..self.head]));
            }
            self.buf.drain(..self.head);
            self.head = 0;
            match self.stream.read(&mut self.chunk) {
                Ok(0) if self.buf.is_empty() => return Ok(None),
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&self.chunk[..n]);
                    self.stalled_since = None;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if !self.buf.is_empty() {
                        let since = *self.stalled_since.get_or_insert_with(Instant::now);
                        if since.elapsed() >= MID_FRAME_TIMEOUT {
                            return Err(e);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn run_connection(core: &Arc<ServiceCore>, stream: TcpStream, stop: &AtomicBool) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    let mut frames = FrameReader::new(stream)?;
    // The first frame must be a Hello; anything else is a protocol
    // violation and closes the connection before any state exists.
    let Some(frame) = frames.next_frame(stop)? else {
        return Ok(());
    };
    let Ok(Request::Hello { client }) = Request::decode(frame) else {
        return Ok(());
    };
    let (session, responses) = core.connect_session(client);
    let writer = {
        let stream = frames.stream.try_clone()?;
        std::thread::spawn(move || writer_loop(stream, responses))
    };
    let result = reader_loop(core, client, &mut frames, stop);
    // Deregister *this* session: drops the registry's channel sender and
    // cancels queued queries; the writer exits once the dispatcher drains
    // them. Identity-aware so a same-id reconnect racing our teardown is
    // never cancelled by mistake.
    core.disconnect_session(&session);
    // The session holds a response Sender; drop it BEFORE joining the
    // writer, which only exits once every sender is gone.
    drop(session);
    let _ = writer.join();
    result
}

fn reader_loop(
    core: &Arc<ServiceCore>,
    client: u64,
    frames: &mut FrameReader,
    stop: &AtomicBool,
) -> io::Result<()> {
    loop {
        let Some(frame) = frames.next_frame(stop)? else {
            return Ok(());
        };
        let Ok(Request::Query(req)) = Request::decode(frame) else {
            // Garbage or an out-of-place Hello: close, don't guess.
            return Ok(());
        };
        let deadline =
            (req.deadline_ms > 0).then(|| Duration::from_millis(u64::from(req.deadline_ms)));
        let query = if req.materialize {
            Query::range_materialized(req.column, req.lo, req.hi)
        } else {
            Query::range(req.column, req.lo, req.hi)
        };
        if let Err(error) = core.admit(client, req.request_id, query, deadline) {
            core.respond_error(client, req.request_id, error);
        }
    }
}

fn writer_loop(mut stream: TcpStream, responses: Receiver<ServiceResponse>) {
    let _ = stream.set_write_timeout(Some(MID_FRAME_TIMEOUT));
    // Keep draining until every sender is dropped even if the socket
    // dies, so queued responses never back up behind a dead wire.
    let mut wire_alive = true;
    let mut wire = Vec::new();
    while let Ok(first) = responses.recv() {
        if !wire_alive {
            continue;
        }
        // Whatever else is ready by now leaves in the same write.
        let mut next = Some(first);
        while let Some(response) = next.take() {
            let frame = ResponseFrame::from_result(response.request_id, &response.result);
            if put_frame(&mut wire, &frame.encode()).is_err() {
                wire_alive = false;
                break;
            }
            if wire.len() < WRITE_GATHER {
                next = responses.try_recv().ok();
            }
        }
        wire_alive &= stream.write_all(&wire).is_ok();
        wire.clear();
        wire.shrink_to(WRITE_GATHER);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// A minimal blocking client for tests, benches and examples: `Hello` on
/// connect, pipelined queries, frame-at-a-time responses.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects and introduces itself as `client`.
    pub fn connect(addr: SocketAddr, client: u64) -> io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        write_frame(&mut stream, &Request::Hello { client }.encode())?;
        Ok(Client { stream })
    }

    /// Sends one query; the response arrives via [`Client::recv`].
    pub fn send(&mut self, req: &crate::protocol::QueryReq) -> io::Result<()> {
        write_frame(&mut self.stream, &Request::Query(*req).encode())
    }

    /// Receives the next response frame (`Ok(None)` = server closed).
    pub fn recv(&mut self) -> io::Result<Option<ResponseFrame>> {
        let Some(frame) = read_frame(&mut self.stream)? else {
            return Ok(None);
        };
        ResponseFrame::decode(&frame)
            .map(Some)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))
    }

    /// Bounds how long [`Client::recv`] blocks.
    pub fn set_recv_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// A duplicate handle onto the same connection (reader/writer split).
    pub fn try_clone(&self) -> io::Result<Client> {
        Ok(Client {
            stream: self.stream.try_clone()?,
        })
    }
}

// Writer access for wrapping the raw stream (chaos tests).
impl Read for Client {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for Client {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

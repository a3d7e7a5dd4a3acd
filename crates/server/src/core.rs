//! The socket-independent service core: admission control, batch
//! formation, deadlines, fairness, and saturation mode.
//!
//! [`ServiceCore`] is the whole service except the wire. Reader threads
//! (or tests, with a manual [`ServiceClock`]) call [`ServiceCore::admit`];
//! a dispatcher calls [`ServiceCore::pump`] whenever something is queued
//! and parks when nothing is. Everything between
//! — bounded queues, per-client token buckets, column-bucketed batch
//! formation, deadline enforcement, cooperative cancellation, saturation
//! mode — lives here, so the overload machinery is testable without a
//! single socket and the TCP layer in [`crate::net`] stays a thin shell.
//!
//! # Admission state machine
//!
//! A query submitted by client *c* travels:
//!
//! ```text
//! admit(c, q) ──deadline already expired──▶ Err(DeadlineExceeded)
//!    │
//!    ├─ client unknown ────────────────────▶ Err(Unsupported)
//!    ├─ client queue ≥ cap, or no token ───▶ Err(Overloaded("client c"))
//!    ├─ global queue ≥ cap ────────────────▶ Err(Overloaded("global"))
//!    └─ enqueued into q.column's bucket ───▶ Ok(())        [response later]
//!
//! pump() — whenever anything is queued — drains one bucket (≤ max_batch
//!          entries; a bucket ≥ max_batch first, otherwise the bucket
//!          holding the oldest arrival) and dispatches it:
//!    cancelled client ─────────────────────▶ respond Err(Cancelled)
//!    deadline expired ─────────────────────▶ respond Err(DeadlineExceeded)
//!    saturated & zero-read answer exists ──▶ respond Ok (degraded path)
//!    otherwise ────────────────────────────▶ execute_batch_guarded
//! ```
//!
//! Every **admitted** query produces exactly one response on its
//! session's channel; every rejection is a typed error returned from
//! `admit` itself. Nothing is ever silently dropped.
//!
//! There is no formation timer: a batch is whatever was admitted while
//! the previous batch ran (group commit), so batch size follows load — 1
//! for a lone query, up to `max_batch` under backlog — and an idle
//! service answers at once. The admission that makes the queue non-empty
//! unparks the dispatcher ([`std::thread::park`]'s token: an unpark that
//! lands before the park makes the park return at once, so no wake-up is
//! lost); the dispatcher parks only after a `pump` found the queue empty
//! under its lock.
//!
//! # Latch discipline
//!
//! The service locks sit at levels `ServiceRegistry = 2`,
//! `ServiceSession = 4` and `ServiceQueue = 6` — *above* the engine lock
//! (level 0) and *below* every engine-internal latch. Both entry points
//! acquire the engine read lock first (level 0, so 0 → 2 → 4 → 6 is
//! strictly increasing), and the dispatcher drops the queue guard before
//! touching session state or executing the batch, so no service lock is
//! ever held across engine work. The hierarchy is machine-checked in
//! debug/paranoia builds by `holistic-sync`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use holistic_core::{GuardedQuery, HolisticError, Query, QueryResult, SharedDatabase};
use holistic_storage::ColumnId;
use holistic_sync::{LockLevel, OrderedMutex, OrderedRwLock};

/// Tunables of the service layer. All bounds are hard: the service sheds
/// (typed errors) rather than queue without limit.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Most queries one dispatched batch carries. The dispatcher takes a
    /// batch whenever anything is queued, so a batch is what arrived while
    /// the previous one ran; a bucket that has reached this size goes
    /// first.
    pub max_batch: usize,
    /// Hard bound on the total number of queued queries.
    pub global_queue_cap: usize,
    /// Hard bound on one client's share of the queue.
    pub per_client_cap: usize,
    /// Deadline applied to queries that do not carry their own;
    /// `Duration::ZERO` disables the default.
    pub default_deadline: Duration,
    /// Token-bucket refill rate per client, in queries per second.
    pub tokens_per_sec: f64,
    /// Token-bucket capacity (burst allowance) per client.
    pub token_burst: f64,
    /// Queue depth at which the service enters saturation mode.
    pub saturation_high: usize,
    /// Queue depth at which it leaves saturation mode (must be lower).
    pub saturation_low: usize,
    /// Earliest-deadline-first dispatch: order each admission bucket by
    /// deadline (ties and deadline-less queries fall back to arrival
    /// order) before draining a batch, so under backlog the queries
    /// closest to expiry execute first instead of shedding at dispatch.
    /// With uniform deadlines (every query on the configured default)
    /// EDF degenerates to FIFO, so enabling it never hurts; disable to
    /// measure strict arrival-order dispatch.
    pub edf_dispatch: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_batch: 64,
            global_queue_cap: 4096,
            per_client_cap: 512,
            default_deadline: Duration::from_millis(100),
            tokens_per_sec: 50_000.0,
            token_burst: 1024.0,
            saturation_high: 3072,
            saturation_low: 1024,
            edf_dispatch: true,
        }
    }
}

impl ServiceConfig {
    /// Small bounds that make every admission path reachable in tests.
    #[must_use]
    pub fn for_testing() -> Self {
        ServiceConfig {
            max_batch: 4,
            global_queue_cap: 16,
            per_client_cap: 8,
            default_deadline: Duration::from_millis(100),
            tokens_per_sec: 1000.0,
            token_burst: 32.0,
            saturation_high: 12,
            saturation_low: 4,
            edf_dispatch: true,
        }
    }

    fn normalized(mut self) -> Self {
        self.max_batch = self.max_batch.max(1);
        self.global_queue_cap = self.global_queue_cap.max(1);
        self.per_client_cap = self.per_client_cap.max(1);
        self.saturation_high = self.saturation_high.clamp(1, self.global_queue_cap);
        self.saturation_low = self
            .saturation_low
            .min(self.saturation_high.saturating_sub(1));
        self
    }
}

/// The service's notion of time. The real clock is `Instant::now()`; the
/// manual clock is a fixed origin plus an explicitly advanced offset, so
/// deadline and batch-formation behavior is deterministic in tests.
#[derive(Debug)]
pub struct ServiceClock {
    origin: Instant,
    offset_micros: AtomicU64,
    manual: bool,
}

impl ServiceClock {
    /// Wall-clock time.
    #[must_use]
    pub fn real() -> Arc<Self> {
        Arc::new(ServiceClock {
            origin: Instant::now(),
            offset_micros: AtomicU64::new(0),
            manual: false,
        })
    }

    /// A clock that only moves when [`ServiceClock::advance`] is called.
    #[must_use]
    pub fn manual() -> Arc<Self> {
        Arc::new(ServiceClock {
            origin: Instant::now(),
            offset_micros: AtomicU64::new(0),
            manual: true,
        })
    }

    /// The current service time.
    #[must_use]
    pub fn now(&self) -> Instant {
        if self.manual {
            self.origin + Duration::from_micros(self.offset_micros.load(Ordering::Acquire))
        } else {
            Instant::now()
        }
    }

    /// Advances a manual clock (no effect on the real clock).
    pub fn advance(&self, by: Duration) {
        self.offset_micros
            .fetch_add(by.as_micros() as u64, Ordering::AcqRel);
    }
}

/// One response, delivered on the owning session's channel. Exactly one
/// of these exists per admitted query.
#[derive(Debug)]
pub struct ServiceResponse {
    /// The client's correlation id for the query.
    pub request_id: u64,
    /// The result, or the typed shed/error.
    pub result: Result<QueryResult, HolisticError>,
}

/// Per-client admission state.
struct SessionState {
    /// Queries this client currently has in the global queue.
    queued: usize,
    /// Token-bucket level; admission costs one token.
    tokens: f64,
    /// When the bucket was last refilled.
    refilled_at: Instant,
}

impl SessionState {
    fn refill(&mut self, now: Instant, config: &ServiceConfig) {
        let dt = now
            .saturating_duration_since(self.refilled_at)
            .as_secs_f64();
        self.tokens = (self.tokens + dt * config.tokens_per_sec).min(config.token_burst);
        self.refilled_at = now;
    }
}

/// One connected client: identity, cancellation flag, response channel,
/// and fairness state.
pub struct Session {
    client: u64,
    cancelled: Arc<AtomicBool>,
    sink: Sender<ServiceResponse>,
    state: OrderedMutex<SessionState>,
}

impl Session {
    /// The client id this session belongs to.
    #[must_use]
    pub fn client(&self) -> u64 {
        self.client
    }

    /// The cooperative cancellation flag shared with this session's
    /// queued queries; set when the connection drops.
    #[must_use]
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancelled)
    }
}

/// One admitted query waiting in the global queue.
struct Pending {
    session: Arc<Session>,
    request_id: u64,
    query: Query,
    deadline: Option<Instant>,
    enqueued_at: Instant,
}

impl Pending {
    /// Earliest-deadline-first order; deadline-less queries (key starts
    /// with `true`) sort after every dated one, ties keep arrival order.
    fn edf_key(&self) -> (bool, Instant, Instant) {
        (
            self.deadline.is_none(),
            self.deadline.unwrap_or(self.enqueued_at),
            self.enqueued_at,
        )
    }
}

/// One column's queued queries.
struct Bucket {
    entries: VecDeque<Pending>,
    /// Earliest `enqueued_at` among `entries`, kept here so the dispatcher
    /// picks a bucket without scanning entries under the queue lock.
    oldest: Instant,
    /// `entries` is in arrival order and its EDF keys never decrease (every
    /// query on the default deadline, say): the front is the oldest entry
    /// and an EDF sort would move nothing.
    in_edf_order: bool,
}

impl Bucket {
    fn push(&mut self, pending: Pending) {
        if let Some(last) = self.entries.back() {
            self.in_edf_order &= last.edf_key() <= pending.edf_key();
        }
        self.entries.push_back(pending);
    }

    /// Removes up to `max` entries — the earliest deadlines when `edf`,
    /// the earliest arrivals otherwise — and re-derives `oldest` over
    /// what is left.
    fn take(&mut self, max: usize, edf: bool) -> Vec<Pending> {
        if self.entries.len() <= max {
            return self.entries.drain(..).collect();
        }
        // A bucket still in arrival order keeps its oldest entry in front.
        // One that had to be sorted does not, then or later (the flag stays
        // down until the bucket empties): scan what the drain left.
        let reorder = edf && !self.in_edf_order;
        if reorder {
            self.entries.make_contiguous().sort_by_key(Pending::edf_key);
        }
        let taken = self.entries.drain(..max).collect();
        let mut left = self.entries.iter().map(|p| p.enqueued_at);
        let oldest = if reorder { left.min() } else { left.next() };
        self.oldest = oldest.unwrap_or(self.oldest);
        taken
    }
}

/// The admission queue: per-column buckets (batches execute best when
/// column-pure) plus the global total the caps and watermarks act on.
struct QueueState {
    buckets: BTreeMap<ColumnId, Bucket>,
    total: usize,
    /// The thread that last entered [`ServiceCore::run_dispatcher`] and
    /// parks there when idle (unparking one that has exited does nothing);
    /// kept under the queue lock so the admission that makes the queue
    /// non-empty reads it for free.
    dispatcher: Option<Thread>,
}

/// The admission-controlled batching service around a shared engine.
pub struct ServiceCore {
    config: ServiceConfig,
    engine: SharedDatabase,
    clock: Arc<ServiceClock>,
    registry: OrderedRwLock<HashMap<u64, Arc<Session>>>,
    queue: OrderedMutex<QueueState>,
    saturated: AtomicBool,
    tuner_pause: OnceLock<Arc<AtomicBool>>,
}

impl ServiceCore {
    /// A service over `engine` using the real clock.
    #[must_use]
    pub fn new(engine: SharedDatabase, config: ServiceConfig) -> Arc<Self> {
        Self::with_clock(engine, config, ServiceClock::real())
    }

    /// A service with an explicit (usually manual) clock.
    #[must_use]
    pub fn with_clock(
        engine: SharedDatabase,
        config: ServiceConfig,
        clock: Arc<ServiceClock>,
    ) -> Arc<Self> {
        Arc::new(ServiceCore {
            config: config.normalized(),
            engine,
            clock,
            registry: OrderedRwLock::new(
                LockLevel::ServiceRegistry,
                "ServiceCore::registry",
                HashMap::new(),
            ),
            queue: OrderedMutex::new(
                LockLevel::ServiceQueue,
                "ServiceCore::queue",
                QueueState {
                    buckets: BTreeMap::new(),
                    total: 0,
                    dispatcher: None,
                },
            ),
            saturated: AtomicBool::new(false),
            tuner_pause: OnceLock::new(),
        })
    }

    /// Wires the background tuner's pause handle in: saturation mode
    /// pauses refinement, leaving saturation resumes it. May be called
    /// once; later calls are ignored.
    pub fn attach_tuner(&self, pause: Arc<AtomicBool>) {
        let _ = self.tuner_pause.set(pause);
    }

    /// The service clock (manual in tests).
    #[must_use]
    pub fn clock(&self) -> &Arc<ServiceClock> {
        &self.clock
    }

    /// The service configuration after normalization.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared engine the service dispatches into.
    #[must_use]
    pub fn engine(&self) -> &SharedDatabase {
        &self.engine
    }

    /// Registers client `client` and returns the receiving end of its
    /// response channel. Reconnecting an id cancels the old session's
    /// queued queries (the old receiver observes them as `Cancelled`).
    pub fn connect(&self, client: u64) -> Receiver<ServiceResponse> {
        self.connect_session(client).1
    }

    /// Like [`connect`](Self::connect), but also hands back the session
    /// itself so the caller can later tear down *exactly this* session
    /// with [`disconnect_session`](Self::disconnect_session) — immune to
    /// the reconnect race where a same-id successor registered first.
    pub fn connect_session(&self, client: u64) -> (Arc<Session>, Receiver<ServiceResponse>) {
        let (tx, rx) = mpsc::channel();
        let session = Arc::new(Session {
            client,
            cancelled: Arc::new(AtomicBool::new(false)),
            sink: tx,
            state: OrderedMutex::new(
                LockLevel::ServiceSession,
                "Session::state",
                SessionState {
                    queued: 0,
                    tokens: self.config.token_burst,
                    refilled_at: self.clock.now(),
                },
            ),
        });
        let old = self.registry.write().insert(client, Arc::clone(&session));
        if let Some(old) = old {
            old.cancelled.store(true, Ordering::Release);
        }
        (session, rx)
    }

    /// Deregisters a client and cooperatively abandons its queued
    /// queries: the cancellation flag is set, and the dispatcher sheds
    /// them with [`HolisticError::Cancelled`] instead of executing — a
    /// dropped connection never wedges a batch.
    pub fn disconnect(&self, client: u64) {
        let old = self.registry.write().remove(&client);
        if let Some(session) = old {
            session.cancelled.store(true, Ordering::Release);
        }
    }

    /// Tears down one specific session. Unlike
    /// [`disconnect`](Self::disconnect), this never touches a *successor*
    /// session that
    /// reconnected under the same client id: the registry entry is removed
    /// only if it is this very session.
    pub fn disconnect_session(&self, session: &Arc<Session>) {
        session.cancelled.store(true, Ordering::Release);
        let mut registry = self.registry.write();
        if registry
            .get(&session.client)
            .is_some_and(|current| Arc::ptr_eq(current, session))
        {
            registry.remove(&session.client);
        }
    }

    /// Admits one query for `client`, or sheds it with a typed error.
    ///
    /// `deadline` is relative to now; `None` applies the configured
    /// default. An admitted query (`Ok`) is owed exactly one
    /// [`ServiceResponse`] on the client's channel; a rejected query gets
    /// none — the typed error *is* its response.
    pub fn admit(
        &self,
        client: u64,
        request_id: u64,
        query: Query,
        deadline: Option<Duration>,
    ) -> Result<(), HolisticError> {
        let now = self.clock.now();
        let deadline = match deadline {
            Some(d) => Some(now + d),
            None if self.config.default_deadline > Duration::ZERO => {
                Some(now + self.config.default_deadline)
            }
            None => None,
        };
        // Engine read lock first (level 0): keeps the service locks above
        // it in acquisition order and makes the metrics sink reachable.
        let engine = self.engine.read();
        let metrics = engine.metrics();
        if deadline.is_some_and(|d| d <= now) {
            metrics.service_shed_deadline(1);
            return Err(HolisticError::DeadlineExceeded);
        }
        let session = self.registry.read().get(&client).cloned().ok_or_else(|| {
            HolisticError::Unsupported(format!("client {client} is not connected"))
        })?;
        if session.cancelled.load(Ordering::Acquire) {
            metrics.service_cancelled(1);
            return Err(HolisticError::Cancelled);
        }
        let wake = {
            let mut state = session.state.lock();
            state.refill(now, &self.config);
            if state.queued >= self.config.per_client_cap || state.tokens < 1.0 {
                metrics.service_rejected(1, false);
                return Err(HolisticError::Overloaded(format!("client {client}")));
            }
            let mut queue = self.queue.lock();
            if queue.total >= self.config.global_queue_cap {
                metrics.service_rejected(1, true);
                return Err(HolisticError::Overloaded("global".into()));
            }
            state.tokens -= 1.0;
            state.queued += 1;
            queue.total += 1;
            let depth = queue.total;
            queue
                .buckets
                .entry(query.column)
                .or_insert_with(|| Bucket {
                    entries: VecDeque::new(),
                    oldest: now,
                    in_edf_order: true,
                })
                .push(Pending {
                    session: Arc::clone(&session),
                    request_id,
                    query,
                    deadline,
                    enqueued_at: now,
                });
            metrics.service_admitted(1);
            metrics.service_queue_depth(depth as u64);
            self.update_saturation(depth, metrics);
            // Only the admission that makes the queue non-empty wakes the
            // dispatcher: it parks only after seeing the queue empty under
            // this lock, so it is awake for every later one.
            (depth == 1).then(|| queue.dispatcher.clone()).flatten()
        }; // Session and queue guards dropped before the wake-up.
        if let Some(dispatcher) = wake {
            dispatcher.unpark();
        }
        Ok(())
    }

    /// Delivers a typed error as the response to `request_id` on the
    /// client's channel. The TCP layer uses this for admission
    /// rejections so a connection's writer stays the only socket writer.
    pub fn respond_error(&self, client: u64, request_id: u64, error: HolisticError) {
        let session = self.registry.read().get(&client).cloned();
        if let Some(session) = session {
            let _ = session.sink.send(ServiceResponse {
                request_id,
                result: Err(error),
            });
        }
    }

    /// Forms and dispatches one batch if anything is queued: the first
    /// column bucket that reached `max_batch`, otherwise the bucket holding
    /// the oldest arrival. Returns the number of queries dispatched (0 if
    /// the queue was empty).
    pub fn pump(&self) -> usize {
        let now = self.clock.now();
        // Engine read guard for the whole dispatch: level 0 precedes every
        // service lock, and execution needs it anyway.
        let engine = self.engine.read();
        // The batch about to be formed was queued under the *current*
        // mode; capture it before the post-drain watermark update can
        // leave saturation.
        let saturated = self.saturated.load(Ordering::Acquire);
        let batch: Vec<Pending> = {
            let mut queue = self.queue.lock();
            let pick = queue
                .buckets
                .iter()
                .find(|(_, b)| b.entries.len() >= self.config.max_batch)
                .or_else(|| queue.buckets.iter().min_by_key(|(_, b)| b.oldest))
                .map(|(c, _)| *c);
            let Some(column) = pick else {
                return 0;
            };
            let Some(bucket) = queue.buckets.get_mut(&column) else {
                return 0;
            };
            let drained = bucket.take(self.config.max_batch, self.config.edf_dispatch);
            if bucket.entries.is_empty() {
                queue.buckets.remove(&column);
            }
            queue.total -= drained.len();
            let depth = queue.total;
            self.update_saturation(depth, engine.metrics());
            drained
        }; // ServiceQueue guard dropped: no service lock held past here.
        if batch.is_empty() {
            return 0;
        }
        // Per-session bookkeeping (level 4, one session at a time).
        for pending in &batch {
            let mut state = pending.session.state.lock();
            state.queued = state.queued.saturating_sub(1);
        }
        // Dispatch-time shed checks against the *service* clock; the
        // engine re-checks with the wall clock as a final backstop.
        let mut results: Vec<Option<Result<QueryResult, HolisticError>>> =
            (0..batch.len()).map(|_| None).collect();
        let mut live: Vec<usize> = Vec::new();
        let (mut wait_us_total, mut wait_us_max) = (0u64, 0u64);
        for (i, pending) in batch.iter().enumerate() {
            let waited = now.saturating_duration_since(pending.enqueued_at);
            wait_us_total += waited.as_micros() as u64;
            wait_us_max = wait_us_max.max(waited.as_micros() as u64);
            if pending.session.cancelled.load(Ordering::Acquire) {
                results[i] = Some(Err(HolisticError::Cancelled));
            } else if pending.deadline.is_some_and(|d| d <= now) {
                results[i] = Some(Err(HolisticError::DeadlineExceeded));
            } else {
                live.push(i);
            }
        }
        // Saturation mode: prefer zero-read answers from the learned
        // state; only queries that would require reorganization proceed
        // to the full batch path.
        if saturated && !live.is_empty() {
            let mut degraded = 0u64;
            live.retain(|&i| match engine.execute_if_resolved(&batch[i].query) {
                Ok(Some(result)) => {
                    results[i] = Some(Ok(result));
                    degraded += 1;
                    false
                }
                Ok(None) => true,
                Err(e) => {
                    results[i] = Some(Err(e));
                    false
                }
            });
            if degraded > 0 {
                engine.metrics().service_degraded_answers(degraded);
            }
        }
        if !live.is_empty() {
            let items: Vec<GuardedQuery> = live
                .iter()
                .map(|&i| {
                    let pending = &batch[i];
                    let mut g = GuardedQuery::new(pending.query)
                        .with_cancel(pending.session.cancel_handle());
                    if let Some(d) = pending.deadline {
                        g = g.with_deadline(d);
                    }
                    g
                })
                .collect();
            let out = engine.execute_batch_guarded(&items);
            for (&i, result) in live.iter().zip(out) {
                results[i] = Some(result);
            }
        }
        let metrics = engine.metrics();
        for (pending, slot) in batch.iter().zip(results) {
            let result = match slot {
                Some(r) => r,
                // Unreachable by construction (every index is either shed
                // or live); kept typed so it could never panic a batch.
                None => Err(HolisticError::Validation(
                    "dispatch left a query slot unfilled".into(),
                )),
            };
            match &result {
                Err(HolisticError::DeadlineExceeded) => metrics.service_shed_deadline(1),
                Err(HolisticError::Cancelled) => metrics.service_cancelled(1),
                _ => {}
            }
            // A dead receiver means the client is gone; the response is
            // dropped with the channel, which is exactly "cancelled".
            let _ = pending.session.sink.send(ServiceResponse {
                request_id: pending.request_id,
                result,
            });
        }
        let dispatch = self.clock.now().saturating_duration_since(now);
        metrics.service_batch_dispatched(wait_us_total, wait_us_max, dispatch.as_micros() as u64);
        batch.len()
    }

    /// Dispatches everything queued: [`pump`](Self::pump) until the queue
    /// is empty. What a caller without a dispatcher thread uses.
    pub fn flush(&self) -> usize {
        let mut dispatched = 0;
        loop {
            let n = self.pump();
            if n == 0 {
                return dispatched;
            }
            dispatched += n;
        }
    }

    /// Runs the dispatcher on the calling thread until `stop` is set and
    /// the queue is empty: `pump` while anything is queued, park while
    /// nothing is. Whoever sets `stop` must unpark this thread afterwards.
    pub(crate) fn run_dispatcher(&self, stop: &AtomicBool) {
        self.queue.lock().dispatcher = Some(std::thread::current());
        loop {
            if self.pump() > 0 {
                continue;
            }
            if stop.load(Ordering::Acquire) {
                break;
            }
            std::thread::park();
        }
    }

    /// Current total queue depth.
    pub fn queue_depth(&self) -> usize {
        let engine = self.engine.read();
        let depth = self.queue.lock().total;
        drop(engine);
        depth
    }

    /// Whether the service is currently in saturation mode.
    pub fn is_saturated(&self) -> bool {
        self.saturated.load(Ordering::Acquire)
    }

    fn update_saturation(&self, depth: usize, metrics: &holistic_core::EngineMetrics) {
        if !self.saturated.load(Ordering::Acquire) {
            if depth >= self.config.saturation_high {
                self.saturated.store(true, Ordering::Release);
                metrics.service_saturation_entered();
                if let Some(pause) = self.tuner_pause.get() {
                    pause.store(true, Ordering::Release);
                }
            }
        } else if depth <= self.config.saturation_low {
            self.saturated.store(false, Ordering::Release);
            if let Some(pause) = self.tuner_pause.get() {
                pause.store(false, Ordering::Release);
            }
        }
    }
}

impl std::fmt::Debug for ServiceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceCore")
            .field("config", &self.config)
            .field("saturated", &self.saturated.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_core::{Database, HolisticConfig, IndexingStrategy};

    fn service(config: ServiceConfig) -> (Arc<ServiceCore>, SharedDatabase, ColumnId) {
        let (core, engine, columns) = service_over(config, 1);
        (core, engine, columns[0])
    }

    fn service_over(
        config: ServiceConfig,
        columns: usize,
    ) -> (Arc<ServiceCore>, SharedDatabase, Vec<ColumnId>) {
        let mut db = Database::new(HolisticConfig::for_testing(), IndexingStrategy::Holistic);
        let values: Vec<i64> = (0..2000).map(|i| (i * 7919) % 2000).collect();
        let names = ["v", "w", "x"];
        let data = names[..columns]
            .iter()
            .map(|name| (*name, values.clone()))
            .collect();
        let table = db.create_table("t", data).expect("create");
        let columns = names[..columns]
            .iter()
            .map(|name| db.column_id(table, name).expect("column"))
            .collect();
        let engine = db.into_shared();
        let core = ServiceCore::with_clock(Arc::clone(&engine), config, ServiceClock::manual());
        (core, engine, columns)
    }

    /// The request ids answered so far, in response order.
    fn answered(rx: &Receiver<ServiceResponse>) -> Vec<u64> {
        rx.try_iter().map(|r| r.request_id).collect()
    }

    #[test]
    fn admitted_batch_dispatches_on_size_threshold() {
        let (core, _engine, column) = service(ServiceConfig::for_testing());
        let rx = core.connect(1);
        for i in 0..4 {
            core.admit(
                1,
                i,
                Query::range(column, (i as i64) * 10, (i as i64) * 10 + 50),
                None,
            )
            .expect("admit");
        }
        assert_eq!(core.queue_depth(), 4);
        assert_eq!(core.pump(), 4, "bucket reached max_batch");
        assert_eq!(core.queue_depth(), 0);
        let mut got: Vec<u64> = (0..4)
            .map(|_| rx.recv().expect("response").request_id)
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(holistic_sync::held_locks().is_empty());
    }

    #[test]
    fn undersized_batch_dispatches_on_the_next_pump() {
        let (core, engine, column) = service(ServiceConfig::for_testing());
        let rx = core.connect(1);
        core.admit(1, 7, Query::range(column, 0, 100), None)
            .expect("admit");
        assert_eq!(core.pump(), 1, "no timer stands between admit and dispatch");
        assert_eq!(answered(&rx), vec![7]);
        assert_eq!(core.pump(), 0, "nothing queued, nothing dispatched");
        assert_eq!(engine.read().metrics().service().dispatched_batches, 1);
    }

    #[test]
    fn admissions_between_two_pumps_leave_as_one_batch() {
        let (core, engine, column) = service(ServiceConfig::for_testing());
        let rx = core.connect(1);
        let q = Query::range(column, 0, 100);
        core.admit(1, 0, q, None).expect("admit");
        assert_eq!(core.pump(), 1);
        for i in 1..4 {
            core.admit(1, i, q, None).expect("admit");
        }
        assert_eq!(core.pump(), 3, "what arrived since the last batch");
        assert_eq!(answered(&rx), vec![0, 1, 2, 3]);
        assert_eq!(engine.read().metrics().service().dispatched_batches, 2);
    }

    #[test]
    fn a_full_bucket_wins_over_an_older_undersized_one() {
        let (core, _engine, columns) = service_over(ServiceConfig::for_testing(), 2);
        let rx = core.connect(1);
        // The later column holds the older, undersized bucket.
        core.admit(1, 100, Query::range(columns[1], 0, 10), None)
            .expect("admit");
        core.clock().advance(Duration::from_millis(1));
        for i in 0..4 {
            core.admit(1, i, Query::range(columns[0], 0, 10), None)
                .expect("admit");
        }
        assert_eq!(core.pump(), 4, "the bucket at max_batch goes first");
        assert_eq!(answered(&rx), vec![0, 1, 2, 3]);
        assert_eq!(core.pump(), 1);
        assert_eq!(answered(&rx), vec![100]);
    }

    #[test]
    fn undersized_buckets_dispatch_oldest_arrival_first() {
        let (core, _engine, columns) = service_over(ServiceConfig::for_testing(), 3);
        let rx = core.connect(1);
        // Arrival order is the reverse of column order.
        for (id, column) in [(0, columns[2]), (1, columns[0]), (2, columns[1])] {
            core.admit(1, id, Query::range(column, 0, 10), None)
                .expect("admit");
            core.clock().advance(Duration::from_millis(1));
        }
        // A later arrival into the oldest bucket rides along with it.
        core.admit(1, 3, Query::range(columns[2], 0, 10), None)
            .expect("admit");
        assert_eq!(core.pump(), 2);
        assert_eq!(answered(&rx), vec![0, 3]);
        assert_eq!(core.pump(), 1);
        assert_eq!(answered(&rx), vec![1]);
        assert_eq!(core.pump(), 1);
        assert_eq!(answered(&rx), vec![2]);
    }

    /// At `global_queue_cap` depth over three columns with mixed deadlines,
    /// every pump takes what a scan of every queued entry would pick: a
    /// full bucket in column order, else the bucket with the oldest
    /// arrival; and of that bucket the earliest deadlines.
    #[test]
    fn pick_at_queue_cap_matches_a_full_scan_of_the_queue() {
        let mut config = ServiceConfig::for_testing();
        config.max_batch = 4;
        // Not a multiple of max_batch: undersized leftovers meet at the end.
        config.global_queue_cap = 46;
        config.per_client_cap = 46;
        config.token_burst = 46.0;
        let cap = config.global_queue_cap as u64;
        let (core, _engine, columns) = service_over(config, 3);
        let rx = core.connect(1);
        // (request id, column index, deadline ms) of what is still queued,
        // as the reference sees it. Request `id` arrives at `id` ms.
        let mut queued: Vec<(u64, usize, u64)> = Vec::new();
        for id in 0..cap {
            // Column 0 gets default-like uniform deadlines; the others
            // expire in reverse arrival order, so an EDF-sorted remainder
            // keeps its oldest arrival at the back. Column 1 holds the
            // oldest of those (id 1) behind much newer ones.
            let which = match id {
                _ if id % 2 == 0 => 0,
                1 | 29.. => 1,
                _ => 2,
            };
            let deadline_ms = if which == 0 { 500 } else { 600 - id * 5 };
            core.admit(
                1,
                id,
                Query::range(columns[which], 0, 10),
                Some(Duration::from_millis(deadline_ms)),
            )
            .expect("admit");
            queued.push((id, which, id + deadline_ms));
            core.clock().advance(Duration::from_millis(1));
        }
        assert_eq!(core.queue_depth() as u64, cap);
        while !queued.is_empty() {
            let in_column = |c: usize| queued.iter().filter(move |e| e.1 == c);
            let pick = (0..3)
                .find(|&c| in_column(c).count() >= 4)
                .or_else(|| queued.iter().min_by_key(|e| e.0).map(|e| e.1))
                .expect("something is queued");
            let mut bucket: Vec<_> = in_column(pick).copied().collect();
            if bucket.len() > 4 {
                bucket.sort_by_key(|e| (e.2, e.0));
                bucket.truncate(4);
            }
            let mut expected: Vec<u64> = bucket.iter().map(|e| e.0).collect();
            expected.sort_unstable();
            assert_eq!(core.pump(), expected.len());
            let mut got = answered(&rx);
            got.sort_unstable();
            assert_eq!(got, expected);
            queued.retain(|e| !expected.contains(&e.0));
        }
        assert_eq!(core.pump(), 0);
        assert!(holistic_sync::held_locks().is_empty());
    }

    #[test]
    fn queue_wait_is_counted_per_dispatched_batch() {
        let (core, engine, column) = service(ServiceConfig::for_testing());
        let _rx = core.connect(1);
        let q = Query::range(column, 0, 100);
        core.admit(1, 0, q, None).expect("admit");
        core.clock().advance(Duration::from_millis(2));
        core.admit(1, 1, q, None).expect("admit");
        core.clock().advance(Duration::from_millis(1));
        assert_eq!(core.pump(), 2);
        core.admit(1, 2, q, None).expect("admit");
        assert_eq!(core.pump(), 1);
        let svc = engine.read().metrics().service();
        assert_eq!(svc.dispatched_batches, 2);
        assert_eq!(svc.queue_wait_us_max, 3000);
        assert_eq!(svc.queue_wait_us_total, 3000 + 1000);
        assert_eq!(svc.dispatch_us_total, 0, "the manual clock stood still");
        engine.read().metrics().reset();
        assert_eq!(engine.read().metrics().service().queue_wait_us_max, 0);
    }

    #[test]
    fn edf_dispatch_prefers_earliest_deadlines_under_backlog() {
        let mut config = ServiceConfig::for_testing();
        config.max_batch = 2;
        let (core, _engine, column) = service(config);
        let rx = core.connect(1);
        let q = Query::range(column, 0, 10);
        // Arrival order: relaxed, urgent, middling.
        core.admit(1, 0, q, Some(Duration::from_millis(90)))
            .expect("admit");
        core.admit(1, 1, q, Some(Duration::from_millis(10)))
            .expect("admit");
        core.admit(1, 2, q, Some(Duration::from_millis(50)))
            .expect("admit");
        // The bucket exceeds max_batch: the first dispatch takes the two
        // queries closest to expiry, not the two oldest arrivals.
        assert_eq!(core.pump(), 2);
        let first: Vec<u64> = (0..2)
            .map(|_| rx.recv().expect("response").request_id)
            .collect();
        assert_eq!(first, vec![1, 2], "earliest deadlines dispatch first");
        // The relaxed query is not starved: it leaves on the next pump.
        assert_eq!(core.pump(), 1);
        assert_eq!(rx.recv().expect("response").request_id, 0);
        assert!(holistic_sync::held_locks().is_empty());
    }

    #[test]
    fn fifo_dispatch_preserves_arrival_order_when_edf_is_off() {
        let mut config = ServiceConfig::for_testing();
        config.max_batch = 2;
        config.edf_dispatch = false;
        let (core, _engine, column) = service(config);
        let rx = core.connect(1);
        let q = Query::range(column, 0, 10);
        core.admit(1, 0, q, Some(Duration::from_millis(90)))
            .expect("admit");
        core.admit(1, 1, q, Some(Duration::from_millis(10)))
            .expect("admit");
        core.admit(1, 2, q, Some(Duration::from_millis(50)))
            .expect("admit");
        assert_eq!(core.pump(), 2);
        let first: Vec<u64> = (0..2)
            .map(|_| rx.recv().expect("response").request_id)
            .collect();
        assert_eq!(first, vec![0, 1], "strict arrival order without EDF");
    }

    #[test]
    fn per_client_and_global_bounds_reject_typed() {
        let mut config = ServiceConfig::for_testing();
        config.per_client_cap = 2;
        config.global_queue_cap = 3;
        let (core, engine, column) = service(config);
        let _rx1 = core.connect(1);
        let _rx2 = core.connect(2);
        let q = Query::range(column, 0, 10);
        core.admit(1, 0, q, None).expect("admit");
        core.admit(1, 1, q, None).expect("admit");
        let client_full = core.admit(1, 2, q, None).expect_err("client cap");
        assert_eq!(client_full, HolisticError::Overloaded("client 1".into()));
        core.admit(2, 3, q, None).expect("admit");
        let global_full = core.admit(2, 4, q, None).expect_err("global cap");
        assert_eq!(global_full, HolisticError::Overloaded("global".into()));
        let svc = engine.read().metrics().service();
        assert_eq!(svc.admitted, 3);
        assert_eq!(svc.rejected_client, 1);
        assert_eq!(svc.rejected_global, 1);
    }

    #[test]
    fn token_bucket_limits_a_heavy_tenant_but_not_its_neighbor() {
        let mut config = ServiceConfig::for_testing();
        config.token_burst = 3.0;
        config.tokens_per_sec = 10.0;
        config.per_client_cap = 100;
        config.global_queue_cap = 100;
        let (core, _engine, column) = service(config);
        let _rx1 = core.connect(1);
        let _rx2 = core.connect(2);
        let q = Query::range(column, 0, 10);
        for i in 0..3 {
            core.admit(1, i, q, None).expect("burst fits");
        }
        assert!(matches!(
            core.admit(1, 3, q, None),
            Err(HolisticError::Overloaded(_))
        ));
        // The neighbor still has its own bucket.
        core.admit(2, 4, q, None).expect("neighbor unaffected");
        // Refill: 10 tokens/s × 200 ms = 2 more for the heavy tenant.
        core.clock().advance(Duration::from_millis(200));
        core.admit(1, 5, q, None).expect("refilled");
        core.admit(1, 6, q, None).expect("refilled");
        assert!(matches!(
            core.admit(1, 7, q, None),
            Err(HolisticError::Overloaded(_))
        ));
    }

    #[test]
    fn deadlines_are_enforced_at_admission_and_dispatch() {
        let (core, _engine, column) = service(ServiceConfig::for_testing());
        let rx = core.connect(1);
        let q = Query::range(column, 0, 10);
        // Admission: an already-expired deadline never enters the queue.
        assert_eq!(
            core.admit(1, 0, q, Some(Duration::ZERO)),
            Err(HolisticError::DeadlineExceeded)
        );
        assert_eq!(core.queue_depth(), 0);
        // Dispatch: admitted in time, but the clock outruns the deadline
        // while queued.
        core.admit(1, 1, q, Some(Duration::from_millis(10)))
            .expect("admit");
        core.clock().advance(Duration::from_millis(20));
        assert_eq!(core.pump(), 1);
        let resp = rx.recv().expect("response");
        assert_eq!(resp.request_id, 1);
        assert_eq!(resp.result, Err(HolisticError::DeadlineExceeded));
    }

    #[test]
    fn disconnect_cancels_queued_queries_without_wedging_the_batch() {
        let (core, _engine, column) = service(ServiceConfig::for_testing());
        let rx1 = core.connect(1);
        let rx2 = core.connect(2);
        core.admit(1, 0, Query::range(column, 0, 10), None)
            .expect("admit");
        core.admit(2, 1, Query::range(column, 5, 25), None)
            .expect("admit");
        core.disconnect(1);
        assert_eq!(core.pump(), 2);
        let r1 = rx1.recv().expect("cancelled response still delivered");
        assert_eq!(r1.result, Err(HolisticError::Cancelled));
        let r2 = rx2.recv().expect("batchmate unaffected");
        assert_eq!(r2.result.as_ref().map(|r| r.count), Ok(20));
    }

    #[test]
    fn saturation_pauses_the_tuner_and_prefers_zero_read_answers() {
        let mut config = ServiceConfig::for_testing();
        config.saturation_high = 3;
        config.saturation_low = 0;
        config.global_queue_cap = 100;
        config.per_client_cap = 100;
        let (core, engine, column) = service(config);
        let pause = Arc::new(AtomicBool::new(false));
        core.attach_tuner(Arc::clone(&pause));
        let rx = core.connect(1);
        // Warm the learned state so the degraded path can answer.
        engine
            .read()
            .execute(&holistic_core::Query::range(column, 100, 200))
            .expect("warm");
        for i in 0..4 {
            core.admit(1, i, Query::range(column, 100, 200), None)
                .expect("admit");
        }
        assert!(core.is_saturated(), "high watermark crossed");
        assert!(pause.load(Ordering::Acquire), "tuner paused");
        assert_eq!(core.pump(), 4);
        for _ in 0..4 {
            let resp = rx.recv().expect("response");
            assert_eq!(resp.result.as_ref().map(|r| r.count), Ok(100));
        }
        let svc = engine.read().metrics().service();
        assert_eq!(svc.saturation_entries, 1);
        assert_eq!(svc.degraded_answers, 4, "all answered zero-read");
        assert!(!core.is_saturated(), "drained below the low watermark");
        assert!(!pause.load(Ordering::Acquire), "tuner resumed");
    }

    #[test]
    fn flush_answers_everything_and_leaves_no_latch_residue() {
        holistic_sync::set_enforcement(true);
        let (core, _engine, column) = service(ServiceConfig::for_testing());
        let rx = core.connect(1);
        for i in 0..7 {
            core.admit(1, i, Query::range(column, i as i64, i as i64 + 100), None)
                .expect("admit");
        }
        assert_eq!(core.flush(), 7);
        let mut seen: Vec<u64> = (0..7)
            .map(|_| rx.recv().expect("resp").request_id)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<_>>());
        assert!(holistic_sync::held_locks().is_empty());
    }
}

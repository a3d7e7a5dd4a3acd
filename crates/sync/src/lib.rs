//! # holistic-sync
//!
//! The ordered lock layer: every lock in the workspace is an
//! [`OrderedRwLock`] or [`OrderedMutex`] carrying a compile-time
//! [`LockLevel`] and a static name. Under enforcement (debug builds,
//! `HOLISTIC_PARANOIA=1`, or [`set_enforcement`]) each thread keeps a
//! stack of the levels it holds and any acquisition that is not strictly
//! deeper than everything already held panics, naming both locks. That
//! turns latch-order violations — the classic source of rare production
//! deadlocks — into immediate, deterministic test failures.
//!
//! The hierarchy (documented in `ARCHITECTURE.md`, enforced here and by
//! the `holistic-analysis` lint):
//!
//! | Level | Name        | Lock                                          |
//! |------:|-------------|-----------------------------------------------|
//! |     0 | Engine      | caller-owned `Arc<OrderedRwLock<Database>>`   |
//! |     2 | ServiceRegistry | `holistic-server` client/session map      |
//! |     4 | ServiceSession  | per-session state + response writer       |
//! |     6 | ServiceQueue    | `holistic-server` global admission queue  |
//! |    10 | Persistence | `Database::persistence` (serializes IO)       |
//! |    15 | HealthMap   | `Database::health` column-health map          |
//! |    20 | CrackerMap  | `Database::crackers` map lock                 |
//! |    25 | Shard       | per-column shard-list lock (`ConcurrentCrackerColumn::shards`) |
//! |    30 | Column      | per-shard `ConcurrentCrackerColumn` piece-table latch |
//! |    40 | Online      | `Database::online` tuner state                |
//! |    50 | StatsMap    | `KernelStatistics::columns` map lock          |
//! |    60 | Histogram   | per-column `ColumnStats::predicate`           |
//!
//! A thread may hold any subset of these simultaneously as long as it
//! acquired them in strictly increasing level order; two locks at the
//! same level must never be held together (same-level reentrancy is how
//! reader/writer self-deadlocks happen).
//!
//! When enforcement is off (release builds by default) an acquisition
//! costs one relaxed atomic load and a predictable branch on top of the
//! underlying lock — the wrappers are newtypes around the vendored
//! `parking_lot` stand-ins and add no other state per lock beyond the
//! level and name.
//!
//! The `wait-graph` cargo feature additionally maintains a global
//! wait-for graph and panics on cross-thread cycles *before* blocking —
//! a backstop for deadlocks the static hierarchy cannot see (e.g. when
//! enforcement is off). It serializes every blocking acquisition through
//! a registry lock, so it is for stress tests only:
//! `cargo test -p holistic-sync --features wait-graph`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

// The vendored parking_lot stand-in hands back std's guard types.
use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

use parking_lot::{Mutex, RwLock};

/// Position of a lock in the global latch hierarchy.
///
/// Levels must be acquired in strictly increasing order within a thread;
/// the numeric gaps leave room for future locks without renumbering
/// (`Shard = 25` was slotted into exactly such a gap).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum LockLevel {
    /// The caller-owned engine lock (`Arc<OrderedRwLock<Database>>`).
    Engine = 0,
    /// `holistic-server` client/session registry map.
    ///
    /// The service layer sits *above* the engine in call order but its
    /// locks are never held across an `Engine` acquisition: the
    /// dispatcher drains queues, drops every service guard, and only
    /// then takes the engine read lock. Placing the service levels
    /// between `Engine` and `Persistence` additionally allows sending
    /// responses while an engine guard is still held (0 → 2/4/6 is
    /// strictly increasing).
    ServiceRegistry = 2,
    /// Per-session service state (queued-query count, response writer).
    ServiceSession = 4,
    /// The global admission queue in `holistic-server`.
    ServiceQueue = 6,
    /// `Database::persistence`: serializes snapshot/WAL IO.
    Persistence = 10,
    /// `Database::health`: the per-column health / scrub-cursor map.
    ///
    /// Sits above `CrackerMap` so quarantine decisions (made while no
    /// cracker handle is held) can still consult health before touching
    /// the cracker map, and is never held across a `Column` latch.
    HealthMap = 15,
    /// `Database::crackers`: the column-id → cracker map.
    CrackerMap = 20,
    /// The shard-*list* lock of a sharded `ConcurrentCrackerColumn`: read
    /// to fan a query out over the shard slots, written only when an
    /// insert spills past the last shard's extent and appends a slot.
    ///
    /// Sits between `CrackerMap` and `Column` (the gap reserved for it):
    /// a fan-out holds the list lock while visiting shard latches one at
    /// a time. Two `Column`-level shard latches are never held together —
    /// same-level enforcement turns that into a panic — so intra-query
    /// parallel cracking hands each shard to its own worker thread.
    Shard = 25,
    /// The per-shard reader/writer piece-table latch (each shard of a
    /// `ConcurrentCrackerColumn`; an unsharded column is one shard).
    Column = 30,
    /// `Database::online`: the online tuner state.
    Online = 40,
    /// `KernelStatistics::columns`: the per-column statistics map.
    StatsMap = 50,
    /// Per-column predicate histogram (`ColumnStats::predicate`): the
    /// deepest level, and the only lock a resolved query takes after its
    /// column latch.
    Histogram = 60,
}

// --- enforcement switch ----------------------------------------------------

const ENFORCE_UNINIT: u8 = 0;
const ENFORCE_OFF: u8 = 1;
const ENFORCE_ON: u8 = 2;

static ENFORCE: AtomicU8 = AtomicU8::new(ENFORCE_UNINIT);

/// Turn hierarchy enforcement on or off for the whole process.
///
/// The engine wires this to `HolisticConfig::paranoia`, so
/// `HolisticConfig::for_testing()` and `HOLISTIC_PARANOIA=1` enable it in
/// release builds; debug builds default to on.
pub fn set_enforcement(on: bool) {
    ENFORCE.store(if on { ENFORCE_ON } else { ENFORCE_OFF }, Ordering::Relaxed);
}

/// Whether hierarchy enforcement is currently active.
///
/// The first call resolves the default: on under `debug_assertions`,
/// otherwise taken from the `HOLISTIC_PARANOIA` environment variable.
#[inline]
pub fn enforcement_enabled() -> bool {
    match ENFORCE.load(Ordering::Relaxed) {
        ENFORCE_ON => true,
        ENFORCE_OFF => false,
        _ => {
            let on = cfg!(debug_assertions) || paranoia_env();
            set_enforcement(on);
            on
        }
    }
}

fn paranoia_env() -> bool {
    std::env::var("HOLISTIC_PARANOIA")
        .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
        .unwrap_or(false)
}

// --- per-thread held-lock stack --------------------------------------------

struct Held {
    level: u8,
    name: &'static str,
    token: u64,
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
}

/// Monotonic token source; `0` is reserved for "nothing to release"
/// (acquisitions made while enforcement was off).
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Levels (and names) of the locks the current thread holds, innermost
/// last. Only tracked while enforcement is on; exposed for tests and
/// diagnostics.
pub fn held_locks() -> Vec<(u8, &'static str)> {
    HELD.try_with(|h| h.borrow().iter().map(|e| (e.level, e.name)).collect())
        .unwrap_or_default()
}

/// Validate an acquisition against the held stack and push it.
/// Returns the token to release on drop (0 when enforcement is off).
#[inline]
fn check_acquire(level: LockLevel, name: &'static str) -> u64 {
    if !enforcement_enabled() {
        return 0;
    }
    HELD.try_with(|h| {
        let mut stack = h.borrow_mut();
        if let Some(deepest) = stack.iter().max_by_key(|e| e.level) {
            if level as u8 <= deepest.level {
                // lint:allow(panic-path) -- this panic IS the enforcement
                panic!(
                    "lock order violation: acquiring {name:?} (level {} = {level:?}) \
                     while holding {:?} (level {}); locks must be taken in strictly \
                     increasing LockLevel order",
                    level as u8, deepest.name, deepest.level,
                );
            }
        }
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        stack.push(Held {
            level: level as u8,
            name,
            token,
        });
        token
    })
    // During thread teardown the TLS slot may already be gone; skip
    // tracking rather than abort inside a destructor.
    .unwrap_or(0)
}

#[inline]
fn release_token(token: u64) {
    if token == 0 {
        return;
    }
    let _ = HELD.try_with(|h| {
        let mut stack = h.borrow_mut();
        // Guards may drop out of LIFO order (two-phase code keeps an outer
        // guard while cycling inner ones), so find the entry by token.
        if let Some(i) = stack.iter().rposition(|e| e.token == token) {
            stack.remove(i);
        }
    });
}

// --- wait-for graph (feature-gated) ----------------------------------------

#[cfg(feature = "wait-graph")]
mod waitgraph;

#[cfg(feature = "wait-graph")]
use waitgraph::{Mode, WaitReg};

#[cfg(not(feature = "wait-graph"))]
#[derive(Clone, Copy)]
enum Mode {
    Shared,
    Exclusive,
}

/// No-op stand-in so the lock code reads the same with the feature off.
#[cfg(not(feature = "wait-graph"))]
struct WaitReg;

#[cfg(not(feature = "wait-graph"))]
impl WaitReg {
    #[inline]
    fn begin(_lock: usize, _name: &'static str, _mode: Mode) -> Self {
        WaitReg
    }
    #[inline]
    fn acquired(self) {}
}

#[cfg(not(feature = "wait-graph"))]
#[inline]
fn wait_release(_lock: usize, _mode: Mode) {}

#[cfg(feature = "wait-graph")]
use waitgraph::wait_release;

// --- ordered RwLock --------------------------------------------------------

/// A reader/writer lock with a fixed [`LockLevel`] and name, enforcing
/// the global latch hierarchy on every acquisition (see crate docs).
pub struct OrderedRwLock<T> {
    level: LockLevel,
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Create a lock at `level`. The name appears in violation panics and
    /// deadlock reports; use the field path (e.g. `"Database::crackers"`).
    pub fn new(level: LockLevel, name: &'static str, value: T) -> Self {
        Self {
            level,
            name,
            inner: RwLock::new(value),
        }
    }

    /// The lock's position in the hierarchy.
    pub fn level(&self) -> LockLevel {
        self.level
    }

    /// The lock's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Consume the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    fn id(&self) -> usize {
        std::ptr::from_ref(&self.inner) as usize
    }

    /// Acquire shared access, blocking until available.
    ///
    /// # Panics
    /// Under enforcement, if the calling thread already holds a lock at
    /// this level or deeper.
    #[inline]
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        let token = check_acquire(self.level, self.name);
        let reg = WaitReg::begin(self.id(), self.name, Mode::Shared);
        let guard = self.inner.read();
        reg.acquired();
        OrderedRwLockReadGuard {
            lock_id: self.id(),
            token,
            guard,
        }
    }

    /// Acquire exclusive access, blocking until available.
    ///
    /// # Panics
    /// Under enforcement, if the calling thread already holds a lock at
    /// this level or deeper.
    #[inline]
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        let token = check_acquire(self.level, self.name);
        let reg = WaitReg::begin(self.id(), self.name, Mode::Exclusive);
        let guard = self.inner.write();
        reg.acquired();
        OrderedRwLockWriteGuard {
            lock_id: self.id(),
            token,
            guard,
        }
    }

    /// Try to acquire shared access without blocking. Hierarchy checks
    /// still apply: even a `try_` acquisition out of order is a protocol
    /// violation (holding it while blocking on a shallower lock is the
    /// deadlock).
    #[inline]
    pub fn try_read(&self) -> Option<OrderedRwLockReadGuard<'_, T>> {
        let token = check_acquire(self.level, self.name);
        match self.inner.try_read() {
            Some(guard) => Some(OrderedRwLockReadGuard {
                lock_id: self.id(),
                token,
                guard,
            }),
            None => {
                release_token(token);
                None
            }
        }
    }

    /// Try to acquire exclusive access without blocking (checked like
    /// [`Self::try_read`]).
    #[inline]
    pub fn try_write(&self) -> Option<OrderedRwLockWriteGuard<'_, T>> {
        let token = check_acquire(self.level, self.name);
        match self.inner.try_write() {
            Some(guard) => Some(OrderedRwLockWriteGuard {
                lock_id: self.id(),
                token,
                guard,
            }),
            None => {
                release_token(token);
                None
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("OrderedRwLock");
        s.field("name", &self.name).field("level", &self.level);
        match self.inner.try_read() {
            Some(guard) => s.field("data", &&*guard).finish(),
            None => s.field("data", &"<locked>").finish(),
        }
    }
}

/// Shared guard for [`OrderedRwLock`]; releases the hierarchy entry on drop.
pub struct OrderedRwLockReadGuard<'a, T> {
    lock_id: usize,
    token: u64,
    guard: RwLockReadGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Drop for OrderedRwLockReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        wait_release(self.lock_id, Mode::Shared);
        release_token(self.token);
    }
}

/// Exclusive guard for [`OrderedRwLock`]; releases the hierarchy entry on
/// drop.
pub struct OrderedRwLockWriteGuard<'a, T> {
    lock_id: usize,
    token: u64,
    guard: RwLockWriteGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for OrderedRwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for OrderedRwLockWriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        wait_release(self.lock_id, Mode::Exclusive);
        release_token(self.token);
    }
}

// --- ordered Mutex ---------------------------------------------------------

/// A mutex with a fixed [`LockLevel`] and name, enforcing the global
/// latch hierarchy on every acquisition (see crate docs).
pub struct OrderedMutex<T> {
    level: LockLevel,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Create a mutex at `level` (see [`OrderedRwLock::new`]).
    pub fn new(level: LockLevel, name: &'static str, value: T) -> Self {
        Self {
            level,
            name,
            inner: Mutex::new(value),
        }
    }

    /// The lock's position in the hierarchy.
    pub fn level(&self) -> LockLevel {
        self.level
    }

    /// The lock's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    fn id(&self) -> usize {
        std::ptr::from_ref(&self.inner) as usize
    }

    /// Acquire the mutex, blocking until available.
    ///
    /// # Panics
    /// Under enforcement, if the calling thread already holds a lock at
    /// this level or deeper.
    #[inline]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let token = check_acquire(self.level, self.name);
        let reg = WaitReg::begin(self.id(), self.name, Mode::Exclusive);
        let guard = self.inner.lock();
        reg.acquired();
        OrderedMutexGuard {
            lock_id: self.id(),
            token,
            guard,
        }
    }

    /// Try to acquire the mutex without blocking (hierarchy-checked like
    /// [`OrderedRwLock::try_read`]).
    #[inline]
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        let token = check_acquire(self.level, self.name);
        match self.inner.try_lock() {
            Some(guard) => Some(OrderedMutexGuard {
                lock_id: self.id(),
                token,
                guard,
            }),
            None => {
                release_token(token);
                None
            }
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("OrderedMutex");
        s.field("name", &self.name).field("level", &self.level);
        match self.inner.try_lock() {
            Some(guard) => s.field("data", &&*guard).finish(),
            None => s.field("data", &"<locked>").finish(),
        }
    }
}

/// Guard for [`OrderedMutex`]; releases the hierarchy entry on drop.
pub struct OrderedMutexGuard<'a, T> {
    lock_id: usize,
    token: u64,
    guard: MutexGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        wait_release(self.lock_id, Mode::Exclusive);
        release_token(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() {
        set_enforcement(true);
    }

    #[test]
    fn in_order_acquisition_is_fine() {
        on();
        let engine = OrderedRwLock::new(LockLevel::Engine, "engine", 1);
        let column = OrderedRwLock::new(LockLevel::Column, "column", 2);
        let histogram = OrderedMutex::new(LockLevel::Histogram, "histogram", 3);
        let e = engine.read();
        let c = column.write();
        let m = histogram.lock();
        assert_eq!((*e, *c, *m), (1, 2, 3));
        assert_eq!(held_locks().len(), 3);
        drop((e, c, m));
        assert!(held_locks().is_empty());
    }

    #[test]
    #[should_panic(expected = "lock order violation")]
    fn stats_before_column_panics() {
        on();
        let stats = OrderedRwLock::new(LockLevel::StatsMap, "stats.columns", ());
        let column = OrderedRwLock::new(LockLevel::Column, "column.inner", ());
        let _s = stats.read();
        let _c = column.write(); // 30 after 50: out of order
    }

    #[test]
    #[should_panic(expected = "lock order violation")]
    fn same_level_reentrancy_panics() {
        on();
        let a = OrderedMutex::new(LockLevel::Online, "online.a", ());
        let b = OrderedMutex::new(LockLevel::Online, "online.b", ());
        let _a = a.lock();
        let _b = b.lock(); // same level held twice
    }

    #[test]
    fn non_lifo_drop_order_is_tracked_correctly() {
        on();
        let a = OrderedRwLock::new(LockLevel::CrackerMap, "a", ());
        let b = OrderedRwLock::new(LockLevel::Column, "b", ());
        let c = OrderedMutex::new(LockLevel::Online, "c", ());
        let ga = a.read();
        let gb = b.read();
        drop(ga); // outer guard released first
        let gc = c.lock();
        assert_eq!(
            held_locks().iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            vec![LockLevel::Column as u8, LockLevel::Online as u8]
        );
        drop((gb, gc));
        assert!(held_locks().is_empty());
    }

    #[test]
    fn failed_try_acquisition_leaves_no_residue() {
        on();
        let col = OrderedRwLock::new(LockLevel::Column, "col", ());
        let pen = OrderedMutex::new(LockLevel::Histogram, "pen", ());
        let w = col.write();
        let p = pen.lock();
        // Contended try_* from another thread must not leave entries on
        // *its* stack.
        std::thread::scope(|s| {
            s.spawn(|| {
                on();
                assert!(col.try_read().is_none());
                assert!(col.try_write().is_none());
                assert!(pen.try_lock().is_none());
                assert!(held_locks().is_empty());
            });
        });
        drop((w, p));
        // Successful try_* acquisitions are tracked and released.
        let g = col.try_write().expect("uncontended");
        assert_eq!(held_locks().len(), 1);
        drop(g);
        assert!(held_locks().is_empty());
    }

    #[test]
    fn sequential_same_level_is_fine() {
        on();
        let a = OrderedMutex::new(LockLevel::Histogram, "h1", ());
        let b = OrderedMutex::new(LockLevel::Histogram, "h2", ());
        drop(a.lock());
        drop(b.lock()); // not held simultaneously: allowed
    }

    #[test]
    fn into_inner_and_accessors() {
        let l = OrderedRwLock::new(LockLevel::StatsMap, "s", 7);
        assert_eq!(l.level(), LockLevel::StatsMap);
        assert_eq!(l.name(), "s");
        assert_eq!(l.into_inner(), 7);
        let m = OrderedMutex::new(LockLevel::Histogram, "m", 9);
        assert_eq!(m.into_inner(), 9);
    }
}

//! A resolved read allocates nothing.
//!
//! Once a column has converged, a query whose bounds are both resolved
//! piece boundaries is answered from the piece index alone: two binary
//! searches, one run-sum subtraction and a few counter increments. This
//! binary installs a counting global allocator and checks that
//! `Database::execute` on such queries performs no allocation and no
//! reallocation at all, under both cracking strategies — the engine keeps
//! per-query bookkeeping in fixed-size counters, not in a log that grows
//! with the run.
//!
//! Run it on its own with `cargo test --release -p holistic-core --test
//! alloc_resolved`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use holistic_core::{Database, HolisticConfig, IndexingStrategy, Query};

/// Counts allocation events on threads that switched counting on.
struct CountingAllocator;

thread_local! {
    // Const-initialized and drop-free: touching them never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn note_event() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = EVENTS.try_with(|e| e.set(e.get() + 1));
        }
    });
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; the counting touches only const thread-locals.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_event();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `GlobalAlloc::alloc_zeroed`, forwarded.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_event();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `GlobalAlloc::realloc`, forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_event();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as `GlobalAlloc::dealloc`, forwarded.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations and reallocations `f` performs on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    EVENTS.with(|e| e.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    EVENTS.with(Cell::get)
}

const ROWS: i64 = 100_000;
const RANGES: i64 = 200;
const RESOLVED_EXECUTES: i64 = 10_000;

/// The `i`-th warm range: 1 % wide, spread over the domain.
fn range(i: i64) -> (i64, i64) {
    let lo = (i * 7_919) % (ROWS - ROWS / 100);
    (lo, lo + ROWS / 100)
}

fn resolved_executes_allocate_nothing(strategy: IndexingStrategy) {
    // Hot-range boosting off (as on a converged benchmark column): a boost
    // would crack, and cracking may allocate.
    let config = HolisticConfig {
        hot_range_query_threshold: u64::MAX,
        ..HolisticConfig::default().with_paranoia(false)
    };
    let mut db = Database::new(config, strategy);
    let values: Vec<i64> = (0..ROWS).map(|i| (i * 48_271) % ROWS).collect();
    let table = db.create_table("t", vec![("v", values)]).expect("table");
    let column = db.column_id(table, "v").expect("column");
    let queries: Vec<Query> = (0..RANGES)
        .map(|i| {
            let (lo, hi) = range(i);
            Query::range(column, lo, hi)
        })
        .collect();
    // Warm: the first pass cracks every bound, the second runs the resolved
    // path once so every lazily sized buffer is already in place.
    for _ in 0..2 {
        for q in &queries {
            db.execute(q).expect("warm query");
        }
    }
    let pieces = db.piece_count(column);
    let mut checksum = 0i128;
    let allocations = allocations_during(|| {
        for i in 0..RESOLVED_EXECUTES {
            let r = db
                .execute(&queries[(i % RANGES) as usize])
                .expect("resolved query");
            checksum += r.sum + i128::from(r.count);
        }
    });
    assert_eq!(
        allocations, 0,
        "{strategy}: {RESOLVED_EXECUTES} resolved executes allocated {allocations} times"
    );
    assert_eq!(
        db.piece_count(column),
        pieces,
        "{strategy}: nothing cracked"
    );
    assert_ne!(checksum, 0);
}

#[test]
fn resolved_reads_allocate_nothing_under_holistic_and_adaptive() {
    // One test function: the strategies run one after the other on this
    // thread, with no other test's allocations in between.
    resolved_executes_allocate_nothing(IndexingStrategy::Holistic);
    resolved_executes_allocate_nothing(IndexingStrategy::Adaptive);
}

//! Continuous kernel statistics.
//!
//! Holistic indexing keeps its statistics *inside* the kernel and up to date
//! at all times: every select operator reports the column and value range it
//! touched, every refinement action reports the new piece counts. The
//! ranking model (see [`crate::ranking`]) reads these statistics to answer
//! the paper's key question: *"if we detect a couple of idle milliseconds,
//! on which column should we apply a random crack action?"* — and the
//! hot-range detector answers the companion question for the "No Time"
//! case: *which value ranges deserve extra refinement right now, during
//! query processing.*
//!
//! Because statistics are recorded on the hot query path, every recording
//! method takes `&self`: plain counters are per-column atomics, and the
//! per-column predicate histogram sits behind its own small mutex — the
//! only lock a query takes here. The observed [`WorkloadSummary`] the
//! advisor consumes is assembled on read from those per-column counters
//! and the histogram's predicate bounds. Readers receive
//! [`ColumnActivity`] snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use holistic_sync::{LockLevel, OrderedMutex, OrderedRwLock};

use holistic_offline::{ColumnWorkload, WorkloadSummary};
use holistic_storage::{ColumnId, Value};

/// Fixed-point scale of the per-column selectivity sum: a selectivity,
/// clamped to `[0, 1]`, is added as `s * 2^32` truncated, so one atomic
/// add records it and 2^32 queries fit the counter.
const SELECTIVITY_ONE: f64 = 4_294_967_296.0;

/// `selectivity` in the fixed point of [`SELECTIVITY_ONE`].
fn fixed_selectivity(selectivity: f64) -> u64 {
    (selectivity.clamp(0.0, 1.0) * SELECTIVITY_ONE) as u64
}

/// Snapshot of one column's activity statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnActivity {
    /// Queries that touched this column.
    pub queries: u64,
    /// Auxiliary (idle-time or boost) refinement actions applied.
    pub auxiliary_actions: u64,
    /// Number of pieces the column's cracker index currently has
    /// (1 means "completely unindexed or fully sorted single piece").
    pub piece_count: usize,
    /// Average piece length of the cracker column.
    pub avg_piece_len: f64,
    /// Number of values in the column.
    pub column_len: usize,
    /// Domain seen in predicates: smallest lower bound.
    pub predicate_min: Option<Value>,
    /// Domain seen in predicates: largest upper bound.
    pub predicate_max: Option<Value>,
    /// Histogram of predicate hits over the predicate domain, used to find
    /// hot ranges. Bucket `i` counts queries whose range overlapped bucket
    /// `i` of `[predicate_min, predicate_max)`.
    hot_buckets: Vec<u64>,
}

impl ColumnActivity {
    /// Number of queries whose predicate overlapped the bucket containing
    /// the value range `[lo, hi)` (maximum over the overlapped buckets).
    /// Ranges disjoint from the observed predicate domain return 0.
    #[must_use]
    pub fn hot_hits(&self, lo: Value, hi: Value) -> u64 {
        hot_hits_in(
            self.predicate_min,
            self.predicate_max,
            &self.hot_buckets,
            lo,
            hi,
        )
    }
}

/// Shared hot-hits computation over a predicate histogram.
///
/// A range entirely outside the observed predicate domain (`lo >= pmax` or
/// `hi <= pmin`) has never been queried and returns 0 — clamping it into an
/// edge bucket would let brand-new cold ranges inherit the edge bucket's hit
/// count and be misclassified as hot.
fn hot_hits_in(
    pmin: Option<Value>,
    pmax: Option<Value>,
    buckets: &[u64],
    lo: Value,
    hi: Value,
) -> u64 {
    let (Some(pmin), Some(pmax)) = (pmin, pmax) else {
        return 0;
    };
    if pmax <= pmin || hi <= lo {
        return 0;
    }
    if lo >= pmax || hi <= pmin {
        return 0;
    }
    let span = (pmax - pmin) as f64;
    let n = buckets.len();
    let to_bucket = |v: Value| -> usize {
        let rel = ((v - pmin) as f64 / span * n as f64).floor() as isize;
        rel.clamp(0, n as isize - 1) as usize
    };
    let b_lo = to_bucket(lo.max(pmin));
    let b_hi = to_bucket((hi - 1).min(pmax));
    buckets[b_lo..=b_hi].iter().copied().max().unwrap_or(0)
}

/// The predicate-domain histogram of one column (mutex-protected part).
#[derive(Debug, Clone)]
struct PredicateHistogram {
    predicate_min: Option<Value>,
    predicate_max: Option<Value>,
    hot_buckets: Vec<u64>,
}

impl PredicateHistogram {
    fn new(buckets: usize) -> Self {
        PredicateHistogram {
            predicate_min: None,
            predicate_max: None,
            hot_buckets: vec![0; buckets.max(1)],
        }
    }

    fn record_predicate(&mut self, lo: Value, hi: Value) {
        // Grow the tracked predicate domain first, then bump the buckets the
        // range overlaps. Growing the domain does not rescale old buckets —
        // hot-range detection only needs to be approximately right and the
        // domain stabilizes after the first handful of queries.
        self.predicate_min = Some(self.predicate_min.map_or(lo, |m| m.min(lo)));
        self.predicate_max = Some(self.predicate_max.map_or(hi, |m| m.max(hi)));
        let (Some(pmin), Some(pmax)) = (self.predicate_min, self.predicate_max) else {
            // Unreachable (both were just set), but a histogram hiccup must
            // never abort query execution — skip the bucket update instead.
            return;
        };
        if pmax <= pmin || hi <= lo {
            return;
        }
        let span = (pmax - pmin) as f64;
        let n = self.hot_buckets.len();
        let to_bucket = |v: Value| -> usize {
            let rel = ((v - pmin) as f64 / span * n as f64).floor() as isize;
            rel.clamp(0, n as isize - 1) as usize
        };
        let b_lo = to_bucket(lo);
        let b_hi = to_bucket(hi - 1);
        for b in &mut self.hot_buckets[b_lo..=b_hi] {
            *b += 1;
        }
    }
}

/// One column's live statistics: atomic counters plus the histogram mutex.
#[derive(Debug)]
struct ColumnStats {
    queries: AtomicU64,
    /// Summed clamped selectivity of the column's queries, fixed-point
    /// with [`SELECTIVITY_ONE`].
    selectivity_sum: AtomicU64,
    auxiliary_actions: AtomicU64,
    piece_count: AtomicUsize,
    /// `f64` bits of the average piece length.
    avg_piece_len: AtomicU64,
    column_len: AtomicUsize,
    predicate: OrderedMutex<PredicateHistogram>,
}

impl ColumnStats {
    fn new(buckets: usize) -> Self {
        ColumnStats {
            queries: AtomicU64::new(0),
            selectivity_sum: AtomicU64::new(0),
            auxiliary_actions: AtomicU64::new(0),
            piece_count: AtomicUsize::new(1),
            avg_piece_len: AtomicU64::new(0.0_f64.to_bits()),
            column_len: AtomicUsize::new(0),
            predicate: OrderedMutex::new(
                LockLevel::Histogram,
                "ColumnStats::predicate",
                PredicateHistogram::new(buckets),
            ),
        }
    }

    /// Records `n` queries whose fixed-point selectivities sum to
    /// `selectivity_sum`.
    fn add_queries(&self, n: u64, selectivity_sum: u64) {
        self.queries.fetch_add(n, Ordering::Relaxed);
        self.selectivity_sum
            .fetch_add(selectivity_sum, Ordering::Relaxed);
    }

    /// The column's entry of the observed workload summary, or `None`
    /// while it has seen no query.
    fn workload(&self) -> Option<ColumnWorkload> {
        let queries = self.queries.load(Ordering::Relaxed);
        if queries == 0 {
            return None;
        }
        let selectivity_sum = self.selectivity_sum.load(Ordering::Relaxed) as f64 / SELECTIVITY_ONE;
        let predicate = self.predicate.lock();
        Some(ColumnWorkload {
            queries,
            avg_selectivity: (selectivity_sum / queries as f64).clamp(0.0, 1.0),
            min_bound: predicate.predicate_min,
            max_bound: predicate.predicate_max,
        })
    }

    fn snapshot(&self) -> ColumnActivity {
        let predicate = self.predicate.lock().clone();
        ColumnActivity {
            queries: self.queries.load(Ordering::Relaxed),
            auxiliary_actions: self.auxiliary_actions.load(Ordering::Relaxed),
            piece_count: self.piece_count.load(Ordering::Relaxed),
            avg_piece_len: f64::from_bits(self.avg_piece_len.load(Ordering::Relaxed)),
            column_len: self.column_len.load(Ordering::Relaxed),
            predicate_min: predicate.predicate_min,
            predicate_max: predicate.predicate_max,
            hot_buckets: predicate.hot_buckets,
        }
    }
}

/// The kernel-wide statistics store.
///
/// All recording methods take `&self`; the store is safe to share across
/// query threads and the background tuner.
#[derive(Debug)]
pub struct KernelStatistics {
    columns: OrderedRwLock<BTreeMap<ColumnId, ColumnStats>>,
    total_queries: AtomicU64,
    hot_range_buckets: usize,
}

impl KernelStatistics {
    /// Creates an empty statistics store with the given number of hot-range
    /// buckets per column.
    #[must_use]
    pub fn new(hot_range_buckets: usize) -> Self {
        KernelStatistics {
            columns: OrderedRwLock::new(
                LockLevel::StatsMap,
                "KernelStatistics::columns",
                BTreeMap::new(),
            ),
            total_queries: AtomicU64::new(0),
            hot_range_buckets: hot_range_buckets.max(1),
        }
    }

    /// Runs `f` on the [`ColumnStats`] entry for `id` (created on first
    /// use), borrowed under the map's read guard — no reference-count
    /// traffic on the entry. `f` may take the entry's histogram lock
    /// (`StatsMap` → `Histogram` is in hierarchy order).
    fn with_entry<T>(&self, id: ColumnId, f: impl FnOnce(&ColumnStats) -> T) -> T {
        {
            let map = self.columns.read();
            if let Some(stats) = map.get(&id) {
                return f(stats);
            }
        }
        let mut map = self.columns.write();
        f(map
            .entry(id)
            .or_insert_with(|| ColumnStats::new(self.hot_range_buckets)))
    }

    /// Registers a column with its size (idempotent; updates the size).
    pub fn register_column(&self, id: ColumnId, len: usize) {
        self.with_entry(id, |entry| {
            entry.column_len.store(len, Ordering::Relaxed);
            let current = f64::from_bits(entry.avg_piece_len.load(Ordering::Relaxed));
            if current == 0.0 {
                entry
                    .avg_piece_len
                    .store((len as f64).to_bits(), Ordering::Relaxed);
            }
        });
    }

    /// Forgets a column entirely (dropped table): the ranking model stops
    /// considering it immediately and its queries leave both the workload
    /// summary and the kernel-wide query total, so the advisor never sees
    /// ghost columns and the remaining columns' frequencies stay exact.
    pub fn deregister_column(&self, id: ColumnId) -> bool {
        let removed = self.columns.write().remove(&id);
        match removed {
            Some(stats) => {
                let ghost_queries = stats.queries.load(Ordering::Relaxed);
                let _ =
                    self.total_queries
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                            Some(t.saturating_sub(ghost_queries))
                        });
                true
            }
            None => false,
        }
    }

    /// Records an executed query and its selectivity.
    pub fn record_query(&self, id: ColumnId, lo: Value, hi: Value, selectivity: f64) {
        self.with_entry(id, |entry| {
            entry.add_queries(1, fixed_selectivity(selectivity));
            entry.predicate.lock().record_predicate(lo, hi);
        });
        self.total_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a whole batch of executed queries on one column: the bulk
    /// counterpart of [`KernelStatistics::record_query`]. One entry lookup
    /// and one histogram-lock acquisition cover the entire batch, so a
    /// batched executor does not pay the per-query lock traffic `n`
    /// separate calls would.
    ///
    /// `predicates` holds one `(lo, hi, selectivity)` triple per query.
    pub fn record_queries(&self, id: ColumnId, predicates: &[(Value, Value, f64)]) {
        if predicates.is_empty() {
            return;
        }
        self.with_entry(id, |entry| {
            let selectivity_sum = predicates
                .iter()
                .map(|&(_, _, s)| fixed_selectivity(s))
                .sum();
            entry.add_queries(predicates.len() as u64, selectivity_sum);
            let mut histogram = entry.predicate.lock();
            for &(lo, hi, _) in predicates {
                histogram.record_predicate(lo, hi);
            }
        });
        self.total_queries
            .fetch_add(predicates.len() as u64, Ordering::Relaxed);
    }

    /// Records the effect of refinement on a column (new piece
    /// statistics). Stores only when the piece shape changed, so a
    /// zero-read answer — which reports the shape it found — writes no
    /// shared line.
    pub fn record_refinement(&self, id: ColumnId, piece_count: usize, avg_piece_len: f64) {
        self.with_entry(id, |entry| {
            if entry.piece_count.load(Ordering::Relaxed) != piece_count {
                entry.piece_count.store(piece_count, Ordering::Relaxed);
            }
            let bits = avg_piece_len.to_bits();
            if entry.avg_piece_len.load(Ordering::Relaxed) != bits {
                entry.avg_piece_len.store(bits, Ordering::Relaxed);
            }
        });
    }

    /// Records auxiliary refinement actions applied to a column.
    pub fn record_auxiliary_actions(&self, id: ColumnId, actions: u64) {
        self.with_entry(id, |entry| {
            entry
                .auxiliary_actions
                .fetch_add(actions, Ordering::Relaxed);
        });
    }

    /// Activity snapshot for a column, if it has been seen.
    #[must_use]
    pub fn column(&self, id: ColumnId) -> Option<ColumnActivity> {
        self.columns.read().get(&id).map(|s| s.snapshot())
    }

    /// Snapshots of all known columns with their activity.
    #[must_use]
    pub fn columns(&self) -> Vec<(ColumnId, ColumnActivity)> {
        self.columns
            .read()
            .iter()
            .map(|(id, s)| (*id, s.snapshot()))
            .collect()
    }

    /// The per-column inputs of the ranking model, read from the atomic
    /// counters only: `(column, queries, avg_piece_len, column_len)`.
    /// Unlike [`KernelStatistics::columns`] this takes no per-column
    /// predicate locks and clones no histograms, so the idle loop can call
    /// it once per refinement action without contending with queries.
    #[must_use]
    pub fn ranking_rows(&self) -> Vec<(ColumnId, u64, f64, usize)> {
        self.columns
            .read()
            .iter()
            .map(|(id, s)| {
                (
                    *id,
                    s.queries.load(Ordering::Relaxed),
                    f64::from_bits(s.avg_piece_len.load(Ordering::Relaxed)),
                    s.column_len.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Total number of recorded queries.
    #[must_use]
    pub fn total_queries(&self) -> u64 {
        self.total_queries.load(Ordering::Relaxed)
    }

    /// Fraction of recorded queries touching `id`.
    #[must_use]
    pub fn frequency(&self, id: ColumnId) -> f64 {
        let total = self.total_queries();
        if total == 0 {
            return 0.0;
        }
        self.columns.read().get(&id).map_or(0.0, |s| {
            s.queries.load(Ordering::Relaxed) as f64 / total as f64
        })
    }

    /// The observed workload summary (feedable to the offline advisor),
    /// assembled from the per-column counters and predicate bounds.
    /// Columns that have seen no query are absent.
    #[must_use]
    pub fn summary(&self) -> WorkloadSummary {
        let mut summary = WorkloadSummary::new();
        for (id, stats) in self.columns.read().iter() {
            if let Some(workload) = stats.workload() {
                summary.insert_column(*id, workload);
            }
        }
        summary
    }

    /// Whether the value range `[lo, hi)` of column `id` is hot: at least
    /// `threshold` queries have already cracked this region.
    #[must_use]
    pub fn is_hot_range(&self, id: ColumnId, lo: Value, hi: Value, threshold: u64) -> bool {
        let map = self.columns.read();
        let Some(entry) = map.get(&id) else {
            return false;
        };
        let predicate = entry.predicate.lock();
        hot_hits_in(
            predicate.predicate_min,
            predicate.predicate_max,
            &predicate.hot_buckets,
            lo,
            hi,
        ) >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_storage::TableId;

    fn col(i: u32) -> ColumnId {
        ColumnId::new(TableId(0), i)
    }

    #[test]
    fn register_and_record_queries() {
        let s = KernelStatistics::new(16);
        s.register_column(col(0), 1000);
        assert_eq!(s.column(col(0)).unwrap().column_len, 1000);
        assert_eq!(s.column(col(0)).unwrap().avg_piece_len, 1000.0);
        s.record_query(col(0), 10, 20, 0.01);
        s.record_query(col(1), 0, 5, 0.005);
        assert_eq!(s.total_queries(), 2);
        assert_eq!(s.column(col(0)).unwrap().queries, 1);
        assert!((s.frequency(col(0)) - 0.5).abs() < 1e-9);
        assert_eq!(s.summary().total_queries(), 2);
        assert_eq!(s.columns().len(), 2);
    }

    #[test]
    fn bulk_recording_matches_per_query_recording() {
        let bulk = KernelStatistics::new(16);
        let single = KernelStatistics::new(16);
        bulk.register_column(col(0), 1000);
        single.register_column(col(0), 1000);
        let preds = [(10i64, 20i64, 0.01), (15, 25, 0.01), (500, 600, 0.1)];
        bulk.record_queries(col(0), &preds);
        for &(lo, hi, sel) in &preds {
            single.record_query(col(0), lo, hi, sel);
        }
        assert_eq!(bulk.total_queries(), single.total_queries());
        assert_eq!(bulk.column(col(0)), single.column(col(0)));
        assert_eq!(bulk.summary(), single.summary());
        // Empty batches are free.
        bulk.record_queries(col(0), &[]);
        assert_eq!(bulk.total_queries(), 3);
    }

    #[test]
    fn summary_is_assembled_from_the_column_counters() {
        let s = KernelStatistics::new(16);
        s.register_column(col(0), 1000);
        s.register_column(col(2), 1000);
        s.record_query(col(0), 100, 200, 0.01);
        s.record_query(col(0), 50, 150, 0.03);
        s.record_query(col(1), 0, 1000, 0.5);
        s.record_query(col(1), 0, 10, 7.5); // clamped to 1
        let mut expected = WorkloadSummary::new();
        expected.record_query(col(0), 0.01, 100, 200);
        expected.record_query(col(0), 0.03, 50, 150);
        expected.record_query(col(1), 0.5, 0, 1000);
        expected.record_query(col(1), 7.5, 0, 10);
        let got = s.summary();
        assert_eq!(got.total_queries(), expected.total_queries());
        // Registered but never queried: absent, as in the advisor's view.
        assert!(got.column(col(2)).is_none());
        for id in [col(0), col(1)] {
            let (g, e) = (got.column(id).unwrap(), expected.column(id).unwrap());
            assert_eq!(g.queries, e.queries);
            assert_eq!((g.min_bound, g.max_bound), (e.min_bound, e.max_bound));
            assert!((g.avg_selectivity - e.avg_selectivity).abs() < 1e-9);
        }
    }

    #[test]
    fn refinement_updates_piece_statistics() {
        let s = KernelStatistics::new(16);
        s.register_column(col(0), 1000);
        s.record_refinement(col(0), 8, 125.0);
        s.record_auxiliary_actions(col(0), 5);
        let a = s.column(col(0)).unwrap();
        assert_eq!(a.piece_count, 8);
        assert_eq!(a.avg_piece_len, 125.0);
        assert_eq!(a.auxiliary_actions, 5);
    }

    #[test]
    fn hot_range_detection_requires_repeated_hits() {
        let s = KernelStatistics::new(32);
        s.register_column(col(0), 100_000);
        // Establish the predicate domain with two far-apart queries.
        s.record_query(col(0), 0, 100, 0.001);
        s.record_query(col(0), 99_000, 100_000, 0.001);
        assert!(!s.is_hot_range(col(0), 50_000, 50_100, 3));
        // Hammer one region.
        for _ in 0..5 {
            s.record_query(col(0), 50_000, 50_100, 0.001);
        }
        assert!(s.is_hot_range(col(0), 50_000, 50_100, 3));
        assert!(s.is_hot_range(col(0), 50_010, 50_050, 3));
        // A region nobody queries stays cold.
        assert!(!s.is_hot_range(col(0), 10_000, 10_100, 3));
        // Unknown columns are never hot.
        assert!(!s.is_hot_range(col(9), 0, 10, 1));
    }

    #[test]
    fn ranges_outside_the_predicate_domain_are_never_hot() {
        // Regression: ranges disjoint from [predicate_min, predicate_max)
        // used to clamp into the edge bucket and inherit its hit count, so
        // brand-new cold ranges were misclassified as hot.
        let s = KernelStatistics::new(32);
        s.register_column(col(0), 100_000);
        for _ in 0..10 {
            s.record_query(col(0), 0, 1000, 0.01);
        }
        let a = s.column(col(0)).unwrap();
        // Inside the domain: hot.
        assert!(a.hot_hits(0, 1000) >= 10);
        // Entirely above the domain (lo >= pmax): cold, even right at the
        // boundary and far away.
        assert_eq!(a.hot_hits(1000, 2000), 0);
        assert_eq!(a.hot_hits(90_000, 90_100), 0);
        assert!(!s.is_hot_range(col(0), 90_000, 90_100, 1));
        // Entirely below the domain (hi <= pmin): cold.
        assert_eq!(a.hot_hits(-500, 0), 0);
        assert!(!s.is_hot_range(col(0), -500, 0, 1));
        // Overlapping the domain edge still counts.
        assert!(a.hot_hits(900, 1100) >= 10);
    }

    #[test]
    fn deregister_column_forgets_everything() {
        let s = KernelStatistics::new(8);
        s.register_column(col(0), 500);
        s.record_query(col(0), 0, 10, 0.01);
        s.record_query(col(1), 0, 10, 0.01);
        assert!(s.column(col(0)).is_some());
        assert!(s.deregister_column(col(0)));
        assert!(s.column(col(0)).is_none());
        assert_eq!(s.frequency(col(0)), 0.0);
        assert!(!s.is_hot_range(col(0), 0, 10, 1));
        // The workload summary forgets the ghost column too, so the
        // advisor and the remaining columns' frequencies stay consistent.
        let summary = s.summary();
        assert!(summary.column(col(0)).is_none());
        assert_eq!(summary.total_queries(), 1);
        // The kernel-wide total drops the ghost queries as well, so the
        // surviving column's frequency is exact, not diluted.
        assert_eq!(s.total_queries(), 1);
        assert!((s.frequency(col(1)) - 1.0).abs() < 1e-9);
        // Second deregistration is a no-op.
        assert!(!s.deregister_column(col(0)));
    }

    #[test]
    fn degenerate_predicates_do_not_poison_statistics() {
        let s = KernelStatistics::new(8);
        s.record_query(col(0), 10, 10, 0.0);
        s.record_query(col(0), 20, 5, 0.0);
        assert_eq!(s.column(col(0)).unwrap().queries, 2);
        assert!(!s.is_hot_range(col(0), 0, 100, 1));
    }

    #[test]
    fn frequency_of_unknown_column_is_zero() {
        let s = KernelStatistics::new(8);
        assert_eq!(s.frequency(col(3)), 0.0);
        assert_eq!(s.total_queries(), 0);
    }

    #[test]
    fn recording_is_shared_reference_safe() {
        let s = std::sync::Arc::new(KernelStatistics::new(16));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let s = std::sync::Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    s.record_query(col(t % 2), i, i + 10, 0.01);
                    s.record_auxiliary_actions(col(t % 2), 1);
                }
            }));
        }
        for h in handles {
            h.join().expect("stats writer panicked");
        }
        assert_eq!(s.total_queries(), 1000);
        let a = s.column(col(0)).unwrap();
        let b = s.column(col(1)).unwrap();
        assert_eq!(a.queries + b.queries, 1000);
        assert_eq!(a.auxiliary_actions + b.auxiliary_actions, 1000);
    }
}

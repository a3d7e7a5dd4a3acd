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
//! method takes `&self` and every per-column statistic is a fixed-size
//! atomic: counters, the predicate bounds, and the hot-range detector — a
//! count-min sketch of the exact predicates (two rows of
//! [`SKETCH_WIDTH`] counters) that halves itself every [`SKETCH_WIDTH`]
//! queries on the column, so it counts the current workload, not all of
//! history. Recording a query takes no lock beyond the statistics map's
//! read guard, and returns the query's predicate hits in the same step.
//! The observed [`WorkloadSummary`] the advisor consumes is assembled on
//! read from the per-column counters and bounds. Readers receive
//! [`ColumnActivity`] snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use holistic_sync::{LockLevel, OrderedRwLock};

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

/// Counters per row of a column's predicate sketch, and the number of the
/// column's queries after which every counter is halved. With one period
/// per width, uniform fresh predicates add about one hit per counter and
/// period, so a counter settles near two and a never-seen predicate reads
/// far below any useful threshold; a predicate repeated `k` times per
/// period settles near `2k`.
pub const SKETCH_WIDTH: usize = 256;

/// Hash rows of the predicate sketch: a predicate's estimate is its
/// smallest counter, so a false "hot" needs collisions in every row.
const SKETCH_ROWS: usize = 2;

/// The sketch slot of `(lo, hi)` in each row (a SplitMix64 finalizer over
/// both bounds; the rows use disjoint halves of the hash).
fn sketch_slots(lo: Value, hi: Value) -> [usize; SKETCH_ROWS] {
    let mut h = (lo as u64) ^ (hi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    [h as usize % SKETCH_WIDTH, (h >> 32) as usize % SKETCH_WIDTH]
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
}

/// One column's live statistics, all fixed-size atomics.
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
    /// Smallest predicate lower bound seen (`i64::MAX` before any query).
    predicate_min: AtomicI64,
    /// Largest predicate upper bound seen (`i64::MIN` before any query).
    predicate_max: AtomicI64,
    /// The count-min sketch of exact predicates (see [`SKETCH_WIDTH`]).
    sketch: [[AtomicU32; SKETCH_WIDTH]; SKETCH_ROWS],
}

impl ColumnStats {
    fn new() -> Self {
        ColumnStats {
            queries: AtomicU64::new(0),
            selectivity_sum: AtomicU64::new(0),
            auxiliary_actions: AtomicU64::new(0),
            piece_count: AtomicUsize::new(1),
            avg_piece_len: AtomicU64::new(0.0_f64.to_bits()),
            column_len: AtomicUsize::new(0),
            predicate_min: AtomicI64::new(i64::MAX),
            predicate_max: AtomicI64::new(i64::MIN),
            sketch: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU32::new(0))),
        }
    }

    /// Records `n` queries whose fixed-point selectivities sum to
    /// `selectivity_sum`; returns the query count before them.
    fn add_queries(&self, n: u64, selectivity_sum: u64) -> u64 {
        self.selectivity_sum
            .fetch_add(selectivity_sum, Ordering::Relaxed);
        self.queries.fetch_add(n, Ordering::Relaxed)
    }

    /// Records the predicate `[lo, hi)` of the column's `nth` query
    /// (1-based) and returns its hits: the sketch's estimate of how many
    /// recent queries, this one included, had exactly this predicate (0
    /// for an empty range). The recording thread of every
    /// [`SKETCH_WIDTH`]-th query halves the sketch afterwards.
    fn record_predicate(&self, lo: Value, hi: Value, nth: u64) -> u64 {
        // Load first: a bound that does not move writes no shared line.
        if lo < self.predicate_min.load(Ordering::Relaxed) {
            self.predicate_min.fetch_min(lo, Ordering::Relaxed);
        }
        if hi > self.predicate_max.load(Ordering::Relaxed) {
            self.predicate_max.fetch_max(hi, Ordering::Relaxed);
        }
        let hits = if hi > lo {
            self.sketch
                .iter()
                .zip(sketch_slots(lo, hi))
                .map(|(row, slot)| row[slot].fetch_add(1, Ordering::Relaxed).saturating_add(1))
                .min()
                .map_or(0, u64::from)
        } else {
            0
        };
        if nth.is_multiple_of(SKETCH_WIDTH as u64) {
            for counter in self.sketch.iter().flatten() {
                let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                    (c > 0).then_some(c / 2)
                });
            }
        }
        hits
    }

    /// The sketch's current estimate for the predicate `[lo, hi)`.
    fn predicate_hits(&self, lo: Value, hi: Value) -> u64 {
        if hi <= lo {
            return 0;
        }
        self.sketch
            .iter()
            .zip(sketch_slots(lo, hi))
            .map(|(row, slot)| row[slot].load(Ordering::Relaxed))
            .min()
            .map_or(0, u64::from)
    }

    /// The predicate bounds seen so far, `None` while the column has seen
    /// no query.
    fn predicate_bounds(&self, queries: u64) -> (Option<Value>, Option<Value>) {
        if queries == 0 {
            return (None, None);
        }
        (
            Some(self.predicate_min.load(Ordering::Relaxed)),
            Some(self.predicate_max.load(Ordering::Relaxed)),
        )
    }

    /// The column's entry of the observed workload summary, or `None`
    /// while it has seen no query.
    fn workload(&self) -> Option<ColumnWorkload> {
        let queries = self.queries.load(Ordering::Relaxed);
        if queries == 0 {
            return None;
        }
        let selectivity_sum = self.selectivity_sum.load(Ordering::Relaxed) as f64 / SELECTIVITY_ONE;
        let (min_bound, max_bound) = self.predicate_bounds(queries);
        Some(ColumnWorkload {
            queries,
            avg_selectivity: (selectivity_sum / queries as f64).clamp(0.0, 1.0),
            min_bound,
            max_bound,
        })
    }

    fn snapshot(&self) -> ColumnActivity {
        let queries = self.queries.load(Ordering::Relaxed);
        let (predicate_min, predicate_max) = self.predicate_bounds(queries);
        ColumnActivity {
            queries,
            auxiliary_actions: self.auxiliary_actions.load(Ordering::Relaxed),
            piece_count: self.piece_count.load(Ordering::Relaxed),
            avg_piece_len: f64::from_bits(self.avg_piece_len.load(Ordering::Relaxed)),
            column_len: self.column_len.load(Ordering::Relaxed),
            predicate_min,
            predicate_max,
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
}

impl Default for KernelStatistics {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelStatistics {
    /// Creates an empty statistics store.
    #[must_use]
    pub fn new() -> Self {
        KernelStatistics {
            columns: OrderedRwLock::new(
                LockLevel::StatsMap,
                "KernelStatistics::columns",
                BTreeMap::new(),
            ),
            total_queries: AtomicU64::new(0),
        }
    }

    /// Runs `f` on the [`ColumnStats`] entry for `id` (created on first
    /// use), borrowed under the map's read guard — no reference-count
    /// traffic on the entry.
    fn with_entry<T>(&self, id: ColumnId, f: impl FnOnce(&ColumnStats) -> T) -> T {
        {
            let map = self.columns.read();
            if let Some(stats) = map.get(&id) {
                return f(stats);
            }
        }
        let mut map = self.columns.write();
        f(map.entry(id).or_insert_with(ColumnStats::new))
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

    /// Records an executed query and its selectivity, and returns its
    /// predicate hits: how many recent queries on the column, this one
    /// included, had exactly the predicate `[lo, hi)` — a count-min
    /// estimate that decays (see [`SKETCH_WIDTH`]), so it may overcount
    /// by collisions but never undercounts within a decay period. The
    /// hot-range boost compares it with
    /// [`HolisticConfig::hot_range_query_threshold`](crate::HolisticConfig::hot_range_query_threshold).
    pub fn record_query(&self, id: ColumnId, lo: Value, hi: Value, selectivity: f64) -> u64 {
        let hits = self.with_entry(id, |entry| {
            let nth = entry.add_queries(1, fixed_selectivity(selectivity)) + 1;
            entry.record_predicate(lo, hi, nth)
        });
        self.total_queries.fetch_add(1, Ordering::Relaxed);
        hits
    }

    /// Records a whole batch of executed queries on one column: the bulk
    /// counterpart of [`KernelStatistics::record_query`], with one entry
    /// lookup and one counter update for the entire batch. Calls
    /// `on_hits(i, hits)` with each query's predicate hits, in order:
    /// query `i` counts its predecessors in the batch, as if the batch
    /// had run one by one.
    ///
    /// `predicates` holds one `(lo, hi, selectivity)` triple per query.
    pub fn record_queries(
        &self,
        id: ColumnId,
        predicates: &[(Value, Value, f64)],
        mut on_hits: impl FnMut(usize, u64),
    ) {
        if predicates.is_empty() {
            return;
        }
        self.with_entry(id, |entry| {
            let selectivity_sum = predicates
                .iter()
                .map(|&(_, _, s)| fixed_selectivity(s))
                .sum();
            let before = entry.add_queries(predicates.len() as u64, selectivity_sum);
            for (i, (&(lo, hi, _), nth)) in predicates.iter().zip(before + 1..).enumerate() {
                on_hits(i, entry.record_predicate(lo, hi, nth));
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
    /// The idle loop calls it once per refinement action.
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

    /// The current predicate hits of `[lo, hi)` on column `id` (see
    /// [`KernelStatistics::record_query`]), read without recording
    /// anything. Unknown columns and empty ranges read 0.
    #[must_use]
    pub fn predicate_hits(&self, id: ColumnId, lo: Value, hi: Value) -> u64 {
        self.columns
            .read()
            .get(&id)
            .map_or(0, |entry| entry.predicate_hits(lo, hi))
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
        let s = KernelStatistics::new();
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
        let bulk = KernelStatistics::new();
        let single = KernelStatistics::new();
        bulk.register_column(col(0), 1000);
        single.register_column(col(0), 1000);
        let preds = [(10i64, 20i64, 0.01), (15, 25, 0.01), (500, 600, 0.1)];
        let mut bulk_hits = Vec::new();
        bulk.record_queries(col(0), &preds, |_, hits| bulk_hits.push(hits));
        let single_hits: Vec<u64> = preds
            .iter()
            .map(|&(lo, hi, sel)| single.record_query(col(0), lo, hi, sel))
            .collect();
        assert_eq!(bulk_hits, single_hits);
        assert_eq!(bulk.total_queries(), single.total_queries());
        assert_eq!(bulk.column(col(0)), single.column(col(0)));
        assert_eq!(bulk.summary(), single.summary());
        // Empty batches are free.
        bulk.record_queries(col(0), &[], |_, _| panic!("no query, no hits"));
        assert_eq!(bulk.total_queries(), 3);
    }

    #[test]
    fn summary_is_assembled_from_the_column_counters() {
        let s = KernelStatistics::new();
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
        let s = KernelStatistics::new();
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
        let s = KernelStatistics::new();
        s.register_column(col(0), 100_000);
        // Two far-apart queries.
        s.record_query(col(0), 0, 100, 0.001);
        s.record_query(col(0), 99_000, 100_000, 0.001);
        assert!(s.predicate_hits(col(0), 50_000, 50_100) < 3);
        // Hammer one range: each recording returns the hits so far.
        let hits: Vec<u64> = (0..5)
            .map(|_| s.record_query(col(0), 50_000, 50_100, 0.001))
            .collect();
        assert_eq!(hits, [1, 2, 3, 4, 5]);
        assert!(s.predicate_hits(col(0), 50_000, 50_100) >= 3);
        // A range nobody queries stays cold.
        assert!(s.predicate_hits(col(0), 10_000, 10_100) < 3);
        // Unknown columns are never hot.
        assert_eq!(s.predicate_hits(col(9), 0, 10), 0);
    }

    #[test]
    fn ranges_outside_the_predicate_domain_are_never_hot() {
        // Regression from the bucketed detector: ranges disjoint from the
        // predicate domain inherited an edge bucket's hits. The sketch is
        // keyed by exact predicates, so such ranges read no hits at all.
        let s = KernelStatistics::new();
        s.register_column(col(0), 100_000);
        for _ in 0..10 {
            s.record_query(col(0), 0, 1000, 0.01);
        }
        assert_eq!(s.predicate_hits(col(0), 0, 1000), 10);
        // Entirely above the domain (lo >= pmax): cold, even right at the
        // boundary and far away.
        assert_eq!(s.predicate_hits(col(0), 1000, 2000), 0);
        assert_eq!(s.predicate_hits(col(0), 90_000, 90_100), 0);
        // Entirely below the domain (hi <= pmin): cold.
        assert_eq!(s.predicate_hits(col(0), -500, 0), 0);
    }

    /// A uniform 1 % range over a 2^22 domain.
    fn uniform_range(rng: &mut rand::rngs::StdRng) -> (Value, Value) {
        use rand::Rng;
        const DOMAIN: Value = 1 << 22;
        let width = DOMAIN / 100;
        let lo = rng.gen_range(0..DOMAIN - width);
        (lo, lo + width)
    }

    /// `queries` uniform 1 % ranges recorded on column 0 of a fresh store.
    fn steady_state(queries: usize) -> (KernelStatistics, rand::rngs::StdRng) {
        use rand::SeedableRng;
        let s = KernelStatistics::new();
        s.register_column(col(0), 1 << 22);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..queries {
            let (lo, hi) = uniform_range(&mut rng);
            s.record_query(col(0), lo, hi, 0.01);
        }
        (s, rng)
    }

    #[test]
    fn fresh_ranges_stay_cold_at_steady_state() {
        // The bucketed detector read 100 % of fresh ranges as hot after
        // about 1,000 uniform queries; the sketch's counts decay.
        let threshold = crate::HolisticConfig::default().hot_range_query_threshold;
        let (s, mut rng) = steady_state(10_000);
        let hot = (0..10_000)
            .filter(|_| {
                let (lo, hi) = uniform_range(&mut rng);
                s.record_query(col(0), lo, hi, 0.01) >= threshold
            })
            .count();
        assert!(hot <= 100, "{hot} of 10,000 fresh ranges classified hot");
    }

    #[test]
    fn a_repeated_range_turns_hot_among_uniform_traffic() {
        let threshold = crate::HolisticConfig::default().hot_range_query_threshold;
        let (s, mut rng) = steady_state(10_000);
        let (lo, hi) = (1_000_003, 1_041_946);
        let mut first_hot = None;
        for replay in 1..=100u64 {
            if s.record_query(col(0), lo, hi, 0.01) >= threshold {
                first_hot.get_or_insert(replay);
            }
            for _ in 0..10 {
                let (flo, fhi) = uniform_range(&mut rng);
                s.record_query(col(0), flo, fhi, 0.01);
            }
        }
        let first_hot = first_hot.expect("the repeated range never classified hot");
        assert!(first_hot <= 16, "hot only at replay {first_hot}");
        // And it stays hot: the decay keeps about two periods of hits.
        assert!(s.predicate_hits(col(0), lo, hi) >= threshold);
    }

    #[test]
    fn deregister_column_forgets_everything() {
        let s = KernelStatistics::new();
        s.register_column(col(0), 500);
        s.record_query(col(0), 0, 10, 0.01);
        s.record_query(col(1), 0, 10, 0.01);
        assert!(s.column(col(0)).is_some());
        assert!(s.deregister_column(col(0)));
        assert!(s.column(col(0)).is_none());
        assert_eq!(s.frequency(col(0)), 0.0);
        assert_eq!(s.predicate_hits(col(0), 0, 10), 0);
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
        let s = KernelStatistics::new();
        s.record_query(col(0), 10, 10, 0.0);
        s.record_query(col(0), 20, 5, 0.0);
        assert_eq!(s.column(col(0)).unwrap().queries, 2);
        assert_eq!(s.predicate_hits(col(0), 0, 100), 0);
        assert_eq!(s.predicate_hits(col(0), 10, 10), 0);
    }

    #[test]
    fn frequency_of_unknown_column_is_zero() {
        let s = KernelStatistics::new();
        assert_eq!(s.frequency(col(3)), 0.0);
        assert_eq!(s.total_queries(), 0);
    }

    #[test]
    fn recording_is_shared_reference_safe() {
        let s = std::sync::Arc::new(KernelStatistics::new());
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

//! Engine metrics: query counters and cumulative timing.
//!
//! The paper's figures plot *cumulative response time* over the query
//! sequence; the engine counts, for every executed query, its access path
//! and adds its wall-clock latency to a running total, plus the time spent
//! on tuning (idle-time refinement, offline builds) so the benches can
//! attribute every microsecond. The per-query series itself is the
//! caller's: every [`crate::QueryResult`] carries its latency.
//!
//! Recording happens on the hot query path from many threads at once, so
//! all methods take `&self` and every field is a fixed-size atomic
//! counter: recording takes no lock and allocates nothing, however long
//! the engine runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use holistic_cracking::{AggregateCacheDelta, KernelDispatches};

use crate::engine::query::AccessPath;

/// Snapshot of the service-layer overload counters: how admission
/// control, deadline shedding and saturation degradation treated the
/// traffic a front-door service pushed at the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Queries accepted into an admission queue.
    pub admitted: u64,
    /// Queries rejected because the global queue bound was hit.
    pub rejected_global: u64,
    /// Queries rejected because a per-client queue bound was hit.
    pub rejected_client: u64,
    /// Queries shed (at admission or dispatch) because their deadline
    /// expired before execution.
    pub shed_deadline: u64,
    /// Queries abandoned cooperatively (client disconnected while queued).
    pub cancelled: u64,
    /// Queries answered on the degraded read-only (zero-reorganization)
    /// path while the service was saturated.
    pub degraded_answers: u64,
    /// Times the service flipped from normal into saturation mode.
    pub saturation_entries: u64,
    /// High-water mark of the global admission queue depth.
    pub peak_queue_depth: u64,
    /// Batches the service dispatcher formed and dispatched.
    pub dispatched_batches: u64,
    /// Summed service-clock wait between admission and dispatch, over
    /// every dispatched query, in microseconds.
    pub queue_wait_us_total: u64,
    /// Longest single admission-to-dispatch wait, in microseconds.
    pub queue_wait_us_max: u64,
    /// Summed service-clock time from batch formation to the batch's last
    /// response being sent, in microseconds.
    pub dispatch_us_total: u64,
}

/// Snapshot of the runtime-integrity counters: how containment,
/// quarantine and the background scrubber treated learned state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityCounters {
    /// Columns quarantined (panic containment, paranoia, or scrub).
    pub quarantined: u64,
    /// Quarantined columns rebuilt from base data by the tuner.
    pub rebuilt: u64,
    /// Queries answered through the degraded base-storage scan path
    /// while their column was quarantined or rebuilding.
    pub degraded_scans: u64,
    /// Pieces the background scrubber has re-validated.
    pub scrubbed_pieces: u64,
    /// Faults the scrubber detected (each one quarantined a column).
    pub scrub_faults: u64,
}

/// Engine-wide metrics. Safe to record into from multiple threads.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Executed queries per access path, indexed by [`path_slot`].
    queries: [AtomicU64; 3],
    /// Summed latency of every executed query, in nanoseconds.
    query_nanos: AtomicU64,
    /// The recovery outcome of the engine's birth, if it was recovered
    /// from a persistence directory. Set once; a birth fact, not a
    /// recorded metric, so [`EngineMetrics::reset`] keeps it.
    recovery: OnceLock<crate::engine::persist::RecoveryOutcome>,
    integ_quarantined: AtomicU64,
    integ_rebuilt: AtomicU64,
    integ_degraded_scans: AtomicU64,
    integ_scrubbed_pieces: AtomicU64,
    integ_scrub_faults: AtomicU64,
    tuning_nanos: AtomicU64,
    build_nanos: AtomicU64,
    auxiliary_actions: AtomicU64,
    dispatches_branchy: AtomicU64,
    dispatches_predicated: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    aggregate_hits: AtomicU64,
    aggregate_prefix: AtomicU64,
    aggregate_partials: AtomicU64,
    aggregate_misses: AtomicU64,
    aggregate_scanned_values: AtomicU64,
    svc_admitted: AtomicU64,
    svc_rejected_global: AtomicU64,
    svc_rejected_client: AtomicU64,
    svc_shed_deadline: AtomicU64,
    svc_cancelled: AtomicU64,
    svc_degraded_answers: AtomicU64,
    svc_saturation_entries: AtomicU64,
    svc_peak_queue_depth: AtomicU64,
    svc_dispatched_batches: AtomicU64,
    svc_queue_wait_us_total: AtomicU64,
    svc_queue_wait_us_max: AtomicU64,
    svc_dispatch_us_total: AtomicU64,
}

/// The slot of `path` in [`EngineMetrics`]' per-path query counters.
fn path_slot(path: AccessPath) -> usize {
    match path {
        AccessPath::Scan => 0,
        AccessPath::FullIndex => 1,
        AccessPath::Crack => 2,
    }
}

/// Nanoseconds of `d`, saturating at `u64::MAX` (584 years).
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl EngineMetrics {
    /// Creates an empty metrics store.
    #[must_use]
    pub fn new() -> Self {
        EngineMetrics::default()
    }

    /// Records one executed query: its access path and latency.
    pub fn record_query(&self, path: AccessPath, latency: Duration) {
        self.record_queries(path, 1, latency);
    }

    /// Records `n` executed queries that all took `path`, with their
    /// summed latency (the bulk counterpart of
    /// [`EngineMetrics::record_query`]).
    pub fn record_queries(&self, path: AccessPath, n: u64, latency: Duration) {
        if n == 0 {
            return;
        }
        self.queries[path_slot(path)].fetch_add(n, Ordering::Relaxed);
        self.query_nanos
            .fetch_add(nanos(latency), Ordering::Relaxed);
    }

    /// Records that one `execute_batch` call served `queries` queries.
    pub fn record_batch(&self, queries: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_queries.fetch_add(queries, Ordering::Relaxed);
    }

    /// Number of `execute_batch` calls recorded so far.
    #[must_use]
    pub fn batches_executed(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Number of queries served through the batched path so far.
    #[must_use]
    pub fn batched_queries(&self) -> u64 {
        self.batched_queries.load(Ordering::Relaxed)
    }

    /// Adds time spent on idle-time tuning.
    pub fn add_tuning_time(&self, d: Duration, actions: u64) {
        self.tuning_nanos.fetch_add(nanos(d), Ordering::Relaxed);
        self.auxiliary_actions.fetch_add(actions, Ordering::Relaxed);
    }

    /// Adds time spent building full (offline/online) indexes.
    pub fn add_build_time(&self, d: Duration) {
        self.build_nanos.fetch_add(nanos(d), Ordering::Relaxed);
    }

    /// Accumulates aggregate-cache classifications: how many count/sum
    /// answers were composed purely from cached whole-piece sums (hits),
    /// needed a prefix-sum difference while still reading no data (prefix —
    /// sorted-piece interiors and prefix-backed full-index probes), mixed
    /// cached pieces and scans (partials), or found no cache at all
    /// (misses), plus the data values the scan fallback had to read.
    pub fn record_aggregate_cache(&self, delta: AggregateCacheDelta) {
        if delta.hits > 0 {
            self.aggregate_hits.fetch_add(delta.hits, Ordering::Relaxed);
        }
        if delta.prefix > 0 {
            self.aggregate_prefix
                .fetch_add(delta.prefix, Ordering::Relaxed);
        }
        if delta.partials > 0 {
            self.aggregate_partials
                .fetch_add(delta.partials, Ordering::Relaxed);
        }
        if delta.misses > 0 {
            self.aggregate_misses
                .fetch_add(delta.misses, Ordering::Relaxed);
        }
        if delta.scanned_values > 0 {
            self.aggregate_scanned_values
                .fetch_add(delta.scanned_values, Ordering::Relaxed);
        }
    }

    /// Aggregate-cache totals recorded so far.
    #[must_use]
    pub fn aggregate_cache(&self) -> AggregateCacheDelta {
        AggregateCacheDelta {
            hits: self.aggregate_hits.load(Ordering::Relaxed),
            prefix: self.aggregate_prefix.load(Ordering::Relaxed),
            partials: self.aggregate_partials.load(Ordering::Relaxed),
            misses: self.aggregate_misses.load(Ordering::Relaxed),
            scanned_values: self.aggregate_scanned_values.load(Ordering::Relaxed),
        }
    }

    /// Accumulates crack-kernel dispatch counts (branchy vs. predicated).
    /// Zero deltas — every zero-read answer — write nothing.
    pub fn add_kernel_dispatches(&self, delta: KernelDispatches) {
        if delta.branchy > 0 {
            self.dispatches_branchy
                .fetch_add(delta.branchy, Ordering::Relaxed);
        }
        if delta.predicated > 0 {
            self.dispatches_predicated
                .fetch_add(delta.predicated, Ordering::Relaxed);
        }
    }

    /// Crack-kernel dispatches recorded so far, split by physical form —
    /// lets benches report which kernel path actually served a workload.
    #[must_use]
    pub fn kernel_dispatches(&self) -> KernelDispatches {
        KernelDispatches {
            branchy: self.dispatches_branchy.load(Ordering::Relaxed),
            predicated: self.dispatches_predicated.load(Ordering::Relaxed),
        }
    }

    /// Number of executed queries.
    #[must_use]
    pub fn query_count(&self) -> u64 {
        self.queries.iter().map(|q| q.load(Ordering::Relaxed)).sum()
    }

    /// Total query latency so far.
    #[must_use]
    pub fn total_query_time(&self) -> Duration {
        Duration::from_nanos(self.query_nanos.load(Ordering::Relaxed))
    }

    /// Time spent on idle-time tuning.
    #[must_use]
    pub fn tuning_time(&self) -> Duration {
        Duration::from_nanos(self.tuning_nanos.load(Ordering::Relaxed))
    }

    /// Time spent building full indexes.
    #[must_use]
    pub fn build_time(&self) -> Duration {
        Duration::from_nanos(self.build_nanos.load(Ordering::Relaxed))
    }

    /// Auxiliary refinement actions applied so far.
    #[must_use]
    pub fn auxiliary_actions(&self) -> u64 {
        self.auxiliary_actions.load(Ordering::Relaxed)
    }

    /// How many queries used each access path: `(scan, full index, crack)`.
    #[must_use]
    pub fn path_breakdown(&self) -> (u64, u64, u64) {
        let [scan, index, crack] = &self.queries;
        (
            scan.load(Ordering::Relaxed),
            index.load(Ordering::Relaxed),
            crack.load(Ordering::Relaxed),
        )
    }

    /// Records queries accepted into a service admission queue.
    pub fn service_admitted(&self, n: u64) {
        self.svc_admitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Records queries rejected with `Overloaded`; `global` distinguishes
    /// the global queue bound from a per-client bound.
    pub fn service_rejected(&self, n: u64, global: bool) {
        if global {
            self.svc_rejected_global.fetch_add(n, Ordering::Relaxed);
        } else {
            self.svc_rejected_client.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records queries shed with `DeadlineExceeded`.
    pub fn service_shed_deadline(&self, n: u64) {
        self.svc_shed_deadline.fetch_add(n, Ordering::Relaxed);
    }

    /// Records queries abandoned with `Cancelled`.
    pub fn service_cancelled(&self, n: u64) {
        self.svc_cancelled.fetch_add(n, Ordering::Relaxed);
    }

    /// Records queries served on the saturated read-only path.
    pub fn service_degraded_answers(&self, n: u64) {
        self.svc_degraded_answers.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one normal→saturated mode transition.
    pub fn service_saturation_entered(&self) {
        self.svc_saturation_entries.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the global-queue-depth high-water mark to at least `depth`.
    pub fn service_queue_depth(&self, depth: u64) {
        self.svc_peak_queue_depth
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Records one dispatched service batch: the summed and the longest
    /// admission-to-dispatch wait of its queries, and the time from batch
    /// formation to its last response, all in service-clock microseconds.
    pub fn service_batch_dispatched(&self, wait_us_total: u64, wait_us_max: u64, dispatch_us: u64) {
        self.svc_dispatched_batches.fetch_add(1, Ordering::Relaxed);
        self.svc_queue_wait_us_total
            .fetch_add(wait_us_total, Ordering::Relaxed);
        self.svc_queue_wait_us_max
            .fetch_max(wait_us_max, Ordering::Relaxed);
        self.svc_dispatch_us_total
            .fetch_add(dispatch_us, Ordering::Relaxed);
    }

    /// Records one column quarantine (containment event).
    pub fn record_quarantine(&self) {
        self.integ_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed quarantine→rebuild heal.
    pub fn record_rebuild(&self) {
        self.integ_rebuilt.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one query answered through the degraded scan path.
    pub fn record_degraded_scan(&self) {
        self.integ_degraded_scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one scrub window: `pieces` re-validated, and whether the
    /// window found a fault (which quarantined the column).
    pub fn record_scrub(&self, pieces: u64, fault: bool) {
        self.integ_scrubbed_pieces
            .fetch_add(pieces, Ordering::Relaxed);
        if fault {
            self.integ_scrub_faults.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of the runtime-integrity counters.
    #[must_use]
    pub fn integrity(&self) -> IntegrityCounters {
        IntegrityCounters {
            quarantined: self.integ_quarantined.load(Ordering::Relaxed),
            rebuilt: self.integ_rebuilt.load(Ordering::Relaxed),
            degraded_scans: self.integ_degraded_scans.load(Ordering::Relaxed),
            scrubbed_pieces: self.integ_scrubbed_pieces.load(Ordering::Relaxed),
            scrub_faults: self.integ_scrub_faults.load(Ordering::Relaxed),
        }
    }

    /// Stores the recovery outcome of the engine's birth (called by
    /// `Database::recover` so operators can read *how* the engine came up
    /// — generations skipped, learned state dropped — from the metrics
    /// instead of having to thread the outcome through by hand).
    /// An engine is born once, so only the first outcome is kept.
    pub fn record_recovery(&self, outcome: crate::engine::persist::RecoveryOutcome) {
        let _ = self.recovery.set(outcome);
    }

    /// The recovery outcome of the engine's birth, if it was recovered.
    #[must_use]
    pub fn recovery(&self) -> Option<crate::engine::persist::RecoveryOutcome> {
        self.recovery.get().cloned()
    }

    /// Snapshot of the service-layer overload counters.
    #[must_use]
    pub fn service(&self) -> ServiceCounters {
        ServiceCounters {
            admitted: self.svc_admitted.load(Ordering::Relaxed),
            rejected_global: self.svc_rejected_global.load(Ordering::Relaxed),
            rejected_client: self.svc_rejected_client.load(Ordering::Relaxed),
            shed_deadline: self.svc_shed_deadline.load(Ordering::Relaxed),
            cancelled: self.svc_cancelled.load(Ordering::Relaxed),
            degraded_answers: self.svc_degraded_answers.load(Ordering::Relaxed),
            saturation_entries: self.svc_saturation_entries.load(Ordering::Relaxed),
            peak_queue_depth: self.svc_peak_queue_depth.load(Ordering::Relaxed),
            dispatched_batches: self.svc_dispatched_batches.load(Ordering::Relaxed),
            queue_wait_us_total: self.svc_queue_wait_us_total.load(Ordering::Relaxed),
            queue_wait_us_max: self.svc_queue_wait_us_max.load(Ordering::Relaxed),
            dispatch_us_total: self.svc_dispatch_us_total.load(Ordering::Relaxed),
        }
    }

    /// Clears all recorded metrics (e.g. between benchmark phases). The
    /// recovery outcome of the engine's birth is kept.
    pub fn reset(&self) {
        for q in &self.queries {
            q.store(0, Ordering::Relaxed);
        }
        self.query_nanos.store(0, Ordering::Relaxed);
        self.integ_quarantined.store(0, Ordering::Relaxed);
        self.integ_rebuilt.store(0, Ordering::Relaxed);
        self.integ_degraded_scans.store(0, Ordering::Relaxed);
        self.integ_scrubbed_pieces.store(0, Ordering::Relaxed);
        self.integ_scrub_faults.store(0, Ordering::Relaxed);
        self.tuning_nanos.store(0, Ordering::Relaxed);
        self.build_nanos.store(0, Ordering::Relaxed);
        self.auxiliary_actions.store(0, Ordering::Relaxed);
        self.dispatches_branchy.store(0, Ordering::Relaxed);
        self.dispatches_predicated.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.batched_queries.store(0, Ordering::Relaxed);
        self.aggregate_hits.store(0, Ordering::Relaxed);
        self.aggregate_prefix.store(0, Ordering::Relaxed);
        self.aggregate_partials.store(0, Ordering::Relaxed);
        self.aggregate_misses.store(0, Ordering::Relaxed);
        self.aggregate_scanned_values.store(0, Ordering::Relaxed);
        self.svc_admitted.store(0, Ordering::Relaxed);
        self.svc_rejected_global.store(0, Ordering::Relaxed);
        self.svc_rejected_client.store(0, Ordering::Relaxed);
        self.svc_shed_deadline.store(0, Ordering::Relaxed);
        self.svc_cancelled.store(0, Ordering::Relaxed);
        self.svc_degraded_answers.store(0, Ordering::Relaxed);
        self.svc_saturation_entries.store(0, Ordering::Relaxed);
        self.svc_peak_queue_depth.store(0, Ordering::Relaxed);
        self.svc_dispatched_batches.store(0, Ordering::Relaxed);
        self.svc_queue_wait_us_total.store(0, Ordering::Relaxed);
        self.svc_queue_wait_us_max.store(0, Ordering::Relaxed);
        self.svc_dispatch_us_total.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics() {
        let m = EngineMetrics::new();
        assert_eq!(m.query_count(), 0);
        assert_eq!(m.total_query_time(), Duration::ZERO);
        assert_eq!(m.path_breakdown(), (0, 0, 0));
    }

    #[test]
    fn query_counters_split_by_path_and_sum_latency() {
        let m = EngineMetrics::new();
        m.record_query(AccessPath::Scan, Duration::from_micros(100));
        m.record_query(AccessPath::Crack, Duration::from_micros(50));
        m.record_query(AccessPath::FullIndex, Duration::from_micros(25));
        assert_eq!(m.total_query_time(), Duration::from_micros(175));
        assert_eq!(m.query_count(), 3);
        assert_eq!(m.path_breakdown(), (1, 1, 1));
        // Empty bulk records are free.
        m.record_queries(AccessPath::Scan, 0, Duration::from_secs(1));
        assert_eq!(m.query_count(), 3);
        assert_eq!(m.total_query_time(), Duration::from_micros(175));
    }

    /// A field that stays the same size however much is recorded.
    trait FixedSize {}
    impl FixedSize for AtomicU64 {}
    impl<const N: usize> FixedSize for [AtomicU64; N] {}
    /// Set once at the engine's birth; recording never grows it.
    impl<T> FixedSize for OnceLock<T> {}
    fn fixed_size<T: FixedSize>(_: &T) {}

    #[test]
    fn a_million_queries_keep_exact_counters_in_fixed_space() {
        let m = EngineMetrics::new();
        for i in 0..1_000_000u64 {
            let path = match i % 4 {
                0 => AccessPath::Scan,
                1 => AccessPath::FullIndex,
                _ => AccessPath::Crack,
            };
            m.record_query(path, Duration::from_nanos(i % 1000));
        }
        assert_eq!(m.query_count(), 1_000_000);
        assert_eq!(m.path_breakdown(), (250_000, 250_000, 500_000));
        // Each block of 1000 queries sums 0 + 1 + ... + 999 ns.
        assert_eq!(m.total_query_time(), Duration::from_nanos(1000 * 499_500));
        // Exhaustive destructuring: a new field has to be named here, and
        // `fixed_size` accepts only counters — a growable log does not
        // compile.
        let EngineMetrics {
            queries,
            query_nanos,
            recovery,
            integ_quarantined,
            integ_rebuilt,
            integ_degraded_scans,
            integ_scrubbed_pieces,
            integ_scrub_faults,
            tuning_nanos,
            build_nanos,
            auxiliary_actions,
            dispatches_branchy,
            dispatches_predicated,
            batches,
            batched_queries,
            aggregate_hits,
            aggregate_prefix,
            aggregate_partials,
            aggregate_misses,
            aggregate_scanned_values,
            svc_admitted,
            svc_rejected_global,
            svc_rejected_client,
            svc_shed_deadline,
            svc_cancelled,
            svc_degraded_answers,
            svc_saturation_entries,
            svc_peak_queue_depth,
            svc_dispatched_batches,
            svc_queue_wait_us_total,
            svc_queue_wait_us_max,
            svc_dispatch_us_total,
        } = &m;
        fixed_size(queries);
        fixed_size(recovery);
        for counter in [
            query_nanos,
            integ_quarantined,
            integ_rebuilt,
            integ_degraded_scans,
            integ_scrubbed_pieces,
            integ_scrub_faults,
            tuning_nanos,
            build_nanos,
            auxiliary_actions,
            dispatches_branchy,
            dispatches_predicated,
            batches,
            batched_queries,
            aggregate_hits,
            aggregate_prefix,
            aggregate_partials,
            aggregate_misses,
            aggregate_scanned_values,
            svc_admitted,
            svc_rejected_global,
            svc_rejected_client,
            svc_shed_deadline,
            svc_cancelled,
            svc_degraded_answers,
            svc_saturation_entries,
            svc_peak_queue_depth,
            svc_dispatched_batches,
            svc_queue_wait_us_total,
            svc_queue_wait_us_max,
            svc_dispatch_us_total,
        ] {
            fixed_size(counter);
        }
    }

    #[test]
    fn tuning_and_build_time_accumulate() {
        let m = EngineMetrics::new();
        m.add_tuning_time(Duration::from_micros(30), 5);
        m.add_tuning_time(Duration::from_micros(20), 7);
        m.add_build_time(Duration::from_millis(2));
        assert_eq!(m.tuning_time(), Duration::from_micros(50));
        assert_eq!(m.auxiliary_actions(), 12);
        assert_eq!(m.build_time(), Duration::from_millis(2));
    }

    #[test]
    fn reset_clears_everything() {
        let m = EngineMetrics::new();
        m.record_query(AccessPath::Scan, Duration::from_micros(1));
        m.add_tuning_time(Duration::from_micros(5), 1);
        m.add_kernel_dispatches(KernelDispatches {
            branchy: 2,
            predicated: 3,
        });
        m.record_batch(8);
        m.record_aggregate_cache(AggregateCacheDelta {
            hits: 1,
            prefix: 1,
            partials: 2,
            misses: 3,
            scanned_values: 4,
        });
        m.reset();
        assert_eq!(m.query_count(), 0);
        assert_eq!(m.total_query_time(), Duration::ZERO);
        assert_eq!(m.tuning_time(), Duration::ZERO);
        assert_eq!(m.auxiliary_actions(), 0);
        assert_eq!(m.kernel_dispatches(), KernelDispatches::default());
        assert_eq!(m.batches_executed(), 0);
        assert_eq!(m.batched_queries(), 0);
        assert_eq!(m.aggregate_cache(), AggregateCacheDelta::default());
    }

    #[test]
    fn aggregate_cache_counters_accumulate() {
        let m = EngineMetrics::new();
        assert_eq!(m.aggregate_cache(), AggregateCacheDelta::default());
        m.record_aggregate_cache(AggregateCacheDelta {
            hits: 2,
            prefix: 0,
            partials: 0,
            misses: 1,
            scanned_values: 100,
        });
        m.record_aggregate_cache(AggregateCacheDelta {
            hits: 3,
            prefix: 4,
            partials: 1,
            misses: 0,
            scanned_values: 0,
        });
        let total = m.aggregate_cache();
        assert_eq!(
            (
                total.hits,
                total.prefix,
                total.partials,
                total.misses,
                total.scanned_values
            ),
            (5, 4, 1, 1, 100)
        );
        assert_eq!(total.zero_read(), 9);
    }

    #[test]
    fn batch_counters_and_bulk_recording() {
        let m = EngineMetrics::new();
        m.record_queries(AccessPath::Crack, 2, Duration::from_micros(30));
        m.record_batch(2);
        m.record_batch(5);
        assert_eq!(m.query_count(), 2);
        assert_eq!(m.path_breakdown(), (0, 0, 2));
        assert_eq!(m.batches_executed(), 2);
        assert_eq!(m.batched_queries(), 7);
        assert_eq!(m.total_query_time(), Duration::from_micros(30));
    }

    #[test]
    fn kernel_dispatches_accumulate() {
        let m = EngineMetrics::new();
        m.add_kernel_dispatches(KernelDispatches {
            branchy: 1,
            predicated: 0,
        });
        m.add_kernel_dispatches(KernelDispatches {
            branchy: 0,
            predicated: 4,
        });
        let d = m.kernel_dispatches();
        assert_eq!((d.branchy, d.predicated), (1, 4));
        assert_eq!(d.total(), 5);
    }

    #[test]
    fn service_counters_accumulate_and_reset() {
        let m = EngineMetrics::new();
        m.service_admitted(3);
        m.service_rejected(2, true);
        m.service_rejected(1, false);
        m.service_shed_deadline(4);
        m.service_cancelled(1);
        m.service_degraded_answers(5);
        m.service_saturation_entered();
        m.service_queue_depth(9);
        m.service_queue_depth(4); // high-water mark keeps the max
        m.service_batch_dispatched(700, 400, 50);
        m.service_batch_dispatched(300, 300, 25); // the max wait keeps the max
        let s = m.service();
        assert_eq!(s.admitted, 3);
        assert_eq!(s.rejected_global, 2);
        assert_eq!(s.rejected_client, 1);
        assert_eq!(s.shed_deadline, 4);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.degraded_answers, 5);
        assert_eq!(s.saturation_entries, 1);
        assert_eq!(s.peak_queue_depth, 9);
        assert_eq!(s.dispatched_batches, 2);
        assert_eq!(s.queue_wait_us_total, 1000);
        assert_eq!(s.queue_wait_us_max, 400);
        assert_eq!(s.dispatch_us_total, 75);
        m.reset();
        assert_eq!(m.service(), ServiceCounters::default());
    }

    #[test]
    fn integrity_counters_accumulate_and_reset() {
        let m = EngineMetrics::new();
        assert_eq!(m.integrity(), IntegrityCounters::default());
        m.record_quarantine();
        m.record_rebuild();
        m.record_degraded_scan();
        m.record_degraded_scan();
        m.record_scrub(64, false);
        m.record_scrub(3, true);
        let i = m.integrity();
        assert_eq!(i.quarantined, 1);
        assert_eq!(i.rebuilt, 1);
        assert_eq!(i.degraded_scans, 2);
        assert_eq!(i.scrubbed_pieces, 67);
        assert_eq!(i.scrub_faults, 1);
        m.reset();
        assert_eq!(m.integrity(), IntegrityCounters::default());
        assert_eq!(m.recovery(), None);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = std::sync::Arc::new(EngineMetrics::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = std::sync::Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    m.record_query(AccessPath::Crack, Duration::from_nanos(t * 100 + i));
                    m.add_tuning_time(Duration::from_nanos(10), 1);
                }
            }));
        }
        for h in handles {
            h.join().expect("metrics writer panicked");
        }
        assert_eq!(m.query_count(), 400);
        assert_eq!(m.total_query_time(), Duration::from_nanos((0..400).sum()));
        assert_eq!(m.auxiliary_actions(), 400);
        assert_eq!(m.tuning_time(), Duration::from_nanos(4000));
    }
}

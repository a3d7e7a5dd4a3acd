//! The query engine: a small column-store `Database` whose select operators
//! implement every indexing strategy of the paper side by side.
//!
//! # Concurrency model
//!
//! The hot path — [`Database::execute`] and [`Database::run_idle`] — takes
//! `&self`: every cracker column sits behind its own reader/writer latch
//! ([`ConcurrentCrackerColumn`]), statistics and metrics are atomics or
//! fine-grained locks, so queries on different columns, and queries racing
//! the background tuner, proceed in parallel. Only *structural* operations
//! (creating/dropping tables, building or dropping full indexes, switching
//! the strategy) still require `&mut self` — a shared engine therefore
//! needs an outer `RwLock` only for those, and query traffic goes through
//! its read side.

pub mod containment;
pub mod guarded;
pub mod health;
pub mod persist;
pub mod query;
pub mod timeline;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use holistic_sync::{LockLevel, OrderedMutex, OrderedRwLock};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use holistic_cracking::{
    ConcurrentCrackerColumn, CorruptionInjector, CrackerColumn, KernelDispatches,
};
use holistic_offline::{Advisor, CostModel, SortedIndex, WorkloadSummary};
use holistic_online::OnlineTuner;
use holistic_storage::scan::find_first;
use holistic_storage::{Catalog, Column, ColumnId, RowId, StorageError, Table, TableId, Value};

use crate::config::HolisticConfig;
use crate::error::HolisticError;
use crate::idle::{IdleBudget, IdleReport};
use crate::metrics::EngineMetrics;
use crate::ranking::RankingModel;
use crate::stats::KernelStatistics;
use crate::strategy::IndexingStrategy;

use self::health::{ColumnHealth, HealthState, ScrubReport};
use self::query::{AccessPath, Query, QueryResult};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Result type of engine operations.
pub type EngineResult<T> = Result<T, HolisticError>;

/// A shared engine: the level-0 (outermost) lock of the latch hierarchy.
/// Query traffic and the background tuner go through its read side
/// ([`Database::execute`] and [`Database::run_idle`] take `&self`); only
/// structural operations need the write side.
pub type SharedDatabase = Arc<OrderedRwLock<Database>>;

/// One element of a grouped update ([`Database::update_batch`]): the
/// batch's WAL records are group-committed with a single fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Append `value` to the (single-column) table owning `column`.
    Insert {
        /// The targeted column.
        column: ColumnId,
        /// The value to append.
        value: Value,
    },
    /// Delete the first occurrence of `value` from `column`.
    Delete {
        /// The targeted column.
        column: ColumnId,
        /// The value to remove.
        value: Value,
    },
}

impl UpdateOp {
    /// The column this update targets.
    #[must_use]
    pub fn column(&self) -> ColumnId {
        match *self {
            UpdateOp::Insert { column, .. } | UpdateOp::Delete { column, .. } => column,
        }
    }
}

/// Report of an offline preparation pass (index builds before the workload).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OfflineBuildReport {
    /// Columns whose full index was built.
    pub built: Vec<ColumnId>,
    /// Columns the advisor wanted but the budget did not allow.
    pub skipped: Vec<ColumnId>,
    /// Wall-clock time spent building.
    pub elapsed: Duration,
}

/// The holistic indexing database engine.
///
/// One `Database` hosts base tables (a [`Catalog`] of columns), the three
/// kinds of auxiliary index structures (latched cracker columns, full sorted
/// indexes, and the online tuner's indexes), the continuously maintained
/// [`KernelStatistics`], and the [`RankingModel`] that drives idle-time
/// refinement. The [`IndexingStrategy`] selects which machinery the select
/// operators use, so identical workloads can be replayed against every
/// strategy for comparison.
#[derive(Debug)]
pub struct Database {
    config: HolisticConfig,
    strategy: IndexingStrategy,
    catalog: Catalog,
    /// Per-column latched cracker columns. The map lock is held only for
    /// lookup/insert; all cracking happens under the per-column latch.
    crackers: OrderedRwLock<BTreeMap<ColumnId, Arc<ConcurrentCrackerColumn>>>,
    full_indexes: BTreeMap<ColumnId, SortedIndex>,
    stats: KernelStatistics,
    ranking: RankingModel,
    online: OrderedMutex<OnlineTuner>,
    /// Cached `online.index_count()`, so non-Online strategies can skip the
    /// tuner lock entirely when the tuner holds nothing (the common case)
    /// while still finding tuner-built indexes after a strategy switch.
    online_index_count: std::sync::atomic::AtomicUsize,
    cost_model: CostModel,
    metrics: EngineMetrics,
    /// Seed source: each call that draws forks a cheap local generator
    /// from this counter, so the hot path shares no generator state (and a
    /// query that draws nothing writes nothing here; see [`LazyRng`]).
    rng_stream: AtomicU64,
    rng_seed: u64,
    /// Waiting penalty (nanoseconds) charged to the next executed query
    /// ([`Database::charge_pending_penalty`]).
    pending_penalty_nanos: AtomicU64,
    /// Construction instant; [`Database::idle_for`] is measured against it.
    epoch: Instant,
    /// Microseconds since `epoch` of the last query (atomic `Instant`),
    /// kept to [`ACTIVITY_RESOLUTION_MICROS`].
    last_activity_micros: AtomicU64,
    /// Crash-safe persistence attachment (`None` = in-memory only). A
    /// mutex rather than a field of `&mut self` paths so snapshots can be
    /// taken through `&self` — e.g. by the background tuner holding the
    /// shared engine's read lock.
    persistence: OrderedMutex<Option<persist::PersistenceState>>,
    /// Per-column health state machine plus scrub cursors (see
    /// [`health`]). Sits at `LockLevel::HealthMap`, above the cracker map;
    /// never held across a column latch.
    health: OrderedMutex<HealthState>,
    /// Number of columns currently not `Healthy` — the hot path's fast
    /// check: while this reads 0 (the overwhelmingly common case), queries
    /// skip the health lock entirely.
    unhealthy_count: AtomicUsize,
    /// Deterministic live corruption injector (tests/sweeps only; `None`
    /// in production). Set through `&mut self`, read lock-free.
    corruption: Option<Arc<CorruptionInjector>>,
}

/// The selectivity of a query that found `count` of `column_len` values.
fn selectivity_of(count: u64, column_len: usize) -> f64 {
    if column_len == 0 {
        0.0
    } else {
        count as f64 / column_len as f64
    }
}

/// Resolution of the idle clock's activity stamp ([`Database::idle_for`]):
/// 20 µs, against idle thresholds of a millisecond and more.
const ACTIVITY_RESOLUTION_MICROS: u64 = 20;

/// The generator of one engine call, forked off the engine seed
/// ([`Database::fork_rng`]) on its first draw: a call that never draws — a
/// resolved select, a boost stopped by its floor — takes no stream index.
/// Draws stay deterministic for a given seed and call order.
struct LazyRng<'a> {
    db: &'a Database,
    rng: Option<StdRng>,
}

impl<'a> LazyRng<'a> {
    fn new(db: &'a Database) -> Self {
        LazyRng { db, rng: None }
    }
}

impl RngCore for LazyRng<'_> {
    fn next_u64(&mut self) -> u64 {
        self.rng
            .get_or_insert_with(|| self.db.fork_rng())
            .next_u64()
    }
}

impl Database {
    /// Creates an empty database with the given configuration and strategy.
    #[must_use]
    pub fn new(config: HolisticConfig, strategy: IndexingStrategy) -> Self {
        if config.paranoia {
            // Paranoia turns on latch-hierarchy enforcement process-wide,
            // so proptests and fault-injection sweeps (which all use
            // `for_testing()`) run under lock-order checking for free.
            // Debug builds enforce by default anyway; this makes
            // `HOLISTIC_PARANOIA=1` extend it to release builds.
            holistic_sync::set_enforcement(true);
        }
        let ranking = RankingModel::new(config.cache_piece_target);
        let online = OnlineTuner::new(config.epoch_length.max(1));
        Database {
            stats: KernelStatistics::new(),
            ranking,
            online: OrderedMutex::new(LockLevel::Online, "Database::online", online),
            online_index_count: std::sync::atomic::AtomicUsize::new(0),
            cost_model: CostModel::new(),
            metrics: EngineMetrics::new(),
            rng_stream: AtomicU64::new(0),
            rng_seed: config.rng_seed,
            pending_penalty_nanos: AtomicU64::new(0),
            epoch: Instant::now(),
            last_activity_micros: AtomicU64::new(0),
            persistence: OrderedMutex::new(LockLevel::Persistence, "Database::persistence", None),
            health: OrderedMutex::new(
                LockLevel::HealthMap,
                "Database::health",
                HealthState::default(),
            ),
            unhealthy_count: AtomicUsize::new(0),
            corruption: None,
            catalog: Catalog::new(),
            crackers: OrderedRwLock::new(
                LockLevel::CrackerMap,
                "Database::crackers",
                BTreeMap::new(),
            ),
            full_indexes: BTreeMap::new(),
            config,
            strategy,
        }
    }

    /// Wraps the engine in the shared (level-0) engine lock, ready to be
    /// served to query threads and the [`crate::BackgroundTuner`].
    #[must_use]
    pub fn into_shared(self) -> SharedDatabase {
        Arc::new(OrderedRwLock::new(LockLevel::Engine, "engine", self))
    }

    /// The active indexing strategy.
    #[must_use]
    pub fn strategy(&self) -> IndexingStrategy {
        self.strategy
    }

    /// Switches the indexing strategy. Existing auxiliary structures are
    /// kept; they simply stop (or start) being used and refined.
    pub fn set_strategy(&mut self, strategy: IndexingStrategy) {
        self.strategy = strategy;
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &HolisticConfig {
        &self.config
    }

    /// The continuously maintained kernel statistics.
    #[must_use]
    pub fn stats(&self) -> &KernelStatistics {
        &self.stats
    }

    /// The engine metrics (per-query latencies, tuning time, …).
    #[must_use]
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Clears the recorded metrics (auxiliary structures are kept).
    pub fn reset_metrics(&self) {
        self.metrics.reset();
    }

    /// A copy of the workload summary observed so far (consumable by the
    /// advisor).
    #[must_use]
    pub fn observed_workload(&self) -> WorkloadSummary {
        self.stats.summary()
    }

    /// Time elapsed since the last query or explicitly charged activity —
    /// the signal the background tuner uses to detect idle time. Idle-time
    /// refinement itself does *not* reset this clock: the tuner's own work
    /// must never make the engine look busy.
    ///
    /// The activity stamp has a resolution of 20 µs, far below any useful
    /// idle threshold: a query within 20 µs of the last stamp does not
    /// store a new one (so back-to-back queries do not all write the same
    /// shared line), and the reading may be up to 20 µs too long.
    #[must_use]
    pub fn idle_for(&self) -> Duration {
        let now = self.epoch.elapsed().as_micros() as u64;
        let last = self.last_activity_micros.load(Ordering::Relaxed);
        Duration::from_micros(now.saturating_sub(last))
    }

    /// Stamps "activity happened now" on the idle clock, unless the stamp
    /// is younger than [`ACTIVITY_RESOLUTION_MICROS`].
    fn touch_activity(&self) {
        let now = self.epoch.elapsed().as_micros() as u64;
        let last = self.last_activity_micros.load(Ordering::Relaxed);
        if now.saturating_sub(last) >= ACTIVITY_RESOLUTION_MICROS {
            self.last_activity_micros.store(now, Ordering::Relaxed);
        }
    }

    /// Forks a cheap per-call generator off the engine seed: every caller
    /// draws a fresh stream index, so the hot path shares no mutable
    /// generator state (and holds no lock across a partitioning pass).
    fn fork_rng(&self) -> StdRng {
        let stream = self.rng_stream.fetch_add(1, Ordering::Relaxed);
        StdRng::seed_from_u64(self.rng_seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    // ------------------------------------------------------------------
    // Schema and data loading
    // ------------------------------------------------------------------

    /// Creates a table from `(column name, values)` pairs and registers all
    /// of its columns with the statistics store (catalog knowledge).
    ///
    /// With persistence enabled, the table is WAL-logged durably before it
    /// becomes visible.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        columns: Vec<(&str, Vec<Value>)>,
    ) -> EngineResult<TableId> {
        let mut table = Table::new(name);
        for (col_name, values) in columns {
            table.add_column_from_values(col_name, values)?;
        }
        if self.catalog.tables().any(|(_, t)| t.name() == table.name()) {
            return Err(StorageError::TableAlreadyExists(table.name().to_string()).into());
        }
        // Log under the id the catalog is about to assign, so replay
        // reproduces the assignment exactly.
        let id = self.catalog.next_table_id();
        self.wal_append(&persist::WalRecord::create_table(id, &table))?;
        self.catalog.register_with_id(id, table)?;
        for column_id in self.catalog.all_column_ids() {
            if column_id.table == id {
                let len = self.catalog.column(column_id)?.len();
                self.stats.register_column(column_id, len);
            }
        }
        Ok(id)
    }

    /// Drops a table together with its cracker columns, full indexes,
    /// online-tuner state and statistics. Returns `Ok(false)` if the table
    /// does not exist; errors only when the WAL cannot log the drop.
    ///
    /// Statistics are deregistered eagerly here; [`Database::run_idle`]
    /// additionally deregisters defensively if it ever encounters a column
    /// that no longer resolves, so the ranking model can never get stuck on
    /// ghost columns either way.
    pub fn drop_table(&mut self, table: TableId) -> EngineResult<bool> {
        if self.catalog.table(table).is_none() {
            return Ok(false);
        }
        self.wal_append(&persist::WalRecord::DropTable { id: table })?;
        self.drop_table_internal(table);
        Ok(true)
    }

    /// The in-memory part of a table drop (shared with WAL replay).
    fn drop_table_internal(&mut self, table: TableId) -> bool {
        let dropped_columns = self.column_ids(table).unwrap_or_default();
        if self.catalog.drop_table(table).is_none() {
            return false;
        }
        {
            // Health (level 15) strictly before the cracker map (level 20):
            // a quarantined column of a dropped table must stop counting as
            // unhealthy, or the tuner would retry its rebuild forever.
            let mut health = self.health.lock();
            for column in &dropped_columns {
                if health.is_unhealthy(*column) {
                    self.unhealthy_count.fetch_sub(1, Ordering::AcqRel);
                }
                health.forget(*column);
            }
        }
        self.crackers.write().retain(|id, _| id.table != table);
        self.full_indexes.retain(|id, _| id.table != table);
        let mut online = self.online.lock();
        for column in dropped_columns {
            online.forget_column(column);
            self.stats.deregister_column(column);
        }
        self.online_index_count
            .store(online.index_count(), Ordering::Relaxed);
        true
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Appends one value to a single-column table, rippling it into the
    /// column's cracker (if instantiated) so the learned piece table stays
    /// exact. With persistence enabled the insert is WAL-logged durably
    /// first; a crash inside the log append fails the call without
    /// applying anything.
    ///
    /// A full sorted index or online-tuner index on the column would go
    /// stale; both are dropped (they rebuild from subsequent traffic).
    /// Multi-column tables would need whole-row updates, which the engine
    /// does not model — those return [`HolisticError::Unsupported`].
    pub fn insert(&mut self, column: ColumnId, value: Value) -> EngineResult<()> {
        self.update_batch(&[UpdateOp::Insert { column, value }])
            .map(|_| ())
    }

    /// Deletes the first occurrence of `value` from a single-column table
    /// (WAL-logged first, like [`Database::insert`]). Returns whether a
    /// row was deleted.
    pub fn delete(&mut self, column: ColumnId, value: Value) -> EngineResult<bool> {
        Ok(self.update_batch(&[UpdateOp::Delete { column, value }])? == [true])
    }

    /// Applies a batch of updates with group-committed durability: every
    /// WAL record is appended and fsynced **once** for the whole batch,
    /// then the updates apply together — one pass per touched column, not
    /// one per element — with the outcome of applying them in order.
    /// Per-element results mirror [`Database::insert`] (always `true`) and
    /// [`Database::delete`] (whether a row was removed).
    ///
    /// Crash semantics are per-operation, not all-or-nothing: a torn
    /// append makes a durable *prefix* of the batch (records land in
    /// order and recovery truncates the torn tail), the caller sees the
    /// error before anything was applied, and recovery replays exactly
    /// that prefix — the same contract as issuing the operations
    /// individually, minus all but one fsync.
    ///
    /// Validation happens up front: if any element targets a
    /// non-updatable table the whole batch fails before any IO.
    pub fn update_batch(&mut self, ops: &[UpdateOp]) -> EngineResult<Vec<bool>> {
        for op in ops {
            self.check_updatable(op.column())?;
        }
        let records: Vec<persist::WalRecord> = ops
            .iter()
            .copied()
            .map(persist::WalRecord::Update)
            .collect();
        self.wal_append_batch(&records)?;
        self.apply_ops(ops)
    }

    fn check_updatable(&self, column: ColumnId) -> EngineResult<()> {
        let table = self.catalog.try_table(column.table)?;
        if table.column_count() != 1 || column.column != 0 {
            return Err(HolisticError::Unsupported(
                "single-value updates are only supported on single-column tables".into(),
            ));
        }
        Ok(())
    }

    /// The in-memory part of every update: [`Database::insert`],
    /// [`Database::delete`], [`Database::update_batch`] and WAL replay all
    /// apply through here, so forward execution and recovery cannot drift
    /// apart. Returns, per element, what applying `ops` one at a time would
    /// have returned, and leaves each base column bit-identical to that —
    /// at the cost of one pass per touched column instead of one per
    /// element.
    fn apply_ops(&mut self, ops: &[UpdateOp]) -> EngineResult<Vec<bool>> {
        let mut applied = vec![true; ops.len()];
        // Updatable tables have one column each, so columns are independent
        // and each one's ops can apply together, in batch order.
        let mut by_column: BTreeMap<ColumnId, Vec<usize>> = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            by_column.entry(op.column()).or_default().push(i);
        }
        for (column, indices) in by_column {
            self.apply_column_ops(column, ops, &indices, &mut applied)?;
        }
        self.touch_activity();
        Ok(applied)
    }

    /// Applies `ops[indices]` — all targeting `column` — as one change.
    ///
    /// Per-element results are resolved first, against the base column plus
    /// an overlay of the batch's own inserts: sequential application appends
    /// inserts at the end and deletes the *first* occurrence, so a delete
    /// consumes the column's existing occurrences in position order before
    /// it reaches a value inserted earlier in the batch. Then the change is
    /// made once: one compaction pass and one append on the base column, one
    /// delete sweep and one insert sweep per touched cracker shard, one round
    /// of index invalidation and statistics registration.
    fn apply_column_ops(
        &mut self,
        column: ColumnId,
        ops: &[UpdateOp],
        indices: &[usize],
        applied: &mut [bool],
    ) -> EngineResult<()> {
        let table = self.catalog.try_table_mut(column.table)?;
        let base = table
            .column_at_mut(column.column as usize)
            .ok_or_else(|| StorageError::ColumnNotFound(format!("{column}")))?;
        let existing = base.values();
        // Surviving inserts with the row id sequential application would
        // have handed them (the column's length at that moment).
        let mut inserts: Vec<(Value, RowId)> = Vec::new();
        let mut removed_rows: Vec<usize> = Vec::new();
        let mut deletes: Vec<Value> = Vec::new();
        // Per deleted value, where the search for its next existing
        // occurrence resumes.
        let mut resume: BTreeMap<Value, usize> = BTreeMap::new();
        let mut len = existing.len();
        for &i in indices {
            match ops[i] {
                UpdateOp::Insert { value, .. } => {
                    inserts.push((value, len as RowId));
                    len += 1;
                }
                UpdateOp::Delete { value, .. } => {
                    let from = resume.get(&value).copied().unwrap_or(0);
                    let hit = find_first(&existing[from..], value);
                    resume.insert(value, hit.map_or(existing.len(), |off| from + off + 1));
                    if let Some(off) = hit {
                        removed_rows.push(from + off);
                        deletes.push(value);
                    } else if let Some(slot) = inserts.iter().position(|&(v, _)| v == value) {
                        inserts.remove(slot);
                    } else {
                        applied[i] = false;
                        continue;
                    }
                    len -= 1;
                }
            }
        }
        if !indices.iter().any(|&i| applied[i]) {
            // Only deletes of values the column does not hold.
            return Ok(());
        }
        removed_rows.sort_unstable();
        base.remove_rows(&removed_rows);
        let appended: Vec<Value> = inserts.iter().map(|&(v, _)| v).collect();
        base.append_many(&appended);
        debug_assert_eq!(base.len(), len);
        let cracker = self.crackers.read().get(&column).map(Arc::clone);
        if let Some(cracker) = cracker {
            if cracker.delete_batch(&deletes).contains(&false) {
                // The base held a value its cracker did not: the learned
                // copy has diverged and must not keep answering. Queries
                // fall back to the base until the tuner has rebuilt it.
                self.quarantine_column(column, "cracker lost a value the base column holds");
            } else {
                cracker.insert_batch(&inserts);
            }
        }
        self.invalidate_indexes(column);
        self.stats.register_column(column, len);
        Ok(())
    }

    /// Drops the sorted auxiliary structures an update on `column` makes
    /// stale: the full sorted index and the online tuner's index. Both
    /// rebuild from subsequent traffic; answering from a stale one would
    /// be wrong.
    fn invalidate_indexes(&mut self, column: ColumnId) {
        self.full_indexes.remove(&column);
        let mut online = self.online.lock();
        online.forget_column(column);
        self.online_index_count
            .store(online.index_count(), Ordering::Relaxed);
    }

    /// Resolves a table by name. The stable way to re-find tables after
    /// [`Database::recover`], which preserves table ids but hands back a
    /// fresh engine value.
    #[must_use]
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.catalog.table_id(name)
    }

    /// Resolves a column by table id and column name.
    pub fn column_id(&self, table: TableId, column: &str) -> EngineResult<ColumnId> {
        let t = self.catalog.try_table(table)?;
        let idx = t
            .column_index(column)
            .ok_or_else(|| StorageError::ColumnNotFound(column.to_string()))?;
        Ok(ColumnId::new(table, idx as u32))
    }

    /// All column ids of a table, in positional order.
    pub fn column_ids(&self, table: TableId) -> EngineResult<Vec<ColumnId>> {
        let t = self.catalog.try_table(table)?;
        Ok((0..t.column_count())
            .map(|i| ColumnId::new(table, i as u32))
            .collect())
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: TableId) -> EngineResult<usize> {
        Ok(self.catalog.try_table(table)?.row_count())
    }

    /// The base column addressed by `id`.
    pub fn base_column(&self, id: ColumnId) -> EngineResult<&Column> {
        Ok(self.catalog.column(id)?)
    }

    // ------------------------------------------------------------------
    // Introspection of auxiliary structures
    // ------------------------------------------------------------------

    /// Whether a full sorted index exists for the column.
    #[must_use]
    pub fn has_full_index(&self, id: ColumnId) -> bool {
        self.full_indexes.contains_key(&id)
    }

    /// Number of pieces of the column's cracker index (0 if the column has
    /// never been cracked).
    #[must_use]
    pub fn piece_count(&self, id: ColumnId) -> usize {
        self.crackers.read().get(&id).map_or(0, |c| c.piece_count())
    }

    /// The piece table of a column's cracker index, in positional order
    /// (empty if the column has never been cracked). Lets tests and tools
    /// compare the physical index shape two execution paths produced.
    #[must_use]
    pub fn cracker_pieces(&self, id: ColumnId) -> Vec<holistic_cracking::Piece> {
        self.crackers
            .read()
            .get(&id)
            .map_or_else(Vec::new, |c| c.pieces_snapshot())
    }

    /// Latch-usage counters of a column's cracker — shared and exclusive
    /// selects, refinements, the boost's exclusive acquisitions (all 0 if
    /// the column has never been cracked).
    #[must_use]
    pub fn latch_stats(&self, id: ColumnId) -> holistic_cracking::LatchStats {
        self.crackers
            .read()
            .get(&id)
            .map_or_else(Default::default, |c| c.latch_stats())
    }

    /// Total crack actions (query-driven plus auxiliary) applied to a column.
    #[must_use]
    pub fn cracks_performed(&self, id: ColumnId) -> u64 {
        self.crackers
            .read()
            .get(&id)
            .map_or(0, |c| c.cracks_performed())
    }

    /// Validates the invariants of every cracker column. Intended for tests
    /// (especially concurrent stress tests) and debug assertions.
    #[must_use]
    pub fn validate(&self) -> bool {
        let crackers: Vec<Arc<ConcurrentCrackerColumn>> =
            self.crackers.read().values().map(Arc::clone).collect();
        crackers.iter().all(|c| c.validate())
    }

    /// Paranoia mode ([`HolisticConfig::paranoia`], `HOLISTIC_PARANOIA`
    /// env): after a query or refinement touched `column`, run the full
    /// cracker validation (piece order, cached sums, prefix arrays) and
    /// surface any violation as a typed [`HolisticError::Integrity`] — the
    /// signal the caller turns into a quarantine — instead of letting a
    /// broken structure keep answering.
    fn paranoia_check(&self, column: ColumnId) -> EngineResult<()> {
        if !self.config.paranoia {
            return Ok(());
        }
        let cracker = self.crackers.read().get(&column).map(Arc::clone);
        match cracker
            .as_deref()
            .and_then(ConcurrentCrackerColumn::find_invalid_shard)
        {
            Some(shard) => Err(HolisticError::Integrity {
                column,
                reason: format!("paranoia: cracker shard {shard} failed validation"),
            }),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Integrity: health, quarantine, rebuild, scrub
    // ------------------------------------------------------------------

    /// Whether queries on `column` must take the degraded scan path. The
    /// atomic fast path keeps the health lock off the hot path entirely
    /// while every column is healthy (the overwhelmingly common case).
    fn is_unhealthy(&self, column: ColumnId) -> bool {
        self.unhealthy_count.load(Ordering::Acquire) > 0 && self.health.lock().is_unhealthy(column)
    }

    /// The health of one column's learned state.
    #[must_use]
    pub fn column_health(&self, column: ColumnId) -> ColumnHealth {
        self.health.lock().health(column)
    }

    /// Every column currently quarantined or rebuilding, with its state.
    #[must_use]
    pub fn quarantined_columns(&self) -> Vec<(ColumnId, ColumnHealth)> {
        self.health.lock().unhealthy()
    }

    /// Attaches a deterministic live corruption injector (integrity
    /// sweeps): each query execution ticks it once, and when it fires the
    /// queried column's learned metadata is damaged (or a kernel panic is
    /// injected) mid-operation.
    pub fn set_corruption_injector(&mut self, injector: Arc<CorruptionInjector>) {
        self.corruption = Some(injector);
    }

    /// Ticks the corruption injector (if any) and applies the fault to
    /// `column`'s cracker when it fires. Runs *inside* the containment
    /// boundary: an injected panic unwinds into the catch.
    fn corruption_tick(&self, column: ColumnId) {
        let Some(inj) = &self.corruption else { return };
        let Some(kind) = inj.tick() else { return };
        let cracker = self.crackers.read().get(&column).map(Arc::clone);
        match cracker {
            Some(c) => {
                let _ = c.corrupt(kind);
            }
            None if matches!(kind, holistic_cracking::CorruptionKind::Panic) => {
                // This panic IS the injected kernel fault the containment
                // boundary must catch. lint:allow(panic-path)
                panic!("injected kernel panic (corruption injector)");
            }
            None => {}
        }
    }

    /// Quarantines a column: its (presumed corrupt) cracker is dropped,
    /// queries switch to the degraded scan path, and the background tuner
    /// will rebuild it. Idempotent — racing detectors quarantine once.
    fn quarantine_column(&self, column: ColumnId, reason: &str) {
        let newly = self.health.lock().quarantine(column, reason.to_string());
        if !newly {
            return;
        }
        self.unhealthy_count.fetch_add(1, Ordering::AcqRel);
        // Stash the removed cracker instead of dropping it: when the damage
        // is localized to one shard, the rebuild path salvages the healthy
        // shards' learned piece tables instead of starting fully cold.
        let removed = self.crackers.write().remove(&column);
        if let Some(old) = removed {
            let faulty = old.find_invalid_shard();
            self.health.lock().stash_for_rebuild(column, faulty, old);
        }
        self.metrics.record_quarantine();
    }

    /// Rebuilds a quarantined column's cracker from base data (the base is
    /// never touched by learned-state corruption, so the rebuild is always
    /// possible). Returns `Ok(false)` when the column was not quarantined
    /// (or another thread claimed it first). The birth is WAL-logged like
    /// a first touch; the record is idempotent at replay.
    pub fn rebuild_column(&self, column: ColumnId) -> EngineResult<bool> {
        if !self.health.lock().claim_rebuild(column) {
            return Ok(false);
        }
        match self.rebuild_claimed(column) {
            Ok(()) => {
                self.health.lock().heal(column);
                self.unhealthy_count.fetch_sub(1, Ordering::AcqRel);
                self.metrics.record_rebuild();
                Ok(true)
            }
            Err(e) => {
                // Put the claim back so a later idle window retries (the
                // count is unchanged: the column never left quarantine).
                let mut health = self.health.lock();
                health.heal(column);
                health.quarantine(column, format!("rebuild failed: {e}"));
                Err(e)
            }
        }
    }

    fn rebuild_claimed(&self, column: ColumnId) -> EngineResult<()> {
        let base = self.catalog.column(column)?;
        self.wal_append(&persist::WalRecord::CrackerBorn { column })?;
        let (faulty, stashed) = self.health.lock().take_stash(column);
        let salvaged = match (faulty, stashed) {
            // Row-id payloads tie values to positions; multiset salvage
            // cannot restore that association, so rebuild cold instead.
            (Some(shard), Some(old)) if !self.config.keep_rowids => {
                Self::salvage_rebuild(base, &old, shard, self.config.crack_kernel)
            }
            _ => None,
        };
        let fresh = salvaged.unwrap_or_else(|| self.build_cracker(base));
        self.crackers.write().insert(column, Arc::new(fresh));
        Ok(())
    }

    /// Partial rebuild of a quarantined sharded cracker: keeps the learned
    /// piece tables of every *healthy* shard and rebuilds only the damaged
    /// shard. The damaged shard's contents are recovered by multiset
    /// subtraction — base values minus the healthy shards' values — which
    /// is sound because the union of the shard multisets always equals the
    /// base multiset. Any mismatch (a count going negative, or a leftover
    /// after subtraction of the wrong size) means the damage was not
    /// confined to the pinpointed shard, and the salvage reports `None` so
    /// the caller falls back to a full cold rebuild.
    fn salvage_rebuild(
        base: &Column,
        old: &ConcurrentCrackerColumn,
        faulty: usize,
        kernel: holistic_cracking::CrackKernel,
    ) -> Option<ConcurrentCrackerColumn> {
        let extent = old.shard_extent().unwrap_or(0);
        let mut shards = old.clone_shards();
        if faulty >= shards.len() {
            return None;
        }
        let mut remainder: BTreeMap<Value, i64> = BTreeMap::new();
        for v in base.values() {
            *remainder.entry(*v).or_insert(0) += 1;
        }
        let mut faulty_len = 0usize;
        for (i, shard) in shards.iter().enumerate() {
            if i == faulty {
                faulty_len = shard.len();
                continue;
            }
            // A second damaged shard disqualifies the whole salvage.
            if !shard.validate() {
                return None;
            }
            for v in shard.data() {
                let n = remainder.entry(*v).or_insert(0);
                *n -= 1;
                if *n < 0 {
                    return None;
                }
            }
        }
        let mut values = Vec::with_capacity(faulty_len);
        for (v, n) in remainder {
            for _ in 0..n {
                values.push(v);
            }
        }
        if values.len() != faulty_len {
            return None;
        }
        shards[faulty] = CrackerColumn::from_values(values).with_kernel(kernel);
        Some(ConcurrentCrackerColumn::from_shards(shards, extent))
    }

    /// One budgeted scrub window: re-validates up to `budget` pieces of
    /// one cracker column (priority to columns recovered under sampled
    /// validation, then round-robin), quarantining the column when a piece
    /// fails. The per-column cursor persists across windows, so full
    /// coverage accumulates incrementally over idle time.
    pub fn scrub_step(&self, budget: usize) -> ScrubReport {
        let mut report = ScrubReport::default();
        if budget == 0 {
            return report;
        }
        let known: Vec<ColumnId> = self.crackers.read().keys().copied().collect();
        let (target, from) = {
            let health = self.health.lock();
            let Some(t) = health.pick_scrub_target(&known, health.last_scrubbed()) else {
                return report;
            };
            (t, health.cursor(t))
        };
        let Some(cracker) = self.crackers.read().get(&target).map(Arc::clone) else {
            return report;
        };
        let outcome = cracker.scrub_pieces(from, budget);
        report.column = Some(target);
        report.pieces_checked = outcome.checked;
        if !outcome.valid {
            report.fault_found = true;
            let reason = match outcome.failed_shard {
                Some(shard) => format!("scrub: piece failed validation (shard {shard})"),
                None => "scrub: piece failed validation".to_string(),
            };
            self.quarantine_column(target, &reason);
            self.metrics.record_scrub(outcome.checked as u64, true);
            return report;
        }
        report.completed_pass = outcome.next.is_none();
        {
            let mut health = self.health.lock();
            health.set_cursor(target, outcome.next);
            health.note_scrubbed(target);
        }
        self.metrics.record_scrub(outcome.checked as u64, false);
        report
    }

    // ------------------------------------------------------------------
    // Query execution
    // ------------------------------------------------------------------

    /// Executes a range query under the active strategy.
    ///
    /// Takes `&self`: concurrent callers only contend on the latch of the
    /// column they query (and briefly on the statistics/metrics counters).
    ///
    /// Kernel execution runs inside the engine's panic-containment
    /// boundary: a panic mid-crack, or a paranoia validation failure,
    /// quarantines the column's learned state and re-answers the query
    /// through the (always correct) base-storage scan path instead of
    /// surfacing an error or killing the process.
    pub fn execute(&self, q: &Query) -> EngineResult<QueryResult> {
        let start = Instant::now();
        let column_len = self.catalog.column(q.column)?.len();
        if self.is_unhealthy(q.column) {
            return self.execute_degraded(q, column_len, start, true);
        }
        // The cracking strategies record the query's statistics themselves
        // (their hot-range check reads them); set once they have.
        let mut recorded = false;
        let contained = containment::contain(|| {
            self.corruption_tick(q.column);
            let dispatched = match self.strategy {
                IndexingStrategy::ScanOnly => self.exec_scan(q),
                IndexingStrategy::Offline | IndexingStrategy::Online => {
                    self.exec_indexed_or_scan(q)
                }
                IndexingStrategy::Adaptive => self.exec_crack(q, column_len, false, &mut recorded),
                IndexingStrategy::Holistic => self.exec_crack(q, column_len, true, &mut recorded),
            }?;
            self.paranoia_check(q.column)?;
            Ok(dispatched)
        });
        let (path, count, sum, values) = match contained {
            Ok(Ok(dispatched)) => dispatched,
            Ok(Err(HolisticError::Integrity { column, reason })) => {
                self.quarantine_column(column, &reason);
                return self.execute_degraded(q, column_len, start, !recorded);
            }
            Ok(Err(e)) => return Err(e),
            Err(panic_reason) => {
                self.quarantine_column(q.column, &panic_reason);
                return self.execute_degraded(q, column_len, start, !recorded);
            }
        };
        let mut latency = start.elapsed() + self.take_pending_penalty();

        // Continuous statistics (all strategies keep them so that switching
        // to holistic mid-flight has knowledge to work with; the overhead is
        // a few counters per query).
        let selectivity = selectivity_of(count, column_len);
        if !recorded {
            self.stats.record_query(q.column, q.lo, q.hi, selectivity);
        }

        if self.strategy == IndexingStrategy::Online {
            latency += self.online_record_and_tune(q, column_len, selectivity, path);
        }

        let result = QueryResult {
            count,
            sum,
            values,
            path,
            latency,
        };
        self.metrics.record_query(path, latency);
        self.touch_activity();
        Ok(result)
    }

    /// The pending penalty, cleared: one atomic load, and a swap only
    /// when a penalty is actually waiting.
    fn take_pending_penalty(&self) -> Duration {
        if self.pending_penalty_nanos.load(Ordering::Relaxed) == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.pending_penalty_nanos.swap(0, Ordering::Relaxed))
    }

    /// Answers a query on a quarantined (or rebuilding) column through the
    /// base-storage scan path. Corruption only ever touches *learned*
    /// state, so the scan answer is always correct; the query is recorded
    /// as a degraded scan in the metrics. `record` is false when the
    /// failed attempt already recorded the query's statistics.
    fn execute_degraded(
        &self,
        q: &Query,
        column_len: usize,
        start: Instant,
        record: bool,
    ) -> EngineResult<QueryResult> {
        let (path, count, sum, values) = self.exec_scan(q)?;
        self.metrics.record_degraded_scan();
        let latency = start.elapsed() + self.take_pending_penalty();
        if record {
            let selectivity = selectivity_of(count, column_len);
            self.stats.record_query(q.column, q.lo, q.hi, selectivity);
        }
        let result = QueryResult {
            count,
            sum,
            values,
            path,
            latency,
        };
        self.metrics.record_query(path, latency);
        self.touch_activity();
        Ok(result)
    }

    /// The Offline/Online access-path choice: full index if present, then a
    /// tuner-built index, then the scan baseline.
    fn exec_indexed_or_scan(
        &self,
        q: &Query,
    ) -> EngineResult<(AccessPath, u64, i128, Option<Vec<Value>>)> {
        if self.full_indexes.contains_key(&q.column) {
            self.exec_index(q)
        } else if self.strategy == IndexingStrategy::Online
            || self.online_index_count.load(Ordering::Relaxed) > 0
        {
            // Clone the Arc under the tuner lock, probe outside it:
            // index probes on different columns must not serialize
            // on the shared tuner. Non-Online strategies only pay
            // the lock when the tuner actually holds indexes (e.g.
            // after an Online-to-Offline strategy switch).
            let tuner_index = self.online.lock().index_arc(q.column);
            if let Some(idx) = tuner_index {
                let (count, sum, values) = self.exec_with_index(q, &idx);
                Ok((AccessPath::FullIndex, count, sum, values))
            } else {
                self.exec_scan(q)
            }
        } else {
            self.exec_scan(q)
        }
    }

    /// Online indexing: monitoring + epoch-based tuning. The time spent
    /// building indexes online is charged to the query that triggered the
    /// epoch boundary, which is exactly the online-indexing penalty the
    /// paper describes. Returns that charge.
    fn online_record_and_tune(
        &self,
        q: &Query,
        column_len: usize,
        selectivity: f64,
        path: AccessPath,
    ) -> Duration {
        let tune_start = Instant::now();
        let observed_cost = self.cost_model.scan_cost(column_len);
        let catalog = &self.catalog;
        {
            let mut online = self.online.lock();
            let _ = online.record_and_tune(
                q.column,
                q.lo,
                q.hi,
                selectivity,
                if path == AccessPath::FullIndex {
                    self.cost_model.index_probe_cost(column_len, selectivity)
                } else {
                    observed_cost
                },
                |id| catalog.column(id).ok().cloned(),
            );
            self.online_index_count
                .store(online.index_count(), Ordering::Relaxed);
        }
        let tuning = tune_start.elapsed();
        self.metrics.add_build_time(tuning);
        tuning
    }

    fn exec_scan(&self, q: &Query) -> EngineResult<(AccessPath, u64, i128, Option<Vec<Value>>)> {
        let column = self.catalog.column(q.column)?;
        let values = column.values();
        if q.is_empty_range() {
            return Ok((AccessPath::Scan, 0, 0, q.materialize.then(Vec::new)));
        }
        // Route through the storage layer's chunked, auto-vectorizable scan
        // kernels so the scan baseline shares the branch-free pipeline.
        let count = holistic_storage::scan_count(values, q.lo, q.hi);
        let sum = holistic_storage::scan_sum(values, q.lo, q.hi);
        let out = q
            .materialize
            .then(|| holistic_storage::scan_materialize(values, q.lo, q.hi));
        Ok((AccessPath::Scan, count, sum, out))
    }

    /// Answers a query from a full sorted index. The count is two binary
    /// searches; the sum comes from the index's prefix-sum array
    /// ([`SortedIndex::query_sum`] — zero value reads, recorded as a
    /// `prefix` cache hit) and only falls back to the qualifying-slice scan
    /// (recorded as a miss with its read volume) while the array is
    /// unseeded. Materialization always reads the slice; like everywhere
    /// else, those reads are not charged to the aggregate cache.
    fn exec_with_index(&self, q: &Query, idx: &SortedIndex) -> (u64, i128, Option<Vec<Value>>) {
        let count = idx.query_count(q.lo, q.hi);
        let mut delta = holistic_cracking::AggregateCacheDelta::default();
        let sum = match idx.query_sum(q.lo, q.hi) {
            Some(sum) => {
                delta.prefix += 1;
                sum
            }
            None => {
                delta.misses += 1;
                delta.scanned_values += count;
                idx.range_sum(q.lo, q.hi)
            }
        };
        self.metrics.record_aggregate_cache(delta);
        let values = q.materialize.then(|| idx.range_values(q.lo, q.hi).to_vec());
        (count, sum, values)
    }

    fn exec_index(&self, q: &Query) -> EngineResult<(AccessPath, u64, i128, Option<Vec<Value>>)> {
        // Callers check for existence, but a column recovered without its
        // index (or dropped mid-flight) must surface as a typed error, not
        // an abort.
        let idx = self
            .full_indexes
            .get(&q.column)
            .ok_or(HolisticError::FullIndexMissing(q.column))?;
        let (count, sum, values) = self.exec_with_index(q, idx);
        Ok((AccessPath::FullIndex, count, sum, values))
    }

    /// The latched cracker column for `column`, created from the base data
    /// on first use. With persistence enabled the birth is WAL-logged
    /// first (`CrackerBorn`), so recovery re-instantiates the cracker at
    /// the same log position and post-birth updates ripple into it exactly
    /// as they did forward. The base copy happens outside the map lock; if
    /// two threads race on the first touch, one copy is dropped (and the
    /// duplicate birth record is idempotent at replay).
    fn cracker_for(&self, column: ColumnId) -> EngineResult<Arc<ConcurrentCrackerColumn>> {
        if self.is_unhealthy(column) {
            // A quarantined column must not resurrect a cracker behind the
            // health map's back; healing goes through `rebuild_column`.
            return Err(HolisticError::Integrity {
                column,
                reason: "column is quarantined; learned state unavailable until rebuild".into(),
            });
        }
        if let Some(c) = self.crackers.read().get(&column) {
            return Ok(Arc::clone(c));
        }
        // Persistence (level 10) strictly before the map latch (level 20).
        self.wal_append(&persist::WalRecord::CrackerBorn { column })?;
        self.instantiate_cracker(column)
    }

    /// Instantiates (or returns) the cracker for `column` without logging
    /// a birth — the caller has already made the birth durable.
    fn instantiate_cracker(&self, column: ColumnId) -> EngineResult<Arc<ConcurrentCrackerColumn>> {
        if let Some(c) = self.crackers.read().get(&column) {
            return Ok(Arc::clone(c));
        }
        let base = self.catalog.column(column)?;
        let fresh = self.build_cracker(base);
        let mut map = self.crackers.write();
        Ok(Arc::clone(
            map.entry(column).or_insert_with(|| Arc::new(fresh)),
        ))
    }

    /// Builds a fresh (possibly sharded, per [`HolisticConfig::shard_extent`])
    /// cracker column over `base` with the configured kernel and row-id
    /// policy. Every code path that births a cracker — first touch, WAL
    /// replay, quarantine rebuild — goes through here so the physical shard
    /// layout is identical no matter which path created the structure.
    fn build_cracker(&self, base: &Column) -> ConcurrentCrackerColumn {
        ConcurrentCrackerColumn::from_column_sharded(
            base,
            self.config.keep_rowids,
            self.config.crack_kernel,
            self.config.shard_extent,
        )
    }

    /// The adaptive and holistic select. Records the query's statistics
    /// itself and sets `recorded`: the hot-range check of a holistic query
    /// reads the hits that recording returns.
    fn exec_crack(
        &self,
        q: &Query,
        column_len: usize,
        holistic: bool,
        recorded: &mut bool,
    ) -> EngineResult<(AccessPath, u64, i128, Option<Vec<Value>>)> {
        // A full index (e.g. built during a-priori idle time) trumps cracking.
        if self.full_indexes.contains_key(&q.column) {
            let dispatched = self.exec_index(q)?;
            self.stats.record_query(
                q.column,
                q.lo,
                q.hi,
                selectivity_of(dispatched.1, column_len),
            );
            *recorded = true;
            return Ok(dispatched);
        }
        let cracker = self.cracker_for(q.column)?;
        let mut rng = LazyRng::new(self);
        let outcome = cracker.select_with_policy(
            q.lo,
            q.hi,
            q.materialize,
            self.config.crack_policy,
            &mut rng,
        );
        self.metrics.record_aggregate_cache(outcome.cache);
        let hits = self.stats.record_query(
            q.column,
            q.lo,
            q.hi,
            selectivity_of(outcome.count, column_len),
        );
        *recorded = true;
        let mut dispatches = outcome.dispatches;
        let mut piece_shape = (outcome.piece_count, outcome.avg_piece_len);
        if holistic && hits >= self.config.hot_range_query_threshold {
            self.boost_hot_ranges(
                q.column,
                &cracker,
                &[(q.lo, q.hi)],
                &mut rng,
                &mut dispatches,
                &mut piece_shape,
            )?;
        }
        self.metrics.add_kernel_dispatches(dispatches);
        self.stats
            .record_refinement(q.column, piece_shape.0, piece_shape.1);
        Ok((
            AccessPath::Crack,
            outcome.count,
            outcome.sum,
            outcome.values,
        ))
    }

    /// The "No Time" case, shared by the single and the batch path: no
    /// idle time may ever appear, but a hot value range earns extra
    /// refinement right now, paid for by the queries that found it hot —
    /// `boost_cracks_per_query` random pivots per range, each skipped
    /// unless it lands in an unsorted piece above `cache_piece_target`
    /// ([`ConcurrentCrackerColumn::refine_in_ranges`]). A converged range
    /// therefore costs a shared-latch check and never an exclusive latch.
    /// Adds the boost's dispatches and leaves the post-boost shape in
    /// `piece_shape`.
    fn boost_hot_ranges(
        &self,
        column: ColumnId,
        cracker: &ConcurrentCrackerColumn,
        ranges: &[(Value, Value)],
        rng: &mut LazyRng<'_>,
        dispatches: &mut KernelDispatches,
        piece_shape: &mut (usize, f64),
    ) -> EngineResult<()> {
        // A boost re-cracks pieces the answers were just read from,
        // recomputing their sums: check them first, or the check after the
        // query would find the evidence overwritten.
        self.paranoia_check(column)?;
        let boost = cracker.refine_in_ranges(
            ranges,
            self.config.boost_cracks_per_query,
            self.config.cache_piece_target,
            rng,
        );
        if boost.splits > 0 {
            self.stats.record_auxiliary_actions(column, boost.splits);
        }
        dispatches.add(boost.dispatches);
        *piece_shape = (boost.piece_count, boost.avg_piece_len);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Batched query execution
    // ------------------------------------------------------------------

    /// Executes a batch of range queries, amortizing per-query overheads
    /// across the batch: queries are grouped by column, each group's
    /// deduplicated predicate bounds crack every target piece with a single
    /// multi-pivot pass under **one** latch acquisition per column
    /// ([`ConcurrentCrackerColumn::select_batch_with_policy`]), and
    /// statistics/metrics are recorded in bulk.
    ///
    /// Results come back in the order the queries were passed, with
    /// count/sum/materialization semantics identical to issuing every query
    /// through [`Database::execute`] sequentially. Differences from the
    /// sequential path are limited to bookkeeping: queries of one column
    /// group share the group's wall-clock cost evenly (their individual
    /// latencies are no longer observable), and a pending penalty is charged
    /// to the batch's first query.
    ///
    /// Unlike sequential execution, the batch validates every column up
    /// front: if any query references an unknown column the whole batch
    /// fails without executing anything.
    pub fn execute_batch(&self, queries: &[Query]) -> EngineResult<Vec<QueryResult>> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        // Resolve every column once, failing the whole batch up front.
        let mut column_lens: BTreeMap<ColumnId, usize> = BTreeMap::new();
        let mut groups: BTreeMap<ColumnId, Vec<usize>> = BTreeMap::new();
        for (i, q) in queries.iter().enumerate() {
            if let std::collections::btree_map::Entry::Vacant(e) = column_lens.entry(q.column) {
                e.insert(self.catalog.column(q.column)?.len());
            }
            groups.entry(q.column).or_default().push(i);
        }
        // Quarantined/rebuilding columns answer via the degraded scan
        // path; the set is almost always empty and the atomic fast check
        // keeps the health lock off the batch hot path.
        let unhealthy: BTreeSet<ColumnId> = if self.unhealthy_count.load(Ordering::Acquire) > 0 {
            let health = self.health.lock();
            groups
                .keys()
                .filter(|column| health.is_unhealthy(**column))
                .copied()
                .collect()
        } else {
            BTreeSet::new()
        };
        // Group commit: every cracker this batch is about to instantiate
        // gets its birth record in one WAL append — at most one fsync per
        // admitted batch, and none at all once the columns are warm.
        if matches!(
            self.strategy,
            IndexingStrategy::Adaptive | IndexingStrategy::Holistic
        ) {
            let births: Vec<ColumnId> = {
                let crackers = self.crackers.read();
                groups
                    .keys()
                    .filter(|column| {
                        !crackers.contains_key(column)
                            && !self.full_indexes.contains_key(column)
                            && !unhealthy.contains(column)
                    })
                    .copied()
                    .collect()
            };
            let records: Vec<persist::WalRecord> = births
                .iter()
                .map(|&column| persist::WalRecord::CrackerBorn { column })
                .collect();
            self.wal_append_batch(&records)?;
            for column in births {
                self.instantiate_cracker(column)?;
            }
        }
        let penalty = self.take_pending_penalty();
        let mut results: Vec<Option<QueryResult>> = (0..queries.len()).map(|_| None).collect();

        for (column, indexes) in &groups {
            let column_len = column_lens[column];
            if unhealthy.contains(column) {
                self.exec_scan_group(queries, indexes, *column, column_len, &mut results)?;
                continue;
            }
            let batched_crack = matches!(
                self.strategy,
                IndexingStrategy::Adaptive | IndexingStrategy::Holistic
            ) && !self.full_indexes.contains_key(column);
            // Each healthy group runs inside the containment boundary: a
            // kernel panic or paranoia failure quarantines this column and
            // re-answers the whole group through the scan path, leaving
            // the other groups untouched.
            let contained = containment::contain(|| -> EngineResult<()> {
                self.corruption_tick(*column);
                if batched_crack {
                    // Records the group's statistics itself (they must
                    // precede the hot-range boost checks).
                    self.exec_crack_batch(queries, indexes, *column, column_len, &mut results)?;
                } else {
                    // Scan and index probes have no partitioning work to
                    // amortize; they run per query (including the online
                    // tuner's per-query epoch accounting) and only share the
                    // batch's bulk statistics recording below.
                    for &i in indexes {
                        let q = &queries[i];
                        let q_start = Instant::now();
                        let (path, count, sum, values) = match self.strategy {
                            IndexingStrategy::ScanOnly => self.exec_scan(q)?,
                            IndexingStrategy::Offline | IndexingStrategy::Online => {
                                self.exec_indexed_or_scan(q)?
                            }
                            IndexingStrategy::Adaptive | IndexingStrategy::Holistic => {
                                self.exec_index(q)?
                            }
                        };
                        let mut latency = q_start.elapsed();
                        if self.strategy == IndexingStrategy::Online {
                            let selectivity = selectivity_of(count, column_len);
                            latency +=
                                self.online_record_and_tune(q, column_len, selectivity, path);
                        }
                        results[i] = Some(QueryResult {
                            count,
                            sum,
                            values,
                            path,
                            latency,
                        });
                    }
                    // Bulk statistics: one lock round for the whole column
                    // group.
                    let predicates =
                        Self::group_predicates(queries, indexes, column_len, results.as_slice());
                    self.stats.record_queries(*column, &predicates, |_, _| {});
                }
                self.paranoia_check(*column)
            });
            match contained {
                Ok(Ok(())) => {}
                Ok(Err(HolisticError::Integrity { reason, .. })) => {
                    self.quarantine_column(*column, &reason);
                    self.exec_scan_group(queries, indexes, *column, column_len, &mut results)?;
                }
                Ok(Err(e)) => return Err(e),
                Err(panic_reason) => {
                    self.quarantine_column(*column, &panic_reason);
                    self.exec_scan_group(queries, indexes, *column, column_len, &mut results)?;
                }
            }
        }

        let mut out = Vec::with_capacity(queries.len());
        // Per access path: executed queries and their summed latency.
        let mut per_path = [
            (AccessPath::Scan, 0u64, Duration::ZERO),
            (AccessPath::FullIndex, 0, Duration::ZERO),
            (AccessPath::Crack, 0, Duration::ZERO),
        ];
        for (i, result) in results.into_iter().enumerate() {
            let Some(mut result) = result else {
                return Err(HolisticError::Validation(format!(
                    "batch execution left query {i} unfilled"
                )));
            };
            if i == 0 {
                // Same contract as the sequential path: the next executed
                // query pays the pending penalty.
                result.latency += penalty;
            }
            if let Some(slot) = per_path
                .iter_mut()
                .find(|(path, _, _)| *path == result.path)
            {
                slot.1 += 1;
                slot.2 += result.latency;
            }
            out.push(result);
        }
        for (path, n, latency) in per_path {
            self.metrics.record_queries(path, n, latency);
        }
        self.metrics.record_batch(queries.len() as u64);
        self.touch_activity();
        Ok(out)
    }

    /// The `(lo, hi, selectivity)` triples of one executed column group,
    /// for bulk statistics recording.
    fn group_predicates(
        queries: &[Query],
        indexes: &[usize],
        column_len: usize,
        results: &[Option<QueryResult>],
    ) -> Vec<(Value, Value, f64)> {
        indexes
            .iter()
            .filter_map(|&i| {
                let q = &queries[i];
                let count = results[i].as_ref()?.count;
                Some((q.lo, q.hi, selectivity_of(count, column_len)))
            })
            .collect()
    }

    /// Answers one column group of a batch through the base-storage scan
    /// path: the column is quarantined (or was quarantined mid-group by a
    /// containment event, in which case any partial results are simply
    /// overwritten). Always correct — corruption never touches base data.
    fn exec_scan_group(
        &self,
        queries: &[Query],
        indexes: &[usize],
        column: ColumnId,
        column_len: usize,
        results: &mut [Option<QueryResult>],
    ) -> EngineResult<()> {
        for &i in indexes {
            let q = &queries[i];
            let q_start = Instant::now();
            let (path, count, sum, values) = self.exec_scan(q)?;
            results[i] = Some(QueryResult {
                count,
                sum,
                values,
                path,
                latency: q_start.elapsed(),
            });
            self.metrics.record_degraded_scan();
        }
        let predicates = Self::group_predicates(queries, indexes, column_len, results);
        self.stats.record_queries(column, &predicates, |_, _| {});
        Ok(())
    }

    /// Executes one column group of a batch through the batched cracking
    /// path: one latch acquisition for the multi-pivot select, bulk
    /// statistics recording, then one boost pass for all of the group's
    /// hot ranges together.
    fn exec_crack_batch(
        &self,
        queries: &[Query],
        indexes: &[usize],
        column: ColumnId,
        column_len: usize,
        results: &mut [Option<QueryResult>],
    ) -> EngineResult<()> {
        let group_start = Instant::now();
        let cracker = self.cracker_for(column)?;
        let mut rng = LazyRng::new(self);
        let batch: Vec<(Value, Value, bool)> = indexes
            .iter()
            .map(|&i| {
                let q = &queries[i];
                (q.lo, q.hi, q.materialize)
            })
            .collect();
        let outcome = cracker.select_batch_with_policy(&batch, self.config.crack_policy, &mut rng);
        self.metrics.record_aggregate_cache(outcome.cache);
        let mut dispatches = outcome.dispatches;
        let mut piece_shape = (outcome.piece_count, outcome.avg_piece_len);
        // One latch pass served the whole group: attribute its wall-clock
        // cost evenly across the group's queries.
        let per_query = group_start.elapsed() / indexes.len().max(1) as u32;
        for (&i, answer) in indexes.iter().zip(outcome.answers) {
            results[i] = Some(QueryResult {
                count: answer.count,
                sum: answer.sum,
                values: answer.values,
                path: AccessPath::Crack,
                latency: per_query,
            });
        }
        // Record the group's predicates before the hot-range checks, as
        // the single path does: query `i` of the group sees its
        // predecessors' records and its own, so a burst on one range
        // inside a single batch boosts like the same burst issued one by
        // one.
        let predicates = Self::group_predicates(queries, indexes, column_len, results);
        let boosting = self.strategy == IndexingStrategy::Holistic;
        let threshold = self.config.hot_range_query_threshold;
        let mut hot_ranges = Vec::new();
        self.stats.record_queries(column, &predicates, |i, hits| {
            if boosting && hits >= threshold {
                let (lo, hi, _) = predicates[i];
                hot_ranges.push((lo, hi));
            }
        });
        if !hot_ranges.is_empty() {
            self.boost_hot_ranges(
                column,
                &cracker,
                &hot_ranges,
                &mut rng,
                &mut dispatches,
                &mut piece_shape,
            )?;
        }
        self.metrics.add_kernel_dispatches(dispatches);
        self.stats
            .record_refinement(column, piece_shape.0, piece_shape.1);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Idle-time tuning (the holistic core)
    // ------------------------------------------------------------------

    /// Spends an idle-time budget on auxiliary refinement actions, choosing
    /// the target column of every action with the ranking model.
    ///
    /// This is the paper's continuous-tuning loop: "if queries do not
    /// trigger adaptive indexing, idle time is detected and the system uses
    /// statistics to continue triggering adaptive indexing-like actions."
    ///
    /// Takes `&self` and refines through the per-column latches, so queries
    /// on other columns are never blocked by idle-time work. Refinement
    /// does not reset the idle clock ([`Database::idle_for`]).
    pub fn run_idle(&self, budget: IdleBudget) -> IdleReport {
        let start = Instant::now();
        let mut report = IdleReport::default();
        let mut touched: BTreeSet<ColumnId> = BTreeSet::new();
        if budget.is_zero() {
            return report;
        }
        loop {
            match budget {
                IdleBudget::Actions(n) => {
                    if report.actions_applied >= n {
                        break;
                    }
                }
                IdleBudget::Duration(d) => {
                    if start.elapsed() >= d {
                        break;
                    }
                }
            }
            // Self-healing takes priority over refinement: a quarantined
            // column answers every query through the degraded scan path
            // until its cracker is rebuilt, so rebuilding buys more than
            // any crack ever could. Rebuilds are budgeted actions.
            if self.unhealthy_count.load(Ordering::Acquire) > 0 {
                let pending = self.health.lock().next_quarantined();
                if let Some(column) = pending {
                    match self.rebuild_column(column) {
                        Ok(true) => {
                            report.actions_applied += 1;
                            report.effective_actions += 1;
                            touched.insert(column);
                            continue;
                        }
                        Ok(false) => {} // lost the claim race; fall through
                        Err(_) => {
                            // Rebuild failed (re-quarantined inside
                            // rebuild_column); count the attempt so a
                            // Duration budget cannot spin on it.
                            report.actions_applied += 1;
                            continue;
                        }
                    }
                }
            }
            let Some(column) = self.ranking.choose_next(&self.stats) else {
                report.converged = true;
                break;
            };
            match self.apply_refinement_action(column) {
                Err(_) => {
                    // Column disappeared (dropped table): deregister it so
                    // the ranking model stops proposing it, instead of
                    // poisoning its statistics with fabricated refinement
                    // records.
                    self.stats.deregister_column(column);
                    continue;
                }
                Ok(split) => {
                    report.actions_applied += 1;
                    if split {
                        report.effective_actions += 1;
                    }
                    touched.insert(column);
                }
            }
        }
        if self.config.paranoia {
            // Idle-time corruption has no caller to hand an error to: it
            // takes the same containment path as query-time detection —
            // quarantine now, rebuild in a later idle window — instead of
            // aborting the process.
            for &column in &touched {
                if let Err(HolisticError::Integrity { reason, .. }) = self.paranoia_check(column) {
                    self.quarantine_column(column, &reason);
                }
            }
        }
        report.columns_touched = touched.into_iter().collect();
        report.elapsed = start.elapsed();
        self.metrics
            .add_tuning_time(report.elapsed, report.actions_applied);
        report
    }

    /// Applies exactly one auxiliary refinement action to `column`
    /// (creating the latched cracker column first if necessary). Returns
    /// whether the action introduced a new piece.
    fn apply_refinement_action(&self, column: ColumnId) -> EngineResult<bool> {
        if self.is_unhealthy(column) {
            // Healing is the only refinement a quarantined column accepts:
            // ad-hoc cracking must not resurrect a dropped structure
            // behind the health map's back.
            return self.rebuild_column(column);
        }
        let cracker = self.cracker_for(column)?;
        let mut rng = self.fork_rng();
        let outcome = cracker.refine(&mut rng);
        self.metrics.add_kernel_dispatches(outcome.dispatches);
        self.stats
            .record_refinement(column, outcome.piece_count, outcome.avg_piece_len);
        self.stats.record_auxiliary_actions(column, 1);
        Ok(outcome.split)
    }

    /// Applies `actions` refinement actions to one specific column
    /// (bypassing the ranking model). Used by experiments that need the
    /// paper's exact setup of "apply 100 random cracks to each column".
    pub fn warm_column(&self, column: ColumnId, actions: u64) -> EngineResult<Duration> {
        let start = Instant::now();
        for _ in 0..actions {
            self.apply_refinement_action(column)?;
        }
        let elapsed = start.elapsed();
        self.metrics.add_tuning_time(elapsed, actions);
        Ok(elapsed)
    }

    // ------------------------------------------------------------------
    // Offline preparation
    // ------------------------------------------------------------------

    /// Builds a full sorted index on one column, returning the build time.
    ///
    /// The index's prefix-sum array is seeded as part of the build (and of
    /// the reported build time), so offline preparation hands queries an
    /// index whose aggregates are zero-read from the first probe.
    pub fn build_full_index(&mut self, column: ColumnId) -> EngineResult<Duration> {
        self.catalog.column(column)?; // resolve before logging
        self.wal_append(&persist::WalRecord::BuildFullIndex { column })?;
        self.build_full_index_internal(column)
    }

    /// The in-memory part of a full-index build (shared with recovery's
    /// index materialization, which must not re-log).
    fn build_full_index_internal(&mut self, column: ColumnId) -> EngineResult<Duration> {
        let start = Instant::now();
        let base = self.catalog.column(column)?;
        let index = SortedIndex::build(base);
        index.seed_prefix();
        let elapsed = start.elapsed();
        self.full_indexes.insert(column, index);
        self.metrics.add_build_time(elapsed);
        self.stats
            .record_refinement(column, 1, self.config.cache_piece_target as f64 / 2.0);
        self.touch_activity();
        Ok(elapsed)
    }

    /// Drops the full index on a column (if any). Errors only when the
    /// WAL cannot log the drop.
    pub fn drop_full_index(&mut self, column: ColumnId) -> EngineResult<bool> {
        if !self.full_indexes.contains_key(&column) {
            return Ok(false);
        }
        self.wal_append(&persist::WalRecord::DropFullIndex { column })?;
        Ok(self.full_indexes.remove(&column).is_some())
    }

    /// Offline preparation: asks the advisor which indexes the (known or
    /// observed) workload wants and builds them in order of decreasing
    /// benefit density until the wall-clock budget runs out
    /// (`None` = unlimited).
    pub fn prepare_offline(
        &mut self,
        workload: &WorkloadSummary,
        budget: Option<Duration>,
    ) -> OfflineBuildReport {
        let advisor = Advisor::with_model(self.cost_model.clone());
        let catalog = &self.catalog;
        let candidates =
            advisor.candidates(workload, |id| catalog.column(id).map_or(0, |c| c.len()));
        let mut report = OfflineBuildReport::default();
        let start = Instant::now();
        let mut builds = 0u32;
        for candidate in candidates {
            if self.catalog.column(candidate.column).is_err() {
                continue;
            }
            let over_budget = match budget {
                Some(d) => {
                    let elapsed = start.elapsed();
                    if builds == 0 {
                        elapsed >= d
                    } else {
                        // Predict the next build with the average so far and
                        // stop if it would not fit.
                        elapsed + elapsed / builds > d
                    }
                }
                None => false,
            };
            if over_budget {
                report.skipped.push(candidate.column);
                continue;
            }
            if let Ok(_build) = self.build_full_index(candidate.column) {
                report.built.push(candidate.column);
                builds += 1;
            }
        }
        report.elapsed = start.elapsed();
        report
    }

    /// Charges a waiting penalty to the next executed query. Experiments use
    /// this to model offline indexing that is not finished when the first
    /// query arrives ("queries start arriving before the index is ready and
    /// have to wait for indexing to finish").
    pub fn charge_pending_penalty(&self, penalty: Duration) {
        let nanos = crate::metrics::nanos(penalty);
        let _ =
            self.pending_penalty_nanos
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| {
                    Some(p.saturating_add(nanos))
                });
    }

    /// Fully sorts one column's cracker (instantiating it from the base
    /// data if the column was never queried): the piece table collapses to
    /// a single sorted piece whose prefix-sum array is seeded eagerly, so
    /// every subsequent range aggregate on the column is zero-read — two
    /// binary searches and one subtraction, entirely under the shared
    /// latch.
    ///
    /// This is an idle-time preparation action (the cracker-side state is
    /// *learned* state: the cracker's birth is WAL-logged but its sort
    /// order, like crack boundaries, is only captured by
    /// [`Database::snapshot`]). A no-op on columns that are already fully
    /// sorted.
    pub fn sort_column(&self, column: ColumnId) -> EngineResult<()> {
        let cracker = self.cracker_for(column)?;
        cracker.sort_fully();
        self.stats
            .record_refinement(column, 1, self.config.cache_piece_target as f64 / 2.0);
        self.touch_activity();
        Ok(())
    }

    /// Seeds prefix-sum arrays across every auxiliary structure that lacks
    /// one: sorted pieces of the cracker columns (under their write
    /// latches), offline-built full indexes, and the online tuner's
    /// indexes. Returns how many structures were seeded.
    ///
    /// Takes `&self` — this is an idle-time action (the [`BackgroundTuner`]
    /// runs it when enabled), so it must ride the shared engine lock like
    /// `run_idle`. It is cheap when there is nothing to do: one metadata
    /// walk per column plus a `OnceLock` probe per index.
    ///
    /// [`BackgroundTuner`]: crate::background::BackgroundTuner
    pub fn seed_prefix_sums(&self) -> u64 {
        let mut seeded = 0u64;
        let crackers: Vec<Arc<ConcurrentCrackerColumn>> =
            self.crackers.read().values().map(Arc::clone).collect();
        for cracker in crackers {
            seeded += cracker.seed_prefix_sums() as u64;
        }
        for index in self.full_indexes.values() {
            if index.seed_prefix() {
                seeded += 1;
            }
        }
        // Clone the Arcs under the tuner lock, seed outside it (the build
        // is a full pass over the indexed values).
        let tuner_indexes = self.online.lock().index_arcs();
        for index in tuner_indexes {
            if index.seed_prefix() {
                seeded += 1;
            }
        }
        seeded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize) -> Vec<Value> {
        (0..n as Value).map(|i| (i * 7919) % (n as Value)).collect()
    }

    fn scan_count(values: &[Value], lo: Value, hi: Value) -> u64 {
        values.iter().filter(|&&v| v >= lo && v < hi).count() as u64
    }

    fn setup(strategy: IndexingStrategy, n: usize) -> (Database, ColumnId, Vec<Value>) {
        let values = dataset(n);
        let mut db = Database::new(HolisticConfig::for_testing(), strategy);
        let t = db
            .create_table("r", vec![("a", values.clone()), ("b", values.clone())])
            .unwrap();
        let col = db.column_id(t, "a").unwrap();
        (db, col, values)
    }

    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
    }

    #[test]
    fn every_strategy_returns_scan_equivalent_answers() {
        for strategy in IndexingStrategy::all() {
            let (db, col, values) = setup(strategy, 5000);
            for &(lo, hi) in &[(100, 200), (0, 5000), (4000, 4100), (300, 250)] {
                let r = db.execute(&Query::range(col, lo, hi)).unwrap();
                assert_eq!(
                    r.count,
                    scan_count(&values, lo, hi),
                    "{strategy} [{lo},{hi})"
                );
                let expected_sum: i128 = values
                    .iter()
                    .filter(|&&v| v >= lo && v < hi)
                    .map(|&v| i128::from(v))
                    .sum();
                assert_eq!(r.sum, expected_sum, "{strategy} sum [{lo},{hi})");
            }
        }
    }

    #[test]
    fn materialized_queries_return_the_qualifying_values() {
        let (db, col, values) = setup(IndexingStrategy::Holistic, 2000);
        let r = db
            .execute(&Query::range_materialized(col, 100, 200))
            .unwrap();
        let mut got = r.values.unwrap();
        got.sort_unstable();
        let mut expected: Vec<Value> = values
            .iter()
            .copied()
            .filter(|&v| (100..200).contains(&v))
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn adaptive_strategy_cracks_incrementally() {
        let (db, col, _) = setup(IndexingStrategy::Adaptive, 5000);
        assert_eq!(db.piece_count(col), 0);
        db.execute(&Query::range(col, 100, 200)).unwrap();
        let after_one = db.piece_count(col);
        assert!(after_one >= 2);
        db.execute(&Query::range(col, 1000, 1500)).unwrap();
        assert!(db.piece_count(col) > after_one);
        let (scan, index, crack) = db.metrics().path_breakdown();
        assert_eq!((scan, index), (0, 0));
        assert_eq!(crack, 2);
    }

    #[test]
    fn scan_only_never_builds_anything() {
        let (db, col, _) = setup(IndexingStrategy::ScanOnly, 3000);
        for i in 0..10 {
            db.execute(&Query::range(col, i * 10, i * 10 + 50)).unwrap();
        }
        assert_eq!(db.piece_count(col), 0);
        assert!(!db.has_full_index(col));
        let report = db.run_idle(IdleBudget::Actions(10));
        // Idle time still refines (the strategy only controls the query
        // path); but a scan-only database can opt out by not calling it.
        assert!(report.actions_applied > 0 || report.converged);
        let (scan, _, _) = db.metrics().path_breakdown();
        assert_eq!(scan, 10);
    }

    #[test]
    fn offline_strategy_uses_full_index_after_preparation() {
        let (mut db, col, values) = setup(IndexingStrategy::Offline, 4000);
        let mut workload = WorkloadSummary::new();
        workload.declare(col, 1000, 0.01);
        let report = db.prepare_offline(&workload, None);
        assert_eq!(report.built, vec![col]);
        assert!(db.has_full_index(col));
        let r = db.execute(&Query::range(col, 10, 60)).unwrap();
        assert_eq!(r.path, AccessPath::FullIndex);
        assert_eq!(r.count, scan_count(&values, 10, 60));
    }

    #[test]
    fn offline_budget_limits_builds() {
        let values = dataset(4000);
        let mut db = Database::new(HolisticConfig::for_testing(), IndexingStrategy::Offline);
        let t = db
            .create_table(
                "r",
                vec![
                    ("a", values.clone()),
                    ("b", values.clone()),
                    ("c", values.clone()),
                ],
            )
            .unwrap();
        let cols = db.column_ids(t).unwrap();
        let mut workload = WorkloadSummary::new();
        for &c in &cols {
            workload.declare(c, 100, 0.01);
        }
        // A zero budget builds nothing.
        let report = db.prepare_offline(&workload, Some(Duration::ZERO));
        assert!(report.built.is_empty());
        assert_eq!(report.skipped.len(), 3);
        // An unlimited budget builds everything.
        let report = db.prepare_offline(&workload, None);
        assert_eq!(report.built.len(), 3);
    }

    #[test]
    fn holistic_idle_time_refines_hot_columns_first() {
        let (db, col_a, _) = setup(IndexingStrategy::Holistic, 8000);
        let t = db.catalog.table_id("r").unwrap();
        let col_b = db.column_id(t, "b").unwrap();
        // Only column a is queried.
        for i in 0..5 {
            db.execute(&Query::range(col_a, i * 100, i * 100 + 80))
                .unwrap();
        }
        let report = db.run_idle(IdleBudget::Actions(20));
        assert_eq!(report.actions_applied, 20);
        assert!(report.columns_touched.contains(&col_a));
        assert!(db.metrics().tuning_time() > Duration::ZERO);
        assert!(db.metrics().auxiliary_actions() >= 20);
        // The hot column received at least as much refinement as the cold one.
        assert!(db.piece_count(col_a) >= db.piece_count(col_b));
    }

    #[test]
    fn idle_budget_zero_and_convergence() {
        let (db, col, _) = setup(IndexingStrategy::Holistic, 512);
        assert_eq!(db.run_idle(IdleBudget::zero()).actions_applied, 0);
        db.execute(&Query::range(col, 0, 10)).unwrap();
        // With a tiny cache target relative to column size the ranking model
        // eventually declares convergence.
        let mut total = 0;
        for _ in 0..50 {
            let r = db.run_idle(IdleBudget::Actions(100));
            total += r.actions_applied;
            if r.converged {
                break;
            }
        }
        assert!(total > 0);
        let final_report = db.run_idle(IdleBudget::Actions(10));
        assert!(final_report.converged || final_report.actions_applied > 0);
    }

    #[test]
    fn duration_budget_stops_tuning() {
        let (db, col, _) = setup(IndexingStrategy::Holistic, 20_000);
        db.execute(&Query::range(col, 0, 100)).unwrap();
        let report = db.run_idle(IdleBudget::Duration(Duration::from_millis(5)));
        assert!(report.elapsed >= Duration::from_millis(5) || report.converged);
    }

    #[test]
    fn idle_refinement_does_not_reset_the_idle_clock() {
        // Regression: the tuner's own batches used to reset `last_activity`,
        // so the engine looked busy right after every batch and background
        // refinement throughput was capped at one batch per idle threshold.
        let (db, col, _) = setup(IndexingStrategy::Holistic, 20_000);
        db.execute(&Query::range(col, 0, 100)).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let idle_before = db.idle_for();
        db.run_idle(IdleBudget::Actions(32));
        assert!(
            db.idle_for() >= idle_before,
            "run_idle must not make the engine look busy"
        );
        // A query, in contrast, does reset the clock.
        db.execute(&Query::range(col, 0, 100)).unwrap();
        assert!(db.idle_for() < idle_before);
    }

    #[test]
    fn dropped_table_columns_are_deregistered_not_corrupted() {
        // Regression: the idle loop used to fabricate a refinement record
        // (`record_refinement(column, 1, 0.0)`) for columns that no longer
        // resolve, corrupting their statistics instead of removing them.
        // Today `drop_table` deregisters eagerly (and `run_idle` still
        // deregisters defensively if it ever meets an unresolvable column).
        let values = dataset(4000);
        let mut db = Database::new(HolisticConfig::for_testing(), IndexingStrategy::Holistic);
        let keep = db
            .create_table("keep", vec![("a", values.clone())])
            .unwrap();
        let doomed = db
            .create_table("doomed", vec![("d", values.clone())])
            .unwrap();
        let keep_col = db.column_id(keep, "a").unwrap();
        let doomed_col = db.column_id(doomed, "d").unwrap();
        for i in 0..10 {
            db.execute(&Query::range(doomed_col, i * 10, i * 10 + 50))
                .unwrap();
        }
        db.execute(&Query::range(keep_col, 0, 50)).unwrap();
        assert!(db.drop_table(doomed).unwrap());
        assert!(!db.drop_table(doomed).unwrap(), "second drop is a no-op");
        // The dead column is gone from the statistics immediately — not
        // corrupted, not lingering in the workload summary, and its queries
        // no longer dilute live columns' frequencies.
        assert!(db.stats().column(doomed_col).is_none());
        assert!(db.observed_workload().column(doomed_col).is_none());
        assert!((db.stats().frequency(keep_col) - 1.0).abs() < 1e-9);
        // Idle time is spent entirely on live columns.
        let report = db.run_idle(IdleBudget::Actions(16));
        assert!(report.actions_applied > 0 || report.converged);
        assert!(!report.columns_touched.contains(&doomed_col));
        assert!(db.stats().column(keep_col).is_some());
        // Queries on the dropped table now fail cleanly.
        assert!(db.execute(&Query::range(doomed_col, 0, 10)).is_err());
    }

    #[test]
    fn hot_range_boosting_adds_auxiliary_cracks() {
        let (db, col, _) = setup(IndexingStrategy::Holistic, 10_000);
        // Hammer one narrow range well past the hot threshold.
        for _ in 0..10 {
            db.execute(&Query::range(col, 5_000, 5_100)).unwrap();
        }
        let aux = db.stats().column(col).unwrap().auxiliary_actions;
        assert!(aux > 0, "hot range should have triggered boost cracks");
        // Under the plain adaptive strategy the same workload triggers none.
        let (adaptive, col2, _) = setup(IndexingStrategy::Adaptive, 10_000);
        for _ in 0..10 {
            adaptive.execute(&Query::range(col2, 5_000, 5_100)).unwrap();
        }
        assert_eq!(adaptive.stats().column(col2).unwrap().auxiliary_actions, 0);
    }

    #[test]
    fn online_strategy_builds_an_index_for_a_hot_column() {
        let values = dataset(50_000);
        let mut config = HolisticConfig::for_testing();
        config.epoch_length = 10;
        let mut db = Database::new(config, IndexingStrategy::Online);
        let t = db.create_table("r", vec![("a", values.clone())]).unwrap();
        let col = db.column_id(t, "a").unwrap();
        for i in 0..40 {
            db.execute(&Query::range(col, (i % 10) * 100, (i % 10) * 100 + 50))
                .unwrap();
        }
        // After a few epochs the online tuner materialized a full index and
        // queries use it.
        let last = db.execute(&Query::range(col, 0, 50)).unwrap();
        assert_eq!(last.path, AccessPath::FullIndex);
        assert_eq!(last.count, scan_count(&values, 0, 50));
        assert!(db.metrics().build_time() > Duration::ZERO);
    }

    #[test]
    fn tuner_built_indexes_survive_a_switch_to_offline() {
        // Regression: gating the tuner probe on `strategy == Online` alone
        // silently dropped tuner-built indexes from the plan after an
        // Online-to-Offline strategy switch.
        let values = dataset(50_000);
        let mut config = HolisticConfig::for_testing();
        config.epoch_length = 10;
        let mut db = Database::new(config, IndexingStrategy::Online);
        let t = db.create_table("r", vec![("a", values)]).unwrap();
        let col = db.column_id(t, "a").unwrap();
        for i in 0..40 {
            db.execute(&Query::range(col, (i % 10) * 100, (i % 10) * 100 + 50))
                .unwrap();
        }
        assert_eq!(
            db.execute(&Query::range(col, 0, 50)).unwrap().path,
            AccessPath::FullIndex,
            "tuner should have built an index under Online"
        );
        db.set_strategy(IndexingStrategy::Offline);
        let r = db.execute(&Query::range(col, 0, 50)).unwrap();
        assert_eq!(r.path, AccessPath::FullIndex, "index must still be used");
    }

    #[test]
    fn pending_penalty_is_charged_to_the_next_query_only() {
        let (db, col, _) = setup(IndexingStrategy::Offline, 1000);
        db.charge_pending_penalty(Duration::from_millis(50));
        let first = db.execute(&Query::range(col, 0, 10)).unwrap();
        assert!(first.latency >= Duration::from_millis(50));
        let second = db.execute(&Query::range(col, 0, 10)).unwrap();
        assert!(second.latency < Duration::from_millis(50));
    }

    #[test]
    fn warm_column_applies_exactly_the_requested_actions() {
        let (db, col, _) = setup(IndexingStrategy::Holistic, 5000);
        let before = db.cracks_performed(col);
        db.warm_column(col, 64).unwrap();
        assert!(db.cracks_performed(col) >= before);
        assert!(db.piece_count(col) > 1);
        assert_eq!(db.stats().column(col).unwrap().auxiliary_actions, 64);
    }

    #[test]
    fn unknown_columns_are_reported_as_errors() {
        let (mut db, _, _) = setup(IndexingStrategy::Holistic, 100);
        let bogus = ColumnId::new(TableId(99), 0);
        assert!(db.execute(&Query::range(bogus, 0, 10)).is_err());
        assert!(db.build_full_index(bogus).is_err());
        assert!(db.warm_column(bogus, 1).is_err());
        assert!(db.column_id(TableId(99), "a").is_err());
    }

    #[test]
    fn kernel_policy_is_threaded_into_crackers_and_counted() {
        use holistic_cracking::CrackKernel;
        for (kernel, expect_predicated) in [
            (CrackKernel::Branchy, false),
            (CrackKernel::Predicated, true),
        ] {
            let values = dataset(5000);
            let config = HolisticConfig::for_testing().with_crack_kernel(kernel);
            let mut db = Database::new(config, IndexingStrategy::Adaptive);
            let t = db.create_table("r", vec![("a", values.clone())]).unwrap();
            let col = db.column_id(t, "a").unwrap();
            for i in 0..5 {
                let r = db
                    .execute(&Query::range(col, i * 100, i * 100 + 80))
                    .unwrap();
                assert_eq!(r.count, scan_count(&values, i * 100, i * 100 + 80));
            }
            let d = db.metrics().kernel_dispatches();
            assert!(d.total() >= 5, "{kernel}: at least one dispatch per query");
            if expect_predicated {
                assert_eq!(d.branchy, 0, "{kernel}");
                assert!(d.predicated > 0, "{kernel}");
            } else {
                assert_eq!(d.predicated, 0, "{kernel}");
                assert!(d.branchy > 0, "{kernel}");
            }
            // Idle-time refinement also dispatches kernels and is counted.
            let before = db.metrics().kernel_dispatches().total();
            db.run_idle(IdleBudget::Actions(8));
            assert!(db.metrics().kernel_dispatches().total() >= before);
        }
    }

    #[test]
    fn execute_batch_matches_sequential_for_every_strategy() {
        let batch_bounds = [(100, 200), (150, 250), (4000, 4100), (300, 250), (0, 5000)];
        for strategy in IndexingStrategy::all() {
            let (db, col, values) = setup(strategy, 5000);
            let (seq_db, seq_col, _) = setup(strategy, 5000);
            let queries: Vec<Query> = batch_bounds
                .iter()
                .map(|&(lo, hi)| Query::range(col, lo, hi))
                .collect();
            let got = db.execute_batch(&queries).unwrap();
            assert_eq!(got.len(), queries.len());
            for (r, &(lo, hi)) in got.iter().zip(&batch_bounds) {
                let seq = seq_db.execute(&Query::range(seq_col, lo, hi)).unwrap();
                assert_eq!(r.count, seq.count, "{strategy} [{lo},{hi})");
                assert_eq!(r.sum, seq.sum, "{strategy} [{lo},{hi})");
                assert_eq!(r.count, scan_count(&values, lo, hi), "{strategy}");
            }
            assert_eq!(db.metrics().query_count(), queries.len() as u64);
            assert_eq!(db.metrics().batches_executed(), 1);
            assert_eq!(db.metrics().batched_queries(), queries.len() as u64);
            assert!(db.validate());
        }
    }

    #[test]
    fn execute_batch_produces_identical_piece_boundaries_to_sequential() {
        // Plain cracking is order-independent, so the batched multi-pivot
        // pass must leave the engine's cracker index in exactly the state a
        // sequential replay produces.
        let (batch_db, col, _) = setup(IndexingStrategy::Adaptive, 8000);
        let (seq_db, seq_col, _) = setup(IndexingStrategy::Adaptive, 8000);
        let bounds: Vec<(Value, Value)> = (0..16).map(|i| (i * 450, i * 450 + 90)).collect();
        let queries: Vec<Query> = bounds
            .iter()
            .map(|&(lo, hi)| Query::range(col, lo, hi))
            .collect();
        batch_db.execute_batch(&queries).unwrap();
        for &(lo, hi) in &bounds {
            seq_db.execute(&Query::range(seq_col, lo, hi)).unwrap();
        }
        assert_eq!(
            batch_db.cracker_pieces(col),
            seq_db.cracker_pieces(seq_col),
            "batch and sequential execution must refine the index identically"
        );
        // The batch needed far fewer partitioning passes to get there.
        assert!(batch_db.cracks_performed(col) < seq_db.cracks_performed(seq_col));
    }

    #[test]
    fn execute_batch_mixed_columns_and_materialization() {
        let (db, col_a, values) = setup(IndexingStrategy::Holistic, 3000);
        let t = db.catalog.table_id("r").unwrap();
        let col_b = db.column_id(t, "b").unwrap();
        let queries = vec![
            Query::range(col_a, 100, 200),
            Query::range_materialized(col_b, 500, 700),
            Query::range(col_a, 2500, 2600),
            Query::range(col_b, 10, 20),
        ];
        let got = db.execute_batch(&queries).unwrap();
        for (r, q) in got.iter().zip(&queries) {
            assert_eq!(r.count, scan_count(&values, q.lo, q.hi));
            assert_eq!(r.values.is_some(), q.materialize);
        }
        let mut materialized = got[1].values.clone().unwrap();
        materialized.sort_unstable();
        let mut expected: Vec<Value> = values
            .iter()
            .copied()
            .filter(|&v| (500..700).contains(&v))
            .collect();
        expected.sort_unstable();
        assert_eq!(materialized, expected);
        // Both columns were cracked under their own latch.
        assert!(db.piece_count(col_a) >= 2);
        assert!(db.piece_count(col_b) >= 2);
    }

    #[test]
    fn execute_batch_validates_columns_up_front() {
        let (db, col, _) = setup(IndexingStrategy::Adaptive, 1000);
        let bogus = ColumnId::new(TableId(99), 0);
        let queries = vec![Query::range(col, 0, 10), Query::range(bogus, 0, 10)];
        assert!(db.execute_batch(&queries).is_err());
        // Nothing executed: no metrics, no cracker columns.
        assert_eq!(db.metrics().query_count(), 0);
        assert_eq!(db.piece_count(col), 0);
        // The empty batch is a no-op.
        assert!(db.execute_batch(&[]).unwrap().is_empty());
        assert_eq!(db.metrics().batches_executed(), 0);
    }

    #[test]
    fn execute_batch_uses_one_latch_pass_per_cold_column() {
        let (db, col, _) = setup(IndexingStrategy::Adaptive, 5000);
        let queries: Vec<Query> = (0..32)
            .map(|i| Query::range(col, i * 150, i * 150 + 60))
            .collect();
        db.execute_batch(&queries).unwrap();
        // The cold column was partitioned by a single multi-pivot pass.
        assert_eq!(db.cracks_performed(col), 1);
        assert_eq!(db.metrics().kernel_dispatches().total(), 1);
        assert_eq!(db.stats().column(col).unwrap().queries, 32);
        assert_eq!(db.observed_workload().total_queries(), 32);
    }

    #[test]
    fn a_repeated_predicate_converges_under_defaults() {
        // One 1 % predicate replayed 1,000 times under the default
        // configuration, one query at a time and as batches of one: the
        // boost refines the range while its pieces are above the cache
        // floor, then stops. The last 900 replays split nothing and take
        // no exclusive latch, for the boost or for the select.
        const ROWS: Value = 1 << 20;
        for batched in [false, true] {
            let mut db = Database::new(
                HolisticConfig::default().with_paranoia(false),
                IndexingStrategy::Holistic,
            );
            let values = (0..ROWS).map(|i| (i * 48_271) % ROWS).collect();
            let t = db.create_table("t", vec![("v", values)]).unwrap();
            let col = db.column_id(t, "v").unwrap();
            let q = Query::range(col, ROWS / 3, ROWS / 3 + ROWS / 100);
            let replay = |times: usize| {
                for _ in 0..times {
                    let count = if batched {
                        db.execute_batch(std::slice::from_ref(&q)).unwrap()[0].count
                    } else {
                        db.execute(&q).unwrap().count
                    };
                    assert_eq!(count, (ROWS / 100) as u64);
                }
            };
            let boost_state = || {
                let latch = db.latch_stats(col);
                (
                    db.stats().column(col).unwrap().auxiliary_actions,
                    latch.boost_exclusive,
                    latch.exclusive_selects,
                )
            };
            replay(100);
            let settled = boost_state();
            assert!(settled.0 > 0, "batched={batched}: the boost never split");
            replay(900);
            assert_eq!(
                boost_state(),
                settled,
                "batched={batched}: (boost splits, boost exclusive, exclusive selects) moved"
            );
        }
    }

    #[test]
    fn execute_batch_hot_range_boosting_still_applies() {
        // A burst on one range inside a *single* batch must trigger boost
        // cracks, exactly like the same burst issued sequentially: the
        // group's predicates are recorded before the hot-range checks.
        let (db, col, _) = setup(IndexingStrategy::Holistic, 10_000);
        let queries: Vec<Query> = (0..10).map(|_| Query::range(col, 5_000, 5_100)).collect();
        db.execute_batch(&queries).unwrap();
        let aux = db.stats().column(col).unwrap().auxiliary_actions;
        assert!(aux > 0, "one hot batch should trigger boost cracks");
    }

    #[test]
    fn resolved_aggregates_answer_from_the_cache() {
        let (db, col, values) = setup(IndexingStrategy::Adaptive, 5000);
        // The cracking select itself seeds the cache (fused kernels), so
        // both the cold and the resolved query are pure cache hits.
        let first = db.execute(&Query::range(col, 100, 900)).unwrap();
        let again = db.execute(&Query::range(col, 100, 900)).unwrap();
        assert_eq!(first.count, again.count);
        assert_eq!(first.sum, again.sum);
        assert_eq!(first.sum, {
            values
                .iter()
                .filter(|&&v| (100..900).contains(&v))
                .map(|&v| i128::from(v))
                .sum::<i128>()
        });
        let cache = db.metrics().aggregate_cache();
        assert_eq!(cache.hits, 2, "both answers composed from cached sums");
        assert_eq!(
            cache.scanned_values, 0,
            "no data-array reads for aggregates"
        );
        // The batched path records into the same counters.
        let batch: Vec<Query> = (0..4)
            .map(|i| Query::range(col, i * 500, i * 500 + 100))
            .collect();
        db.execute_batch(&batch).unwrap();
        let cache = db.metrics().aggregate_cache();
        assert_eq!(cache.hits, 2 + 4);
        assert_eq!(cache.scanned_values, 0);
    }

    #[test]
    fn full_index_aggregates_answer_from_the_prefix() {
        // Offline preparation seeds the index's prefix-sum array, so every
        // indexed count/sum probe is zero-read and reported as a prefix hit.
        let (mut db, col, values) = setup(IndexingStrategy::Offline, 4000);
        let mut workload = WorkloadSummary::new();
        workload.declare(col, 1000, 0.01);
        db.prepare_offline(&workload, None);
        for i in 0..6 {
            let r = db
                .execute(&Query::range(col, i * 500, i * 500 + 120))
                .unwrap();
            assert_eq!(r.path, AccessPath::FullIndex);
            let expected: i128 = values
                .iter()
                .filter(|&&v| (i * 500..i * 500 + 120).contains(&v))
                .map(|&v| i128::from(v))
                .sum();
            assert_eq!(r.sum, expected);
        }
        let cache = db.metrics().aggregate_cache();
        assert_eq!(cache.prefix, 6, "every indexed aggregate is a prefix hit");
        assert_eq!(cache.partials + cache.misses, 0);
        assert_eq!(cache.scanned_values, 0);
    }

    #[test]
    fn online_tuner_indexes_are_prefix_seeded_on_build() {
        let values = dataset(50_000);
        let mut config = HolisticConfig::for_testing();
        config.epoch_length = 10;
        let mut db = Database::new(config, IndexingStrategy::Online);
        let t = db.create_table("r", vec![("a", values)]).unwrap();
        let col = db.column_id(t, "a").unwrap();
        for i in 0..40 {
            db.execute(&Query::range(col, (i % 10) * 100, (i % 10) * 100 + 50))
                .unwrap();
        }
        assert_eq!(
            db.execute(&Query::range(col, 0, 50)).unwrap().path,
            AccessPath::FullIndex
        );
        db.reset_metrics();
        db.execute(&Query::range(col, 300, 800)).unwrap();
        let cache = db.metrics().aggregate_cache();
        assert_eq!(cache.prefix, 1, "tuner-built index was seeded at build");
        assert_eq!(cache.scanned_values, 0);
    }

    #[test]
    fn seed_prefix_sums_covers_crackers_and_indexes() {
        let (mut db, col, _) = setup(IndexingStrategy::Adaptive, 2000);
        // A cracked (unsorted) column has nothing to seed.
        db.execute(&Query::range(col, 100, 200)).unwrap();
        assert_eq!(db.seed_prefix_sums(), 0);
        // An index built through build_full_index is seeded eagerly…
        db.build_full_index(col).unwrap();
        assert_eq!(db.seed_prefix_sums(), 0, "already seeded at build");
        // …and a second column's index dropped/rebuilt path stays covered.
        let t = db.catalog.table_id("r").unwrap();
        let col_b = db.column_id(t, "b").unwrap();
        db.build_full_index(col_b).unwrap();
        assert_eq!(db.seed_prefix_sums(), 0);
    }

    #[test]
    fn metrics_track_every_query() {
        let (db, col, _) = setup(IndexingStrategy::Adaptive, 1000);
        for i in 0..5 {
            db.execute(&Query::range(col, i, i + 100)).unwrap();
        }
        assert_eq!(db.metrics().query_count(), 5);
        assert_eq!(db.metrics().path_breakdown(), (0, 0, 5));
        assert!(db.metrics().total_query_time() > Duration::ZERO);
        db.reset_metrics();
        assert_eq!(db.metrics().query_count(), 0);
        assert_eq!(db.metrics().total_query_time(), Duration::ZERO);
    }

    #[test]
    fn strategy_can_be_switched_mid_flight() {
        let (mut db, col, values) = setup(IndexingStrategy::Adaptive, 3000);
        db.execute(&Query::range(col, 100, 200)).unwrap();
        db.set_strategy(IndexingStrategy::ScanOnly);
        assert_eq!(db.strategy(), IndexingStrategy::ScanOnly);
        let r = db.execute(&Query::range(col, 100, 200)).unwrap();
        assert_eq!(r.path, AccessPath::Scan);
        assert_eq!(r.count, scan_count(&values, 100, 200));
    }

    #[test]
    fn observed_workload_feeds_the_advisor() {
        let (db, col, _) = setup(IndexingStrategy::Holistic, 2000);
        for _ in 0..20 {
            db.execute(&Query::range(col, 500, 600)).unwrap();
        }
        let summary = db.observed_workload();
        assert_eq!(summary.total_queries(), 20);
        assert!(summary.column(col).unwrap().avg_selectivity > 0.0);
    }

    #[test]
    fn a_delete_the_cracker_cannot_mirror_quarantines_the_column() {
        for extent in [0, 64] {
            let config = HolisticConfig::for_testing().with_shard_extent(extent);
            let mut db = Database::new(config, IndexingStrategy::Holistic);
            let mut values = dataset(400);
            let t = db.create_table("r", vec![("a", values.clone())]).unwrap();
            let col = db.column_id(t, "a").unwrap();
            db.execute(&Query::range(col, 100, 300)).unwrap();
            // Force the divergence: the cracker alone loses a value.
            let victim = values[17];
            let cracker = db.crackers.read().get(&col).map(Arc::clone).unwrap();
            assert!(cracker.delete(victim));
            drop(cracker);
            // The base applies the batch; the cracker cannot find the
            // victim, so it must stop answering rather than stay one value
            // short (a release build used to carry on).
            let applied = db
                .update_batch(&[
                    UpdateOp::Insert {
                        column: col,
                        value: 1_000,
                    },
                    UpdateOp::Delete {
                        column: col,
                        value: victim,
                    },
                ])
                .unwrap();
            assert_eq!(applied, [true, true]);
            values.retain(|&v| v != victim);
            values.push(1_000);
            assert!(
                matches!(db.column_health(col), ColumnHealth::Quarantined { .. }),
                "extent {extent}: {:?}",
                db.column_health(col)
            );
            assert_eq!(db.piece_count(col), 0, "the diverged cracker is gone");
            // Degraded answers come from the base column and are exact.
            for (lo, hi) in [(0, 2_000), (victim, victim + 1), (1_000, 1_001)] {
                let r = db.execute(&Query::range(col, lo, hi)).unwrap();
                assert_eq!(r.count, scan_count(&values, lo, hi), "[{lo}, {hi})");
            }
            // Idle time rebuilds the cracker from the base; updates and
            // queries then run on the healed column.
            for _ in 0..64 {
                if db.quarantined_columns().is_empty() {
                    break;
                }
                db.run_idle(IdleBudget::Actions(8));
            }
            assert_eq!(db.column_health(col), ColumnHealth::Healthy);
            assert!(db.delete(col, 1_000).unwrap());
            values.pop();
            let r = db.execute(&Query::range(col, 0, 2_000)).unwrap();
            assert_eq!(r.count, values.len() as u64);
            assert!(db.piece_count(col) > 0 && db.validate());
            let integrity = db.metrics().integrity();
            assert_eq!((integrity.quarantined, integrity.rebuilt), (1, 1));
        }
    }

    #[test]
    fn shared_reference_queries_agree_with_scan_across_threads() {
        let n = 20_000;
        let (db, col, values) = setup(IndexingStrategy::Holistic, n);
        let db = std::sync::Arc::new(db);
        let expected: Vec<(Value, Value, u64)> = (0..12)
            .map(|i| {
                let lo = (i * 1511) % (n as Value - 600);
                let hi = lo + 500;
                (lo, hi, scan_count(&values, lo, hi))
            })
            .collect();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let db = std::sync::Arc::clone(&db);
            let expected = expected.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..6 {
                    for &(lo, hi, want) in &expected {
                        let r = db.execute(&Query::range(col, lo, hi)).unwrap();
                        assert_eq!(r.count, want, "thread {t} round {round} [{lo},{hi})");
                    }
                    // Interleave idle-time refinement through &self too.
                    db.run_idle(IdleBudget::Actions(4));
                }
            }));
        }
        for h in handles {
            h.join().expect("query thread panicked");
        }
        assert!(db.validate());
        assert_eq!(db.metrics().query_count(), 4 * 6 * 12);
    }
}

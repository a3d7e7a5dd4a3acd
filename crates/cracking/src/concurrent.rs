//! Concurrency control for adaptive indexing.
//!
//! Cracking turns read-only selects into structural modifications, so some
//! form of concurrency control is needed even for read-only workloads
//! (Graefe, Halim, Idreos, Kuno, Manegold — PVLDB 2012). The scheme here is
//! the pragmatic one used in practice: a per-column reader/writer latch.
//! A select whose bounds are already *answerable* — resolved by the cracker
//! index, or binary-searchable inside a sorted piece carrying a prefix-sum
//! array — is a pure read and only takes the shared latch; a select that
//! has to crack (or an idle-time refinement action, or a prefix-sum build)
//! takes the exclusive latch for the duration of the pass. Because cracking
//! touches exactly one column, queries on different columns never contend.
//!
//! A single latch per column still serializes all cracking *writers* on a
//! hot column, so the column can also be split into fixed-extent **shards**
//! (the bundlebase `RowId = {block, offset}` layout: shard `rowid / extent`,
//! offset `rowid % extent`). Each shard owns its own piece table, cached
//! sums, prefix arrays and ordered latch; a range query fans out across the
//! shards, composes the per-shard [`RangeAggregate`]s, and classifies the
//! composed answer against the aggregate cache exactly once — so a sorted,
//! prefix-seeded column reports the same zero-read hit whether it is one
//! shard or many. Writers cracking disjoint shards proceed in parallel, and
//! a large cold crack parallelizes *within* one query by handing each
//! pending shard to its own worker thread.
//!
//! Lock order is machine-checked: the shard-*list* lock sits at
//! [`LockLevel::Shard`], each shard's piece-table latch at
//! [`LockLevel::Column`], and a thread never holds two shard latches at
//! once — the fan-out visits shards one at a time, and intra-query
//! parallelism uses one thread per shard (each with its own empty lock
//! stack), which is exactly what same-level enforcement requires.
//!
//! The latch-usage counters are plain atomics: the shared select path is
//! exactly the path the latch exists to parallelize, so it must not
//! serialize on a statistics lock.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use holistic_sync::{LockLevel, OrderedRwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use holistic_storage::Column;

use crate::corrupt::CorruptionKind;
use crate::cracker::{CrackerColumn, RangeAggregate};
use crate::kernels::{CrackKernel, KernelDispatches};
use crate::piece::Piece;
use crate::stochastic::{crack_select_batch_with_policy, crack_select_with_policy, CrackPolicy};
use crate::Value;

/// Extent sentinel for a column that was never sharded: one shard holds the
/// whole column and inserts never spill. Distinct from a finite extent that
/// happens to exceed the current length, where growth *does* spill.
const UNSHARDED: usize = usize::MAX;

/// Minimum total number of values across the shards a query still has to
/// crack before the fan-out pays for worker threads. Below this, a cold
/// crack runs the pending shards sequentially on the calling thread.
const PARALLEL_FANOUT_MIN: usize = 1 << 16;

/// Counters describing how often the fast (shared) path could be used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatchStats {
    /// Selects answered under the shared latch (no cracking needed).
    pub shared_selects: u64,
    /// Selects that had to take the exclusive latch to crack.
    pub exclusive_selects: u64,
    /// *Effective* auxiliary refinement actions (always exclusive). An
    /// action that did not introduce a new piece — empty column, converged
    /// column, pivot already a boundary — is not work and is not counted.
    pub refinements: u64,
    /// Count/sum answers composed entirely from cached piece sums (zero
    /// data-array reads for the aggregate).
    pub aggregate_hits: u64,
    /// Count/sum answers that needed at least one prefix-sum difference —
    /// bounds landing *inside* a sorted piece — and still read no data.
    pub aggregate_prefix: u64,
    /// Count/sum answers that mixed cached piece sums with scanned pieces.
    pub aggregate_partials: u64,
    /// Count/sum answers with no cached piece sum available at all.
    pub aggregate_misses: u64,
}

/// How a batch of count/sum answers was produced by the per-piece aggregate
/// cache. One query counts as a *hit* when its sum was composed purely from
/// cached whole-piece sums (or its range was empty), a *prefix* hit when it
/// needed at least one prefix-sum difference — bounds inside a sorted piece
/// — while still reading no data, a *partial* when cached sums or prefix
/// differences covered some pieces but others had to be scanned, and a
/// *miss* when no piece of the range carried any cache. `scanned_values`
/// totals the data-array reads the scan fallback performed — 0 means the
/// whole batch's aggregates were answered from metadata alone.
/// Materialization reads are not counted: the cache can only ever serve
/// aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregateCacheDelta {
    /// Queries answered entirely from cached whole-piece sums.
    pub hits: u64,
    /// Queries answered zero-read via at least one prefix-sum difference.
    pub prefix: u64,
    /// Queries answered from a mix of cached/prefix pieces and scans.
    pub partials: u64,
    /// Queries answered without any cached sum or prefix.
    pub misses: u64,
    /// Data values read by the aggregate scan fallback.
    pub scanned_values: u64,
}

impl AggregateCacheDelta {
    /// Classifies one composed range aggregate into the delta.
    fn record(&mut self, agg: &crate::cracker::RangeAggregate) {
        if agg.scanned_pieces == 0 {
            if agg.prefix_pieces > 0 {
                self.prefix += 1;
            } else {
                self.hits += 1;
            }
        } else if agg.cached_pieces > 0 || agg.prefix_pieces > 0 {
            self.partials += 1;
        } else {
            self.misses += 1;
        }
        self.scanned_values += agg.scanned_values;
    }

    /// Queries answered without a single data-array read (whole-piece hits
    /// plus prefix hits).
    #[must_use]
    pub fn zero_read(&self) -> u64 {
        self.hits + self.prefix
    }

    /// Component-wise accumulation.
    pub fn add(&mut self, other: AggregateCacheDelta) {
        self.hits += other.hits;
        self.prefix += other.prefix;
        self.partials += other.partials;
        self.misses += other.misses;
        self.scanned_values += other.scanned_values;
    }
}

/// Lock-free storage behind [`LatchStats`].
#[derive(Debug, Default)]
struct AtomicLatchStats {
    shared_selects: AtomicU64,
    exclusive_selects: AtomicU64,
    refinements: AtomicU64,
    aggregate_hits: AtomicU64,
    aggregate_prefix: AtomicU64,
    aggregate_partials: AtomicU64,
    aggregate_misses: AtomicU64,
}

impl AtomicLatchStats {
    fn snapshot(&self) -> LatchStats {
        LatchStats {
            shared_selects: self.shared_selects.load(Ordering::Relaxed),
            exclusive_selects: self.exclusive_selects.load(Ordering::Relaxed),
            refinements: self.refinements.load(Ordering::Relaxed),
            aggregate_hits: self.aggregate_hits.load(Ordering::Relaxed),
            aggregate_prefix: self.aggregate_prefix.load(Ordering::Relaxed),
            aggregate_partials: self.aggregate_partials.load(Ordering::Relaxed),
            aggregate_misses: self.aggregate_misses.load(Ordering::Relaxed),
        }
    }

    fn record_cache(&self, delta: AggregateCacheDelta) {
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
    }
}

/// Everything one select through the latch produced, so callers get the
/// answer, the post-select index shape and the kernel-dispatch delta in a
/// single latch acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectOutcome {
    /// Number of qualifying values.
    pub count: u64,
    /// Sum of the qualifying values.
    pub sum: i128,
    /// The qualifying values, if materialization was requested.
    pub values: Option<Vec<Value>>,
    /// Piece count right after the select.
    pub piece_count: usize,
    /// Average piece length right after the select.
    pub avg_piece_len: f64,
    /// Crack-kernel dispatches this select performed (zero on the shared
    /// fast path).
    pub dispatches: KernelDispatches,
    /// How the aggregate cache served this select's count/sum.
    pub cache: AggregateCacheDelta,
}

/// One query's answer within a [`BatchSelectOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// Number of qualifying values.
    pub count: u64,
    /// Sum of the qualifying values.
    pub sum: i128,
    /// The qualifying values, if materialization was requested.
    pub values: Option<Vec<Value>>,
}

/// Everything one *batched* select through the latch produced: per-query
/// answers plus a single merged piece-shape / kernel-dispatch delta for the
/// whole batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSelectOutcome {
    /// Per-query answers, in the order the queries were passed.
    pub answers: Vec<QueryAnswer>,
    /// Piece count right after the batch.
    pub piece_count: usize,
    /// Average piece length right after the batch.
    pub avg_piece_len: f64,
    /// Crack-kernel dispatches the whole batch performed (zero when every
    /// query was answered on the shared fast path).
    pub dispatches: KernelDispatches,
    /// How the aggregate cache served the batch's count/sum answers
    /// (one hit/partial/miss classification per query).
    pub cache: AggregateCacheDelta,
}

/// Everything one *batched* hot-range refinement pass through the latch
/// produced (see [`ConcurrentCrackerColumn::refine_in_ranges`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRefineOutcome {
    /// How many of the applied actions introduced a new piece.
    pub splits: u64,
    /// Piece count right after the pass.
    pub piece_count: usize,
    /// Average piece length right after the pass.
    pub avg_piece_len: f64,
    /// Crack-kernel dispatches the whole pass performed.
    pub dispatches: KernelDispatches,
}

/// Everything one auxiliary refinement action through the latch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineOutcome {
    /// Whether the action introduced a new piece.
    pub split: bool,
    /// Piece count right after the action.
    pub piece_count: usize,
    /// Average piece length right after the action.
    pub avg_piece_len: f64,
    /// Crack-kernel dispatches this action performed.
    pub dispatches: KernelDispatches,
}

/// One fixed-extent shard: a cracker column (its own piece table, cached
/// sums and prefix arrays) behind its own ordered piece-table latch.
#[derive(Debug)]
struct Shard {
    inner: OrderedRwLock<CrackerColumn>,
}

impl Shard {
    fn new(column: CrackerColumn) -> Self {
        Shard {
            inner: OrderedRwLock::new(LockLevel::Column, "ConcurrentCrackerColumn::shard", column),
        }
    }
}

/// One shard's contribution to a fanned-out select, composed by the caller.
struct ShardPart {
    agg: RangeAggregate,
    values: Option<Vec<Value>>,
    piece_count: usize,
    len: usize,
    dispatches: KernelDispatches,
    cracked: bool,
}

/// One shard's contribution to a fanned-out batch select.
struct ShardBatchPart {
    answers: Vec<(RangeAggregate, Option<Vec<Value>>)>,
    piece_count: usize,
    len: usize,
    dispatches: KernelDispatches,
    cracked: bool,
}

/// A cracker column protected by reader/writer latches, optionally split
/// into fixed-extent shards (see the module docs). An unsharded column is
/// exactly one shard; every path then collapses to the single-latch scheme.
#[derive(Debug)]
pub struct ConcurrentCrackerColumn {
    /// Append-only shard list behind the [`LockLevel::Shard`] lock: read to
    /// fan a query out, written only when an insert spills a new shard.
    shards: OrderedRwLock<Vec<Arc<Shard>>>,
    extent: usize,
    stats: AtomicLatchStats,
}

impl ConcurrentCrackerColumn {
    fn with_extent(cols: Vec<CrackerColumn>, extent: usize) -> Self {
        let mut cols = cols;
        if cols.is_empty() {
            cols.push(CrackerColumn::from_values(vec![]));
        }
        ConcurrentCrackerColumn {
            shards: OrderedRwLock::new(
                LockLevel::Shard,
                "ConcurrentCrackerColumn::shards",
                cols.into_iter().map(|c| Arc::new(Shard::new(c))).collect(),
            ),
            extent,
            stats: AtomicLatchStats::default(),
        }
    }

    /// Wraps an existing cracker column (unsharded: one shard, no spill).
    #[must_use]
    pub fn new(column: CrackerColumn) -> Self {
        Self::with_extent(vec![column], UNSHARDED)
    }

    /// Creates a latch-protected cracker column from raw values.
    #[must_use]
    pub fn from_values(values: Vec<Value>) -> Self {
        Self::new(CrackerColumn::from_values(values))
    }

    /// Creates a latch-protected cracker column by copying a base column.
    #[must_use]
    pub fn from_column(column: &Column, with_rowids: bool) -> Self {
        Self::new(CrackerColumn::from_column(column, with_rowids))
    }

    /// Creates a sharded column from raw values: consecutive chunks of
    /// `extent` values per shard (`extent == 0` means unsharded).
    #[must_use]
    pub fn from_values_sharded(values: Vec<Value>, extent: usize) -> Self {
        if extent == 0 {
            return Self::from_values(values);
        }
        let cols = values
            .chunks(extent)
            .map(|c| CrackerColumn::from_values(c.to_vec()))
            .collect();
        Self::with_extent(cols, extent)
    }

    /// Creates a sharded column by copying a base column: shard `k` holds
    /// rows `[k * extent, (k + 1) * extent)`, carrying the matching global
    /// row ids when `with_rowids` (the `{block, offset}` layout — the row-id
    /// arrays are identical to the unsharded column's, just partitioned).
    /// `extent == 0` means unsharded.
    #[must_use]
    pub fn from_column_sharded(
        column: &Column,
        with_rowids: bool,
        kernel: CrackKernel,
        extent: usize,
    ) -> Self {
        if extent == 0 || extent >= column.len() {
            let col = CrackerColumn::from_column(column, with_rowids).with_kernel(kernel);
            let extent = if extent == 0 { UNSHARDED } else { extent };
            return Self::with_extent(vec![col], extent);
        }
        let cols = column
            .values()
            .chunks(extent)
            .enumerate()
            .map(|(k, chunk)| {
                let col = if with_rowids {
                    CrackerColumn::from_values_with_rowid_offset(
                        chunk.to_vec(),
                        (k * extent) as holistic_storage::RowId,
                    )
                } else {
                    CrackerColumn::from_values(chunk.to_vec())
                };
                col.with_kernel(kernel)
            })
            .collect();
        Self::with_extent(cols, extent)
    }

    /// Reassembles a sharded column from already-validated per-shard
    /// cracker columns (the recovery path: each shard's learned state is
    /// decoded and validated independently). `extent == 0` means unsharded.
    #[must_use]
    pub fn from_shards(shards: Vec<CrackerColumn>, extent: usize) -> Self {
        let extent = if extent == 0 { UNSHARDED } else { extent };
        Self::with_extent(shards, extent)
    }

    /// Snapshot of the shard handles; the list lock is released before any
    /// shard latch is taken, so the lock order is always `Shard` →
    /// (one) `Column`.
    fn shard_handles(&self) -> Vec<Arc<Shard>> {
        self.shards.read().iter().map(Arc::clone).collect()
    }

    /// The only shard, when the column currently has exactly one — the
    /// single-latch fast paths key off this.
    fn sole_shard(&self) -> Option<Arc<Shard>> {
        let list = self.shards.read();
        (list.len() == 1).then(|| Arc::clone(&list[0]))
    }

    /// Number of shards (1 for an unsharded column).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.read().len()
    }

    /// The fixed shard extent, or `None` for an unsharded column.
    #[must_use]
    pub fn shard_extent(&self) -> Option<usize> {
        (self.extent != UNSHARDED).then_some(self.extent)
    }

    /// Number of values in the column (summed over shards).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shard_handles()
            .iter()
            .map(|s| s.inner.read().len())
            .sum()
    }

    /// Whether the column is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current number of pieces (summed over shards).
    #[must_use]
    pub fn piece_count(&self) -> usize {
        self.shard_handles()
            .iter()
            .map(|s| s.inner.read().piece_count())
            .sum()
    }

    /// Current average piece length (over all shards' pieces).
    #[must_use]
    pub fn avg_piece_len(&self) -> f64 {
        let shards = self.shard_handles();
        if shards.len() == 1 {
            return shards[0].inner.read().avg_piece_len();
        }
        let (mut len, mut pieces) = (0usize, 0usize);
        for s in &shards {
            let g = s.inner.read();
            len += g.len();
            pieces += g.piece_count();
        }
        if pieces == 0 {
            0.0
        } else {
            len as f64 / pieces as f64
        }
    }

    /// Total crack actions applied so far (query-driven plus auxiliary,
    /// summed over shards).
    #[must_use]
    pub fn cracks_performed(&self) -> u64 {
        self.shard_handles()
            .iter()
            .map(|s| s.inner.read().cracks_performed())
            .sum()
    }

    /// Latch-usage statistics.
    #[must_use]
    pub fn latch_stats(&self) -> LatchStats {
        self.stats.snapshot()
    }

    /// One shared/exclusive bump for a whole (possibly fanned-out) select.
    fn bump_select(&self, cracked: bool, queries: u64) {
        if cracked {
            self.stats
                .exclusive_selects
                .fetch_add(queries, Ordering::Relaxed);
        } else {
            self.stats
                .shared_selects
                .fetch_add(queries, Ordering::Relaxed);
        }
    }

    /// Resolves `[lo, hi)` on every shard (cracking where needed, one shard
    /// latch at a time) and returns the total qualifying count plus whether
    /// any shard had to crack.
    fn resolve_count(&self, lo: Value, hi: Value) -> (u64, bool) {
        let mut total = 0u64;
        let mut cracked = false;
        for sh in self.shard_handles() {
            let resolved = { sh.inner.read().select_if_resolved(lo, hi) };
            let range = match resolved {
                Some(r) => r,
                None => {
                    cracked = true;
                    sh.inner.write().crack_select(lo, hi)
                }
            };
            total += (range.end - range.start) as u64;
        }
        (total, cracked)
    }

    /// Counts the values in `[lo, hi)`, cracking if necessary.
    pub fn count(&self, lo: Value, hi: Value) -> u64 {
        if let Some(shard) = self.sole_shard() {
            {
                let guard = shard.inner.read();
                if let Some(range) = guard.select_if_resolved(lo, hi) {
                    self.stats.shared_selects.fetch_add(1, Ordering::Relaxed);
                    return (range.end - range.start) as u64;
                }
            }
            let mut guard = shard.inner.write();
            let range = guard.crack_select(lo, hi);
            self.stats.exclusive_selects.fetch_add(1, Ordering::Relaxed);
            return (range.end - range.start) as u64;
        }
        let (total, cracked) = self.resolve_count(lo, hi);
        self.bump_select(cracked, 1);
        total
    }

    /// Materializes the values in `[lo, hi)`, cracking if necessary. Values
    /// are returned in shard order (row-id order of the original blocks).
    pub fn materialize(&self, lo: Value, hi: Value) -> Vec<Value> {
        if let Some(shard) = self.sole_shard() {
            // Fast path under the shared latch.
            {
                let guard = shard.inner.read();
                if let Some(range) = guard.select_if_resolved(lo, hi) {
                    self.stats.shared_selects.fetch_add(1, Ordering::Relaxed);
                    return guard.view(range).to_vec();
                }
            }
            let mut guard = shard.inner.write();
            let range = guard.crack_select(lo, hi);
            self.stats.exclusive_selects.fetch_add(1, Ordering::Relaxed);
            return guard.view(range).to_vec();
        }
        let mut out = Vec::new();
        let mut cracked = false;
        for sh in self.shard_handles() {
            let resolved = {
                let guard = sh.inner.read();
                guard
                    .select_if_resolved(lo, hi)
                    .map(|r| guard.view(r).to_vec())
            };
            match resolved {
                Some(mut v) => out.append(&mut v),
                None => {
                    cracked = true;
                    let mut guard = sh.inner.write();
                    let range = guard.crack_select(lo, hi);
                    out.extend_from_slice(guard.view(range));
                }
            }
        }
        self.bump_select(cracked, 1);
        out
    }

    /// Resolves the position range for `[lo, hi)`, cracking if necessary.
    ///
    /// Note the returned range is only meaningful relative to the column
    /// state at the time of the call; concurrent refinements do not move
    /// values across resolved boundaries, so counts stay stable, but callers
    /// that need the values should use [`ConcurrentCrackerColumn::materialize`].
    /// On a sharded column positions are per-shard, so the returned range is
    /// count-only: `0..count`.
    pub fn select_range(&self, lo: Value, hi: Value) -> Range<usize> {
        if let Some(shard) = self.sole_shard() {
            {
                let guard = shard.inner.read();
                if let Some(range) = guard.select_if_resolved(lo, hi) {
                    self.stats.shared_selects.fetch_add(1, Ordering::Relaxed);
                    return range;
                }
            }
            let mut guard = shard.inner.write();
            let range = guard.crack_select(lo, hi);
            self.stats.exclusive_selects.fetch_add(1, Ordering::Relaxed);
            return range;
        }
        let (total, cracked) = self.resolve_count(lo, hi);
        self.bump_select(cracked, 1);
        0..total as usize
    }

    /// Answers the range select `[lo, hi)` under the given cracking policy,
    /// returning count, sum, (optionally) the qualifying values and the
    /// kernel-dispatch delta in one latch acquisition.
    ///
    /// If both bounds are already resolved by the cracker index — or land
    /// inside sorted pieces whose prefix-sum arrays are built, where binary
    /// search resolves them read-only — the answer is produced entirely
    /// under the shared latch and no reorganization happens: on a sorted,
    /// prefix-seeded region arbitrary range aggregates never take the write
    /// latch and never fragment the piece table. Stochastic policies only
    /// inject auxiliary splits on the exclusive (cracking) path, where they
    /// pay for themselves.
    pub fn select_with_policy<R: Rng + ?Sized>(
        &self,
        lo: Value,
        hi: Value,
        materialize: bool,
        policy: CrackPolicy,
        rng: &mut R,
    ) -> SelectOutcome {
        if let Some(shard) = self.sole_shard() {
            // Fast path: both bounds answerable, answer under the shared latch.
            {
                let guard = shard.inner.read();
                if let Some(range) = guard.select_if_answerable(lo, hi) {
                    self.stats.shared_selects.fetch_add(1, Ordering::Relaxed);
                    return self.outcome_for(
                        &guard,
                        range,
                        lo,
                        hi,
                        materialize,
                        KernelDispatches::default(),
                    );
                }
            }
            let mut guard = shard.inner.write();
            // Re-check under the exclusive latch: a contender that queued on
            // the same bounds may have resolved them already — re-running the
            // policy then would inject redundant auxiliary splits (Mdd1r/DDx)
            // and over-fragment the index.
            if let Some(range) = guard.select_if_answerable(lo, hi) {
                self.stats.shared_selects.fetch_add(1, Ordering::Relaxed);
                return self.outcome_for(
                    &guard,
                    range,
                    lo,
                    hi,
                    materialize,
                    KernelDispatches::default(),
                );
            }
            let before = guard.kernel_dispatches();
            let range = crack_select_with_policy(&mut guard, lo, hi, policy, rng);
            self.stats.exclusive_selects.fetch_add(1, Ordering::Relaxed);
            let delta = guard.kernel_dispatches().since(before);
            return self.outcome_for(&guard, range, lo, hi, materialize, delta);
        }
        self.select_with_policy_fanout(lo, hi, materialize, policy, rng)
    }

    /// The multi-shard select: probe every shard read-only, crack the
    /// pending shards (in parallel for a large cold crack), compose the
    /// per-shard aggregates and classify the composed answer once.
    fn select_with_policy_fanout<R: Rng + ?Sized>(
        &self,
        lo: Value,
        hi: Value,
        materialize: bool,
        policy: CrackPolicy,
        rng: &mut R,
    ) -> SelectOutcome {
        let shards = self.shard_handles();
        let mut parts: Vec<Option<ShardPart>> = Vec::new();
        parts.resize_with(shards.len(), || None);
        let mut pending: Vec<(usize, Arc<Shard>, u64)> = Vec::new();
        let mut pending_len = 0usize;
        for (i, sh) in shards.iter().enumerate() {
            let guard = sh.inner.read();
            match guard.select_if_answerable(lo, hi) {
                Some(range) => parts[i] = Some(Self::part_for(&guard, range, lo, hi, materialize)),
                None => {
                    pending_len += guard.len();
                    drop(guard);
                    pending.push((i, Arc::clone(sh), 0));
                }
            }
        }
        // Fork one deterministic seed per pending shard, in shard order, so
        // the sequential and parallel crack paths consume the caller's rng
        // identically.
        for p in &mut pending {
            p.2 = rng.next_u64();
        }
        let parallel = pending.len() > 1 && pending_len >= PARALLEL_FANOUT_MIN;
        let results = crack_pending(pending, parallel, |sh, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut guard = sh.inner.write();
            // Re-check under the exclusive latch (see the single-shard path).
            if let Some(range) = guard.select_if_answerable(lo, hi) {
                return Self::part_for(&guard, range, lo, hi, materialize);
            }
            let before = guard.kernel_dispatches();
            let range = crack_select_with_policy(&mut guard, lo, hi, policy, &mut rng);
            let delta = guard.kernel_dispatches().since(before);
            let mut part = Self::part_for(&guard, range, lo, hi, materialize);
            part.dispatches = delta;
            part.cracked = true;
            part
        });
        for (i, part) in results {
            parts[i] = Some(part);
        }
        self.compose_select(parts, materialize)
    }

    /// One shard's answer over its resolved position range (no cache
    /// classification — that happens once, on the composed aggregate).
    fn part_for(
        column: &CrackerColumn,
        range: Range<usize>,
        lo: Value,
        hi: Value,
        materialize: bool,
    ) -> ShardPart {
        let agg = column.aggregate_range(range.clone(), lo, hi);
        ShardPart {
            agg,
            values: materialize.then(|| column.view(range).to_vec()),
            piece_count: column.piece_count(),
            len: column.len(),
            dispatches: KernelDispatches::default(),
            cracked: false,
        }
    }

    /// Composes per-shard parts into one outcome: aggregates sum
    /// component-wise, the composed aggregate is classified against the
    /// cache exactly once, and one shared/exclusive select is recorded.
    fn compose_select(&self, parts: Vec<Option<ShardPart>>, materialize: bool) -> SelectOutcome {
        let mut agg = RangeAggregate::default();
        let mut dispatches = KernelDispatches::default();
        let (mut piece_count, mut total_len) = (0usize, 0usize);
        let mut values = materialize.then(Vec::new);
        let mut cracked = false;
        for part in parts.into_iter().flatten() {
            add_aggregate(&mut agg, &part.agg);
            dispatches.add(part.dispatches);
            piece_count += part.piece_count;
            total_len += part.len;
            cracked |= part.cracked;
            if let (Some(out), Some(mut vs)) = (values.as_mut(), part.values) {
                out.append(&mut vs);
            }
        }
        let mut cache = AggregateCacheDelta::default();
        cache.record(&agg);
        self.stats.record_cache(cache);
        self.bump_select(cracked, 1);
        SelectOutcome {
            count: agg.count,
            sum: agg.sum,
            values,
            piece_count,
            avg_piece_len: if piece_count == 0 {
                0.0
            } else {
                total_len as f64 / piece_count as f64
            },
            dispatches,
            cache,
        }
    }

    /// Degraded-mode answer: serves `[lo, hi)` entirely under the shared
    /// latch if the bounds are already answerable read-only (resolved
    /// crack boundaries, or binary search inside prefix-seeded sorted
    /// pieces — [`CrackerColumn::select_if_answerable`]), and returns
    /// `None` when answering would require cracking.
    ///
    /// Unlike [`ConcurrentCrackerColumn::select_with_policy`] this never
    /// takes the exclusive latch and never reorganizes: it is the answer
    /// path a saturated service prefers, where index refinement work is
    /// deferred until load drains.
    #[must_use]
    pub fn try_select_readonly(
        &self,
        lo: Value,
        hi: Value,
        materialize: bool,
    ) -> Option<SelectOutcome> {
        if let Some(shard) = self.sole_shard() {
            let guard = shard.inner.read();
            let range = guard.select_if_answerable(lo, hi)?;
            self.stats.shared_selects.fetch_add(1, Ordering::Relaxed);
            return Some(self.outcome_for(
                &guard,
                range,
                lo,
                hi,
                materialize,
                KernelDispatches::default(),
            ));
        }
        // Every shard must be answerable read-only, or the whole select
        // defers (no partial cracking on the degraded path).
        let shards = self.shard_handles();
        let mut parts: Vec<Option<ShardPart>> = Vec::with_capacity(shards.len());
        for sh in &shards {
            let guard = sh.inner.read();
            let range = guard.select_if_answerable(lo, hi)?;
            parts.push(Some(Self::part_for(&guard, range, lo, hi, materialize)));
        }
        Some(self.compose_select(parts, materialize))
    }

    /// Answers a whole batch of range selects `(lo, hi, materialize)` in a
    /// **single latch acquisition**, cracking every target piece around all
    /// of the batch's predicate bounds that land in it with one multi-pivot
    /// pass (see [`CrackerColumn::crack_select_batch`]).
    ///
    /// If every query in the batch is already resolved by the cracker index,
    /// the whole batch is answered under the shared latch; otherwise the
    /// exclusive latch is taken once for the batch — instead of once per
    /// query, which is what a loop over
    /// [`ConcurrentCrackerColumn::select_with_policy`] would pay.
    ///
    /// Per-query count/sum/materialization semantics are identical to the
    /// sequential path; the outcome carries one merged kernel-dispatch and
    /// piece-shape delta for the batch.
    pub fn select_batch_with_policy<R: Rng + ?Sized>(
        &self,
        queries: &[(Value, Value, bool)],
        policy: CrackPolicy,
        rng: &mut R,
    ) -> BatchSelectOutcome {
        if let Some(shard) = self.sole_shard() {
            return self.select_batch_single(&shard, queries, policy, rng);
        }
        self.select_batch_fanout(queries, policy, rng)
    }

    /// The single-shard (unsharded) batch path: one latch for the batch.
    fn select_batch_single<R: Rng + ?Sized>(
        &self,
        shard: &Shard,
        queries: &[(Value, Value, bool)],
        policy: CrackPolicy,
        rng: &mut R,
    ) -> BatchSelectOutcome {
        // Fast path: the entire batch is answerable under the shared latch
        // (bounds resolved, or binary-searchable in prefix-seeded sorted
        // pieces).
        {
            let guard = shard.inner.read();
            if let Some(outcome) = self.batch_outcome_if_resolved(&guard, queries) {
                self.stats
                    .shared_selects
                    .fetch_add(queries.len() as u64, Ordering::Relaxed);
                return outcome;
            }
        }
        let mut guard = shard.inner.write();
        // Re-check under the exclusive latch: a queued contender may have
        // resolved the same bounds already (see `select_with_policy`).
        if let Some(outcome) = self.batch_outcome_if_resolved(&guard, queries) {
            self.stats
                .shared_selects
                .fetch_add(queries.len() as u64, Ordering::Relaxed);
            return outcome;
        }
        let before = guard.kernel_dispatches();
        let bounds: Vec<(Value, Value)> = queries.iter().map(|&(lo, hi, _)| (lo, hi)).collect();
        let ranges = crack_select_batch_with_policy(&mut guard, &bounds, policy, rng);
        self.stats
            .exclusive_selects
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let dispatches = guard.kernel_dispatches().since(before);
        let piece_count = guard.piece_count();
        let avg_piece_len = guard.avg_piece_len();
        // Release the exclusive latch before the answer phase: the
        // per-query aggregates now compose from cached piece sums (pure
        // metadata), but materialized copies and scan fallbacks for
        // uncached pieces are still reads, and none of it needs exclusivity.
        // Dropping to the shared latch is safe because cracking only ever
        // *adds* boundaries — a refinement racing in between cannot move
        // values across the resolved boundaries these ranges end on, so
        // every range's count, sum and value multiset stay stable.
        drop(guard);
        let guard = shard.inner.read();
        let mut cache = AggregateCacheDelta::default();
        let answers = ranges
            .into_iter()
            .zip(queries)
            .map(|(range, &(lo, hi, materialize))| {
                Self::answer_for(&guard, range, lo, hi, materialize, &mut cache)
            })
            .collect();
        self.stats.record_cache(cache);
        BatchSelectOutcome {
            answers,
            piece_count,
            avg_piece_len,
            dispatches,
            cache,
        }
    }

    /// The multi-shard batch path: probe every shard for the whole batch,
    /// crack the pending shards around all of the batch's bounds (in
    /// parallel for a large cold batch), then compose each query's answer
    /// across shards and classify it against the cache exactly once.
    fn select_batch_fanout<R: Rng + ?Sized>(
        &self,
        queries: &[(Value, Value, bool)],
        policy: CrackPolicy,
        rng: &mut R,
    ) -> BatchSelectOutcome {
        let shards = self.shard_handles();
        let mut parts: Vec<Option<ShardBatchPart>> = Vec::new();
        parts.resize_with(shards.len(), || None);
        let mut pending: Vec<(usize, Arc<Shard>, u64)> = Vec::new();
        let mut pending_len = 0usize;
        for (i, sh) in shards.iter().enumerate() {
            let guard = sh.inner.read();
            match Self::batch_part_if_resolved(&guard, queries) {
                Some(part) => parts[i] = Some(part),
                None => {
                    pending_len += guard.len();
                    drop(guard);
                    pending.push((i, Arc::clone(sh), 0));
                }
            }
        }
        for p in &mut pending {
            p.2 = rng.next_u64();
        }
        let parallel = pending.len() > 1 && pending_len >= PARALLEL_FANOUT_MIN;
        let results = crack_pending(pending, parallel, |sh, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut guard = sh.inner.write();
            if let Some(part) = Self::batch_part_if_resolved(&guard, queries) {
                return part;
            }
            let before = guard.kernel_dispatches();
            let bounds: Vec<(Value, Value)> = queries.iter().map(|&(lo, hi, _)| (lo, hi)).collect();
            let ranges = crack_select_batch_with_policy(&mut guard, &bounds, policy, &mut rng);
            let dispatches = guard.kernel_dispatches().since(before);
            let answers = ranges
                .into_iter()
                .zip(queries)
                .map(|(range, &(lo, hi, materialize))| {
                    let agg = guard.aggregate_range(range.clone(), lo, hi);
                    (agg, materialize.then(|| guard.view(range).to_vec()))
                })
                .collect();
            ShardBatchPart {
                answers,
                piece_count: guard.piece_count(),
                len: guard.len(),
                dispatches,
                cracked: true,
            }
        });
        for (i, part) in results {
            parts[i] = Some(part);
        }
        // Compose each query across shards.
        let mut cache = AggregateCacheDelta::default();
        let mut dispatches = KernelDispatches::default();
        let (mut piece_count, mut total_len) = (0usize, 0usize);
        let mut cracked = false;
        let mut per_query: Vec<(RangeAggregate, Option<Vec<Value>>)> = queries
            .iter()
            .map(|&(_, _, m)| (RangeAggregate::default(), m.then(Vec::new)))
            .collect();
        for part in parts.into_iter().flatten() {
            dispatches.add(part.dispatches);
            piece_count += part.piece_count;
            total_len += part.len;
            cracked |= part.cracked;
            for (q, (agg, vs)) in part.answers.into_iter().enumerate() {
                add_aggregate(&mut per_query[q].0, &agg);
                if let (Some(out), Some(mut v)) = (per_query[q].1.as_mut(), vs) {
                    out.append(&mut v);
                }
            }
        }
        let answers = per_query
            .into_iter()
            .map(|(agg, values)| {
                cache.record(&agg);
                QueryAnswer {
                    count: agg.count,
                    sum: agg.sum,
                    values,
                }
            })
            .collect();
        self.stats.record_cache(cache);
        self.bump_select(cracked, queries.len() as u64);
        BatchSelectOutcome {
            answers,
            piece_count,
            avg_piece_len: if piece_count == 0 {
                0.0
            } else {
                total_len as f64 / piece_count as f64
            },
            dispatches,
            cache,
        }
    }

    /// One shard's whole-batch answers, if every query is answerable
    /// read-only on this shard (no cache classification — that happens on
    /// the composed per-query aggregates).
    fn batch_part_if_resolved(
        column: &CrackerColumn,
        queries: &[(Value, Value, bool)],
    ) -> Option<ShardBatchPart> {
        let ranges = queries
            .iter()
            .map(|&(lo, hi, _)| column.select_if_answerable(lo, hi))
            .collect::<Option<Vec<Range<usize>>>>()?;
        let answers = ranges
            .into_iter()
            .zip(queries)
            .map(|(range, &(lo, hi, materialize))| {
                let agg = column.aggregate_range(range.clone(), lo, hi);
                (agg, materialize.then(|| column.view(range).to_vec()))
            })
            .collect();
        Some(ShardBatchPart {
            answers,
            piece_count: column.piece_count(),
            len: column.len(),
            dispatches: KernelDispatches::default(),
            cracked: false,
        })
    }

    /// The batch outcome if every query is already answerable read-only
    /// (bounds resolved or binary-searchable in prefix-seeded sorted
    /// pieces).
    ///
    /// Answerability is checked for the *whole* batch (cheap boundary
    /// lookups) before any answer is computed, so a batch with one
    /// unresolved query does not scan the other queries' result ranges only
    /// to discard them.
    fn batch_outcome_if_resolved(
        &self,
        column: &CrackerColumn,
        queries: &[(Value, Value, bool)],
    ) -> Option<BatchSelectOutcome> {
        let ranges = queries
            .iter()
            .map(|&(lo, hi, _)| column.select_if_answerable(lo, hi))
            .collect::<Option<Vec<Range<usize>>>>()?;
        let mut cache = AggregateCacheDelta::default();
        let answers = ranges
            .into_iter()
            .zip(queries)
            .map(|(range, &(lo, hi, materialize))| {
                Self::answer_for(column, range, lo, hi, materialize, &mut cache)
            })
            .collect();
        self.stats.record_cache(cache);
        Some(BatchSelectOutcome {
            answers,
            piece_count: column.piece_count(),
            avg_piece_len: column.avg_piece_len(),
            dispatches: KernelDispatches::default(),
            cache,
        })
    }

    /// One query's answer over its resolved position range. The count is
    /// implicit in the range; the sum is composed from the per-piece
    /// aggregate cache ([`CrackerColumn::aggregate_range`]), which falls
    /// back to the storage layer's chunked masked-sum kernel only for
    /// pieces without a cached sum. A fully cached (or empty) range is
    /// answered with **zero** data-array reads; the classification is
    /// accumulated into `cache`.
    fn answer_for(
        column: &CrackerColumn,
        range: Range<usize>,
        lo: Value,
        hi: Value,
        materialize: bool,
        cache: &mut AggregateCacheDelta,
    ) -> QueryAnswer {
        let agg = column.aggregate_range(range.clone(), lo, hi);
        cache.record(&agg);
        QueryAnswer {
            count: agg.count,
            sum: agg.sum,
            values: materialize.then(|| column.view(range).to_vec()),
        }
    }

    fn outcome_for(
        &self,
        column: &CrackerColumn,
        range: Range<usize>,
        lo: Value,
        hi: Value,
        materialize: bool,
        dispatches: KernelDispatches,
    ) -> SelectOutcome {
        let mut cache = AggregateCacheDelta::default();
        let answer = Self::answer_for(column, range, lo, hi, materialize, &mut cache);
        self.stats.record_cache(cache);
        SelectOutcome {
            count: answer.count,
            sum: answer.sum,
            values: answer.values,
            piece_count: column.piece_count(),
            avg_piece_len: column.avg_piece_len(),
            dispatches,
            cache,
        }
    }

    /// Applies one auxiliary random refinement action under the exclusive
    /// latch of one (randomly chosen) shard, reporting the action's effect
    /// and dispatch delta.
    pub fn refine<R: Rng + ?Sized>(&self, rng: &mut R) -> RefineOutcome {
        if let Some(shard) = self.sole_shard() {
            let mut guard = shard.inner.write();
            let before = guard.kernel_dispatches();
            let split = guard.random_crack(rng);
            if split {
                self.stats.refinements.fetch_add(1, Ordering::Relaxed);
            }
            return RefineOutcome {
                split,
                piece_count: guard.piece_count(),
                avg_piece_len: guard.avg_piece_len(),
                dispatches: guard.kernel_dispatches().since(before),
            };
        }
        let shards = self.shard_handles();
        let idx = rng.gen_range(0..shards.len());
        let (split, dispatches) = {
            let mut guard = shards[idx].inner.write();
            let before = guard.kernel_dispatches();
            let split = guard.random_crack(rng);
            (split, guard.kernel_dispatches().since(before))
        };
        if split {
            self.stats.refinements.fetch_add(1, Ordering::Relaxed);
        }
        RefineOutcome {
            split,
            piece_count: self.piece_count(),
            avg_piece_len: self.avg_piece_len(),
            dispatches,
        }
    }

    /// Applies one auxiliary random refinement action under the exclusive
    /// latch. Returns `true` if the action introduced a new piece; only
    /// such effective actions are counted in [`LatchStats::refinements`].
    pub fn random_crack<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.refine(rng).split
    }

    /// Applies one auxiliary refinement action restricted to the value range
    /// `[lo, hi)` (hot-range boosting), reporting the action's effect and
    /// dispatch delta.
    pub fn refine_in_range<R: Rng + ?Sized>(
        &self,
        lo: Value,
        hi: Value,
        rng: &mut R,
    ) -> RefineOutcome {
        if let Some(shard) = self.sole_shard() {
            let mut guard = shard.inner.write();
            let before = guard.kernel_dispatches();
            let split = guard.random_crack_in_range(lo, hi, rng);
            if split {
                self.stats.refinements.fetch_add(1, Ordering::Relaxed);
            }
            return RefineOutcome {
                split,
                piece_count: guard.piece_count(),
                avg_piece_len: guard.avg_piece_len(),
                dispatches: guard.kernel_dispatches().since(before),
            };
        }
        // Every shard covers the full value domain (sharding is by row id),
        // so a hot value range is refined on a randomly chosen shard.
        let shards = self.shard_handles();
        let idx = rng.gen_range(0..shards.len());
        let (split, dispatches) = {
            let mut guard = shards[idx].inner.write();
            let before = guard.kernel_dispatches();
            let split = guard.random_crack_in_range(lo, hi, rng);
            (split, guard.kernel_dispatches().since(before))
        };
        if split {
            self.stats.refinements.fetch_add(1, Ordering::Relaxed);
        }
        RefineOutcome {
            split,
            piece_count: self.piece_count(),
            avg_piece_len: self.avg_piece_len(),
            dispatches,
        }
    }

    /// Applies `per_range` auxiliary refinement actions restricted to each
    /// of `ranges` under a **single** exclusive-latch acquisition — the
    /// batched form of [`ConcurrentCrackerColumn::refine_in_range`], used
    /// for hot-range boosting of a whole query batch (one latch round trip
    /// instead of one per boost per hot query).
    pub fn refine_in_ranges<R: Rng + ?Sized>(
        &self,
        ranges: &[(Value, Value)],
        per_range: u64,
        rng: &mut R,
    ) -> BatchRefineOutcome {
        if let Some(shard) = self.sole_shard() {
            let mut guard = shard.inner.write();
            let before = guard.kernel_dispatches();
            let mut splits = 0u64;
            for &(lo, hi) in ranges {
                for _ in 0..per_range {
                    if guard.random_crack_in_range(lo, hi, rng) {
                        splits += 1;
                    }
                }
            }
            if splits > 0 {
                self.stats.refinements.fetch_add(splits, Ordering::Relaxed);
            }
            return BatchRefineOutcome {
                splits,
                piece_count: guard.piece_count(),
                avg_piece_len: guard.avg_piece_len(),
                dispatches: guard.kernel_dispatches().since(before),
            };
        }
        // Draw each action's shard assignment up front (deterministic rng
        // order), then take each shard's latch once for its share of the
        // batch — one latch round trip per *shard*, not per action.
        let shards = self.shard_handles();
        let mut per_shard: Vec<Vec<(Value, Value)>> = vec![Vec::new(); shards.len()];
        for &(lo, hi) in ranges {
            for _ in 0..per_range {
                per_shard[rng.gen_range(0..shards.len())].push((lo, hi));
            }
        }
        let mut splits = 0u64;
        let mut dispatches = KernelDispatches::default();
        for (sh, actions) in shards.iter().zip(per_shard) {
            if actions.is_empty() {
                continue;
            }
            let mut guard = sh.inner.write();
            let before = guard.kernel_dispatches();
            for (lo, hi) in actions {
                if guard.random_crack_in_range(lo, hi, rng) {
                    splits += 1;
                }
            }
            dispatches.add(guard.kernel_dispatches().since(before));
        }
        if splits > 0 {
            self.stats.refinements.fetch_add(splits, Ordering::Relaxed);
        }
        BatchRefineOutcome {
            splits,
            piece_count: self.piece_count(),
            avg_piece_len: self.avg_piece_len(),
            dispatches,
        }
    }

    /// Applies one auxiliary refinement action restricted to the value range
    /// `[lo, hi)` (hot-range boosting). Returns `true` if a new piece was
    /// introduced.
    pub fn random_crack_in_range<R: Rng + ?Sized>(
        &self,
        lo: Value,
        hi: Value,
        rng: &mut R,
    ) -> bool {
        self.refine_in_range(lo, hi, rng).split
    }

    /// Builds prefix-sum arrays for every sorted piece that lacks one,
    /// under a single **write**-latch acquisition (build once, read many:
    /// once seeded, every reader serves interior sorted-piece aggregates
    /// from the shared arrays without ever taking the write latch again).
    /// Returns how many pieces were seeded.
    ///
    /// Probes under the *shared* latch first: the background tuner calls
    /// this on every idle batch, and a column with nothing to seed — the
    /// steady state, and the only state purely cracked columns ever have —
    /// must not acquire (or make queries queue behind) the exclusive latch.
    pub fn seed_prefix_sums(&self) -> usize {
        let mut seeded = 0;
        for sh in self.shard_handles() {
            let needs = sh.inner.read().needs_prefix_seeding();
            if needs {
                seeded += sh.inner.write().seed_prefix_sums();
            }
        }
        seeded
    }

    /// Fully sorts the column under the exclusive latch (see
    /// [`CrackerColumn::sort_fully`]): the piece table collapses to one
    /// sorted, prefix-seeded piece, after which every range aggregate is
    /// answered read-only under the shared latch.
    pub fn sort_fully(&self) {
        for sh in self.shard_handles() {
            let sorted = sh.inner.read().is_fully_sorted();
            if !sorted {
                sh.inner.write().sort_fully();
            }
        }
    }

    /// Ripple-inserts `v` (carrying `rowid` when the column keeps row ids)
    /// under the exclusive latch — the engine's durable-update path applies
    /// WAL-logged inserts through this.
    pub fn insert(&self, v: Value, rowid: holistic_storage::RowId) {
        if self.extent == UNSHARDED {
            if let Some(shard) = self.shards.read().first().map(Arc::clone) {
                shard.inner.write().ripple_insert(v, rowid);
            }
            return;
        }
        // Sharded: inserts land in the last shard; when it reaches the
        // extent a fresh empty shard is spilled (the only shard-list write).
        let mut list = self.shards.write();
        Self::spill_if_full(&mut list, self.extent);
        if let Some(target) = list.last().map(Arc::clone) {
            target.inner.write().ripple_insert(v, rowid);
        }
    }

    /// Spills a fresh empty shard (matching the last shard's kernel and
    /// row-id keeping) when the last shard has reached the extent.
    fn spill_if_full(list: &mut Vec<Arc<Shard>>, extent: usize) {
        let Some(last) = list.last().map(Arc::clone) else {
            return;
        };
        let (len, keeps_rowids, kernel) = {
            let g = last.inner.read();
            (g.len(), g.rowids().is_some(), g.kernel())
        };
        if len >= extent {
            let col = if keeps_rowids {
                CrackerColumn::from_values_with_rowid_offset(vec![], 0)
            } else {
                CrackerColumn::from_values(vec![])
            };
            list.push(Arc::new(Shard::new(col.with_kernel(kernel))));
        }
    }

    /// Batched ripple insert: on an unsharded column a single acquisition
    /// of the exclusive latch and one sweep over the piece table for the
    /// whole batch (see [`CrackerColumn::ripple_insert_batch`]); on a
    /// sharded column the batch is split into sub-batches honoring the last
    /// shard's remaining extent, spilling fresh shards as needed.
    pub fn insert_batch(&self, batch: &[(Value, holistic_storage::RowId)]) {
        if self.extent == UNSHARDED {
            if let Some(shard) = self.shards.read().first().map(Arc::clone) {
                shard.inner.write().ripple_insert_batch(batch);
            }
            return;
        }
        let mut list = self.shards.write();
        let mut rest = batch;
        while !rest.is_empty() {
            Self::spill_if_full(&mut list, self.extent);
            let Some(target) = list.last().map(Arc::clone) else {
                return;
            };
            let mut guard = target.inner.write();
            let room = self.extent.saturating_sub(guard.len()).max(1);
            let take = room.min(rest.len());
            guard.ripple_insert_batch(&rest[..take]);
            rest = &rest[take..];
        }
    }

    /// Ripple-deletes one occurrence of `v` from the first shard holding
    /// one, returning whether a value was removed (see
    /// [`ConcurrentCrackerColumn::delete_batch`]).
    pub fn delete(&self, v: Value) -> bool {
        self.delete_batch(&[v]) == [true]
    }

    /// Ripple-deletes one occurrence per element of `values`, reporting per
    /// element whether a copy was found. Shards are visited in order and
    /// each is probed under its *shared* latch ([`CrackerColumn::holds`]);
    /// only a shard holding a still-wanted value is upgraded to its
    /// exclusive latch, where one batched sweep
    /// ([`CrackerColumn::ripple_delete_batch`]) looks again and removes
    /// what is still there — so readers of the other shards never queue
    /// behind a delete. (Which copy of a duplicated value is removed is
    /// unspecified — the multiset answer is what matters.)
    pub fn delete_batch(&self, values: &[Value]) -> Vec<bool> {
        let mut found = vec![false; values.len()];
        // Indices into `values` no shard has given up a copy for yet.
        let mut wanted: Vec<usize> = (0..values.len()).collect();
        for sh in self.shard_handles() {
            if wanted.is_empty() {
                break;
            }
            let holds_any = {
                let guard = sh.inner.read();
                wanted.iter().any(|&i| guard.holds(values[i]))
            };
            if !holds_any {
                continue;
            }
            let batch: Vec<Value> = wanted.iter().map(|&i| values[i]).collect();
            let removed = sh.inner.write().ripple_delete_batch(&batch);
            wanted = wanted
                .into_iter()
                .zip(removed)
                .filter_map(|(i, hit)| {
                    found[i] = hit;
                    (!hit).then_some(i)
                })
                .collect();
        }
        found
    }

    /// Runs a closure with shared access to the *first* shard's cracker
    /// column. On an unsharded column that is the whole column; sharded
    /// callers should use [`ConcurrentCrackerColumn::with_shard_read`] or
    /// [`ConcurrentCrackerColumn::pieces_snapshot`] instead.
    pub fn with_read<T>(&self, f: impl FnOnce(&CrackerColumn) -> T) -> T {
        let shard = Arc::clone(&self.shards.read()[0]);
        let guard = shard.inner.read();
        f(&guard)
    }

    /// Runs a closure with shared access to shard `shard`'s cracker column,
    /// or `None` when the index is out of range.
    pub fn with_shard_read<T>(
        &self,
        shard: usize,
        f: impl FnOnce(&CrackerColumn) -> T,
    ) -> Option<T> {
        let sh = { self.shards.read().get(shard).map(Arc::clone) };
        sh.map(|sh| {
            let guard = sh.inner.read();
            f(&guard)
        })
    }

    /// Shard `shard`'s piece table (shard-local offsets), or `None` when
    /// the index is out of range.
    #[must_use]
    pub fn shard_pieces(&self, shard: usize) -> Option<Vec<Piece>> {
        self.with_shard_read(shard, |c| c.pieces().to_vec())
    }

    /// Clones every shard's cracker column (one shard latch at a time) —
    /// the partial-rebuild path reuses the healthy shards' learned state.
    #[must_use]
    pub fn clone_shards(&self) -> Vec<CrackerColumn> {
        self.shard_handles()
            .iter()
            .map(|sh| sh.inner.read().clone())
            .collect()
    }

    /// A column-wide piece-table snapshot: every shard's pieces with their
    /// `start`/`end` rebased to column-global offsets (shard base = sum of
    /// preceding shard lengths), in shard order. On an unsharded column
    /// this is exactly the piece table.
    #[must_use]
    pub fn pieces_snapshot(&self) -> Vec<Piece> {
        let shards = self.shard_handles();
        if shards.len() == 1 {
            return shards[0].inner.read().pieces().to_vec();
        }
        let mut out = Vec::new();
        let mut base = 0usize;
        for sh in &shards {
            let guard = sh.inner.read();
            for p in guard.pieces() {
                let mut p = p.clone();
                p.start += base;
                p.end += base;
                out.push(p);
            }
            base += guard.len();
        }
        out
    }

    /// Validates every shard's cracker-column invariants.
    #[must_use]
    pub fn validate(&self) -> bool {
        self.find_invalid_shard().is_none()
    }

    /// Index of the first shard failing validation, or `None` when every
    /// shard is valid — the quarantine path uses this to pinpoint (and
    /// later rebuild) only the damaged shard.
    #[must_use]
    pub fn find_invalid_shard(&self) -> Option<usize> {
        self.shard_handles()
            .iter()
            .position(|sh| !sh.inner.read().validate())
    }

    /// One budgeted scrub step: validates up to `budget` pieces starting
    /// at piece index `from`, entirely under the shared latch (a scrub is
    /// a read; it must not make queries queue). Returns how far it got so
    /// the scrubber can resume where it left off next idle window.
    #[must_use]
    pub fn scrub_pieces(&self, from: usize, budget: usize) -> ScrubOutcome {
        // The scrub cursor walks a *global* piece index: the concatenation
        // of the shards' piece tables in shard order. Piece counts shift as
        // queries crack concurrently — the cursor is a progress heuristic,
        // not an exact bookmark, exactly as on the unsharded column.
        let shards = self.shard_handles();
        let want = budget.max(1);
        let (ws, we) = (from, from.saturating_add(want));
        let mut base = 0usize;
        let mut checked = 0usize;
        let mut valid = true;
        let mut failed_shard = None;
        for (i, sh) in shards.iter().enumerate() {
            let guard = sh.inner.read();
            let pc = guard.piece_count();
            let lo = ws.clamp(base, base + pc) - base;
            let hi = we.clamp(base, base + pc) - base;
            if lo < hi {
                if !guard.validate_piece_range(lo..hi) {
                    valid = false;
                    if failed_shard.is_none() {
                        failed_shard = Some(i);
                    }
                }
                checked += hi - lo;
            }
            base += pc;
        }
        let total = base;
        let end = we.min(total);
        ScrubOutcome {
            checked,
            next: (end < total).then_some(end),
            valid,
            failed_shard,
        }
    }

    /// Applies one injected corruption to the learned state, trying shards
    /// in order until one has a field to flip (see [`crate::corrupt`]).
    /// Returns whether a field was actually flipped.
    ///
    /// # Panics
    /// [`CorruptionKind::Panic`] propagates its panic out of the latch (the
    /// guard unwinds cleanly); the caller's containment boundary is
    /// expected to catch it.
    pub fn corrupt(&self, kind: CorruptionKind) -> bool {
        for sh in self.shard_handles() {
            if crate::corrupt::corrupt_column(&mut sh.inner.write(), kind) {
                return true;
            }
        }
        false
    }

    /// Applies one injected corruption to shard `shard` specifically,
    /// returning whether a field was flipped (`false` when the index is out
    /// of range or the shard has nothing to flip).
    ///
    /// # Panics
    /// [`CorruptionKind::Panic`] propagates, as with
    /// [`ConcurrentCrackerColumn::corrupt`].
    pub fn corrupt_shard(&self, shard: usize, kind: CorruptionKind) -> bool {
        let sh = { self.shards.read().get(shard).map(Arc::clone) };
        match sh {
            Some(sh) => crate::corrupt::corrupt_column(&mut sh.inner.write(), kind),
            None => false,
        }
    }
}

/// Runs the pending-shard crack closure over every pending shard: on the
/// calling thread when the work is small, or fanned out one-shard-per-worker
/// for a large cold crack. Worker threads start with an empty held-lock
/// stack, so each acquisition of a shard's `Column`-level latch is the
/// thread's deepest lock — the machine-checked order holds by construction,
/// and no thread ever holds two shard latches.
fn crack_pending<T, F>(
    pending: Vec<(usize, Arc<Shard>, u64)>,
    parallel: bool,
    f: F,
) -> Vec<(usize, T)>
where
    T: Send,
    F: Fn(&Shard, u64) -> T + Sync,
{
    let workers = if parallel {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(pending.len())
    } else {
        1
    };
    if workers < 2 {
        return pending
            .into_iter()
            .map(|(i, sh, seed)| (i, f(&sh, seed)))
            .collect();
    }
    let chunk = pending.len().div_ceil(workers);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = pending
            .chunks(chunk)
            .map(|slice| {
                s.spawn(move || {
                    slice
                        .iter()
                        .map(|(i, sh, seed)| (*i, f(sh, *seed)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                // A worker panic (e.g. injected kernel-bug corruption) must
                // propagate to the caller's containment boundary, exactly
                // like the same panic on the sequential path would.
                h.join().expect("shard crack worker panicked") // lint:allow(panic-path)
            })
            .collect()
    })
}

/// Component-wise accumulation of per-shard range aggregates. Summing the
/// piece-class counters (cached/prefix/scanned) before classifying the
/// composed aggregate once is exactly what makes the sharded cache
/// classification match the unsharded column's.
fn add_aggregate(into: &mut RangeAggregate, from: &RangeAggregate) {
    into.count += from.count;
    into.sum += from.sum;
    into.cached_pieces += from.cached_pieces;
    into.prefix_pieces += from.prefix_pieces;
    into.scanned_pieces += from.scanned_pieces;
    into.scanned_values += from.scanned_values;
}

/// Outcome of one [`ConcurrentCrackerColumn::scrub_pieces`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubOutcome {
    /// Pieces validated by this step.
    pub checked: usize,
    /// Piece index to resume from, or `None` when the step reached the
    /// end of the (global) piece table (the scrub cycle for this column is
    /// done).
    pub next: Option<usize>,
    /// Whether every checked piece passed validation.
    pub valid: bool,
    /// The first shard whose checked pieces failed validation, when
    /// `!valid` — quarantine uses this to pinpoint the damaged shard.
    pub failed_shard: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn data(n: usize) -> Vec<Value> {
        (0..n as Value).map(|i| (i * 7919) % (n as Value)).collect()
    }

    fn scan_count(values: &[Value], lo: Value, hi: Value) -> u64 {
        values.iter().filter(|&&v| v >= lo && v < hi).count() as u64
    }

    #[test]
    fn single_threaded_counts_match_scan() {
        let values = data(1000);
        let c = ConcurrentCrackerColumn::from_values(values.clone());
        for &(lo, hi) in &[(0, 100), (100, 350), (900, 1000), (500, 400)] {
            assert_eq!(c.count(lo, hi), scan_count(&values, lo, hi));
        }
        assert!(c.validate());
        assert!(c.latch_stats().exclusive_selects >= 3);
    }

    #[test]
    fn repeated_query_uses_shared_path() {
        let values = data(1000);
        let c = ConcurrentCrackerColumn::from_values(values);
        let _ = c.count(100, 200);
        let exclusive_before = c.latch_stats().exclusive_selects;
        let _ = c.count(100, 200);
        let stats = c.latch_stats();
        assert_eq!(stats.exclusive_selects, exclusive_before);
        assert!(stats.shared_selects >= 1);
    }

    #[test]
    fn materialize_returns_only_qualifying_values() {
        let values = data(500);
        let c = ConcurrentCrackerColumn::from_values(values.clone());
        let got = c.materialize(50, 150);
        assert_eq!(got.len() as u64, scan_count(&values, 50, 150));
        assert!(got.iter().all(|&v| (50..150).contains(&v)));
        // Second call takes the shared path and returns the same multiset.
        let mut again = c.materialize(50, 150);
        let mut first = got.clone();
        again.sort_unstable();
        first.sort_unstable();
        assert_eq!(again, first);
    }

    #[test]
    fn select_with_policy_matches_scan_and_reports_dispatches() {
        let values = data(2000);
        let c = ConcurrentCrackerColumn::from_values(values.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let first = c.select_with_policy(100, 400, true, CrackPolicy::Standard, &mut rng);
        assert_eq!(first.count, scan_count(&values, 100, 400));
        let expected_sum: i128 = values
            .iter()
            .filter(|&&v| (100..400).contains(&v))
            .map(|&v| i128::from(v))
            .sum();
        assert_eq!(first.sum, expected_sum);
        assert_eq!(first.values.as_ref().unwrap().len() as u64, first.count);
        assert!(first.dispatches.total() >= 1, "first select must crack");
        assert!(first.piece_count >= 2);
        // Second identical select runs on the shared path: no dispatches.
        let again = c.select_with_policy(100, 400, false, CrackPolicy::Standard, &mut rng);
        assert_eq!(again.count, first.count);
        assert_eq!(again.sum, first.sum);
        assert_eq!(again.dispatches.total(), 0);
        assert!(again.values.is_none());
        assert!(c.latch_stats().shared_selects >= 1);
        assert!(c.validate());
    }

    #[test]
    fn stochastic_policies_stay_correct_through_the_latch() {
        let values = data(4000);
        for policy in [CrackPolicy::ddr(), CrackPolicy::ddc(), CrackPolicy::Mdd1r] {
            let c = ConcurrentCrackerColumn::from_values(values.clone());
            let mut rng = StdRng::seed_from_u64(13);
            for &(lo, hi) in &[(10, 500), (1000, 1400), (3000, 3900), (500, 400)] {
                let outcome = c.select_with_policy(lo, hi, false, policy, &mut rng);
                assert_eq!(
                    outcome.count,
                    scan_count(&values, lo, hi),
                    "{policy:?} [{lo},{hi})"
                );
            }
            assert!(c.validate());
        }
    }

    #[test]
    fn concurrent_queries_and_refinements_are_correct() {
        let n = 20_000;
        let values = data(n);
        let expected: Vec<(Value, Value, u64)> = (0..16)
            .map(|i| {
                let lo = (i * 1000) % (n as Value);
                let hi = lo + 500;
                (lo, hi, scan_count(&values, lo, hi))
            })
            .collect();
        let column = Arc::new(ConcurrentCrackerColumn::from_values(values));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let column = Arc::clone(&column);
            let expected = expected.clone();
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                let mut effective = 0u64;
                for round in 0..8 {
                    for &(lo, hi, want) in &expected {
                        assert_eq!(column.count(lo, hi), want, "thread {t} round {round}");
                    }
                    // Interleave idle-time style refinements.
                    for _ in 0..5 {
                        if column.random_crack(&mut rng) {
                            effective += 1;
                        }
                    }
                }
                effective
            }));
        }
        let mut total_effective = 0;
        for h in handles {
            total_effective += h.join().expect("worker panicked");
        }
        assert!(column.validate());
        assert!(column.piece_count() > 16);
        let stats = column.latch_stats();
        // Only actions that introduced a piece count as refinement work.
        assert_eq!(stats.refinements, total_effective);
        assert!(stats.refinements <= 4 * 8 * 5);
        assert!(
            stats.shared_selects > 0,
            "expected some shared-path selects"
        );
    }

    #[test]
    fn noop_refinements_are_not_counted_as_work() {
        // Regression: the old code bumped `refinements` before checking
        // whether the crack did anything, so an empty column racked up
        // refinement counts without ever doing work.
        let empty = ConcurrentCrackerColumn::from_values(vec![]);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert!(!empty.random_crack(&mut rng));
        }
        assert_eq!(empty.latch_stats().refinements, 0);

        // A column of identical values converges after a single split; the
        // remaining actions are no-ops and must not be counted either.
        let converged = ConcurrentCrackerColumn::from_values(vec![5; 64]);
        let mut effective = 0;
        for _ in 0..20 {
            if converged.random_crack(&mut rng) {
                effective += 1;
            }
        }
        assert!(effective <= 1);
        assert_eq!(converged.latch_stats().refinements, effective);

        // Same contract for the hot-range variant.
        assert!(!converged.random_crack_in_range(5, 5, &mut rng));
        assert_eq!(converged.latch_stats().refinements, effective);
    }

    #[test]
    fn batch_select_matches_scan_and_takes_one_exclusive_pass() {
        let values = data(4000);
        let c = ConcurrentCrackerColumn::from_values(values.clone());
        let queries: Vec<(Value, Value, bool)> = vec![
            (100, 400, false),
            (1000, 1200, true),
            (3500, 3900, false),
            (500, 400, false),
        ];
        let mut rng = StdRng::seed_from_u64(21);
        let outcome = c.select_batch_with_policy(&queries, CrackPolicy::Standard, &mut rng);
        assert_eq!(outcome.answers.len(), queries.len());
        for (a, &(lo, hi, materialize)) in outcome.answers.iter().zip(&queries) {
            assert_eq!(a.count, scan_count(&values, lo, hi), "[{lo},{hi})");
            let expected_sum: i128 = values
                .iter()
                .filter(|&&v| v >= lo && v < hi)
                .map(|&v| i128::from(v))
                .sum();
            assert_eq!(a.sum, expected_sum, "[{lo},{hi})");
            assert_eq!(a.values.is_some(), materialize);
            if let Some(vs) = &a.values {
                assert_eq!(vs.len() as u64, a.count);
            }
        }
        assert!(outcome.dispatches.total() >= 1, "cold batch must crack");
        assert!(outcome.piece_count >= 2);
        assert_eq!(c.latch_stats().exclusive_selects, queries.len() as u64);
        assert!(c.validate());

        // The identical batch now runs entirely on the shared path.
        let again = c.select_batch_with_policy(&queries, CrackPolicy::Standard, &mut rng);
        assert_eq!(again.dispatches.total(), 0);
        assert_eq!(c.latch_stats().shared_selects, queries.len() as u64);
        for (a, b) in again.answers.iter().zip(&outcome.answers) {
            assert_eq!(a.count, b.count);
            assert_eq!(a.sum, b.sum);
        }
    }

    #[test]
    fn batch_select_stochastic_policies_stay_correct() {
        let values = data(4000);
        for policy in [CrackPolicy::ddr(), CrackPolicy::ddc(), CrackPolicy::Mdd1r] {
            let c = ConcurrentCrackerColumn::from_values(values.clone());
            let mut rng = StdRng::seed_from_u64(31);
            let queries: Vec<(Value, Value, bool)> = vec![
                (10, 500, false),
                (1000, 1400, false),
                (3000, 3900, false),
                (500, 400, false),
            ];
            let outcome = c.select_batch_with_policy(&queries, policy, &mut rng);
            for (a, &(lo, hi, _)) in outcome.answers.iter().zip(&queries) {
                assert_eq!(
                    a.count,
                    scan_count(&values, lo, hi),
                    "{policy:?} [{lo},{hi})"
                );
            }
            assert!(c.validate(), "{policy:?}");
        }
    }

    #[test]
    fn batch_select_empty_batch_and_empty_column() {
        let c = ConcurrentCrackerColumn::from_values(data(100));
        let mut rng = StdRng::seed_from_u64(0);
        let outcome = c.select_batch_with_policy(&[], CrackPolicy::Standard, &mut rng);
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.dispatches.total(), 0);
        let empty = ConcurrentCrackerColumn::from_values(vec![]);
        let outcome =
            empty.select_batch_with_policy(&[(1, 5, false)], CrackPolicy::Mdd1r, &mut rng);
        assert_eq!(outcome.answers[0].count, 0);
    }

    #[test]
    fn resolved_aggregates_are_served_without_data_reads() {
        let values = data(4000);
        let c = ConcurrentCrackerColumn::from_values(values.clone());
        let mut rng = StdRng::seed_from_u64(17);
        // First select cracks — the fused kernels seed the cache, so even
        // the cracking select answers its aggregate from piece sums.
        let first = c.select_with_policy(100, 900, false, CrackPolicy::Standard, &mut rng);
        assert_eq!(first.cache.hits, 1);
        assert_eq!(first.cache.scanned_values, 0);
        // The repeated (resolved, shared-latch) select: zero data reads.
        let again = c.select_with_policy(100, 900, false, CrackPolicy::Standard, &mut rng);
        assert_eq!(again.count, first.count);
        assert_eq!(again.sum, first.sum);
        assert_eq!(again.cache.hits, 1);
        assert_eq!(
            again.cache.scanned_values, 0,
            "resolved path must not touch data"
        );
        let stats = c.latch_stats();
        assert_eq!(stats.aggregate_hits, 2);
        assert_eq!(stats.aggregate_partials + stats.aggregate_misses, 0);
    }

    #[test]
    fn batch_aggregates_compose_from_the_cache() {
        let values = data(4000);
        let c = ConcurrentCrackerColumn::from_values(values.clone());
        let queries: Vec<(Value, Value, bool)> =
            vec![(100, 400, false), (1000, 1200, false), (3500, 3900, false)];
        let mut rng = StdRng::seed_from_u64(19);
        let outcome = c.select_batch_with_policy(&queries, CrackPolicy::Standard, &mut rng);
        assert_eq!(outcome.cache.hits, queries.len() as u64);
        assert_eq!(outcome.cache.scanned_values, 0);
        for (a, &(lo, hi, _)) in outcome.answers.iter().zip(&queries) {
            let expected: i128 = values
                .iter()
                .filter(|&&v| v >= lo && v < hi)
                .map(|&v| i128::from(v))
                .sum();
            assert_eq!(a.sum, expected, "[{lo},{hi})");
        }
        // The resolved replay stays metadata-only too.
        let again = c.select_batch_with_policy(&queries, CrackPolicy::Standard, &mut rng);
        assert_eq!(again.cache.hits, queries.len() as u64);
        assert_eq!(again.cache.scanned_values, 0);
        assert_eq!(c.latch_stats().aggregate_hits, 2 * queries.len() as u64);
    }

    #[test]
    fn sorted_prefix_aggregates_stay_on_the_shared_latch() {
        // A sorted, prefix-seeded column answers *arbitrary* interior
        // aggregates read-only: no write latch, no splits, zero data reads,
        // classified as prefix hits.
        let mut inner = CrackerColumn::from_values(data(4000));
        inner.sort_fully();
        let c = ConcurrentCrackerColumn::new(inner);
        let mut rng = StdRng::seed_from_u64(23);
        let pieces_before = c.piece_count();
        for &(lo, hi) in &[(100, 900), (0, 4000), (3999, 4001), (250, 251)] {
            let out = c.select_with_policy(lo, hi, false, CrackPolicy::Standard, &mut rng);
            assert_eq!(out.count, scan_count(&data(4000), lo, hi), "[{lo},{hi})");
            let expected: i128 = data(4000)
                .iter()
                .filter(|&&v| v >= lo && v < hi)
                .map(|&v| i128::from(v))
                .sum();
            assert_eq!(out.sum, expected, "[{lo},{hi})");
            assert_eq!(out.cache.scanned_values, 0, "[{lo},{hi})");
            assert_eq!(out.cache.zero_read(), 1, "[{lo},{hi})");
            assert_eq!(out.dispatches.total(), 0);
        }
        assert_eq!(c.piece_count(), pieces_before, "no fragmentation");
        let stats = c.latch_stats();
        assert_eq!(stats.exclusive_selects, 0, "never took the write latch");
        assert_eq!(stats.shared_selects, 4);
        assert!(
            stats.aggregate_prefix >= 3,
            "interior bounds are prefix hits"
        );
        assert_eq!(stats.aggregate_partials + stats.aggregate_misses, 0);
        // The batched path shares the same read-only fast path.
        let queries: Vec<(Value, Value, bool)> = vec![(5, 77, false), (1000, 3500, true)];
        let outcome = c.select_batch_with_policy(&queries, CrackPolicy::Standard, &mut rng);
        assert_eq!(outcome.dispatches.total(), 0);
        assert_eq!(outcome.cache.scanned_values, 0);
        assert_eq!(outcome.cache.zero_read(), 2);
        assert_eq!(c.latch_stats().exclusive_selects, 0);
        assert!(c.validate());
    }

    #[test]
    fn seed_prefix_sums_unlocks_the_read_only_sorted_path() {
        // A sorted column handed over *without* prefixes cracks on first
        // touch; after seeding (one write-latch pass), the same shape of
        // query runs read-only.
        let mut inner = CrackerColumn::from_values(data(1000));
        inner.sort_fully();
        // Strip what sort_fully seeded to model a pre-seeding column.
        {
            let (_, _, index) = inner.parts_mut();
            for i in 0..index.piece_count() {
                index.set_sum(i, None);
                index.pieces_mut()[i].prefix = None;
            }
        }
        let c = ConcurrentCrackerColumn::new(inner);
        assert_eq!(c.seed_prefix_sums(), 1);
        assert_eq!(c.seed_prefix_sums(), 0, "second seeding is a no-op");
        let mut rng = StdRng::seed_from_u64(29);
        let out = c.select_with_policy(100, 300, false, CrackPolicy::Standard, &mut rng);
        assert_eq!(out.count, scan_count(&data(1000), 100, 300));
        assert_eq!(out.cache.scanned_values, 0);
        assert_eq!(c.latch_stats().exclusive_selects, 0);
    }

    #[test]
    fn empty_column() {
        let c = ConcurrentCrackerColumn::from_values(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.count(0, 10), 0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(!c.random_crack(&mut rng));
    }

    #[test]
    fn refine_reports_effect_and_shape() {
        let c = ConcurrentCrackerColumn::from_values((0..1000).rev().collect());
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = c.refine(&mut rng);
        assert!(outcome.split);
        assert!(outcome.piece_count >= 2);
        assert!(outcome.avg_piece_len <= 1000.0);
        assert_eq!(c.latch_stats().refinements, 1);
        assert!(c.cracks_performed() >= 1);
    }

    #[test]
    fn with_read_exposes_column_state() {
        let c = ConcurrentCrackerColumn::from_values(data(100));
        let _ = c.count(10, 20);
        let pieces = c.with_read(|col| col.piece_count());
        assert!(pieces >= 2);
    }

    fn scan_sum(values: &[Value], lo: Value, hi: Value) -> i128 {
        values
            .iter()
            .filter(|&&v| v >= lo && v < hi)
            .map(|&v| i128::from(v))
            .sum()
    }

    #[test]
    fn sharded_answers_match_the_unsharded_reference() {
        let values = data(4000);
        for extent in [1, 7, 512, 1000, 4000, 9999] {
            let sharded = ConcurrentCrackerColumn::from_values_sharded(values.clone(), extent);
            let reference = ConcurrentCrackerColumn::from_values(values.clone());
            let mut rs = StdRng::seed_from_u64(41);
            let mut ru = StdRng::seed_from_u64(41);
            for &(lo, hi) in &[(0, 100), (100, 350), (3900, 4000), (500, 400), (0, 4000)] {
                let a = sharded.select_with_policy(lo, hi, true, CrackPolicy::Standard, &mut rs);
                let b = reference.select_with_policy(lo, hi, true, CrackPolicy::Standard, &mut ru);
                assert_eq!(a.count, b.count, "extent {extent} [{lo},{hi})");
                assert_eq!(a.sum, b.sum, "extent {extent} [{lo},{hi})");
                let mut av = a.values.clone().unwrap();
                let mut bv = b.values.clone().unwrap();
                av.sort_unstable();
                bv.sort_unstable();
                assert_eq!(av, bv, "extent {extent} [{lo},{hi})");
            }
            assert!(sharded.validate(), "extent {extent}");
            assert_eq!(sharded.len(), values.len());
            assert_eq!(sharded.shard_count(), values.len().div_ceil(extent).max(1));
        }
    }

    #[test]
    fn sharded_sorted_prefix_classification_matches_unsharded() {
        // Sorted + prefix-seeded shards: composed aggregates must classify
        // exactly like the unsharded column (zero-read prefix hits), and
        // never take a write latch.
        let values = data(4000);
        let c = ConcurrentCrackerColumn::from_values_sharded(values.clone(), 600);
        c.sort_fully();
        assert_eq!(c.seed_prefix_sums(), 0, "sort_fully seeds the prefixes");
        let mut rng = StdRng::seed_from_u64(23);
        for &(lo, hi) in &[(100, 900), (0, 4000), (250, 251), (3999, 4001)] {
            let out = c.select_with_policy(lo, hi, false, CrackPolicy::Standard, &mut rng);
            assert_eq!(out.count, scan_count(&values, lo, hi), "[{lo},{hi})");
            assert_eq!(out.sum, scan_sum(&values, lo, hi), "[{lo},{hi})");
            assert_eq!(out.cache.scanned_values, 0, "[{lo},{hi})");
            assert_eq!(out.cache.zero_read(), 1, "[{lo},{hi})");
            assert_eq!(out.dispatches.total(), 0);
        }
        let stats = c.latch_stats();
        assert_eq!(stats.exclusive_selects, 0, "never took a write latch");
        assert_eq!(stats.shared_selects, 4);
        assert_eq!(stats.aggregate_partials + stats.aggregate_misses, 0);
    }

    #[test]
    fn sharded_batch_matches_scan_and_composes_the_cache() {
        let values = data(4000);
        let c = ConcurrentCrackerColumn::from_values_sharded(values.clone(), 700);
        let queries: Vec<(Value, Value, bool)> = vec![
            (100, 400, false),
            (1000, 1200, true),
            (3500, 3900, false),
            (500, 400, false),
        ];
        let mut rng = StdRng::seed_from_u64(21);
        let outcome = c.select_batch_with_policy(&queries, CrackPolicy::Standard, &mut rng);
        for (a, &(lo, hi, materialize)) in outcome.answers.iter().zip(&queries) {
            assert_eq!(a.count, scan_count(&values, lo, hi), "[{lo},{hi})");
            assert_eq!(a.sum, scan_sum(&values, lo, hi), "[{lo},{hi})");
            assert_eq!(a.values.is_some(), materialize);
        }
        assert_eq!(c.latch_stats().exclusive_selects, queries.len() as u64);
        assert!(c.validate());
        // The resolved replay is zero-read per query, like the unsharded path.
        let again = c.select_batch_with_policy(&queries, CrackPolicy::Standard, &mut rng);
        assert_eq!(again.dispatches.total(), 0);
        assert_eq!(again.cache.scanned_values, 0);
        assert_eq!(again.cache.zero_read(), queries.len() as u64);
        assert_eq!(c.latch_stats().shared_selects, queries.len() as u64);
    }

    #[test]
    fn sharded_inserts_spill_and_deletes_find_their_shard() {
        let c = ConcurrentCrackerColumn::from_values_sharded((0..10).collect(), 4);
        assert_eq!(c.shard_count(), 3);
        assert_eq!(c.shard_extent(), Some(4));
        // Last shard holds 2 values; two inserts fill it, the third spills.
        c.insert(100, 0);
        c.insert(101, 0);
        assert_eq!(c.shard_count(), 3);
        c.insert(102, 0);
        assert_eq!(c.shard_count(), 4);
        assert_eq!(c.len(), 13);
        assert_eq!(c.count(100, 103), 3);
        // Batch insert spills as many shards as it needs.
        let batch: Vec<(Value, holistic_storage::RowId)> = (200..212).map(|v| (v, 0)).collect();
        c.insert_batch(&batch);
        assert_eq!(c.len(), 25);
        assert_eq!(c.count(200, 212), 12);
        assert!(c.shard_count() >= 6);
        // Deletes remove exactly one occurrence, wherever it lives.
        assert!(c.delete(5));
        assert!(!c.delete(5));
        assert!(c.delete(207));
        assert_eq!(c.len(), 23);
        assert!(c.validate());
    }

    #[test]
    fn sharded_scrub_walks_every_shard_and_pinpoints_damage() {
        let values = data(3000);
        let c = ConcurrentCrackerColumn::from_values_sharded(values, 500);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let _ = c.refine(&mut rng);
        }
        let total = c.piece_count();
        // Walk the global cursor to the end; every piece gets checked once.
        let mut checked = 0;
        let mut cursor = Some(0usize);
        while let Some(from) = cursor {
            let out = c.scrub_pieces(from, 3);
            assert!(out.valid);
            assert_eq!(out.failed_shard, None);
            checked += out.checked;
            cursor = out.next;
        }
        assert_eq!(checked, total);
        // Damage one specific shard: the scrub names it.
        assert!(c.corrupt_shard(3, CorruptionKind::BoundaryFlip));
        let out = c.scrub_pieces(0, usize::MAX - 1);
        assert!(!out.valid);
        assert_eq!(out.failed_shard, Some(3));
        assert_eq!(c.find_invalid_shard(), Some(3));
        // Every other shard still validates.
        for s in 0..c.shard_count() {
            let ok = c.with_shard_read(s, |col| col.validate()).unwrap();
            assert_eq!(ok, s != 3, "shard {s}");
        }
    }

    #[test]
    fn pieces_snapshot_rebases_shard_offsets() {
        let values = data(1000);
        let c = ConcurrentCrackerColumn::from_values_sharded(values, 300);
        let _ = c.count(100, 500);
        let snapshot = c.pieces_snapshot();
        assert_eq!(snapshot.len(), c.piece_count());
        // Global contiguity: pieces tile [0, len) in order.
        let mut expect_start = 0usize;
        for p in &snapshot {
            assert_eq!(p.start, expect_start);
            expect_start = p.end;
        }
        assert_eq!(expect_start, c.len());
    }

    #[test]
    fn sharded_try_select_readonly_defers_until_answerable() {
        let values = data(2000);
        let c = ConcurrentCrackerColumn::from_values_sharded(values.clone(), 450);
        assert!(c.try_select_readonly(100, 200, false).is_none());
        assert_eq!(c.latch_stats().shared_selects, 0);
        let _ = c.count(100, 200);
        let out = c.try_select_readonly(100, 200, true).expect("resolved");
        assert_eq!(out.count, scan_count(&values, 100, 200));
        assert_eq!(out.sum, scan_sum(&values, 100, 200));
        assert!(c.validate());
    }

    #[test]
    fn parallel_cold_crack_matches_scan() {
        // Large enough that the fan-out takes the threaded path on a
        // multi-core box (and the sequential fallback elsewhere) — the
        // answers must be identical either way.
        let n = 200_000;
        let values = data(n);
        let c = ConcurrentCrackerColumn::from_values_sharded(values.clone(), 25_000);
        assert_eq!(c.shard_count(), 8);
        let mut rng = StdRng::seed_from_u64(3);
        let out = c.select_with_policy(1000, 150_000, false, CrackPolicy::Standard, &mut rng);
        assert_eq!(out.count, scan_count(&values, 1000, 150_000));
        assert_eq!(out.sum, scan_sum(&values, 1000, 150_000));
        assert!(c.validate());
        assert_eq!(c.latch_stats().exclusive_selects, 1);
    }

    #[test]
    fn delete_takes_the_exclusive_latch_of_the_holding_shard_only() {
        // A reader parks on shard 0's shared latch; a delete of a value
        // living in shard 2 must finish meanwhile — it probes shards 0 and
        // 1 under their shared latches and upgrades on shard 2 alone.
        let c = Arc::new(ConcurrentCrackerColumn::from_values_sharded(
            (0..300).collect(),
            100,
        ));
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let reader = Arc::clone(&c);
            s.spawn(move || {
                reader.with_shard_read(0, |_| {
                    parked_tx.send(()).expect("main thread waits");
                    let _ = release_rx.recv();
                });
            });
            parked_rx.recv().expect("reader parks");
            let deleter = Arc::clone(&c);
            s.spawn(move || {
                let _ = done_tx.send(deleter.delete_batch(&[250, 999, 250]));
            });
            let found = done_rx.recv_timeout(std::time::Duration::from_secs(30));
            drop(release_tx);
            assert_eq!(
                found.expect("delete must not queue behind shard 0's reader"),
                [true, false, false]
            );
        });
        assert_eq!(c.len(), 299);
        assert!(c.validate());
    }

    #[test]
    fn clone_shards_and_from_shards_round_trip() {
        let values = data(1200);
        let c = ConcurrentCrackerColumn::from_values_sharded(values.clone(), 400);
        let _ = c.count(100, 700);
        let rebuilt = ConcurrentCrackerColumn::from_shards(c.clone_shards(), 400);
        assert_eq!(rebuilt.shard_count(), c.shard_count());
        assert_eq!(rebuilt.len(), c.len());
        assert_eq!(rebuilt.pieces_snapshot(), c.pieces_snapshot());
        assert_eq!(rebuilt.count(100, 700), scan_count(&values, 100, 700));
        assert!(rebuilt.validate());
    }

    #[test]
    fn concurrent_writers_crack_disjoint_shards() {
        // N writer threads, each refining its own shard through the public
        // API while readers fan out across all shards: answers stay exact.
        let n = 40_000;
        let values = data(n);
        let c = Arc::new(ConcurrentCrackerColumn::from_values_sharded(
            values.clone(),
            10_000,
        ));
        let expected: Vec<(Value, Value, u64)> = (0..8)
            .map(|i| {
                let lo = (i * 4000) % (n as Value);
                let hi = lo + 1500;
                (lo, hi, scan_count(&values, lo, hi))
            })
            .collect();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                let expected = expected.clone();
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for _ in 0..6 {
                        for &(lo, hi, want) in &expected {
                            assert_eq!(c.count(lo, hi), want);
                        }
                        for _ in 0..4 {
                            let _ = c.refine(&mut rng);
                        }
                    }
                });
            }
        });
        assert!(c.validate());
        assert_eq!(c.shard_count(), 4);
    }
}

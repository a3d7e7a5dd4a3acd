//! The cracker column: the query-facing, incrementally reorganized copy of a
//! base column.

use std::ops::Range;
use std::sync::Arc;

use rand::Rng;

use holistic_storage::{Column, PrefixSums};

use crate::index::PieceIndex;
use crate::kernels::{CrackKernel, KernelChoice, KernelDispatches};
use crate::piece::Piece;
use crate::{RowId, Value};

/// The sorted, deduplicated pivot set of a batch of range bounds: both
/// bounds of every non-degenerate `[lo, hi)` pair, each value once. Shared
/// by the batch select and the batched stochastic policies so the two
/// sites can never drift on which bounds count as the batch's pivots.
pub(crate) fn dedup_batch_pivots(bounds: &[(Value, Value)]) -> Vec<Value> {
    let mut pivots: Vec<Value> = bounds
        .iter()
        .filter(|&&(lo, hi)| hi > lo)
        .flat_map(|&(lo, hi)| [lo, hi])
        .collect();
    pivots.sort_unstable();
    pivots.dedup();
    pivots
}

/// The outcome of composing a range aggregate from the per-piece cache:
/// count, sum, and how the sum was produced (cached whole pieces,
/// prefix-sum differences, or scanned fallback pieces).
/// `scanned_values == 0` means the aggregate was answered without a single
/// data-array read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeAggregate {
    /// Number of positions in the range.
    pub count: u64,
    /// Sum of the values in the range.
    pub sum: i128,
    /// Pieces whose cached sum was used (no data touched).
    pub cached_pieces: usize,
    /// Pieces answered by a prefix-sum difference — partial overlaps of
    /// sorted pieces, still no data touched.
    pub prefix_pieces: usize,
    /// Pieces that had to be scanned (no cached sum or prefix).
    pub scanned_pieces: usize,
    /// Data values read by the scan fallback (0 = pure metadata answer).
    pub scanned_values: u64,
}

/// A cracker column.
///
/// Created as a copy of a base column the first time the column is queried
/// (or eagerly by the holistic kernel's idle-time tuner), then physically
/// reorganized a little more by every range select and by every auxiliary
/// refinement action. The accompanying [`PieceIndex`] records the boundaries
/// produced so far.
///
/// When `rowids` are kept, the original row of every value is carried along
/// through all reorganizations, so projections of other attributes remain
/// possible after cracking (the column-store tuple-reconstruction path).
#[derive(Debug, Clone)]
pub struct CrackerColumn {
    data: Vec<Value>,
    rowids: Option<Vec<RowId>>,
    index: PieceIndex,
    cracks_performed: u64,
    kernel: CrackKernel,
    dispatches: KernelDispatches,
}

impl CrackerColumn {
    /// Creates a cracker column from raw values, without row ids.
    #[must_use]
    pub fn from_values(values: Vec<Value>) -> Self {
        let len = values.len();
        CrackerColumn {
            data: values,
            rowids: None,
            index: PieceIndex::new(len),
            cracks_performed: 0,
            kernel: CrackKernel::default(),
            dispatches: KernelDispatches::default(),
        }
    }

    /// Creates a cracker column from raw values, carrying row ids
    /// `0..values.len()` for tuple reconstruction.
    #[must_use]
    pub fn from_values_with_rowids(values: Vec<Value>) -> Self {
        let len = values.len();
        CrackerColumn {
            rowids: Some((0..len as u32).collect()),
            data: values,
            index: PieceIndex::new(len),
            cracks_performed: 0,
            kernel: CrackKernel::default(),
            dispatches: KernelDispatches::default(),
        }
    }

    /// Creates a cracker column from raw values, carrying row ids
    /// `offset..offset + values.len()`. This is the shard constructor:
    /// shard `k` of a column with fixed extent `E` holds the base rows
    /// `k·E..` and must label them with their *global* row ids so tuple
    /// reconstruction composes across shards.
    #[must_use]
    pub fn from_values_with_rowid_offset(values: Vec<Value>, offset: RowId) -> Self {
        let len = values.len();
        CrackerColumn {
            rowids: Some((offset..offset + len as u32).collect()),
            data: values,
            index: PieceIndex::new(len),
            cracks_performed: 0,
            kernel: CrackKernel::default(),
            dispatches: KernelDispatches::default(),
        }
    }

    /// Sets the kernel dispatch policy (builder style).
    #[must_use]
    pub fn with_kernel(mut self, kernel: CrackKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the kernel dispatch policy.
    pub fn set_kernel(&mut self, kernel: CrackKernel) {
        self.kernel = kernel;
    }

    /// The active kernel dispatch policy.
    #[must_use]
    pub fn kernel(&self) -> CrackKernel {
        self.kernel
    }

    /// Running totals of kernel dispatches, split by physical form.
    #[must_use]
    pub fn kernel_dispatches(&self) -> KernelDispatches {
        self.dispatches
    }

    /// Creates a cracker column by copying a base [`Column`].
    #[must_use]
    pub fn from_column(column: &Column, with_rowids: bool) -> Self {
        if with_rowids {
            Self::from_values_with_rowids(column.values().to_vec())
        } else {
            Self::from_values(column.values().to_vec())
        }
    }

    /// Reassembles a cracker column from recovered parts (the snapshot
    /// decode path). Returns `None` unless the full set of invariants
    /// holds — [`CrackerColumn::validate`] is run over the recovered
    /// state, so every piece's bounds, sorted flag, cached sum and prefix
    /// array are checked against the actual data before the column is
    /// trusted.
    #[must_use]
    pub fn from_parts(
        data: Vec<Value>,
        rowids: Option<Vec<RowId>>,
        index: PieceIndex,
        kernel: CrackKernel,
        cracks_performed: u64,
    ) -> Option<Self> {
        if index.len() != data.len() {
            return None;
        }
        let col = CrackerColumn {
            data,
            rowids,
            index,
            cracks_performed,
            kernel,
            dispatches: KernelDispatches::default(),
        };
        col.validate().then_some(col)
    }

    /// Number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The (cracked) value array.
    #[must_use]
    pub fn data(&self) -> &[Value] {
        &self.data
    }

    /// The row ids aligned with [`CrackerColumn::data`], if kept.
    #[must_use]
    pub fn rowids(&self) -> Option<&[RowId]> {
        self.rowids.as_deref()
    }

    /// The cracker index.
    #[must_use]
    pub fn index(&self) -> &PieceIndex {
        &self.index
    }

    /// Number of pieces the column is currently partitioned into.
    #[must_use]
    pub fn piece_count(&self) -> usize {
        self.index.piece_count()
    }

    /// Average piece length.
    #[must_use]
    pub fn avg_piece_len(&self) -> f64 {
        self.index.avg_piece_len()
    }

    /// Total number of crack (partitioning) actions performed so far,
    /// counting both query-driven and auxiliary (idle-time) cracks.
    #[must_use]
    pub fn cracks_performed(&self) -> u64 {
        self.cracks_performed
    }

    /// All pieces.
    #[must_use]
    pub fn pieces(&self) -> &[Piece] {
        self.index.pieces()
    }

    /// Returns piece `idx`'s prefix-sum array, building (and installing) it
    /// if the piece does not carry a covering one yet.
    ///
    /// Building is one streaming pass over the piece — comparable to the
    /// partitioning pass an *unsorted* piece of the same size would pay for
    /// a single crack — after which every aggregate that lands anywhere in
    /// the piece or its descendants is a subtraction. Callers hold `&mut
    /// self`, so in the concurrent wrapper this only ever happens under the
    /// write latch (build once, read many). The piece's cached sum is
    /// derived from the array if it was unknown.
    fn ensure_piece_prefix(&mut self, idx: usize) -> Arc<PrefixSums> {
        let p = &self.index.pieces()[idx];
        if let Some(prefix) = p.covering_prefix() {
            return Arc::clone(prefix);
        }
        let prefix = Arc::new(PrefixSums::build(p.start, &self.data[p.start..p.end]));
        self.index.install_prefix(idx, Arc::clone(&prefix));
        prefix
    }

    /// Whether [`CrackerColumn::seed_prefix_sums`] would do any work: some
    /// sorted, non-empty piece lacks a covering prefix array. A cheap
    /// metadata walk, so the concurrent wrapper can probe under the shared
    /// latch before escalating to the write latch.
    #[must_use]
    pub fn needs_prefix_seeding(&self) -> bool {
        self.index
            .pieces()
            .iter()
            .any(|p| p.sorted && !p.is_empty() && p.covering_prefix().is_none())
    }

    /// Builds prefix-sum arrays for every sorted piece that lacks one,
    /// returning how many pieces were seeded.
    ///
    /// This is the idle-time / preparation entry point: `sort_fully` seeds
    /// its single piece eagerly, but a column handed over with pre-sorted
    /// pieces (or one whose prefixes were invalidated by updates) can be
    /// re-seeded here so resolved aggregates go back to zero-read.
    pub fn seed_prefix_sums(&mut self) -> usize {
        let mut seeded = 0;
        for idx in 0..self.index.piece_count() {
            let p = self.index.piece(idx);
            if p.sorted && !p.is_empty() && p.covering_prefix().is_none() {
                self.ensure_piece_prefix(idx);
                seeded += 1;
            }
        }
        seeded
    }

    /// Cracks the column so that values `>= v` start at the returned
    /// position, performing at most one partitioning pass over one piece.
    pub fn crack_at(&mut self, v: Value) -> usize {
        let Some(idx) = self.index.find_piece_for_value(v) else {
            return 0;
        };
        if let Some(pos) = self.index.resolved_boundary(v) {
            return pos;
        }
        let p = self.index.piece(idx);
        if p.sorted {
            // No data movement needed: binary search and record the
            // boundary. The piece's prefix-sum array (built lazily here,
            // under the same exclusive access the crack already holds)
            // prices both sides' sums at one subtraction each, so even
            // binary-search splits seed the aggregate cache.
            let prefix = self.ensure_piece_prefix(idx);
            let p = self.index.piece(idx);
            let off = self.data[p.start..p.end].partition_point(|&x| x < v);
            let pos = p.start + off;
            self.index.split_with_sums(
                idx,
                pos,
                v,
                prefix.sum_range(p.start..pos),
                prefix.sum_range(p.start..p.end),
            );
            return pos;
        }
        let choice = self.kernel.choose(p.len());
        self.dispatches.record(choice);
        // Sum-fused kernels: the pass that partitions the piece also
        // produces both sides' sums, which seed the aggregate cache for
        // free (the data is streaming through cache anyway).
        let pass = match (&mut self.rowids, choice) {
            (Some(rowids), KernelChoice::Branchy) => crate::kernels::crack_in_two_with_rowids_sums(
                &mut self.data[p.start..p.end],
                &mut rowids[p.start..p.end],
                v,
            ),
            (Some(rowids), KernelChoice::Predicated) => {
                crate::kernels::crack_in_two_with_rowids_sums_pred(
                    &mut self.data[p.start..p.end],
                    &mut rowids[p.start..p.end],
                    v,
                )
            }
            (None, KernelChoice::Branchy) => {
                crate::kernels::crack_in_two_sums(&mut self.data[p.start..p.end], v)
            }
            (None, KernelChoice::Predicated) => {
                crate::kernels::crack_in_two_sums_pred(&mut self.data[p.start..p.end], v)
            }
        };
        let pos = p.start + pass.split;
        self.index
            .split_with_sums(idx, pos, v, pass.lo_sum, pass.total_sum);
        self.cracks_performed += 1;
        pos
    }

    /// Answers the range select `[lo, hi)` adaptively: cracks the pieces the
    /// bounds fall into (at most two partitioning passes, or a single
    /// three-way pass when both bounds share a piece) and returns the
    /// contiguous position range holding the qualifying values.
    pub fn crack_select(&mut self, lo: Value, hi: Value) -> Range<usize> {
        if hi <= lo || self.data.is_empty() {
            return 0..0;
        }
        let lo_idx = self.index.find_piece_for_value(lo);
        let hi_idx = self.index.find_piece_for_value(hi);
        let lo_resolved = self.index.resolved_boundary(lo).is_some();
        let hi_resolved = self.index.resolved_boundary(hi).is_some();
        if let (Some(a), Some(b)) = (lo_idx, hi_idx) {
            if a == b && !lo_resolved && !hi_resolved && !self.index.piece(a).sorted {
                // Both bounds land in the same unsorted piece: one pass.
                let p = self.index.piece(a);
                let choice = self.kernel.choose(p.len());
                self.dispatches.record(choice);
                let pass = match (&mut self.rowids, choice) {
                    (Some(rowids), KernelChoice::Branchy) => {
                        crate::kernels::crack_in_three_with_rowids_sums(
                            &mut self.data[p.start..p.end],
                            &mut rowids[p.start..p.end],
                            lo,
                            hi,
                        )
                    }
                    (Some(rowids), KernelChoice::Predicated) => {
                        crate::kernels::crack_in_three_with_rowids_sums_pred(
                            &mut self.data[p.start..p.end],
                            &mut rowids[p.start..p.end],
                            lo,
                            hi,
                        )
                    }
                    (None, KernelChoice::Branchy) => {
                        crate::kernels::crack_in_three_sums(&mut self.data[p.start..p.end], lo, hi)
                    }
                    (None, KernelChoice::Predicated) => crate::kernels::crack_in_three_sums_pred(
                        &mut self.data[p.start..p.end],
                        lo,
                        hi,
                    ),
                };
                let abs_a = p.start + pass.a;
                let abs_b = p.start + pass.b;
                // Both splits (and all three region sums the fused pass
                // produced) are recorded with a single piece-table edit, so
                // no second O(log P) piece lookup and no second tail shift.
                self.index
                    .split_multi_with_sums(a, &[(abs_a, lo), (abs_b, hi)], Some(&pass.sums));
                self.cracks_performed += 1;
                return abs_a..abs_b;
            }
        }
        let start = self.crack_at(lo);
        let end = self.crack_at(hi);
        start..end
    }

    /// Answers a batch of range selects adaptively, amortizing the
    /// partitioning work across the whole batch: the deduplicated predicate
    /// bounds of all queries are grouped by the piece they currently fall
    /// into, and every affected piece is cracked around *all* of its pivots
    /// with a single multi-pivot pass ([`crate::kernels::crack_in_k`];
    /// one or two pivots use the cheaper one-pass two-/three-way kernels).
    /// Each query is then answered from the refined index, so the returned
    /// ranges are identical to what per-query [`CrackerColumn::crack_select`]
    /// calls would produce — but a cold column is swept twice per batch
    /// instead of up to twice per query.
    pub fn crack_select_batch(&mut self, bounds: &[(Value, Value)]) -> Vec<Range<usize>> {
        if self.data.is_empty() {
            return bounds.iter().map(|_| 0..0).collect();
        }
        let mut pivots = dedup_batch_pivots(bounds);
        pivots.retain(|&v| self.index.resolved_boundary(v).is_none());

        // Group the remaining pivots by target piece. Sorted pivots give
        // non-decreasing piece indexes, so groups are runs. The kernel
        // passes never touch the piece table, so all groups partition
        // against stable piece indexes; their splits are then recorded with
        // a single piece-table rebuild (one O(P + k) pass instead of one
        // O(P) tail shift per affected piece).
        let mut groups: Vec<(usize, Range<usize>)> = Vec::new();
        for (i, &v) in pivots.iter().enumerate() {
            // A pivot without a piece (empty index) simply isn't cracked;
            // the contiguity check keeps runs valid if one is skipped.
            let Some(idx) = self.index.find_piece_for_value(v) else {
                continue;
            };
            match groups.last_mut() {
                Some((last, r)) if *last == idx && r.end == i => r.end = i + 1,
                _ => groups.push((idx, i..i + 1)),
            }
        }
        let recorded: Vec<crate::index::SplitGroup> = groups
            .into_iter()
            .map(|(idx, range)| {
                let (splits, seg_sums) = self.crack_piece_multi(idx, &pivots[range]);
                (idx, splits, seg_sums)
            })
            .collect();
        self.index.split_grouped_with_sums(&recorded);

        // Every bound is now a resolved boundary; `crack_at` degenerates to
        // two binary searches per query (and stays correct if it does not).
        bounds
            .iter()
            .map(|&(lo, hi)| {
                if hi <= lo {
                    0..0
                } else {
                    let start = self.crack_at(lo);
                    let end = self.crack_at(hi);
                    start..end
                }
            })
            .collect()
    }

    /// Cracks piece `idx` around all `pivots` (strictly increasing, all
    /// falling into the piece) in one partitioning pass, returning the
    /// produced splits plus the pass's per-segment sums for the caller to
    /// record (the batch path batches them into one
    /// [`PieceIndex::split_grouped_with_sums`] rebuild). Sorted pieces are
    /// binary-searched — no data moves, and the segment sums come from the
    /// piece's (lazily built) prefix-sum array instead of a kernel pass.
    fn crack_piece_multi(
        &mut self,
        idx: usize,
        pivots: &[Value],
    ) -> (Vec<(usize, Value)>, Option<Vec<i128>>) {
        let p = self.index.piece(idx);
        if p.sorted {
            // No data movement needed: binary-search every boundary and
            // price every segment with a prefix difference.
            let prefix = self.ensure_piece_prefix(idx);
            let splits: Vec<(usize, Value)> = pivots
                .iter()
                .map(|&v| {
                    let off = self.data[p.start..p.end].partition_point(|&x| x < v);
                    (p.start + off, v)
                })
                .collect();
            let mut seg_sums = Vec::with_capacity(splits.len() + 1);
            let mut prev = p.start;
            for &(pos, _) in &splits {
                seg_sums.push(prefix.sum_range(prev..pos));
                prev = pos;
            }
            seg_sums.push(prefix.sum_range(prev..p.end));
            return (splits, Some(seg_sums));
        }
        let choice = self.kernel.choose(p.len());
        self.dispatches.record(choice);
        let forced = match choice {
            KernelChoice::Branchy => CrackKernel::Branchy,
            KernelChoice::Predicated => CrackKernel::Predicated,
        };
        let data = &mut self.data[p.start..p.end];
        let (offsets, seg_sums): (Vec<usize>, Vec<i128>) = match (&mut self.rowids, pivots) {
            // One or two pivots keep the classic single-pass kernels.
            (Some(rowids), &[v]) => {
                let two =
                    forced.crack_in_two_with_rowids_sums(data, &mut rowids[p.start..p.end], v);
                (vec![two.split], vec![two.lo_sum, two.hi_sum()])
            }
            (None, &[v]) => {
                let two = forced.crack_in_two_sums(data, v);
                (vec![two.split], vec![two.lo_sum, two.hi_sum()])
            }
            (Some(rowids), &[lo, hi]) => {
                let three = forced.crack_in_three_with_rowids_sums(
                    data,
                    &mut rowids[p.start..p.end],
                    lo,
                    hi,
                );
                (vec![three.a, three.b], three.sums.to_vec())
            }
            (None, &[lo, hi]) => {
                let three = forced.crack_in_three_sums(data, lo, hi);
                (vec![three.a, three.b], three.sums.to_vec())
            }
            (Some(rowids), _) => {
                let k =
                    forced.crack_in_k_with_rowids_sums(data, &mut rowids[p.start..p.end], pivots);
                (k.boundaries, k.segment_sums)
            }
            (None, _) => {
                let k = forced.crack_in_k_sums(data, pivots);
                (k.boundaries, k.segment_sums)
            }
        };
        self.cracks_performed += 1;
        let splits = offsets
            .into_iter()
            .map(|off| p.start + off)
            .zip(pivots.iter().copied())
            .collect();
        (splits, Some(seg_sums))
    }

    /// Like [`CrackerColumn::crack_select`] but only returns the number of
    /// qualifying values.
    pub fn crack_count(&mut self, lo: Value, hi: Value) -> u64 {
        let r = self.crack_select(lo, hi);
        (r.end - r.start) as u64
    }

    /// Returns the values in a position range previously produced by
    /// [`CrackerColumn::crack_select`].
    #[must_use]
    pub fn view(&self, range: Range<usize>) -> &[Value] {
        &self.data[range]
    }

    /// Returns the row ids in a position range, if row ids are kept.
    #[must_use]
    pub fn rowids_in(&self, range: Range<usize>) -> Option<&[RowId]> {
        self.rowids.as_ref().map(|r| &r[range])
    }

    /// Answers `[lo, hi)` *without* reorganizing anything, if the cracker
    /// index already resolves both bounds. Used by the concurrent wrapper's
    /// read-only fast path.
    #[must_use]
    pub fn select_if_resolved(&self, lo: Value, hi: Value) -> Option<Range<usize>> {
        if hi <= lo {
            return Some(0..0);
        }
        let start = self.index.resolved_boundary(lo)?;
        let end = self.index.resolved_boundary(hi)?;
        Some(start..end)
    }

    /// Answers `[lo, hi)` *without* reorganizing anything, if every bound is
    /// either already resolved by the cracker index **or** falls into a
    /// sorted piece carrying a prefix-sum array (where binary search finds
    /// the position and [`CrackerColumn::aggregate_range`] prices the
    /// boundary overlap with a prefix difference).
    ///
    /// This is the read-only superset of
    /// [`CrackerColumn::select_if_resolved`] used by the concurrent
    /// wrapper: on a sorted, prefix-seeded region, *arbitrary* range
    /// aggregates stay on the shared latch forever — no splits, no piece
    /// table growth, no data movement. A sorted piece *without* a prefix
    /// deliberately does not qualify: answering it here would mask-scan the
    /// interior on every repeat, while falling through to the crack path
    /// builds the prefix once and makes every later query a subtraction.
    #[must_use]
    pub fn select_if_answerable(&self, lo: Value, hi: Value) -> Option<Range<usize>> {
        if hi <= lo {
            return Some(0..0);
        }
        let start = self.bound_position_readonly(lo)?;
        let end = self.bound_position_readonly(hi)?;
        Some(start..end)
    }

    /// The position where values `>= v` begin, if it can be determined
    /// without reorganizing: a resolved crack boundary, or binary search
    /// inside a sorted piece whose prefix-sum array is present (so the
    /// caller's aggregate stays zero-read).
    fn bound_position_readonly(&self, v: Value) -> Option<usize> {
        if let Some(pos) = self.index.resolved_boundary(v) {
            return Some(pos);
        }
        let idx = self.index.find_piece_for_value(v)?;
        let p = &self.index.pieces()[idx];
        if p.sorted && p.covering_prefix().is_some() {
            let off = self.data[p.start..p.end].partition_point(|&x| x < v);
            return Some(p.start + off);
        }
        None
    }

    /// Composes the count and sum of a resolved position range from the
    /// per-piece aggregate cache.
    ///
    /// Crack boundaries always fall on piece boundaries, so a resolved
    /// result range is a run of whole pieces: the count is implicit in the
    /// range length, and the sum of the run is one subtraction in the piece
    /// index's run-sum sidecar ([`PieceIndex::cached_run_sum`]) — the cost
    /// of an answer does not grow with the number of pieces inside its
    /// range. A piece that is only *partially* overlapped — the boundary
    /// pieces of a range produced by
    /// [`CrackerColumn::select_if_answerable`]'s binary searches into
    /// sorted pieces — contributes a prefix-sum difference when it carries
    /// a prefix array: still zero data-array reads. A run that contains a
    /// piece without a cached sum falls back to piece-by-piece pricing;
    /// only pieces with neither a usable cached sum nor a covering prefix
    /// are scanned, through the storage layer's chunked masked-sum kernel —
    /// the same kernel the pre-cache answer path used for the whole range.
    /// A fully cached/prefix-composed range therefore costs two piece
    /// lookups (a binary search for the first piece, a gallop forward from
    /// it for the last) plus O(1) metadata reads and **zero** data-array
    /// touches.
    ///
    /// **Contract:** every value in `range` must satisfy `lo <= v < hi` —
    /// true for any range produced by resolving both bounds (the only
    /// production use). `lo`/`hi` then only parameterize the scan
    /// fallback's mask, keeping the fallback identical to the pre-cache
    /// answer path. For a range violating the contract the sum is
    /// unspecified: cached whole pieces and prefix differences contribute
    /// unmasked positional sums, while scanned pieces are masked — the
    /// arms would disagree. Debug builds assert the contract on every
    /// prefix-composed and scanned piece. The outcome reports how the sum
    /// was produced so callers can maintain cache hit/prefix/partial/miss
    /// statistics; the counts are per piece, as if the run had been
    /// walked.
    #[must_use]
    pub fn aggregate_range(&self, range: Range<usize>, lo: Value, hi: Value) -> RangeAggregate {
        let mut agg = RangeAggregate {
            count: (range.end.saturating_sub(range.start)) as u64,
            ..RangeAggregate::default()
        };
        if range.start >= range.end {
            return agg;
        }
        let Some(first) = self.index.find_piece_for_position(range.start) else {
            return agg;
        };
        let Some(last) = self
            .index
            .find_piece_for_position_from(first, range.end - 1)
        else {
            return agg;
        };
        let pieces = self.index.pieces();
        // The run of whole pieces inside the range, between the (possibly
        // partial) edge pieces.
        let run_start = if pieces[first].start == range.start {
            first
        } else {
            self.add_piece(&mut agg, first, &range, lo, hi);
            first + 1
        };
        let run_end = if pieces[last].end == range.end {
            last + 1
        } else {
            if last >= run_start {
                self.add_piece(&mut agg, last, &range, lo, hi);
            }
            last
        };
        if run_start < run_end {
            match self.index.cached_run_sum(run_start..run_end) {
                Some(sum) => {
                    agg.sum += sum;
                    agg.cached_pieces += run_end - run_start;
                }
                None => {
                    for idx in run_start..run_end {
                        self.add_piece(&mut agg, idx, &range, lo, hi);
                    }
                }
            }
        }
        agg
    }

    /// Adds piece `idx`'s overlap with `range` to `agg`: its cached sum
    /// when the piece is whole and cached, a prefix difference when it
    /// carries a covering prefix array, a masked scan otherwise.
    fn add_piece(
        &self,
        agg: &mut RangeAggregate,
        idx: usize,
        range: &Range<usize>,
        lo: Value,
        hi: Value,
    ) {
        let p = &self.index.pieces()[idx];
        let overlap = p.start.max(range.start)..p.end.min(range.end);
        match (p.sum, p.covering_prefix()) {
            // Whole piece covered and cached: pure metadata.
            (Some(sum), _) if overlap == (p.start..p.end) => {
                agg.sum += sum;
                agg.cached_pieces += 1;
            }
            // Partial overlap of (or missing sum on) a piece with a
            // prefix-sum array: one subtraction, still no data reads.
            (_, Some(prefix)) => {
                debug_assert!(
                    self.data[overlap.clone()]
                        .iter()
                        .all(|&v| v >= lo && v < hi),
                    "aggregate_range contract: every value in the range must satisfy [lo, hi)"
                );
                agg.sum += prefix.sum_range(overlap);
                agg.prefix_pieces += 1;
            }
            // No cache at all: scan the overlap.
            _ => {
                debug_assert!(
                    self.data[overlap.clone()]
                        .iter()
                        .all(|&v| v >= lo && v < hi),
                    "aggregate_range contract: every value in the range must satisfy [lo, hi)"
                );
                agg.sum += holistic_storage::scan_sum(&self.data[overlap.clone()], lo, hi);
                agg.scanned_pieces += 1;
                agg.scanned_values += (overlap.end - overlap.start) as u64;
            }
        }
    }

    /// Number of pieces currently carrying a trusted cached sum (aggregate
    /// cache population probe for tests and diagnostics).
    #[must_use]
    pub fn cached_sum_pieces(&self) -> usize {
        self.index
            .pieces()
            .iter()
            .filter(|p| p.sum.is_some())
            .count()
    }

    /// Number of pieces currently carrying a covering prefix-sum array
    /// (prefix-cache population probe for tests and diagnostics).
    #[must_use]
    pub fn prefix_pieces(&self) -> usize {
        self.index
            .pieces()
            .iter()
            .filter(|p| p.covering_prefix().is_some())
            .count()
    }

    /// Applies one *auxiliary refinement action*: picks a random position,
    /// uses its value as a pivot and cracks the piece it lives in.
    ///
    /// This is the unit of idle-time work in the paper ("apply X random
    /// index refinement actions"): cheap, always safe, and each action makes
    /// some future query on this column cheaper. Returns `true` if the
    /// action introduced a new piece (an action can be a no-op if the chosen
    /// pivot happens to already be a boundary or the piece is degenerate).
    pub fn random_crack<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        if self.data.is_empty() {
            return false;
        }
        let pos = rng.gen_range(0..self.data.len());
        let pivot = self.data[pos];
        let before = self.index.piece_count();
        self.crack_at(pivot);
        self.index.piece_count() > before
    }

    /// Applies one auxiliary refinement action restricted to the value range
    /// `[lo, hi)` — used for hot-range boosting during query processing.
    ///
    /// Returns `true` if a new piece was introduced.
    pub fn random_crack_in_range<R: Rng + ?Sized>(
        &mut self,
        lo: Value,
        hi: Value,
        rng: &mut R,
    ) -> bool {
        if self.data.is_empty() || hi <= lo {
            return false;
        }
        let pivot = rng.gen_range(lo..hi);
        let before = self.index.piece_count();
        self.crack_at(pivot);
        self.index.piece_count() > before
    }

    /// Applies `actions` auxiliary refinement actions and returns how many
    /// of them introduced a new piece.
    pub fn random_cracks<R: Rng + ?Sized>(&mut self, actions: u64, rng: &mut R) -> u64 {
        let mut effective = 0;
        for _ in 0..actions {
            if self.random_crack(rng) {
                effective += 1;
            }
        }
        effective
    }

    /// Fully sorts the column (and row ids), collapsing the piece index to a
    /// single sorted piece. This is what offline indexing does with enough
    /// idle time; exposed here so the kernels can share one representation.
    ///
    /// The sorted piece is seeded with both its total sum and its prefix-sum
    /// array, so *every* range aggregate on the freshly sorted column — not
    /// just the full range — is immediately zero-read: two binary searches
    /// and one subtraction.
    pub fn sort_fully(&mut self) {
        match &mut self.rowids {
            Some(rowids) => {
                let mut pairs: Vec<(Value, RowId)> = self
                    .data
                    .iter()
                    .copied()
                    .zip(rowids.iter().copied())
                    .collect();
                pairs.sort_unstable();
                for (i, (v, r)) in pairs.into_iter().enumerate() {
                    self.data[i] = v;
                    rowids[i] = r;
                }
            }
            None => self.data.sort_unstable(),
        }
        self.index = PieceIndex::new_sorted(self.data.len());
        if !self.data.is_empty() {
            self.index
                .install_prefix(0, Arc::new(PrefixSums::build(0, &self.data)));
        }
    }

    /// Whether the column is already in the state [`CrackerColumn::sort_fully`]
    /// produces: a single sorted piece with a covering prefix-sum array (or
    /// an empty column, which has nothing to sort). Lets callers skip the
    /// sort — and, in the concurrent wrapper, the write latch — entirely.
    #[must_use]
    pub fn is_fully_sorted(&self) -> bool {
        self.data.is_empty()
            || (self.index.piece_count() == 1
                && self.index.piece(0).sorted
                && self.index.piece(0).covering_prefix().is_some())
    }

    /// Validates the cracker-column invariants (piece index consistent with
    /// the data, row ids aligned). Intended for tests and debug assertions.
    #[must_use]
    pub fn validate(&self) -> bool {
        if let Some(rowids) = &self.rowids {
            if rowids.len() != self.data.len() {
                return false;
            }
        }
        self.index.validate(&self.data)
    }

    /// Validates the pieces whose indexes fall in `range` (clamped to the
    /// piece table) against the data, including row-id alignment. This is
    /// the incremental unit of the background scrubber: full
    /// [`CrackerColumn::validate`] is O(column), while one scrub step is
    /// O(the pieces it covers).
    #[must_use]
    pub fn validate_piece_range(&self, range: Range<usize>) -> bool {
        if let Some(rowids) = &self.rowids {
            if rowids.len() != self.data.len() {
                return false;
            }
        }
        let end = range.end.min(self.index.piece_count());
        self.index.run_sums_match(range.start.min(end)..end)
            && self.index.pieces()[range.start.min(end)..end]
                .iter()
                .all(|p| p.validate(&self.data))
    }

    /// Reassembles a cracker column from recovered parts with **sampled**
    /// validation: structural invariants (extent match, row-id alignment,
    /// piece-table contiguity — already enforced by `PieceIndex`) are
    /// always checked, but the per-piece content pass of
    /// [`CrackerColumn::validate`] runs only on a deterministic sample of
    /// roughly one in `sample_rate` pieces (always including the first
    /// and last). The caller must arrange for the skipped pieces to be
    /// validated later — the background scrubber / first-touch paranoia
    /// path — which is safe only in an engine where a deferred validation
    /// failure heals (quarantine + rebuild) instead of crashing.
    #[must_use]
    pub fn from_parts_sampled(
        data: Vec<Value>,
        rowids: Option<Vec<RowId>>,
        index: PieceIndex,
        kernel: CrackKernel,
        cracks_performed: u64,
        sample_seed: u64,
        sample_rate: usize,
    ) -> Option<Self> {
        if index.len() != data.len() {
            return None;
        }
        if let Some(rowids) = &rowids {
            if rowids.len() != data.len() {
                return None;
            }
        }
        let rate = sample_rate.max(1) as u64;
        let n = index.piece_count();
        let sampled = |i: usize| {
            i == 0
                || i + 1 == n
                || (i as u64)
                    .wrapping_add(sample_seed)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .is_multiple_of(rate)
        };
        for (i, piece) in index.pieces().iter().enumerate() {
            if sampled(i) && !piece.validate(&data) {
                return None;
            }
        }
        Some(CrackerColumn {
            data,
            rowids,
            index,
            cracks_performed,
            kernel,
            dispatches: KernelDispatches::default(),
        })
    }

    /// (Internal) mutable access for the updates module.
    pub(crate) fn parts_mut(
        &mut self,
    ) -> (&mut Vec<Value>, Option<&mut Vec<RowId>>, &mut PieceIndex) {
        (&mut self.data, self.rowids.as_mut(), &mut self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> Vec<Value> {
        vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6]
    }

    fn scan_count(values: &[Value], lo: Value, hi: Value) -> u64 {
        values.iter().filter(|&&v| v >= lo && v < hi).count() as u64
    }

    #[test]
    fn first_select_returns_correct_range() {
        let mut c = CrackerColumn::from_values(sample());
        let r = c.crack_select(5, 12);
        let count = (r.end - r.start) as u64;
        assert_eq!(count, scan_count(&sample(), 5, 12));
        assert!(c.view(r).iter().all(|&v| (5..12).contains(&v)));
        assert!(c.validate());
        assert!(c.piece_count() >= 2);
        assert!(c.cracks_performed() >= 1);
    }

    #[test]
    fn repeated_selects_stay_correct_and_refine() {
        let mut c = CrackerColumn::from_values(sample());
        let queries = [(5, 12), (1, 4), (10, 20), (0, 25), (7, 8), (13, 14)];
        for &(lo, hi) in &queries {
            let r = c.crack_select(lo, hi);
            assert_eq!((r.end - r.start) as u64, scan_count(&sample(), lo, hi));
            assert!(c.validate(), "invariants violated after query [{lo},{hi})");
        }
        assert!(c.piece_count() > 2);
    }

    #[test]
    fn crack_count_matches_scan() {
        let mut c = CrackerColumn::from_values(sample());
        assert_eq!(c.crack_count(3, 10), scan_count(&sample(), 3, 10));
        assert_eq!(c.crack_count(100, 200), 0);
        assert_eq!(c.crack_count(9, 2), 0);
    }

    #[test]
    fn empty_column_is_handled() {
        let mut c = CrackerColumn::from_values(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.crack_select(1, 10), 0..0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!c.random_crack(&mut rng));
        assert!(c.validate());
    }

    #[test]
    fn rowids_follow_their_values() {
        let values = sample();
        let mut c = CrackerColumn::from_values_with_rowids(values.clone());
        let r = c.crack_select(5, 12);
        let ids = c.rowids_in(r.clone()).expect("rowids kept");
        for (&v, &id) in c.view(r).iter().zip(ids) {
            assert_eq!(values[id as usize], v, "rowid must still address its value");
        }
        assert!(c.validate());
    }

    #[test]
    fn from_column_copies_base_data() {
        let base = Column::from_values("a", sample());
        let mut c = CrackerColumn::from_column(&base, true);
        assert_eq!(c.len(), base.len());
        let r = c.crack_select(2, 9);
        assert_eq!((r.end - r.start) as u64, base.scan_count(2, 9));
        // Base column untouched.
        assert_eq!(base.values(), &sample()[..]);
    }

    #[test]
    fn select_if_resolved_only_after_cracking() {
        let mut c = CrackerColumn::from_values(sample());
        assert!(c.select_if_resolved(5, 12).is_none());
        let r = c.crack_select(5, 12);
        assert_eq!(c.select_if_resolved(5, 12), Some(r));
        assert!(c.select_if_resolved(5, 13).is_none());
        assert_eq!(c.select_if_resolved(12, 5), Some(0..0));
    }

    #[test]
    fn random_cracks_increase_pieces() {
        let mut c = CrackerColumn::from_values((0..1000).rev().collect());
        let mut rng = StdRng::seed_from_u64(42);
        let effective = c.random_cracks(50, &mut rng);
        assert!(
            effective > 10,
            "expected most random actions to split, got {effective}"
        );
        assert!(c.piece_count() > 10);
        assert!(c.validate());
        // Queries remain correct after arbitrary refinement.
        let r = c.crack_select(100, 200);
        assert_eq!((r.end - r.start), 100);
    }

    #[test]
    fn random_crack_in_range_only_touches_that_range() {
        let mut c = CrackerColumn::from_values((0..1000).collect());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            c.random_crack_in_range(400, 500, &mut rng);
        }
        assert!(c.validate());
        // All introduced boundaries fall inside [400, 500].
        for p in c.pieces() {
            if let Some(lo) = p.lo {
                assert!((400..=500).contains(&lo) || lo == 0);
            }
        }
        assert!(!c.random_crack_in_range(10, 10, &mut rng));
    }

    #[test]
    fn sort_fully_yields_single_sorted_piece_and_fast_selects() {
        let mut c = CrackerColumn::from_values_with_rowids(sample());
        c.sort_fully();
        assert_eq!(c.piece_count(), 1);
        assert!(c.pieces()[0].sorted);
        assert!(c.data().windows(2).all(|w| w[0] <= w[1]));
        assert!(c.validate());
        let cracks_before = c.cracks_performed();
        let r = c.crack_select(5, 12);
        assert_eq!((r.end - r.start) as u64, scan_count(&sample(), 5, 12));
        // Selecting on a sorted column must not move data.
        assert_eq!(c.cracks_performed(), cracks_before);
        // Row ids still address their values after the sort.
        let ids = c.rowids_in(r.clone()).unwrap();
        for (&v, &id) in c.view(r).iter().zip(ids) {
            assert_eq!(sample()[id as usize], v);
        }
    }

    #[test]
    fn duplicate_heavy_data_stays_correct() {
        let values: Vec<Value> = std::iter::repeat_n([5, 5, 7, 7, 7, 9], 20)
            .flatten()
            .collect();
        let mut c = CrackerColumn::from_values(values.clone());
        for &(lo, hi) in &[(5, 6), (7, 8), (5, 8), (6, 7), (9, 10), (0, 100)] {
            let r = c.crack_select(lo, hi);
            assert_eq!((r.end - r.start) as u64, scan_count(&values, lo, hi));
            assert!(c.validate());
        }
    }

    #[test]
    fn kernel_policy_is_respected_and_dispatches_are_counted() {
        use crate::kernels::CrackKernel;
        for kernel in [CrackKernel::Branchy, CrackKernel::Predicated] {
            let mut c = CrackerColumn::from_values(sample()).with_kernel(kernel);
            assert_eq!(c.kernel(), kernel);
            assert_eq!(c.kernel_dispatches().total(), 0);
            let r = c.crack_select(5, 12);
            assert_eq!((r.end - r.start) as u64, scan_count(&sample(), 5, 12));
            assert!(c.validate());
            let d = c.kernel_dispatches();
            assert!(d.total() >= 1);
            match kernel {
                CrackKernel::Branchy => assert_eq!(d.predicated, 0),
                CrackKernel::Predicated => assert_eq!(d.branchy, 0),
                CrackKernel::Auto { .. } => unreachable!(),
            }
        }
        // Auto on a tiny column always resolves to the branchy form.
        let mut c = CrackerColumn::from_values(sample());
        c.set_kernel(CrackKernel::auto());
        let _ = c.crack_select(5, 12);
        assert_eq!(c.kernel_dispatches().predicated, 0);
        assert!(c.kernel_dispatches().branchy >= 1);
    }

    #[test]
    fn predicated_kernel_answers_match_branchy_across_a_query_sequence() {
        let queries = [(5, 12), (1, 4), (10, 20), (0, 25), (7, 8), (13, 14)];
        let mut branchy =
            CrackerColumn::from_values(sample()).with_kernel(crate::kernels::CrackKernel::Branchy);
        let mut pred = CrackerColumn::from_values(sample())
            .with_kernel(crate::kernels::CrackKernel::Predicated);
        for &(lo, hi) in &queries {
            let rb = branchy.crack_select(lo, hi);
            let rp = pred.crack_select(lo, hi);
            assert_eq!(rb.end - rb.start, rp.end - rp.start, "[{lo},{hi})");
            assert!(branchy.validate() && pred.validate());
        }
    }

    #[test]
    fn batch_select_matches_sequential_answers_and_boundaries() {
        let values: Vec<Value> = (0..2000).map(|i| (i * 7919) % 2000).collect();
        let batch: Vec<(Value, Value)> = vec![
            (100, 200),
            (150, 250), // overlaps the first
            (1900, 2100),
            (500, 400), // inverted: empty
            (700, 700), // degenerate: empty
            (100, 200), // exact duplicate
            (0, 2000),
        ];
        let mut batched = CrackerColumn::from_values(values.clone());
        let mut sequential = CrackerColumn::from_values(values.clone());
        let got = batched.crack_select_batch(&batch);
        for (r, &(lo, hi)) in got.iter().zip(&batch) {
            let want = sequential.crack_select(lo, hi);
            assert_eq!(
                (r.end - r.start) as u64,
                (want.end - want.start) as u64,
                "count mismatch for [{lo},{hi})"
            );
            assert_eq!(
                (r.end - r.start) as u64,
                scan_count(&values, lo, hi),
                "scan mismatch for [{lo},{hi})"
            );
            assert!(batched.view(r.clone()).iter().all(|&v| v >= lo && v < hi));
        }
        // Plain cracking is order-independent: the batch pass must leave the
        // exact same piece boundaries as the sequential replay.
        assert_eq!(batched.index(), sequential.index());
        assert!(batched.validate());
        assert!(sequential.validate());
    }

    #[test]
    fn batch_select_cracks_each_piece_once() {
        // 8 distinct queries on a fresh column: 16 pivots, all landing in
        // the single initial piece. The batch path must partition it with
        // one kernel dispatch (one pass), not 16.
        let values: Vec<Value> = (0..4096).rev().collect();
        let mut c = CrackerColumn::from_values(values.clone());
        let batch: Vec<(Value, Value)> = (0..8).map(|i| (i * 500, i * 500 + 40)).collect();
        let got = c.crack_select_batch(&batch);
        assert_eq!(c.kernel_dispatches().total(), 1, "one pass for the batch");
        assert_eq!(c.cracks_performed(), 1);
        for (r, &(lo, hi)) in got.iter().zip(&batch) {
            assert_eq!((r.end - r.start) as u64, scan_count(&values, lo, hi));
        }
        assert!(c.piece_count() >= 16, "all pivots became boundaries");
        assert!(c.validate());

        // A second identical batch is fully resolved: no more dispatches.
        let again = c.crack_select_batch(&batch);
        assert_eq!(c.kernel_dispatches().total(), 1);
        assert_eq!(again, got);
    }

    #[test]
    fn batch_select_with_rowids_keeps_alignment() {
        let values = sample();
        let mut c = CrackerColumn::from_values_with_rowids(values.clone());
        let batch = vec![(3, 8), (10, 15), (1, 20)];
        let got = c.crack_select_batch(&batch);
        for r in got {
            let ids = c.rowids_in(r.clone()).expect("rowids kept");
            for (&v, &id) in c.view(r.clone()).iter().zip(ids) {
                assert_eq!(values[id as usize], v);
            }
        }
        assert!(c.validate());
    }

    #[test]
    fn batch_select_on_sorted_column_moves_no_data() {
        let mut c = CrackerColumn::from_values(sample());
        c.sort_fully();
        let before = c.cracks_performed();
        let got = c.crack_select_batch(&[(5, 12), (1, 4), (13, 20)]);
        assert_eq!(c.cracks_performed(), before, "sorted pieces binary-search");
        for (r, &(lo, hi)) in got.iter().zip(&[(5, 12), (1, 4), (13, 20)]) {
            assert_eq!((r.end - r.start) as u64, scan_count(&sample(), lo, hi));
        }
        assert!(c.validate());
    }

    #[test]
    fn batch_select_empty_column_and_empty_batch() {
        let mut empty = CrackerColumn::from_values(vec![]);
        assert_eq!(empty.crack_select_batch(&[(1, 5)]), vec![0..0]);
        let mut c = CrackerColumn::from_values(sample());
        assert!(c.crack_select_batch(&[]).is_empty());
        assert_eq!(c.kernel_dispatches().total(), 0);
    }

    #[test]
    fn batch_select_duplicate_heavy_data() {
        let values: Vec<Value> = std::iter::repeat_n([5, 5, 7, 7, 7, 9], 40)
            .flatten()
            .collect();
        let mut c = CrackerColumn::from_values(values.clone());
        let batch = vec![(5, 6), (7, 8), (5, 8), (6, 7), (9, 10), (0, 100)];
        let got = c.crack_select_batch(&batch);
        for (r, &(lo, hi)) in got.iter().zip(&batch) {
            assert_eq!((r.end - r.start) as u64, scan_count(&values, lo, hi));
        }
        assert!(c.validate());
    }

    fn scan_sum_ref(values: &[Value], lo: Value, hi: Value) -> i128 {
        values
            .iter()
            .filter(|&&v| v >= lo && v < hi)
            .map(|&v| i128::from(v))
            .sum()
    }

    #[test]
    fn cracking_populates_the_aggregate_cache() {
        let mut c = CrackerColumn::from_values(sample());
        assert_eq!(c.cached_sum_pieces(), 0);
        let r = c.crack_select(5, 12);
        // One fused pass taught every resulting piece its sum.
        assert_eq!(c.cached_sum_pieces(), c.piece_count());
        assert!(c.validate());
        let agg = c.aggregate_range(r.clone(), 5, 12);
        assert_eq!(agg.count, (r.end - r.start) as u64);
        assert_eq!(agg.sum, scan_sum_ref(&sample(), 5, 12));
        assert_eq!(
            agg.scanned_values, 0,
            "resolved aggregate must not read data"
        );
        assert_eq!(agg.scanned_pieces, 0);
        assert!(agg.cached_pieces >= 1);
    }

    #[test]
    fn batch_cracking_populates_the_aggregate_cache() {
        let values: Vec<Value> = (0..2000).map(|i| (i * 7919) % 2000).collect();
        let mut c = CrackerColumn::from_values(values.clone());
        let batch: Vec<(Value, Value)> = (0..8).map(|i| (i * 200, i * 200 + 50)).collect();
        let ranges = c.crack_select_batch(&batch);
        assert_eq!(c.cached_sum_pieces(), c.piece_count());
        for (r, &(lo, hi)) in ranges.iter().zip(&batch) {
            let agg = c.aggregate_range(r.clone(), lo, hi);
            assert_eq!(agg.sum, scan_sum_ref(&values, lo, hi), "[{lo},{hi})");
            assert_eq!(agg.scanned_values, 0, "[{lo},{hi})");
        }
        assert!(c.validate());
    }

    #[test]
    fn sorted_piece_splits_seed_sums_from_the_prefix() {
        // Binary-search splits of a sorted column used to leave sum-less
        // children (masked-scan fallback, reported partial/miss). With the
        // per-piece prefix sums they are as cache-complete as kernel splits.
        let mut c = CrackerColumn::from_values(sample());
        c.sort_fully();
        assert_eq!(c.prefix_pieces(), 1, "sort_fully seeds the prefix");
        // The full sorted piece carries the column total.
        let full = c.aggregate_range(0..c.len(), i64::MIN, i64::MAX);
        assert_eq!(full.sum, scan_sum_ref(&sample(), i64::MIN, i64::MAX));
        assert_eq!(full.scanned_values, 0);
        // Splitting by binary search now derives both children's sums from
        // the shared prefix array: the resolved aggregate reads no data.
        let r = c.crack_select(5, 12);
        let agg = c.aggregate_range(r.clone(), 5, 12);
        assert_eq!(agg.sum, scan_sum_ref(&sample(), 5, 12));
        assert_eq!(agg.scanned_pieces, 0);
        assert_eq!(agg.scanned_values, 0);
        assert_eq!(c.cached_sum_pieces(), c.piece_count());
        assert_eq!(c.prefix_pieces(), c.piece_count(), "children share it");
        assert!(c.validate());
    }

    #[test]
    fn sorted_aggregates_are_answerable_without_cracking() {
        // Arbitrary interior bounds on a sorted, prefix-seeded column are
        // read-only: two binary searches resolve the range, and the
        // boundary pieces contribute prefix differences — no splits, no
        // data reads.
        let mut c = CrackerColumn::from_values(sample());
        assert!(c.select_if_answerable(5, 12).is_none(), "unsorted: crack");
        c.sort_fully();
        let pieces_before = c.piece_count();
        let r = c.select_if_answerable(5, 12).expect("sorted + prefix");
        assert_eq!((r.end - r.start) as u64, scan_count(&sample(), 5, 12));
        let agg = c.aggregate_range(r.clone(), 5, 12);
        assert_eq!(agg.sum, scan_sum_ref(&sample(), 5, 12));
        assert_eq!(agg.scanned_values, 0, "prefix difference, not a scan");
        assert!(agg.prefix_pieces >= 1);
        assert_eq!(c.piece_count(), pieces_before, "no reorganization");
        // Degenerate ranges short-circuit like select_if_resolved.
        assert_eq!(c.select_if_answerable(12, 5), Some(0..0));
        assert!(c.validate());
    }

    #[test]
    fn aggregate_range_scans_only_uncached_pieces() {
        // Strip the caches a crack pass seeded: the fallback path must
        // scan exactly the stripped pieces and still answer exactly.
        let mut c = CrackerColumn::from_values(sample());
        let r = c.crack_select(5, 12);
        let (_, _, index) = c.parts_mut();
        for i in 0..index.piece_count() {
            index.set_sum(i, None);
            index.pieces_mut()[i].prefix = None;
        }
        let agg = c.aggregate_range(r.clone(), 5, 12);
        assert_eq!(agg.sum, scan_sum_ref(&sample(), 5, 12));
        assert_eq!(agg.cached_pieces, 0);
        assert_eq!(agg.prefix_pieces, 0);
        assert!(agg.scanned_pieces >= 1);
        assert_eq!(agg.scanned_values, (r.end - r.start) as u64);
        assert!(c.validate());
    }

    #[test]
    fn aggregate_range_handles_unaligned_ranges_with_the_mask() {
        // Not crack-resolved: an arbitrary position range cutting through
        // pieces, with the full-domain bounds so every value qualifies
        // (the documented contract). Partially overlapped pieces go
        // through the masked scan fallback and still sum exactly.
        let values: Vec<Value> = (0..100).rev().collect();
        let mut c = CrackerColumn::from_values(values);
        let _ = c.crack_select(20, 70);
        let agg = c.aggregate_range(3..47, i64::MIN, i64::MAX);
        let expected: i128 = c.data()[3..47].iter().map(|&v| i128::from(v)).sum();
        assert_eq!(agg.sum, expected);
        assert_eq!(agg.count, 44);
        // Empty range is pure metadata.
        let empty = c.aggregate_range(5..5, 0, 10);
        assert_eq!(empty, RangeAggregate::default());
    }

    #[test]
    fn boundary_value_queries() {
        let values: Vec<Value> = (0..100).collect();
        let mut c = CrackerColumn::from_values(values.clone());
        // Bounds equal to min / max / beyond.
        assert_eq!(c.crack_count(0, 100), 100);
        assert_eq!(c.crack_count(-50, 0), 0);
        assert_eq!(c.crack_count(99, 99), 0);
        assert_eq!(c.crack_count(99, 1000), 1);
        assert!(c.validate());
    }
}

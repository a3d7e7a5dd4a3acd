//! The cracker index: an ordered table of [`Piece`]s describing how far a
//! cracker column has been partitioned.
//!
//! MonetDB implements this as an AVL tree keyed on crack values; an ordered
//! vector of pieces provides the same O(log P) lookup (P = number of pieces)
//! with better cache behaviour and much simpler invariants, at the cost of
//! O(P) splits — irrelevant in practice because P is small compared to the
//! column (cracking stops paying off once pieces fit in the CPU cache, as
//! the paper's cost model observes).
//!
//! Beside the pieces the index keeps a derived *run-sum sidecar*: running
//! totals of the pieces' cached sums, so the cached total of any run of
//! whole pieces is one subtraction instead of a walk over the run.

use std::ops::{Deref, DerefMut, Range};

use holistic_storage::PrefixSums;

use crate::piece::Piece;
use crate::Value;

/// One affected piece of a batch pass: the piece's index, the splits the
/// pass produced inside it (`(position, pivot)` pairs, the
/// [`PieceIndex::split_multi`] contract), and the pass's per-segment sums —
/// fused kernel sums for unsorted pieces, prefix-sum differences for
/// binary-searched sorted pieces, `None` only for sum-less maintenance.
/// Consumed by [`PieceIndex::split_grouped_with_sums`].
pub type SplitGroup = (usize, Vec<(usize, Value)>, Option<Vec<i128>>);

/// The cracker index: an ordered, contiguous list of pieces covering
/// positions `[0, len)` of a cracker column.
///
/// Invariants (checked by [`PieceIndex::validate`]):
/// * pieces are contiguous and cover exactly `[0, len)`;
/// * pieces are non-empty (unless the column itself is empty);
/// * value bounds are consistent: `pieces[i].hi == pieces[i+1].lo`
///   whenever both are known, the first piece has `lo = None` or a bound
///   that under-approximates the minimum, and bounds never contradict the
///   data;
/// * the run-sum sidecar equals the running totals of the pieces' cached
///   sums ([`PieceIndex::cached_run_sum`]).
///
/// The sidecar is derived state: equality, snapshots and learned-state
/// persistence see only the pieces.
#[derive(Debug, Clone)]
pub struct PieceIndex {
    pieces: Vec<Piece>,
    len: usize,
    runs: RunSums,
}

impl PartialEq for PieceIndex {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.pieces == other.pieces
    }
}

impl Eq for PieceIndex {}

impl PieceIndex {
    /// Creates an index with a single unbounded piece covering `[0, len)`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        let pieces = if len == 0 {
            Vec::new()
        } else {
            vec![Piece::unbounded(0, len)]
        };
        Self::with_pieces(len, pieces)
    }

    /// An index over `pieces` with a freshly built sidecar.
    fn with_pieces(len: usize, pieces: Vec<Piece>) -> Self {
        let mut runs = RunSums::default();
        runs.resync(&pieces, 0);
        PieceIndex { pieces, len, runs }
    }

    /// Creates an index with a single piece covering `[0, len)` that is
    /// flagged as fully sorted. Used after a full (offline) sort, so
    /// subsequent selects resolve boundaries with binary search instead of
    /// data movement.
    #[must_use]
    pub fn new_sorted(len: usize) -> Self {
        let pieces = if len == 0 {
            Vec::new()
        } else {
            vec![Piece {
                sorted: true,
                ..Piece::unbounded(0, len)
            }]
        };
        Self::with_pieces(len, pieces)
    }

    /// Reassembles an index from decoded pieces (the snapshot-recovery
    /// path). Only the structural invariants that need no data are checked
    /// here — contiguity, coverage of `[0, len)`, bound ordering; callers
    /// must still run [`PieceIndex::validate`] against the recovered data
    /// before trusting cached sums, sorted flags or prefix arrays.
    #[must_use]
    pub fn from_parts(len: usize, pieces: Vec<Piece>) -> Option<Self> {
        if len == 0 {
            return pieces.is_empty().then(|| Self::with_pieces(len, pieces));
        }
        if pieces.first()?.start != 0 || pieces.last()?.end != len {
            return None;
        }
        for w in pieces.windows(2) {
            if w[0].end != w[1].start {
                return None;
            }
        }
        if pieces.iter().any(|p| p.is_empty() || p.start > p.end) {
            return None;
        }
        Some(Self::with_pieces(len, pieces))
    }

    /// Number of positions covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the indexed column is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pieces.
    #[must_use]
    pub fn piece_count(&self) -> usize {
        self.pieces.len()
    }

    /// All pieces, in positional (== value) order.
    #[must_use]
    pub fn pieces(&self) -> &[Piece] {
        &self.pieces
    }

    /// The piece at index `idx` (cloned; the prefix-sum handle, if any, is
    /// shared).
    #[must_use]
    pub fn piece(&self, idx: usize) -> Piece {
        self.pieces[idx].clone()
    }

    /// Average piece length (`len / piece_count`), or 0 for an empty column.
    #[must_use]
    pub fn avg_piece_len(&self) -> f64 {
        if self.pieces.is_empty() {
            0.0
        } else {
            self.len as f64 / self.pieces.len() as f64
        }
    }

    /// Length of the largest piece, or 0 for an empty column.
    #[must_use]
    pub fn max_piece_len(&self) -> usize {
        self.pieces.iter().map(Piece::len).max().unwrap_or(0)
    }

    /// Index of the piece that would hold value `v`.
    ///
    /// Returns the first piece whose exclusive upper bound is greater than
    /// `v` (the last piece for values beyond every bound). For an empty
    /// column there is no piece and `None` is returned.
    #[must_use]
    pub fn find_piece_for_value(&self, v: Value) -> Option<usize> {
        if self.pieces.is_empty() {
            return None;
        }
        let idx = self
            .pieces
            .partition_point(|p| p.hi.is_some_and(|hi| hi <= v));
        Some(idx.min(self.pieces.len() - 1))
    }

    /// Index of the piece containing position `pos`.
    #[must_use]
    pub fn find_piece_for_position(&self, pos: usize) -> Option<usize> {
        if pos >= self.len {
            return None;
        }
        let idx = self.pieces.partition_point(|p| p.end <= pos);
        Some(idx)
    }

    /// Index of the piece containing position `pos`, searched forward
    /// from piece `from` (whose start must not lie beyond `pos`) by
    /// galloping: O(log distance) probes next to `from` instead of a
    /// search over the whole table — a range's last piece is usually
    /// close to its first.
    #[must_use]
    pub(crate) fn find_piece_for_position_from(&self, from: usize, pos: usize) -> Option<usize> {
        if pos >= self.len {
            return None;
        }
        let tail = self.pieces.get(from..)?;
        let mut bound = 1;
        while bound < tail.len() && tail[bound - 1].end <= pos {
            bound *= 2;
        }
        let lo = bound / 2;
        let hi = bound.min(tail.len());
        Some(from + lo + tail[lo..hi].partition_point(|p| p.end <= pos))
    }

    /// Records a crack of piece `idx` at absolute position `split_pos` with
    /// pivot value `pivot`: positions `[start, split_pos)` hold values
    /// `< pivot`, positions `[split_pos, end)` hold values `>= pivot`.
    ///
    /// If the split lands on the piece's start or end, no new piece is
    /// created; the existing piece's value bound is tightened instead, which
    /// still records the knowledge that `pivot` is a resolved boundary.
    ///
    /// Returns `true` if a new piece was created.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds or `split_pos` lies outside the piece.
    pub fn split(&mut self, idx: usize, split_pos: usize, pivot: Value) -> bool {
        self.split_multi(idx, &[(split_pos, pivot)]) == 1
    }

    /// Like [`PieceIndex::split`], but also records the aggregate-cache sums
    /// a fused partitioning pass produced: `lo_sum` is the sum of the values
    /// `< pivot`, `total_sum` the sum of the whole pre-split piece. Both
    /// resulting pieces (or the single tightened piece) get a trusted cached
    /// sum.
    pub fn split_with_sums(
        &mut self,
        idx: usize,
        split_pos: usize,
        pivot: Value,
        lo_sum: i128,
        total_sum: i128,
    ) -> bool {
        self.split_multi_with_sums(
            idx,
            &[(split_pos, pivot)],
            Some(&[lo_sum, total_sum - lo_sum]),
        ) == 1
    }

    /// Records all splits of one multi-pivot partitioning pass over piece
    /// `idx` in a single piece-table edit.
    ///
    /// `splits` are `(split_pos, pivot)` pairs — each with the same meaning
    /// as [`PieceIndex::split`] — ordered by position, with strictly
    /// increasing pivots. Splits landing on the piece's start or end tighten
    /// its value bounds; interior splits carve the piece into sub-pieces.
    /// The whole edit is applied with one `Vec::splice`, so the piece table's
    /// tail is shifted once per pass instead of once per split (the former
    /// O(pieces) `Vec::insert` per crack).
    ///
    /// Returns the number of new pieces created.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds, any split position lies outside the
    /// piece, positions decrease, or pivots are not strictly increasing.
    pub fn split_multi(&mut self, idx: usize, splits: &[(usize, Value)]) -> usize {
        self.split_multi_with_sums(idx, splits, None)
    }

    /// Like [`PieceIndex::split_multi`], but also records the per-segment
    /// sums of the fused multi-pivot pass that produced the splits:
    /// `seg_sums[i]` is the sum of the values between split `i - 1` and
    /// split `i` (with `seg_sums[0]` before the first split and the last
    /// entry after the last split — `splits.len() + 1` entries total).
    /// With `None`, newly created pieces get no cached sum (a pure
    /// bound-tightening edit still keeps the existing one, since the piece's
    /// contents are unchanged).
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`PieceIndex::split_multi`], or if
    /// `seg_sums` has the wrong length.
    pub fn split_multi_with_sums(
        &mut self,
        idx: usize,
        splits: &[(usize, Value)],
        seg_sums: Option<&[i128]>,
    ) -> usize {
        if splits.is_empty() {
            return 0;
        }
        let p = self.pieces[idx].clone();
        let mut replacement: Vec<Piece> = Vec::with_capacity(splits.len() + 1);
        Self::expand_piece(p, splits, seg_sums, &mut replacement);
        let created = replacement.len() - 1;
        let old_sum = self.pieces[idx].sum;
        if created == 0 {
            // Pure bound tightening: no table surgery needed.
            self.pieces[idx] = replacement.swap_remove(0);
            if self.pieces[idx].sum == old_sum {
                return 0;
            }
        } else {
            self.pieces.reserve(created);
            self.pieces.splice(idx..=idx, replacement);
        }
        self.runs.splice(&self.pieces, idx, created);
        created
    }

    /// Records the splits of a whole batch pass over *many* pieces in a
    /// single piece-table rebuild.
    ///
    /// Each [`SplitGroup`] pairs an affected piece index with the splits
    /// produced inside that piece (same contract as
    /// [`PieceIndex::split_multi_with_sums`], including the optional fused
    /// per-segment sums), strictly ascending by piece index. The table is
    /// rebuilt once in `O(P + k)`, instead of the `O(P)` tail shift per
    /// affected piece that repeated `split_multi` calls would pay — on a
    /// heavily cracked column that repeated shifting dominates the
    /// index-maintenance cost of a large batch.
    ///
    /// Returns the total number of new pieces created.
    ///
    /// # Panics
    ///
    /// Panics under the per-piece conditions of
    /// [`PieceIndex::split_multi_with_sums`], or if `groups` is not
    /// strictly ascending by piece index.
    pub fn split_grouped_with_sums(&mut self, groups: &[SplitGroup]) -> usize {
        if groups.is_empty() {
            return 0;
        }
        assert!(
            groups.windows(2).all(|w| w[0].0 < w[1].0),
            "groups must be strictly ascending by piece index"
        );
        let total_splits: usize = groups.iter().map(|(_, s, _)| s.len()).sum();
        let mut rebuilt: Vec<Piece> = Vec::with_capacity(self.pieces.len() + total_splits);
        let mut next_group = groups.iter().peekable();
        for (idx, p) in self.pieces.iter().enumerate() {
            match next_group.peek() {
                Some((group_idx, splits, seg_sums)) if *group_idx == idx => {
                    Self::expand_piece(p.clone(), splits, seg_sums.as_deref(), &mut rebuilt);
                    next_group.next();
                }
                _ => rebuilt.push(p.clone()),
            }
        }
        assert!(
            next_group.peek().is_none(),
            "group piece index out of bounds"
        );
        let created = rebuilt.len() - self.pieces.len();
        self.pieces = rebuilt;
        // The sidecar is rebuilt from the first affected piece on, in the
        // same O(P + k) spirit as the table rebuild.
        self.runs.resync(&self.pieces, groups[0].0);
        created
    }

    /// Expands one piece into the pieces its splits produce, pushing them
    /// onto `out` (shared by [`PieceIndex::split_multi_with_sums`] and
    /// [`PieceIndex::split_grouped_with_sums`]). Pushes the piece unchanged
    /// (modulo bound tightening) when no interior split exists; `splits`
    /// must be non-empty.
    ///
    /// `seg_sums`, when present, holds one sum per kernel segment
    /// (`splits.len() + 1` entries, segment `i` ending at split `i`); each
    /// output piece's cached sum is the total of the segments it absorbs.
    /// Without sums, created pieces get `sum: None` and a pure tightening
    /// keeps the piece's existing cached sum (its contents are unchanged).
    ///
    /// A *sorted* piece's shared prefix-sum array is inherited by every
    /// output piece: splitting a sorted piece is binary search, so no data
    /// moved and the absolute-position array stays exact for all
    /// descendants. An unsorted piece was just permuted by a kernel pass, so
    /// its outputs never inherit a prefix (it would be stale).
    fn expand_piece(
        p: Piece,
        splits: &[(usize, Value)],
        seg_sums: Option<&[i128]>,
        out: &mut Vec<Piece>,
    ) {
        assert!(
            splits
                .windows(2)
                .all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1),
            "splits must have non-decreasing positions and strictly increasing pivots"
        );
        for &(split_pos, _) in splits {
            assert!(
                split_pos >= p.start && split_pos <= p.end,
                "split position {split_pos} outside piece [{}, {})",
                p.start,
                p.end
            );
        }
        if let Some(sums) = seg_sums {
            assert_eq!(
                sums.len(),
                splits.len() + 1,
                "one segment sum per kernel segment"
            );
        }
        // Walk the splits left to right. `cur_start`/`cur_lo` describe the
        // sub-piece currently open on the left; `end_hi` collects
        // upper-bound tightenings from splits that land on the piece's end
        // (the smallest such pivot wins); `acc` collects the segment sums
        // absorbed into the currently open sub-piece.
        let inherited_prefix = if p.sorted { p.prefix.clone() } else { None };
        let first_out = out.len();
        let mut cur_start = p.start;
        let mut cur_lo = p.lo;
        let mut end_hi = p.hi;
        let mut acc = 0i128;
        for (j, &(split_pos, pivot)) in splits.iter().enumerate() {
            if let Some(sums) = seg_sums {
                acc += sums[j];
            }
            if split_pos == cur_start {
                // Empty left side: every remaining value is >= pivot.
                cur_lo = Some(cur_lo.map_or(pivot, |lo| lo.max(pivot)));
            } else if split_pos == p.end {
                // Every remaining value is < pivot. Pivots increase, so the
                // first end-split carries the tightest bound. The segment
                // ending here stays in `acc` for the final piece.
                end_hi = Some(end_hi.map_or(pivot, |hi| hi.min(pivot)));
            } else {
                out.push(Piece {
                    start: cur_start,
                    end: split_pos,
                    lo: cur_lo,
                    hi: Some(pivot),
                    sorted: p.sorted,
                    sum: seg_sums.map(|_| acc),
                    prefix: inherited_prefix.clone(),
                });
                acc = 0;
                cur_start = split_pos;
                cur_lo = Some(pivot);
            }
        }
        let final_sum = match seg_sums {
            Some(sums) => Some(acc + sums[splits.len()]),
            // Pure tightening without kernel sums: contents unchanged, the
            // cached sum (if any) stays trusted.
            None if out.len() == first_out => p.sum,
            None => None,
        };
        out.push(Piece {
            start: cur_start,
            end: p.end,
            lo: cur_lo,
            hi: end_hi,
            sorted: p.sorted,
            sum: final_sum,
            prefix: inherited_prefix,
        });
    }

    /// Returns the resolved boundary position for value `v`, if the index
    /// already knows where values `>= v` begin without any data movement.
    #[must_use]
    pub fn resolved_boundary(&self, v: Value) -> Option<usize> {
        let idx = self.find_piece_for_value(v)?;
        let p = &self.pieces[idx];
        match p.lo {
            Some(lo) if v <= lo => Some(p.start),
            _ => {
                // A value beyond the last piece's (known) upper bound starts
                // after the end of the column.
                if idx == self.pieces.len() - 1 {
                    if let Some(hi) = p.hi {
                        if v >= hi {
                            return Some(p.end);
                        }
                    }
                }
                None
            }
        }
    }

    /// Grows the covered range by `extra` positions, extending the last
    /// piece (or creating one for a previously empty index). Used when
    /// pending inserts are merged into the cracker column.
    pub fn grow(&mut self, extra: usize) {
        if extra == 0 {
            return;
        }
        let new_len = self.len + extra;
        if let Some(last) = self.pieces.last_mut() {
            last.end = new_len;
            // The appended values may violate the last piece's bounds; the
            // caller (ripple insertion) is responsible for placing values in
            // admissible pieces, so bounds stay as they are. The cached sum
            // and prefix, however, no longer cover the piece's extent —
            // invalidate them (ripple insertion restores/patches them once
            // the appended value has been rippled into its target piece).
            last.prefix = None;
            self.set_sum(self.pieces.len() - 1, None);
        } else {
            self.pieces.push(Piece::unbounded(0, new_len));
            self.runs.resync(&self.pieces, 0);
        }
        self.len = new_len;
    }

    /// Shrinks the covered range by `removed` positions from the end,
    /// shrinking (and possibly removing) trailing pieces. Used when pending
    /// deletes are merged.
    pub fn shrink(&mut self, removed: usize) {
        let new_len = self.len.saturating_sub(removed);
        // Only trailing pieces change: the sidecar is re-derived from the
        // first of them on, O(block + removed pieces).
        let from = self.pieces.partition_point(|p| p.end <= new_len);
        while let Some(last) = self.pieces.last_mut() {
            if last.start >= new_len {
                self.pieces.pop();
            } else {
                if last.end != new_len {
                    // Truncation drops values the cached sum still counts.
                    // A prefix-sum array survives: the surviving positions'
                    // entries are untouched by dropping the tail, so the
                    // truncated piece keeps the array — and re-derives its
                    // sum from it instead of losing the cache.
                    last.end = new_len;
                    last.sum = last
                        .prefix
                        .as_ref()
                        .filter(|p| p.covers(&(last.start..new_len)))
                        .map(|p| p.sum_range(last.start..new_len));
                }
                break;
            }
        }
        self.runs.resync(&self.pieces, from);
        self.len = new_len;
    }

    /// (Internal) mutable access to the pieces' extents, bounds, flags and
    /// prefix arrays, for the ripple insert/delete algorithms in the
    /// updates module and the corruption injector. Neither the number of
    /// pieces nor any piece's cached sum may change through it: those go
    /// through [`PieceIndex::set_sum`], [`PieceIndex::patch_sums`] and
    /// [`PieceIndex::remove_empty_pieces`], which keep the run-sum sidecar
    /// in step (debug builds check it when the guard drops).
    pub(crate) fn pieces_mut(&mut self) -> PiecesMut<'_> {
        PiecesMut { index: self }
    }

    /// Sets piece `idx`'s cached sum — the single-piece sum edit (an
    /// unknown sum derived from a freshly built prefix array, a ripple's
    /// restored sum, an injected sum flip). The sidecar is patched in
    /// place: the rest of the piece's block and the later blocks' bases,
    /// O(block + P / block).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub(crate) fn set_sum(&mut self, idx: usize, sum: Option<i128>) {
        if self.pieces[idx].sum != sum {
            self.pieces[idx].sum = sum;
            self.runs.splice(&self.pieces, idx, 0);
        }
    }

    /// Installs a prefix-sum array on piece `idx` and, when the piece's
    /// sum was unknown, derives it from the array (one subtraction). The
    /// caller guarantees the array covers the piece and matches its data.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub(crate) fn install_prefix(&mut self, idx: usize, prefix: std::sync::Arc<PrefixSums>) {
        let derived = self.pieces[idx]
            .sum
            .or_else(|| Some(prefix.sum_range(self.pieces[idx].start..self.pieces[idx].end)));
        self.pieces[idx].prefix = Some(prefix);
        self.set_sum(idx, derived);
    }

    /// Adds each `(idx, delta)` to piece `idx`'s cached sum, if it has one
    /// — a ripple's gained or lost totals. `deltas` ascend by piece. The
    /// sidecar takes the deltas in one pass from the first affected entry
    /// to the end of the last affected block, plus the later blocks'
    /// bases; the pieces themselves are not walked.
    pub(crate) fn patch_sums(&mut self, deltas: &[(usize, i128)]) {
        debug_assert!(
            deltas.windows(2).all(|w| w[0].0 < w[1].0),
            "sum deltas must ascend by piece"
        );
        for &(idx, delta) in deltas {
            if let Some(sum) = &mut self.pieces[idx].sum {
                *sum += delta;
            }
        }
        let pieces = &self.pieces;
        self.runs.add(
            deltas
                .iter()
                .copied()
                .filter(|&(idx, _)| pieces[idx].sum.is_some()),
        );
    }

    /// Removes the pieces `empties` (ascending; every empty piece of the
    /// table, as ripple deletion leaves them) while keeping the remaining
    /// pieces contiguous. Each removal shifts the sidecar by one entry,
    /// O(block + P / block); the table closes the gaps in one pass from
    /// the first removed piece.
    pub(crate) fn remove_empty_pieces(&mut self, empties: &[usize]) {
        let Some(&first) = empties.first() else {
            return;
        };
        for &idx in empties.iter().rev() {
            debug_assert!(self.pieces[idx].is_empty(), "piece {idx} is not empty");
            self.runs.remove(idx);
        }
        let mut kept = first;
        for idx in first..self.pieces.len() {
            if !self.pieces[idx].is_empty() {
                self.pieces.swap(kept, idx);
                kept += 1;
            }
        }
        self.pieces.truncate(kept);
    }

    /// Total of the cached sums of the whole pieces `run` (piece indexes),
    /// or `None` if some piece in the run has no cached sum (or the run
    /// lies outside the table). Two sidecar lookups and one subtraction,
    /// whatever the run's length.
    #[must_use]
    pub fn cached_run_sum(&self, run: Range<usize>) -> Option<i128> {
        if run.end > self.pieces.len() || run.start > run.end {
            return None;
        }
        self.runs.run_sum(run)
    }

    /// (Internal) overrides the covered length after the updates module has
    /// adjusted piece extents directly.
    pub(crate) fn set_len(&mut self, len: usize) {
        self.len = len;
        if len == 0 {
            self.pieces.clear();
            self.runs.resync(&self.pieces, 0);
        }
    }

    /// Whether the sidecar agrees with the cached sums of the pieces in
    /// `range` (piece indexes, clamped to the table): the incremental form
    /// of the sidecar check in [`PieceIndex::validate`], for the scrubber.
    #[must_use]
    pub(crate) fn run_sums_match(&self, range: Range<usize>) -> bool {
        self.runs.matches_range(&self.pieces, range)
    }

    /// Checks all structural invariants against the cracked data.
    #[must_use]
    pub fn validate(&self, data: &[Value]) -> bool {
        if data.len() != self.len {
            return false;
        }
        if self.pieces.is_empty() {
            return self.len == 0;
        }
        if self.pieces[0].start != 0 || self.pieces.last().is_none_or(|p| p.end != self.len) {
            return false;
        }
        for w in self.pieces.windows(2) {
            if w[0].end != w[1].start {
                return false;
            }
            if let (Some(hi), Some(lo)) = (w[0].hi, w[1].lo) {
                if hi > lo {
                    return false;
                }
            }
        }
        self.runs.matches(&self.pieces)
            && self
                .pieces
                .iter()
                .all(|p| !p.is_empty() && p.validate(data))
    }
}

/// Mutable access to a [`PieceIndex`]'s pieces that leaves their number
/// and cached sums alone (see [`PieceIndex::pieces_mut`]).
pub(crate) struct PiecesMut<'a> {
    index: &'a mut PieceIndex,
}

impl Deref for PiecesMut<'_> {
    type Target = [Piece];

    fn deref(&self) -> &[Piece] {
        &self.index.pieces
    }
}

impl DerefMut for PiecesMut<'_> {
    fn deref_mut(&mut self) -> &mut [Piece] {
        &mut self.index.pieces
    }
}

impl Drop for PiecesMut<'_> {
    fn drop(&mut self) {
        debug_assert!(
            self.index.runs.matches(&self.index.pieces),
            "a cached sum changed behind the run-sum sidecar"
        );
    }
}

/// Sidecar entries per block after a rebuild. A split inserts into one
/// block — O(`RUN_BLOCK`) there plus O(P / `RUN_BLOCK`) to shift the later
/// blocks' first-piece indexes — instead of shifting all P entries; a
/// block that grows past twice this size is cut.
const RUN_BLOCK: usize = 256;

/// The run-sum sidecar of a [`PieceIndex`]: over the pieces in order, the
/// running total of their cached sums (unknown sums count 0) and the
/// running count of pieces without one. The cached total of a run of whole
/// pieces is the difference of two running totals, valid when the two
/// running counts agree.
///
/// Block `k` holds the entries of pieces `firsts[k]..firsts[k + 1]`. The
/// first-piece indexes sit in their own dense array: a split shifts every
/// later one, and a lookup binary-searches them.
#[derive(Debug, Clone, Default)]
struct RunSums {
    firsts: Vec<usize>,
    blocks: Vec<RunBlock>,
}

/// One block of the sidecar.
#[derive(Debug, Clone)]
struct RunBlock {
    /// Summed cached sums of every piece before the block.
    base_sum: i128,
    /// Pieces before the block without a cached sum.
    base_uncached: usize,
    /// Running cached-sum total through each of the block's pieces
    /// (inclusive), relative to `base_sum`.
    sums: Vec<i128>,
    /// Running count of uncached pieces through each of the block's pieces
    /// (inclusive), relative to `base_uncached`.
    uncached: Vec<u32>,
}

impl RunBlock {
    fn len(&self) -> usize {
        self.sums.len()
    }

    /// Absolute running totals through the block's last piece.
    fn end_totals(&self) -> (i128, usize) {
        let last = self.len() - 1;
        (
            self.base_sum + self.sums[last],
            self.base_uncached + self.uncached[last] as usize,
        )
    }
}

/// What one piece adds to the running totals.
fn contribution(p: &Piece) -> (i128, u32) {
    (p.sum.unwrap_or(0), u32::from(p.sum.is_none()))
}

impl RunSums {
    /// Number of pieces the sidecar covers.
    fn entries(&self) -> usize {
        match (self.firsts.last(), self.blocks.last()) {
            (Some(&first), Some(b)) => first + b.len(),
            _ => 0,
        }
    }

    /// The block holding piece `idx` (which the sidecar must cover).
    fn block_of(&self, idx: usize) -> usize {
        self.firsts.partition_point(|&f| f <= idx) - 1
    }

    /// Running totals over pieces `[0, i)`, or `None` if the sidecar does
    /// not reach that far.
    fn prefix(&self, i: usize) -> Option<(i128, usize)> {
        let Some(j) = i.checked_sub(1) else {
            return Some((0, 0));
        };
        let k = self.firsts.partition_point(|&f| f <= j).checked_sub(1)?;
        let b = &self.blocks[k];
        let o = j - self.firsts[k];
        Some((
            b.base_sum + *b.sums.get(o)?,
            b.base_uncached + *b.uncached.get(o)? as usize,
        ))
    }

    /// Cached total of the pieces `run`, if none of them lacks a sum.
    fn run_sum(&self, run: Range<usize>) -> Option<i128> {
        let (s0, u0) = self.prefix(run.start)?;
        let (s1, u1) = self.prefix(run.end)?;
        (u0 == u1).then_some(s1 - s0)
    }

    /// Re-derives the entries of pieces `from..` (the entries before
    /// `from` are kept): the bulk form, for paths that already sweep the
    /// piece table from `from` on.
    fn resync(&mut self, pieces: &[Piece], from: usize) {
        let from = from.min(self.entries()).min(pieces.len());
        let keep = self.firsts.partition_point(|&f| f < from);
        self.firsts.truncate(keep);
        self.blocks.truncate(keep);
        if let (Some(&first), Some(last)) = (self.firsts.last(), self.blocks.last_mut()) {
            last.sums.truncate(from - first);
            last.uncached.truncate(from - first);
        }
        for p in &pieces[from..] {
            self.push(p);
        }
    }

    /// Appends the entry of the next piece.
    fn push(&mut self, p: &Piece) {
        let (s, u) = contribution(p);
        match self.blocks.last_mut() {
            Some(b) if b.len() < RUN_BLOCK => {
                let last = b.len() - 1;
                let (ps, pu) = (b.sums[last], b.uncached[last]);
                b.sums.push(ps + s);
                b.uncached.push(pu + u);
            }
            _ => {
                let first = self.entries();
                let (base_sum, base_uncached) =
                    self.blocks.last().map_or((0, 0), RunBlock::end_totals);
                let mut sums = Vec::with_capacity(RUN_BLOCK);
                let mut uncached = Vec::with_capacity(RUN_BLOCK);
                sums.push(s);
                uncached.push(u);
                self.firsts.push(first);
                self.blocks.push(RunBlock {
                    base_sum,
                    base_uncached,
                    sums,
                    uncached,
                });
            }
        }
    }

    /// Adds each `(idx, delta)` (ascending; cached pieces only) to the
    /// running sums from piece `idx` on: the entries from the first delta
    /// to the end of the last affected block, then the later bases.
    fn add(&mut self, deltas: impl IntoIterator<Item = (usize, i128)>) {
        let mut deltas = deltas.into_iter().peekable();
        let Some(&(first, _)) = deltas.peek() else {
            return;
        };
        let mut acc = 0i128;
        for k in self.block_of(first)..self.blocks.len() {
            let (b, first) = (&mut self.blocks[k], self.firsts[k]);
            b.base_sum += acc;
            let Some(&(idx, _)) = deltas.peek().filter(|&&(idx, _)| idx < first + b.len()) else {
                if deltas.peek().is_none() && acc == 0 {
                    break;
                }
                continue;
            };
            // Segment by segment: the entries between two deltas of the
            // block all rise by the deltas seen so far.
            let mut local = 0i128;
            let mut from = idx - first;
            while from < b.len() {
                while let Some((_, delta)) = deltas.next_if(|&(idx, _)| idx == first + from) {
                    local += delta;
                }
                let to = deltas
                    .peek()
                    .map_or(b.len(), |&(idx, _)| (idx - first).min(b.len()));
                for x in &mut b.sums[from..to] {
                    *x += local;
                }
                from = to;
            }
            acc += local;
        }
    }

    /// Removes the entry of piece `idx` (an emptied piece leaving the
    /// table): the block closes the gap — less the piece's own
    /// contribution, read off the sidecar — and later blocks shift down by
    /// one piece and that contribution.
    fn remove(&mut self, idx: usize) {
        let k = self.block_of(idx);
        let b = &mut self.blocks[k];
        let o = idx - self.firsts[k];
        let (prev_s, prev_u) = match o.checked_sub(1) {
            Some(prev) => (b.sums[prev], b.uncached[prev]),
            None => (0, 0),
        };
        let (ds, du) = (b.sums[o] - prev_s, b.uncached[o] - prev_u);
        b.sums.remove(o);
        b.uncached.remove(o);
        if ds != 0 || du != 0 {
            for x in &mut b.sums[o..] {
                *x -= ds;
            }
            for x in &mut b.uncached[o..] {
                *x -= du;
            }
            for later in &mut self.blocks[k + 1..] {
                later.base_sum -= ds;
                later.base_uncached -= du as usize;
            }
        }
        for f in &mut self.firsts[k + 1..] {
            *f -= 1;
        }
        if self.blocks[k].sums.is_empty() {
            self.firsts.remove(k);
            self.blocks.remove(k);
        }
    }

    /// Patches the sidecar after piece `idx` was replaced by the
    /// `added + 1` pieces `pieces[idx..=idx + added]` (a split; `added ==
    /// 0` for an in-place sum edit). Only the entries of the affected
    /// block are rewritten; later blocks shift their first-piece index by
    /// `added` and — only when the replaced pieces' total or uncached
    /// count changed — their bases.
    fn splice(&mut self, pieces: &[Piece], idx: usize, added: usize) {
        let k = self.block_of(idx);
        let b = &mut self.blocks[k];
        let o = idx - self.firsts[k];
        let (mut s, mut u) = match o.checked_sub(1) {
            Some(prev) => (b.sums[prev], b.uncached[prev]),
            None => (0, 0),
        };
        let (old_s, old_u) = (b.sums[o], b.uncached[o]);
        match added {
            0 => {}
            1 => {
                b.sums.insert(o + 1, 0);
                b.uncached.insert(o + 1, 0);
            }
            _ => {
                b.sums.splice(o + 1..o + 1, std::iter::repeat_n(0, added));
                b.uncached
                    .splice(o + 1..o + 1, std::iter::repeat_n(0, added));
            }
        }
        for (j, p) in pieces[idx..=idx + added].iter().enumerate() {
            let (ps, pu) = contribution(p);
            s += ps;
            u += pu;
            b.sums[o + j] = s;
            b.uncached[o + j] = u;
        }
        let ds = s - old_s;
        let du = i64::from(u) - i64::from(old_u);
        if ds != 0 || du != 0 {
            for x in &mut b.sums[o + added + 1..] {
                *x += ds;
            }
            for x in &mut b.uncached[o + added + 1..] {
                *x = x.wrapping_add_signed(du as i32);
            }
            for later in &mut self.blocks[k + 1..] {
                later.base_sum += ds;
                later.base_uncached = later.base_uncached.wrapping_add_signed(du as isize);
            }
        }
        if added > 0 {
            for f in &mut self.firsts[k + 1..] {
                *f += added;
            }
            self.cut_oversized(k);
        }
    }

    /// Cuts block `k` into blocks of `RUN_BLOCK` entries while it holds
    /// more than twice that many.
    fn cut_oversized(&mut self, mut k: usize) {
        while self.blocks[k].len() > 2 * RUN_BLOCK {
            let b = &mut self.blocks[k];
            let (cut_s, cut_u) = (b.sums[RUN_BLOCK - 1], b.uncached[RUN_BLOCK - 1]);
            let mut sums = b.sums.split_off(RUN_BLOCK);
            let mut uncached = b.uncached.split_off(RUN_BLOCK);
            sums.iter_mut().for_each(|x| *x -= cut_s);
            uncached.iter_mut().for_each(|x| *x -= cut_u);
            let next = RunBlock {
                base_sum: b.base_sum + cut_s,
                base_uncached: b.base_uncached + cut_u as usize,
                sums,
                uncached,
            };
            self.firsts.insert(k + 1, self.firsts[k] + RUN_BLOCK);
            self.blocks.insert(k + 1, next);
            k += 1;
        }
    }

    /// Whether the sidecar is exactly the running totals of `pieces`:
    /// contiguous, non-empty, bounded blocks whose bases and entries equal
    /// a fresh running sum.
    fn matches(&self, pieces: &[Piece]) -> bool {
        if self.firsts.len() != self.blocks.len() {
            return false;
        }
        let (mut s, mut u, mut next) = (0i128, 0usize, 0usize);
        for (&first, b) in self.firsts.iter().zip(&self.blocks) {
            if first != next
                || b.sums.is_empty()
                || b.len() > 2 * RUN_BLOCK
                || b.uncached.len() != b.len()
                || (b.base_sum, b.base_uncached) != (s, u)
            {
                return false;
            }
            let Some(covered) = pieces.get(first..first + b.len()) else {
                return false;
            };
            for (j, p) in covered.iter().enumerate() {
                let (ps, pu) = contribution(p);
                s += ps;
                u += pu as usize;
                if (
                    b.base_sum + b.sums[j],
                    b.base_uncached + b.uncached[j] as usize,
                ) != (s, u)
                {
                    return false;
                }
            }
            next += b.len();
        }
        next == pieces.len()
    }

    /// Whether each piece in `range` (clamped) accounts for exactly its
    /// own contribution between its two neighbouring running totals.
    fn matches_range(&self, pieces: &[Piece], range: Range<usize>) -> bool {
        if self.firsts.len() != self.blocks.len() || self.entries() != pieces.len() {
            return false;
        }
        let end = range.end.min(pieces.len());
        (range.start.min(end)..end).all(|i| {
            let (ps, pu) = contribution(&pieces[i]);
            match (self.prefix(i), self.prefix(i + 1)) {
                (Some((s0, u0)), Some((s1, u1))) => {
                    s1 - s0 == ps && u1.checked_sub(u0) == Some(pu as usize)
                }
                _ => false,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_index_single_unbounded_piece() {
        let idx = PieceIndex::new(10);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.avg_piece_len(), 10.0);
        assert_eq!(idx.max_piece_len(), 10);
        assert!(!idx.is_empty());
        let data = vec![5; 10];
        assert!(idx.validate(&data));
    }

    #[test]
    fn empty_index_has_no_pieces() {
        let idx = PieceIndex::new(0);
        assert!(idx.is_empty());
        assert_eq!(idx.piece_count(), 0);
        assert_eq!(idx.find_piece_for_value(5), None);
        assert_eq!(idx.find_piece_for_position(0), None);
        assert!(idx.validate(&[]));
    }

    #[test]
    fn split_creates_pieces_with_bounds() {
        // data conceptually cracked at 50: [10, 20, 30 | 60, 70]
        let mut idx = PieceIndex::new(5);
        assert!(idx.split(0, 3, 50));
        assert_eq!(idx.piece_count(), 2);
        let p0 = idx.piece(0);
        let p1 = idx.piece(1);
        assert_eq!((p0.start, p0.end, p0.lo, p0.hi), (0, 3, None, Some(50)));
        assert_eq!((p1.start, p1.end, p1.lo, p1.hi), (3, 5, Some(50), None));
        let data = vec![10, 20, 30, 60, 70];
        assert!(idx.validate(&data));
    }

    #[test]
    fn split_at_edges_tightens_bounds_without_new_piece() {
        let mut idx = PieceIndex::new(4);
        // Everything >= 5: split position == start
        assert!(!idx.split(0, 0, 5));
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.piece(0).lo, Some(5));
        // Everything < 100: split position == end
        assert!(!idx.split(0, 4, 100));
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.piece(0).hi, Some(100));
        // Bounds only ever tighten.
        assert!(!idx.split(0, 0, 3));
        assert_eq!(idx.piece(0).lo, Some(5));
        assert!(!idx.split(0, 4, 200));
        assert_eq!(idx.piece(0).hi, Some(100));
    }

    #[test]
    fn find_piece_for_value_uses_bounds() {
        let mut idx = PieceIndex::new(10);
        idx.split(0, 4, 100);
        idx.split(1, 7, 200);
        // pieces: [0,4) <100, [4,7) [100,200), [7,10) >=200
        assert_eq!(idx.find_piece_for_value(50), Some(0));
        assert_eq!(idx.find_piece_for_value(100), Some(1));
        assert_eq!(idx.find_piece_for_value(150), Some(1));
        assert_eq!(idx.find_piece_for_value(200), Some(2));
        assert_eq!(idx.find_piece_for_value(10_000), Some(2));
        assert_eq!(idx.find_piece_for_value(-5), Some(0));
    }

    #[test]
    fn find_piece_for_position_walks_extents() {
        let mut idx = PieceIndex::new(10);
        idx.split(0, 4, 100);
        assert_eq!(idx.find_piece_for_position(0), Some(0));
        assert_eq!(idx.find_piece_for_position(3), Some(0));
        assert_eq!(idx.find_piece_for_position(4), Some(1));
        assert_eq!(idx.find_piece_for_position(9), Some(1));
        assert_eq!(idx.find_piece_for_position(10), None);
    }

    #[test]
    fn galloping_position_search_matches_the_full_search() {
        let idx = split_sorted_model(1000, &(1..60).map(|i| i * 16 + i % 7).collect::<Vec<_>>());
        for from in 0..idx.piece_count() {
            for pos in idx.piece(from).start..idx.len() {
                assert_eq!(
                    idx.find_piece_for_position_from(from, pos),
                    idx.find_piece_for_position(pos),
                    "from {from}, pos {pos}"
                );
            }
        }
        assert_eq!(idx.find_piece_for_position_from(0, idx.len()), None);
    }

    #[test]
    fn resolved_boundary_detects_known_pivots() {
        let mut idx = PieceIndex::new(10);
        assert_eq!(idx.resolved_boundary(100), None);
        idx.split(0, 4, 100);
        assert_eq!(idx.resolved_boundary(100), Some(4));
        assert_eq!(idx.resolved_boundary(50), None);
        // Smaller than every known bound of piece 0? piece 0 has lo None, so unknown.
        assert_eq!(idx.resolved_boundary(-5), None);
        // Beyond the last piece's known upper bound.
        idx.split(1, 10, 500);
        assert_eq!(idx.resolved_boundary(600), Some(10));
    }

    #[test]
    fn split_preserves_sorted_flag() {
        let mut idx = PieceIndex::new(6);
        // mark the single piece sorted
        let mut p = idx.piece(0);
        p.sorted = true;
        idx = PieceIndex::with_pieces(6, vec![p]);
        idx.split(0, 3, 10);
        assert!(idx.piece(0).sorted);
        assert!(idx.piece(1).sorted);
    }

    #[test]
    fn grow_and_shrink_adjust_extents() {
        let mut idx = PieceIndex::new(5);
        idx.split(0, 2, 10);
        idx.grow(3);
        assert_eq!(idx.len(), 8);
        assert_eq!(idx.piece(idx.piece_count() - 1).end, 8);
        idx.shrink(4);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.piece_count(), 2);
        assert_eq!(idx.piece(1).end, 4);
        // shrinking past a whole piece removes it
        idx.shrink(3);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.piece_count(), 1);
    }

    #[test]
    fn grow_on_empty_index_creates_piece() {
        let mut idx = PieceIndex::new(0);
        idx.grow(4);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.piece_count(), 1);
    }

    #[test]
    fn validate_rejects_inconsistent_indexes() {
        let mut idx = PieceIndex::new(5);
        idx.split(0, 3, 50);
        let data_ok = vec![10, 20, 30, 60, 70];
        let data_bad = vec![10, 20, 99, 60, 70];
        assert!(idx.validate(&data_ok));
        assert!(!idx.validate(&data_bad));
        assert!(!idx.validate(&data_ok[..4]));
    }

    #[test]
    #[should_panic(expected = "outside piece")]
    fn split_outside_piece_panics() {
        let mut idx = PieceIndex::new(5);
        idx.split(0, 3, 50);
        idx.split(0, 4, 20);
    }

    #[test]
    fn split_multi_matches_sequential_splits() {
        // data conceptually: [10, 20, 30, 60, 70, 90]
        let data = vec![10, 20, 30, 60, 70, 90];
        let splits = [(2usize, 25i64), (3, 50), (5, 80)];
        let mut batched = PieceIndex::new(6);
        assert_eq!(batched.split_multi(0, &splits), 3);
        let mut sequential = PieceIndex::new(6);
        // Sequential application must target the piece holding each value.
        for &(pos, pivot) in &splits {
            let i = sequential.find_piece_for_value(pivot).unwrap();
            sequential.split(i, pos, pivot);
        }
        assert_eq!(batched, sequential);
        assert!(batched.validate(&data));
        assert_eq!(batched.piece_count(), 4);
    }

    #[test]
    fn split_multi_edge_splits_tighten_bounds() {
        // All values >= 5 and < 100: both splits land on the edges.
        let mut idx = PieceIndex::new(4);
        assert_eq!(idx.split_multi(0, &[(0, 5), (4, 100)]), 0);
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.piece(0).lo, Some(5));
        assert_eq!(idx.piece(0).hi, Some(100));
        // Bounds only ever tighten; with increasing pivots at the end, the
        // smallest end-pivot wins.
        assert_eq!(idx.split_multi(0, &[(0, 3), (4, 60), (4, 200)]), 0);
        assert_eq!(idx.piece(0).lo, Some(5));
        assert_eq!(idx.piece(0).hi, Some(60));
    }

    #[test]
    fn split_multi_same_position_different_pivots() {
        // data conceptually: [10, 20 | 60, 70]; pivots 30 and 50 both
        // resolve to position 2 — one piece boundary, tightest lo bound.
        let data = vec![10, 20, 60, 70];
        let mut idx = PieceIndex::new(4);
        assert_eq!(idx.split_multi(0, &[(2, 30), (2, 50)]), 1);
        assert_eq!(idx.piece_count(), 2);
        assert_eq!(idx.piece(0).hi, Some(30));
        assert_eq!(idx.piece(1).lo, Some(50));
        assert!(idx.validate(&data));
    }

    #[test]
    fn split_multi_empty_is_noop() {
        let mut idx = PieceIndex::new(5);
        assert_eq!(idx.split_multi(0, &[]), 0);
        assert_eq!(idx.piece_count(), 1);
    }

    #[test]
    fn split_multi_preserves_sorted_flag() {
        let mut idx = PieceIndex::new_sorted(6);
        assert_eq!(idx.split_multi(0, &[(2, 10), (4, 20)]), 2);
        assert!(idx.pieces().iter().all(|p| p.sorted));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn split_multi_rejects_unordered_pivots() {
        let mut idx = PieceIndex::new(5);
        idx.split_multi(0, &[(1, 50), (2, 40)]);
    }

    #[test]
    fn split_with_sums_caches_both_sides() {
        // data conceptually cracked at 50: [10, 20, 30 | 60, 70]
        let data = vec![10, 20, 30, 60, 70];
        let mut idx = PieceIndex::new(5);
        assert!(idx.split_with_sums(0, 3, 50, 60, 190));
        assert_eq!(idx.piece(0).sum, Some(60));
        assert_eq!(idx.piece(1).sum, Some(130));
        assert!(idx.validate(&data));
        // A plain split leaves the new pieces' sums unknown.
        let mut plain = PieceIndex::new(5);
        plain.split(0, 3, 50);
        assert_eq!(plain.piece(0).sum, None);
        assert_eq!(plain.piece(1).sum, None);
    }

    #[test]
    fn split_multi_with_sums_accumulates_segments() {
        // data conceptually: [10, 20 | 30 | 60, 70 | 90]
        let data = vec![10, 20, 30, 60, 70, 90];
        let splits = [(2usize, 25i64), (3, 50), (5, 80)];
        let seg_sums = [30i128, 30, 130, 90];
        let mut idx = PieceIndex::new(6);
        assert_eq!(idx.split_multi_with_sums(0, &splits, Some(&seg_sums)), 3);
        let sums: Vec<Option<i128>> = idx.pieces().iter().map(|p| p.sum).collect();
        assert_eq!(sums, vec![Some(30), Some(30), Some(130), Some(90)]);
        assert!(idx.validate(&data));
    }

    #[test]
    fn split_multi_with_sums_edge_splits_fold_into_survivor() {
        // Both splits land on the edges: one piece survives, and the fused
        // pass still teaches it its total sum.
        let data = vec![10, 20, 30, 40];
        let mut idx = PieceIndex::new(4);
        assert_eq!(
            idx.split_multi_with_sums(0, &[(0, 5), (4, 100)], Some(&[0, 100, 0])),
            0
        );
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.piece(0).sum, Some(100));
        assert!(idx.validate(&data));
        // Duplicate positions: the empty middle segment contributes zero.
        let data = vec![10, 20, 60, 70];
        let mut idx = PieceIndex::new(4);
        assert_eq!(
            idx.split_multi_with_sums(0, &[(2, 30), (2, 50)], Some(&[30, 0, 130])),
            1
        );
        assert_eq!(idx.piece(0).sum, Some(30));
        assert_eq!(idx.piece(1).sum, Some(130));
        assert!(idx.validate(&data));
    }

    #[test]
    fn tightening_without_sums_keeps_existing_cache() {
        let data = vec![10, 20, 30, 40];
        let mut idx = PieceIndex::new(4);
        idx.split_multi_with_sums(0, &[(0, 5)], Some(&[0, 100]));
        assert_eq!(idx.piece(0).sum, Some(100));
        // A later sum-less tightening must not drop the trusted cache.
        assert!(!idx.split(0, 4, 200));
        assert_eq!(idx.piece(0).sum, Some(100));
        // But a sum-less *interior* split invalidates (contents unknown).
        assert!(idx.split(0, 2, 25));
        assert_eq!(idx.piece(0).sum, None);
        assert_eq!(idx.piece(1).sum, None);
        assert!(idx.validate(&data));
    }

    #[test]
    fn split_grouped_with_sums_mixes_summed_and_unsummed_groups() {
        // data conceptually: [10, 20 | 60, 70] then both pieces split again.
        let data = vec![10, 20, 60, 70];
        let mut idx = PieceIndex::new(4);
        idx.split_with_sums(0, 2, 50, 30, 160);
        let created = idx.split_grouped_with_sums(&[
            (0, vec![(1, 15)], Some(vec![10, 20])),
            (1, vec![(3, 65)], None),
        ]);
        assert_eq!(created, 2);
        let sums: Vec<Option<i128>> = idx.pieces().iter().map(|p| p.sum).collect();
        assert_eq!(sums, vec![Some(10), Some(20), None, None]);
        assert!(idx.validate(&data));
    }

    #[test]
    fn sorted_splits_share_the_prefix_and_unsorted_splits_drop_it() {
        use holistic_storage::PrefixSums;
        use std::sync::Arc;

        let data = vec![10, 20, 30, 60, 70, 90];
        let mut idx = PieceIndex::new_sorted(6);
        let prefix = Arc::new(PrefixSums::build(0, &data));
        idx.pieces_mut()[0].prefix = Some(Arc::clone(&prefix));
        idx.split_multi(0, &[(3, 50), (5, 80)]);
        assert_eq!(idx.piece_count(), 3);
        for (i, p) in idx.pieces().iter().enumerate() {
            assert!(p.sorted, "piece {i}");
            let shared = p.prefix.as_ref().expect("inherited");
            assert!(Arc::ptr_eq(shared, &prefix), "piece {i} shares the array");
            assert!(p.covering_prefix().is_some());
        }
        assert!(idx.validate(&data));

        // An unsorted piece never hands a prefix down (its data was just
        // permuted by the kernel pass that produced the splits).
        let mut unsorted = PieceIndex::new(6);
        unsorted.pieces_mut()[0].prefix = Some(Arc::clone(&prefix));
        unsorted.split(0, 3, 50);
        assert!(unsorted.pieces().iter().all(|p| p.prefix.is_none()));
    }

    #[test]
    fn grow_drops_the_prefix_and_shrink_keeps_it() {
        use holistic_storage::PrefixSums;
        use std::sync::Arc;

        let data = vec![10, 20, 30, 60];
        let mut idx = PieceIndex::new_sorted(4);
        idx.pieces_mut()[0].prefix = Some(Arc::new(PrefixSums::build(0, &data)));
        idx.set_sum(0, Some(120));
        idx.grow(1);
        assert!(idx.piece(0).prefix.is_none(), "grow extends past the array");
        assert_eq!(idx.piece(0).sum, None);

        // Truncation keeps a covering prefix and re-derives the sum.
        let mut idx = PieceIndex::new_sorted(4);
        idx.pieces_mut()[0].prefix = Some(Arc::new(PrefixSums::build(0, &data)));
        idx.set_sum(0, Some(120));
        idx.shrink(1);
        assert!(idx.piece(0).prefix.is_some());
        assert_eq!(idx.piece(0).sum, Some(60));
        assert!(idx.validate(&data[..3]));
    }

    /// A sorted model column `0..n` split at `pivots` in the given order,
    /// with sums recorded except on every fifth split.
    fn split_sorted_model(n: usize, pivots: &[usize]) -> PieceIndex {
        let sum = |r: std::ops::Range<usize>| r.map(|v| v as i128).sum::<i128>();
        let mut idx = PieceIndex::new(n);
        for (i, &v) in pivots.iter().enumerate() {
            let target = idx.find_piece_for_value(v as Value).unwrap();
            if idx.resolved_boundary(v as Value).is_some() {
                continue;
            }
            let p = idx.piece(target);
            if i % 5 == 4 {
                idx.split(target, v, v as Value);
            } else {
                idx.split_with_sums(target, v, v as Value, sum(p.start..v), sum(p.start..p.end));
            }
        }
        idx
    }

    fn walk(idx: &PieceIndex, run: std::ops::Range<usize>) -> Option<i128> {
        idx.pieces()[run].iter().map(|p| p.sum).sum()
    }

    #[test]
    fn run_sums_span_many_blocks_through_incremental_splits() {
        // 3000 splits in scrambled order: inserts land in every block,
        // blocks grow past the cut size and are cut, later bases shift.
        let n = 20_000;
        let pivots: Vec<usize> = (1..3001).map(|i| (i * 7919) % (n - 1) + 1).collect();
        let mut idx = split_sorted_model(n, &pivots);
        let data: Vec<Value> = (0..n as Value).collect();
        assert!(idx.piece_count() > 4 * RUN_BLOCK, "spans several blocks");
        assert!(idx.runs.blocks.len() > 4);
        assert!(idx.validate(&data));
        let pc = idx.piece_count();
        for a in (0..pc).step_by(97) {
            for b in [a + 1, (a + 300).min(pc), pc] {
                assert_eq!(idx.cached_run_sum(a..b), walk(&idx, a..b), "{a}..{b}");
            }
        }
        // Filling every unknown sum is a single-piece edit each; afterwards
        // every run is priced by the sidecar.
        for i in 0..pc {
            if idx.piece(i).sum.is_none() {
                let p = idx.piece(i);
                idx.set_sum(i, Some((p.start..p.end).map(|v| v as i128).sum()));
            }
        }
        assert!(idx.validate(&data));
        let total: i128 = (0..n).map(|v| v as i128).sum();
        assert_eq!(idx.cached_run_sum(0..pc), Some(total));
        // Equality sees only the pieces: a rebuilt sidecar compares equal.
        let rebuilt = PieceIndex::from_parts(n, idx.pieces().to_vec()).unwrap();
        assert_eq!(rebuilt, idx);
        assert!(rebuilt.validate(&data));
    }

    #[test]
    fn removing_empty_pieces_keeps_the_sidecar_across_blocks() {
        let n = 20_000;
        let pivots: Vec<usize> = (1..2001).map(|i| (i * 7919) % (n - 1) + 1).collect();
        let mut idx = split_sorted_model(n, &pivots);
        assert!(idx.runs.blocks.len() > 3);
        // Empty a whole block's pieces (the block itself must go) plus
        // every third uncached piece further on (their removal shifts the
        // later uncached counts), each absorbed by the piece before it.
        let (first, len) = (idx.runs.firsts[1], idx.runs.blocks[1].len());
        let mut empties: Vec<usize> = (first..first + len).collect();
        let later = first + len + 1;
        empties.extend(
            (later..idx.piece_count())
                .filter(|&i| idx.piece(i).sum.is_none())
                .step_by(3),
        );
        {
            let mut pieces = idx.pieces_mut();
            for &i in empties.iter().rev() {
                let end = pieces[i].end;
                pieces[i - 1].end = end;
                pieces[i].start = end;
                for p in &mut pieces[i + 1..] {
                    if p.start < end {
                        p.start = end;
                        p.end = p.end.max(end);
                    }
                }
            }
        }
        let empties: Vec<usize> = (0..idx.piece_count())
            .filter(|&i| idx.piece(i).is_empty())
            .collect();
        assert!(empties.len() > RUN_BLOCK);
        let before = idx.piece_count();
        idx.remove_empty_pieces(&empties);
        assert_eq!(idx.piece_count(), before - empties.len());
        assert!(idx.pieces().iter().all(|p| !p.is_empty()));
        assert!(idx.runs.matches(idx.pieces()), "sidecar diverged");
        let pc = idx.piece_count();
        for a in (0..pc).step_by(41) {
            assert_eq!(idx.cached_run_sum(a..pc), walk(&idx, a..pc), "{a}..");
        }
    }

    #[test]
    fn a_diverged_sidecar_is_a_validation_fault() {
        let n = 4_000;
        let pivots: Vec<usize> = (1..900).map(|i| (i * 104_729) % (n - 1) + 1).collect();
        let data: Vec<Value> = (0..n as Value).collect();
        let clean = split_sorted_model(n, &pivots);
        assert!(clean.validate(&data));
        assert!(clean.run_sums_match(0..clean.piece_count()));
        // An entry inside a block.
        let mut bad = clean.clone();
        bad.runs.blocks[1].sums[3] += 1;
        assert!(!bad.validate(&data), "entry divergence");
        assert!(!bad.run_sums_match(0..bad.piece_count()));
        let at = bad.runs.firsts[1] + 3;
        assert!(
            !bad.run_sums_match(at..at + 1),
            "the scrub window pinpoints it"
        );
        // A later block's base.
        let mut bad = clean.clone();
        let last = bad.runs.blocks.len() - 1;
        assert!(last >= 1, "the table spans several blocks");
        bad.runs.blocks[last].base_uncached += 1;
        assert!(!bad.validate(&data), "base divergence");
        // Equality is blind to it: the pieces are untouched.
        assert_eq!(bad, clean);
    }

    #[test]
    fn grow_and_shrink_invalidate_affected_sums() {
        let data = vec![10, 20, 60, 70];
        let mut idx = PieceIndex::new(4);
        idx.split_with_sums(0, 2, 50, 30, 160);
        assert_eq!(idx.piece(1).sum, Some(130));
        idx.grow(1);
        // Only the extended (last) piece loses its cache.
        assert_eq!(idx.piece(0).sum, Some(30));
        assert_eq!(idx.piece(1).sum, None);
        idx.shrink(1);
        assert_eq!(idx.piece(0).sum, Some(30));
        assert!(idx.validate(&data));
        // Truncating into a piece with a cached sum drops the cache.
        idx.shrink(1);
        assert_eq!(idx.piece(1).sum, None);
        // Shrinking a whole piece away leaves earlier caches untouched.
        idx.shrink(1);
        assert_eq!(idx.piece_count(), 1);
        assert_eq!(idx.piece(0).sum, Some(30));
    }
}

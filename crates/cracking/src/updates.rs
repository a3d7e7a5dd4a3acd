//! Cracking under updates.
//!
//! Following "Updating a Cracked Database" (SIGMOD 2007), updates never
//! touch the cracked array directly when they arrive. Inserts and deletes
//! are queued in a pending [`UpdateBuffer`]; when a query touches a value
//! range, the pending updates that fall inside that range are merged into
//! the cracker column using *ripple insertion / deletion*: the affected
//! piece grows or shrinks by one slot and the displacement is rippled
//! through the following pieces (each piece rotates one element) so that all
//! piece invariants keep holding without rewriting the column.

use std::ops::Range;

use holistic_storage::{compact_out, UpdateBuffer};

use crate::cracker::CrackerColumn;
use crate::{RowId, Value};

/// Largest sorted piece (in values) whose prefix-sum array ripple updates
/// keep alive by patching. Patching costs O(piece) per merged update (an
/// in-piece rotate plus a rebuilt prefix array, 16 bytes per value), which
/// is the price of any sorted array under point updates — worth paying
/// while a patch stays in the sub-millisecond range, but unbounded on a
/// multi-million-value piece absorbing an update stream. Above this cap
/// the ripple falls back to the O(1) hole placement (the pre-prefix
/// behavior: the piece gives up `sorted` and its prefix; cracking takes
/// over, and idle-time seeding re-covers whatever stays sorted).
const MAX_PATCHED_PIECE_LEN: usize = 1 << 18;

/// A cracker column plus its pending-update buffer.
#[derive(Debug, Clone)]
pub struct UpdatableCrackerColumn {
    cracker: CrackerColumn,
    pending: UpdateBuffer,
    next_rowid: u32,
    merged_inserts: u64,
    merged_deletes: u64,
}

impl UpdatableCrackerColumn {
    /// Creates an updatable cracker column from raw values (no row ids).
    #[must_use]
    pub fn from_values(values: Vec<Value>) -> Self {
        let next_rowid = values.len() as u32;
        UpdatableCrackerColumn {
            cracker: CrackerColumn::from_values(values),
            pending: UpdateBuffer::new(),
            next_rowid,
            merged_inserts: 0,
            merged_deletes: 0,
        }
    }

    /// Creates an updatable cracker column carrying row ids.
    #[must_use]
    pub fn from_values_with_rowids(values: Vec<Value>) -> Self {
        let next_rowid = values.len() as u32;
        UpdatableCrackerColumn {
            cracker: CrackerColumn::from_values_with_rowids(values),
            pending: UpdateBuffer::new(),
            next_rowid,
            merged_inserts: 0,
            merged_deletes: 0,
        }
    }

    /// The underlying cracker column.
    #[must_use]
    pub fn cracker(&self) -> &CrackerColumn {
        &self.cracker
    }

    /// Queues a value for insertion.
    pub fn insert(&mut self, v: Value) {
        self.pending.insert(v);
    }

    /// Queues a value for deletion.
    pub fn delete(&mut self, v: Value) {
        self.pending.delete(v);
    }

    /// Number of pending (unmerged) inserts.
    #[must_use]
    pub fn pending_inserts(&self) -> usize {
        self.pending.pending_inserts()
    }

    /// Number of pending (unmerged) deletes.
    #[must_use]
    pub fn pending_deletes(&self) -> usize {
        self.pending.pending_deletes()
    }

    /// Updates merged into the cracked array so far: `(inserts, deletes)`.
    #[must_use]
    pub fn merged_updates(&self) -> (u64, u64) {
        (self.merged_inserts, self.merged_deletes)
    }

    /// Logical number of values (cracked array plus the net effect of all
    /// pending updates, assuming pending deletes refer to present values).
    #[must_use]
    pub fn logical_len(&self) -> usize {
        let physical = self.cracker.len() as i64;
        let net = self.pending.pending_inserts() as i64 - self.pending.pending_deletes() as i64;
        (physical + net).max(0) as usize
    }

    /// Answers the range select `[lo, hi)`: merges the pending updates that
    /// fall inside the range, cracks, and returns the qualifying position
    /// range in the cracked array.
    pub fn select(&mut self, lo: Value, hi: Value) -> Range<usize> {
        if hi > lo {
            self.merge_range(lo, hi);
        }
        self.cracker.crack_select(lo, hi)
    }

    /// Counts qualifying values for `[lo, hi)` (merging pending updates in
    /// that range first).
    pub fn count(&mut self, lo: Value, hi: Value) -> u64 {
        let r = self.select(lo, hi);
        (r.end - r.start) as u64
    }

    /// Values in a position range previously returned by
    /// [`UpdatableCrackerColumn::select`].
    #[must_use]
    pub fn view(&self, range: Range<usize>) -> &[Value] {
        self.cracker.view(range)
    }

    /// Merges every pending update whose value falls in `[lo, hi)` into the
    /// cracked array. Exposed separately so idle-time tuning can also merge
    /// updates proactively.
    pub fn merge_range(&mut self, lo: Value, hi: Value) {
        let mut inserts = self.pending.take_inserts_in_range(lo, hi);
        let deletes = self.pending.take_deletes_in_range(lo, hi);
        // Cancel deletes against still-pending inserts first: a value that
        // was inserted and deleted before ever being merged never has to
        // touch the cracked array.
        let mut remaining_deletes = Vec::new();
        for d in deletes {
            if let Some(pos) = inserts.iter().position(|&v| v == d) {
                inserts.swap_remove(pos);
            } else {
                remaining_deletes.push(d);
            }
        }
        for v in inserts {
            self.ripple_insert(v);
            self.merged_inserts += 1;
        }
        for v in remaining_deletes {
            if self.ripple_delete(v) {
                self.merged_deletes += 1;
            }
        }
        debug_assert!(self.cracker.validate());
    }

    /// Merges *all* pending updates regardless of value.
    pub fn merge_all(&mut self) {
        self.merge_range(Value::MIN, Value::MAX);
    }

    /// Merges all pending updates, then fully sorts the column (see
    /// [`CrackerColumn::sort_fully`]): the index collapses to a single
    /// sorted piece seeded with its sum and prefix-sum array, so every
    /// subsequent range aggregate is zero-read. Updates merged afterwards
    /// keep the piece sorted by patching the prefix (ripple coherence).
    pub fn sort_fully(&mut self) {
        self.merge_all();
        self.cracker.sort_fully();
    }

    /// Validates the full structure (cracker invariants; pending buffers are
    /// unconstrained).
    #[must_use]
    pub fn validate(&self) -> bool {
        self.cracker.validate()
    }

    /// Ripple insertion: makes room for `v` inside the piece that admits it
    /// by shifting one slot through every following piece.
    ///
    /// Aggregate-cache coherence: the ripple only rotates values *within*
    /// each intermediate piece (every piece's value multiset is preserved),
    /// so the only cached sum that changes is the target piece's, which is
    /// patched by `v`. The last piece's cache — invalidated by
    /// [`PieceIndex::grow`](crate::index::PieceIndex::grow) while the
    /// appended slot transiently lives there — is restored once the ripple
    /// has moved the slot down to its target.
    ///
    /// Prefix-sum coherence: intermediate pieces are rotated (their first
    /// value moves to their end), which breaks sortedness, so they drop
    /// both the `sorted` flag and any prefix array — their patched whole-
    /// piece sums remain exact. The *target* piece is different: when it is
    /// sorted and carries a prefix array, the value is placed at its sorted
    /// offset (one `rotate_right` inside the piece) and the prefix array is
    /// **patched** — entries after the offset shift by one slot and rise by
    /// `v` ([`holistic_storage::PrefixSums::patch_insert`]) — instead of
    /// being discarded, so the piece stays on the zero-read aggregate path
    /// through arbitrary update streams. The patch is O(piece), so it is
    /// capped at [`MAX_PATCHED_PIECE_LEN`]; larger pieces take the O(1)
    /// placement and give up `sorted` + prefix (the pre-prefix behavior).
    fn ripple_insert(&mut self, v: Value) {
        let rowid = self.next_rowid;
        self.next_rowid = self.next_rowid.wrapping_add(1);
        self.cracker.ripple_insert(v, rowid as RowId);
    }

    fn ripple_delete(&mut self, v: Value) -> bool {
        self.cracker.ripple_delete(v)
    }
}

/// Ripple updates on the cracked representation itself.
///
/// These live on [`CrackerColumn`] (not only on the update-buffer wrapper
/// above) so the engine's update path — forward execution and WAL replay
/// alike — can apply them directly under a shard's write latch. The
/// coherence rules are documented on the private delegators above.
impl CrackerColumn {
    /// Ripple insertion of `v`, carrying `rowid` when the column keeps row
    /// ids. See [`UpdatableCrackerColumn`]'s `ripple_insert` docs for the
    /// aggregate-cache and prefix-sum coherence argument.
    pub fn ripple_insert(&mut self, v: Value, rowid: RowId) {
        let (data, rowids, index) = self.parts_mut();
        if index.is_empty() {
            data.push(v);
            if let Some(rowids) = rowids {
                rowids.push(rowid);
            }
            index.grow(1);
            // The fresh single piece holds exactly the inserted value.
            if let Some(p) = index.pieces_mut().last_mut() {
                p.sum = Some(i128::from(v));
            }
            return;
        }
        let target = index
            .find_piece_for_value(v)
            // Total on a non-empty index (the empty case returned above);
            // silently dropping the insert would be worse than aborting.
            // lint:allow(panic-path)
            .expect("non-empty index has a piece for every value");
        // The target piece's bounds are conservative knowledge about its
        // current contents; a merged insert may fall just outside them (e.g.
        // below the first piece's tightened lower bound, or above the last
        // piece's tightened upper bound). Relax the bound so the piece admits
        // the new value — neighbouring pieces are unaffected because
        // `find_piece_for_value` guarantees the value sorts into this piece.
        {
            let pieces = index.pieces_mut();
            let p = &mut pieces[target];
            if p.lo.is_some_and(|lo| v < lo) {
                p.lo = Some(v);
            }
            if p.hi.is_some_and(|hi| v >= hi) {
                p.hi = Some(v.saturating_add(1));
            }
        }
        // Open a free slot at the very end of the array. `grow` invalidates
        // the last piece's sum and prefix, so save both: the sum is restored
        // below (the ripple preserves every non-target multiset), and the
        // prefix feeds the target's patch when the target *is* the last
        // piece.
        let saved_last = index
            .pieces()
            .last()
            // The target lookup above proved the index non-empty.
            // lint:allow(panic-path)
            .expect("non-empty index has pieces")
            .clone();
        data.push(v); // placeholder, overwritten below unless target is last
        let mut rowids = rowids;
        if let Some(r) = rowids.as_deref_mut() {
            r.push(rowid);
        }
        index.grow(1); // invalidates the last piece's cached sum and prefix
        let pieces = index.pieces_mut();
        let last = pieces.len() - 1;
        // The free slot currently sits at the end of the last piece. Ripple
        // it down to the target piece: each piece moves its first element to
        // the free slot at its end and hands its first slot to the previous
        // piece.
        let mut free_slot = pieces[last].end - 1;
        let mut i = last;
        while i > target {
            let first = pieces[i].start;
            data[free_slot] = data[first];
            if let Some(r) = rowids.as_deref_mut() {
                r[free_slot] = r[first];
            }
            // Transfer the first slot of piece i to piece i-1.
            pieces[i].start += 1;
            pieces[i - 1].end += 1;
            free_slot = first;
            i -= 1;
        }
        data[free_slot] = v;
        if let Some(r) = rowids.as_deref_mut() {
            r[free_slot] = rowid;
        }
        // Every rippled piece kept its value multiset, so their cached sums
        // are still exact: restore the last piece's (cleared by `grow`) and
        // patch the target's, which is the only piece that gained a value.
        pieces[last].sum = saved_last.sum;
        pieces[target].sum = pieces[target].sum.map(|s| s + i128::from(v));
        // Rippled-through pieces had their first value rotated to their end
        // (and their extents shifted), so sortedness and prefix arrays are
        // gone for them. The target piece can do better: if it was sorted
        // with a live prefix, place `v` at its sorted offset and patch the
        // prefix suffix instead of discarding it.
        // The target's extent already includes the new slot, so coverage is
        // checked against the *pre-insert* extent in the match guard below.
        // When the target is the last piece, `grow` cleared its prefix slot
        // and the saved copy carries it instead.
        let target_prefix = if target == last {
            saved_last.prefix.clone()
        } else {
            pieces[target].prefix.clone()
        }
        .filter(|_| pieces[target].sorted && pieces[target].len() <= MAX_PATCHED_PIECE_LEN);
        let start = pieces[target].start;
        let end = pieces[target].end; // includes the slot v occupies
        debug_assert_eq!(free_slot, end - 1);
        match target_prefix {
            Some(old) if old.covers(&(start..end - 1)) => {
                let off = data[start..end - 1].partition_point(|&x| x < v);
                data[start + off..end].rotate_right(1);
                if let Some(r) = rowids {
                    r[start + off..end].rotate_right(1);
                }
                pieces[target].prefix = Some(std::sync::Arc::new(old.patch_insert(
                    start..end - 1,
                    off,
                    v,
                )));
                // `sorted` stays true: the rotate re-established order.
            }
            _ => {
                // No prefix to preserve: the O(1) placement at the piece's
                // end stands, at the cost of the sorted flag.
                pieces[target].sorted = false;
                pieces[target].prefix = None;
            }
        }
        for p in pieces.iter_mut().skip(target + 1) {
            p.sorted = false;
            p.prefix = None;
        }
    }

    /// Batched ripple insertion: inserts every `(value, rowid)` pair with a
    /// **single** sweep over the piece table instead of one full ripple per
    /// value.
    ///
    /// A per-value ripple touches every piece above the target twice, so K
    /// inserts into a well-cracked column cost K × O(pieces) — the dominant
    /// cost of an update batch, and of replaying a WAL tail, once a column
    /// has thousands of pieces. The batch form sorts the values, resolves the piece each lands in, then moves the
    /// data behind each gaining piece up once (`copy_within`,
    /// order-preserving — one move per gaining piece, not per piece) and
    /// appends the new values at that piece's end; one pass over the piece
    /// table then shifts the extents: O(data moved + pieces + K log K).
    ///
    /// Cache coherence mirrors the scalar ripple: shifted pieces keep their
    /// value multiset, so cached sums survive and the `sorted` flag is even
    /// preserved (the shift is a straight move, not a rotation) — only the
    /// prefix arrays go, because their entries are keyed to absolute
    /// positions. Pieces that *gain* values get their sums patched by the
    /// gained total and drop `sorted`/prefix.
    pub fn ripple_insert_batch(&mut self, batch: &[(Value, RowId)]) {
        // The sweep's bookkeeping only pays for itself beyond a couple of
        // values; the scalar ripple also handles the empty-index bootstrap.
        if batch.len() < 2 || self.piece_count() == 0 {
            for &(v, rowid) in batch {
                self.ripple_insert(v, rowid);
            }
            return;
        }
        let mut sorted: Vec<(Value, RowId)> = batch.to_vec();
        sorted.sort_unstable_by_key(|&(v, _)| v);
        let k = sorted.len();
        let (data, mut rowids, index) = self.parts_mut();
        // Target piece of every value (non-decreasing, the values being
        // sorted), resolved before any mutation so bound relaxation cannot
        // skew later lookups.
        let targets: Vec<usize> = sorted
            .iter()
            // Total on a non-empty index (checked above).
            // lint:allow(panic-path)
            .map(|&(v, _)| index.find_piece_for_value(v).expect("non-empty index"))
            .collect();
        // Relax each target piece's bounds to admit its gained values (the
        // batch analogue of the scalar ripple's relaxation).
        {
            let pieces = index.pieces_mut();
            for (&(v, _), &t) in sorted.iter().zip(&targets) {
                let p = &mut pieces[t];
                if p.lo.is_some_and(|lo| v < lo) {
                    p.lo = Some(v);
                }
                if p.hi.is_some_and(|hi| v >= hi) {
                    p.hi = Some(v.saturating_add(1));
                }
            }
        }
        // Open K slots at the end. `grow` invalidates the last piece's sum;
        // save it — the fix-up pass below restores it (patched by any gain).
        let saved_last_sum = index.pieces().last().and_then(|p| p.sum);
        let old_len = data.len();
        data.resize(old_len + k, 0);
        if let Some(r) = rowids.as_deref_mut() {
            r.resize(old_len + k, 0);
        }
        index.grow(k);
        let pieces = index.pieces_mut();
        let last = pieces.len() - 1;
        pieces[last].end = old_len;
        pieces[last].sum = saved_last_sum;
        // Data, from the top down: the values landing in piece `t` are
        // `sorted[a..b]`; everything behind that piece moves up by `b` in
        // one move (however many pieces it spans) and the group fills the
        // gap this opens at the piece's end.
        let mut upper = old_len;
        let mut b = k;
        while b > 0 {
            let t = targets[b - 1];
            let a = targets.partition_point(|&x| x < t);
            let end = pieces[t].end;
            data.copy_within(end..upper, end + b);
            if let Some(r) = rowids.as_deref_mut() {
                r.copy_within(end..upper, end + b);
            }
            for (slot, &(v, rowid)) in (end + a..).zip(&sorted[a..b]) {
                data[slot] = v;
                if let Some(r) = rowids.as_deref_mut() {
                    r[slot] = rowid;
                }
            }
            upper = end;
            b = a;
        }
        // Piece table, from the lowest target up: a piece's start shifts by
        // the number of batch values landing below it and its end
        // additionally absorbs its own gain.
        let mut below = 0;
        for (i, p) in pieces.iter_mut().enumerate().skip(targets[0]) {
            let gain = targets[below..].iter().take_while(|&&t| t == i).count();
            if gain > 0 {
                let gained: i128 = sorted[below..below + gain]
                    .iter()
                    .map(|&(v, _)| i128::from(v))
                    .sum();
                p.sum = p.sum.map(|s| s + gained);
                p.sorted = false;
            }
            // A moved piece keeps its order and multiset (so `sorted` and
            // the cached sum), but prefix entries are keyed to absolute
            // positions and no longer apply; a grown one lost both.
            p.prefix = None;
            p.start += below;
            below += gain;
            p.end += below;
        }
    }

    /// Ripple deletion: removes one occurrence of `v` (if present) by
    /// filling its slot from within its piece and rippling the hole out to
    /// the end of the array. Returns `true` if a value was removed.
    ///
    /// Mirrors [`UpdatableCrackerColumn::insert`]'s ripple coherence rules
    /// (see `ripple_insert`): a sorted target piece with a live prefix
    /// array closes the hole with a `rotate_left` (order preserved) and
    /// **patches** the prefix suffix
    /// ([`holistic_storage::PrefixSums::patch_remove`]); any other target
    /// fills the hole from its own end in O(1) and gives up the sorted
    /// flag. Rippled-through pieces drop sortedness and prefix, keep sums.
    pub fn ripple_delete(&mut self, v: Value) -> bool {
        let (data, mut rowids, index) = self.parts_mut();
        if index.is_empty() {
            return false;
        }
        let Some(target) = index.find_piece_for_value(v) else {
            return false;
        };
        let pieces = index.pieces_mut();
        let p = pieces[target].clone();
        let Some(offset) = data[p.start..p.end].iter().position(|&x| x == v) else {
            return false;
        };
        let mut hole = p.start + offset;
        let last_of_piece = p.end - 1;
        let patched_prefix = p
            .covering_prefix()
            .filter(|_| p.sorted && p.len() <= MAX_PATCHED_PIECE_LEN)
            .map(|old| old.patch_remove(p.start..p.end, offset));
        match patched_prefix {
            Some(patched) => {
                // Sorted target with a prefix: close the hole in order and
                // patch the suffix of the prefix array.
                data[hole..p.end].rotate_left(1);
                if let Some(r) = rowids.as_deref_mut() {
                    r[hole..p.end].rotate_left(1);
                }
                pieces[target].prefix = Some(std::sync::Arc::new(patched));
                // `sorted` stays true: rotation preserved the order.
            }
            None => {
                // Fill the hole from the end of its own piece, leaving the
                // hole as the piece's last slot.
                data[hole] = data[last_of_piece];
                if let Some(r) = rowids.as_deref_mut() {
                    r[hole] = r[last_of_piece];
                }
                pieces[target].sorted = false;
                pieces[target].prefix = None;
            }
        }
        hole = last_of_piece;
        // The ripple below preserves every other piece's value multiset;
        // only the target loses `v` — patch its cached sum accordingly.
        pieces[target].sum = pieces[target].sum.map(|s| s - i128::from(v));
        // Ripple the hole through the following pieces: each piece hands its
        // first slot to the previous piece's hole and re-opens the hole at
        // its own end.
        for piece in pieces.iter_mut().skip(target + 1) {
            let start = piece.start;
            let end = piece.end;
            data[hole] = data[start];
            if let Some(r) = rowids.as_deref_mut() {
                r[hole] = r[start];
            }
            // The slot at `start` becomes the hole; move it to the end of
            // the piece by pulling the piece's last element forward.
            let last = end - 1;
            data[start] = data[last];
            if let Some(r) = rowids.as_deref_mut() {
                r[start] = r[last];
            }
            hole = last;
            piece.sorted = false;
            piece.prefix = None;
        }
        // The hole is now the very last slot of the array.
        data.pop();
        if let Some(r) = rowids {
            r.pop();
        }
        // Shrink piece extents: the target piece lost one slot; every later
        // piece shifted left by one.
        pieces[target].end -= 1;
        for piece in pieces.iter_mut().skip(target + 1) {
            piece.start -= 1;
            piece.end -= 1;
        }
        index.drop_empty_pieces();
        index.set_len(data.len());
        true
    }

    /// Whether the column holds `v`: a read-only scan of the one piece whose
    /// bounds admit it. The sharded delete probes with this under the shared
    /// latch before it takes a shard's exclusive latch.
    #[must_use]
    pub fn holds(&self, v: Value) -> bool {
        self.index().find_piece_for_value(v).is_some_and(|t| {
            let p = &self.pieces()[t];
            self.view(p.start..p.end).contains(&v)
        })
    }

    /// Batched ripple deletion: removes one occurrence per element of
    /// `values` (a value listed twice loses two copies) with a **single**
    /// sweep over the piece table, and reports per element whether a copy
    /// was found. The mirror of [`CrackerColumn::ripple_insert_batch`]: the
    /// slots to vacate are located first (one scan of each value's target
    /// piece), the run of survivors behind each hole moves down once by the
    /// number of holes below it, and one pass over the piece table shifts
    /// and shrinks the extents — O(data moved + pieces + K log K) instead of
    /// K full ripples.
    ///
    /// The moves preserve order, so every piece keeps its `sorted` flag;
    /// untouched multisets keep their cached sums and a piece that lost
    /// values has its sum patched by the lost total. Prefix arrays are keyed
    /// to absolute positions, so moved and shrunk pieces drop theirs (a
    /// sorted piece re-seeds it on its next touch or idle pass).
    pub fn ripple_delete_batch(&mut self, values: &[Value]) -> Vec<bool> {
        if values.len() < 2 || self.piece_count() == 0 {
            return values.iter().map(|&v| self.ripple_delete(v)).collect();
        }
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_unstable_by_key(|&i| values[i]);
        let (data, rowids, index) = self.parts_mut();
        let mut found = vec![false; values.len()];
        // The slots to vacate, as `(position, value)`.
        let mut holes: Vec<(usize, Value)> = Vec::with_capacity(values.len());
        // Equal values are adjacent in `order`; the search for the next copy
        // resumes behind the previous hit so each copy is claimed once.
        let mut resume: Option<(Value, usize)> = None;
        for &i in &order {
            let v = values[i];
            let Some(t) = index.find_piece_for_value(v) else {
                continue;
            };
            let p = &index.pieces()[t];
            let from = match resume {
                Some((last, at)) if last == v => at,
                _ => p.start,
            };
            let hit = data[from..p.end]
                .iter()
                .position(|&x| x == v)
                .map(|off| from + off);
            resume = Some((v, hit.map_or(p.end, |h| h + 1)));
            if let Some(h) = hit {
                found[i] = true;
                holes.push((h, v));
            }
        }
        holes.sort_unstable();
        let Some(&(lowest, _)) = holes.first() else {
            return found;
        };
        // Close the holes: one move per hole, whatever the number of pieces
        // the run of survivors behind it spans.
        let positions: Vec<usize> = holes.iter().map(|&(h, _)| h).collect();
        compact_out(data, &positions);
        if let Some(r) = rowids {
            compact_out(r, &positions);
        }
        // One pass over the piece table from the lowest hole's piece up:
        // every piece moves down by the holes below it and shrinks by its
        // own, and a piece left empty leaves the table.
        let pieces = index.pieces_mut();
        let first = pieces.partition_point(|p| p.end <= lowest);
        let (mut at, mut below, mut next_hole) = (0, 0, 0);
        pieces.retain_mut(|p| {
            at += 1;
            if at <= first {
                return true;
            }
            let mut lost: i128 = 0;
            let holes_before = next_hole;
            while let Some(&(_, v)) = holes.get(next_hole).filter(|&&(h, _)| h < p.end) {
                lost += i128::from(v);
                next_hole += 1;
            }
            if next_hole != holes_before {
                p.sum = p.sum.map(|s| s - lost);
            }
            p.start -= below;
            below += next_hole - holes_before;
            p.end -= below;
            p.prefix = None;
            !p.is_empty()
        });
        index.set_len(data.len());
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Vec<Value> {
        vec![40, 10, 70, 20, 90, 60, 30, 80, 50, 15]
    }

    fn expected_count(values: &[Value], lo: Value, hi: Value) -> u64 {
        values.iter().filter(|&&v| v >= lo && v < hi).count() as u64
    }

    /// A column cracked into several pieces, some sorted with prefix
    /// arrays, exercising every cache-coherence path of the batch ripple.
    fn cracked_column(n: i64) -> CrackerColumn {
        let values: Vec<Value> = (0..n).map(|i| (i * 7919) % n).collect();
        let mut c = CrackerColumn::from_values(values);
        let _ = c.crack_select(n / 10, n / 3);
        let _ = c.crack_select(n / 2, 4 * n / 5);
        c
    }

    #[test]
    fn batch_ripple_matches_sequential_ripples() {
        let n = 500i64;
        let batch: Vec<(Value, RowId)> = (0..37)
            .map(|i| (((i * 131) % (n + 40)) - 20, 10_000 + i as RowId))
            .collect();
        let mut one_by_one = cracked_column(n);
        for &(v, r) in &batch {
            one_by_one.ripple_insert(v, r);
        }
        let mut batched = cracked_column(n);
        batched.ripple_insert_batch(&batch);
        assert!(one_by_one.validate());
        assert!(batched.validate());
        let mut a = one_by_one.data().to_vec();
        let mut b = batched.data().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "both forms must hold the same value multiset");
        // Range counts agree with a scan of the reference multiset.
        for (lo, hi) in [(-25, 40), (0, n), (n / 4, n / 2), (n - 5, n + 30)] {
            let expect = a.iter().filter(|&&v| v >= lo && v < hi).count();
            let got = batched.crack_select(lo, hi);
            assert_eq!(got.len(), expect, "range [{lo},{hi})");
            assert!(batched.validate());
        }
    }

    #[test]
    fn batch_ripple_on_fresh_and_tiny_columns_falls_back() {
        // Empty index and sub-threshold batches route through the scalar
        // ripple; both must stay valid.
        let mut c = CrackerColumn::from_values(vec![]);
        c.ripple_insert_batch(&[(5, 0), (1, 1), (3, 2)]);
        assert!(c.validate());
        assert_eq!(c.data().len(), 3);
        let mut c = cracked_column(100);
        c.ripple_insert_batch(&[(42, 7)]);
        assert!(c.validate());
        assert_eq!(c.data().len(), 101);
    }

    #[test]
    fn batch_ripple_preserves_cached_sums_exactly() {
        let n = 400i64;
        let mut c = cracked_column(n);
        let before: i128 = c.data().iter().map(|&v| i128::from(v)).sum();
        let batch: Vec<(Value, RowId)> = vec![(3, 900), (250, 901), (399, 902), (-7, 903)];
        let gained: i128 = batch.iter().map(|&(v, _)| i128::from(v)).sum();
        c.ripple_insert_batch(&batch);
        assert!(c.validate(), "patched sums must survive validation");
        let after: i128 = c.data().iter().map(|&v| i128::from(v)).sum();
        assert_eq!(after, before + gained);
    }

    #[test]
    fn batch_delete_matches_sequential_deletes() {
        let n = 500i64;
        // Held values, absent values, a value listed twice (held once) and
        // enough hits in neighbouring pieces to empty some of them.
        let mut batch: Vec<Value> = (0..41).map(|i| ((i * 131) % (n + 40)) - 20).collect();
        batch.extend([7, 7, 250, 251, 252, 253]);
        let mut one_by_one = cracked_column(n);
        let expected: Vec<bool> = batch.iter().map(|&v| one_by_one.ripple_delete(v)).collect();
        let mut batched = cracked_column(n);
        assert_eq!(batched.ripple_delete_batch(&batch), expected);
        assert!(expected.contains(&true) && expected.contains(&false));
        assert!(one_by_one.validate());
        assert!(batched.validate());
        let mut a = one_by_one.data().to_vec();
        let mut b = batched.data().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "both forms must hold the same value multiset");
        for (lo, hi) in [(-25, 40), (0, n), (n / 4, n / 2), (n - 5, n + 30)] {
            let expect = a.iter().filter(|&&v| v >= lo && v < hi).count();
            let got = batched.crack_select(lo, hi);
            assert_eq!(got.len(), expect, "range [{lo},{hi})");
            assert!(batched.validate());
        }
    }

    #[test]
    fn batch_delete_on_fresh_and_tiny_columns_falls_back() {
        let mut c = CrackerColumn::from_values(vec![]);
        assert_eq!(c.ripple_delete_batch(&[5, 1]), [false, false]);
        let mut c = cracked_column(100);
        assert_eq!(c.ripple_delete_batch(&[42]), [true]);
        assert!(c.validate());
        assert_eq!(c.data().len(), 99);
        // Duplicates claim distinct copies; a third request finds none left.
        let mut c = CrackerColumn::from_values_with_rowids(vec![3, 9, 3, 5]);
        assert_eq!(
            c.ripple_delete_batch(&[3, 3, 3, 9]),
            [true, true, false, true]
        );
        assert!(c.validate());
        assert_eq!(c.data(), &[5]);
        assert_eq!(c.rowids(), Some(&[3][..]));
        // Emptying the column leaves a valid empty index.
        assert_eq!(c.ripple_delete_batch(&[5, 5]), [true, false]);
        assert!(c.validate());
        assert!(c.is_empty());
    }

    #[test]
    fn batch_delete_preserves_cached_sums_and_sortedness() {
        let n = 400i64;
        let mut c = cracked_column(n);
        c.sort_fully();
        let _ = c.crack_select(100, 300);
        let before: i128 = c.data().iter().map(|&v| i128::from(v)).sum();
        let batch: Vec<Value> = vec![3, 250, 399, 120, -7];
        c.ripple_delete_batch(&batch);
        assert!(c.validate(), "patched sums must survive validation");
        let after: i128 = c.data().iter().map(|&v| i128::from(v)).sum();
        assert_eq!(after, before - (3 + 250 + 399 + 120));
        assert_eq!(c.cached_sum_pieces(), c.piece_count(), "sums patched");
        assert!(c.pieces().iter().all(|p| p.sorted), "moves keep order");
    }

    #[test]
    fn select_without_updates_matches_plain_cracking() {
        let mut u = UpdatableCrackerColumn::from_values(base());
        assert_eq!(u.count(20, 60), expected_count(&base(), 20, 60));
        assert!(u.validate());
        assert_eq!(u.logical_len(), base().len());
    }

    #[test]
    fn pending_insert_becomes_visible_when_range_is_queried() {
        let mut u = UpdatableCrackerColumn::from_values(base());
        // Crack a bit first so merging has to ripple through several pieces.
        let _ = u.select(20, 60);
        u.insert(45);
        u.insert(200);
        assert_eq!(u.pending_inserts(), 2);
        let count = u.count(40, 50);
        assert_eq!(count, expected_count(&base(), 40, 50) + 1);
        // Only the in-range insert was merged.
        assert_eq!(u.pending_inserts(), 1);
        assert!(u.validate());
        assert_eq!(u.merged_updates().0, 1);
        // The other insert shows up once its range is touched.
        assert_eq!(u.count(150, 250), 1);
        assert_eq!(u.pending_inserts(), 0);
    }

    #[test]
    fn pending_delete_removes_value_when_range_is_queried() {
        let mut u = UpdatableCrackerColumn::from_values(base());
        let _ = u.select(20, 60);
        let _ = u.select(60, 95);
        u.delete(70);
        u.delete(999); // not present: merge must not fail
        let count = u.count(60, 95);
        assert_eq!(count, expected_count(&base(), 60, 95) - 1);
        assert!(u.validate());
        assert_eq!(u.merged_updates().1, 1);
        assert_eq!(u.cracker().len(), base().len() - 1);
    }

    #[test]
    fn insert_then_delete_before_merge_cancels_out() {
        let mut u = UpdatableCrackerColumn::from_values(base());
        u.insert(55);
        u.delete(55);
        assert_eq!(u.count(0, 1000), expected_count(&base(), 0, 1000));
        assert_eq!(u.merged_updates(), (0, 0));
        assert!(u.validate());
    }

    #[test]
    fn merge_all_flushes_everything() {
        let mut u = UpdatableCrackerColumn::from_values(base());
        let _ = u.select(20, 60); // create some pieces
        for v in [5, 25, 45, 65, 85, 105] {
            u.insert(v);
        }
        u.delete(10);
        u.delete(90);
        u.merge_all();
        assert_eq!(u.pending_inserts(), 0);
        assert_eq!(u.pending_deletes(), 0);
        assert!(u.validate());
        assert_eq!(u.cracker().len(), base().len() + 6 - 2);
        assert_eq!(u.count(0, 1000), expected_count(&base(), 0, 1000) + 6 - 2);
    }

    #[test]
    fn rowids_stay_consistent_under_updates() {
        let mut u = UpdatableCrackerColumn::from_values_with_rowids(base());
        let _ = u.select(20, 60);
        u.insert(33);
        u.insert(77);
        u.delete(40);
        u.merge_all();
        assert!(u.validate());
        let r = u.select(0, 1000);
        let values = u.view(r.clone()).to_vec();
        let rowids = u.cracker().rowids_in(r).unwrap().to_vec();
        assert_eq!(values.len(), rowids.len());
        assert_eq!(values.len(), base().len() + 2 - 1);
        // Original rowids still address their original values; new rowids
        // belong to the two inserted values.
        for (v, id) in values.iter().zip(rowids.iter()) {
            if (*id as usize) < base().len() {
                assert_eq!(base()[*id as usize], *v);
            } else {
                assert!([33, 77].contains(v), "unexpected inserted value {v}");
            }
        }
        // The deleted value is gone.
        assert!(!values.contains(&40));
    }

    #[test]
    fn many_interleaved_updates_and_queries_stay_correct() {
        let mut reference: Vec<Value> = (0..200i64).map(|i| (i * 37) % 500).collect();
        let mut u = UpdatableCrackerColumn::from_values(reference.clone());
        let mut next = 1000;
        for step in 0usize..50 {
            let lo = (step as Value * 13) % 480;
            let hi = lo + 40;
            assert_eq!(
                u.count(lo, hi),
                expected_count(&reference, lo, hi),
                "step {step}"
            );
            assert!(u.validate(), "invariants at step {step}");
            // Interleave updates.
            if step % 3 == 0 {
                let v = (step as Value * 7) % 500;
                u.insert(v);
                reference.push(v);
            }
            if step % 5 == 0 {
                let v = reference[step];
                u.delete(v);
                let pos = reference.iter().position(|&x| x == v).unwrap();
                reference.remove(pos);
            }
            if step % 7 == 0 {
                u.insert(next);
                reference.push(next);
                next += 1;
            }
        }
        u.merge_all();
        assert_eq!(u.count(0, 2000), reference.len() as u64);
    }

    /// Every cached piece sum must equal a fresh scan of the piece's slice.
    fn assert_sums_match_fresh_scan(u: &UpdatableCrackerColumn) {
        let data = u.cracker().data();
        for (i, p) in u.cracker().pieces().iter().enumerate() {
            if let Some(sum) = p.sum {
                let fresh: i128 = data[p.start..p.end].iter().map(|&v| i128::from(v)).sum();
                assert_eq!(sum, fresh, "piece {i} cached sum diverged from data");
            }
        }
    }

    #[test]
    fn aggregate_cache_stays_coherent_through_interleaved_updates() {
        // Regression for the update-merge path: ripple insertion/deletion
        // must patch the per-piece sums (target piece only; rippled pieces
        // keep their multiset), so cached aggregates never go stale.
        let mut reference: Vec<Value> = (0..300i64).map(|i| (i * 73) % 700).collect();
        let mut u = UpdatableCrackerColumn::from_values_with_rowids(reference.clone());
        // Crack a few times so the cache is populated before updates hit it.
        for &(lo, hi) in &[(50, 200), (400, 650), (0, 700)] {
            let _ = u.select(lo, hi);
        }
        assert!(u.cracker().cached_sum_pieces() > 0, "cache must be seeded");
        let scan_sum = |values: &[Value], lo: Value, hi: Value| -> i128 {
            values
                .iter()
                .filter(|&&v| v >= lo && v < hi)
                .map(|&v| i128::from(v))
                .sum()
        };
        for step in 0usize..60 {
            let lo = (step as Value * 31) % 650;
            let hi = lo + 50;
            match step % 4 {
                0 => {
                    let v = (step as Value * 17) % 700;
                    u.insert(v);
                    reference.push(v);
                }
                1 => {
                    let v = reference[(step * 7) % reference.len()];
                    u.delete(v);
                    let pos = reference.iter().position(|&x| x == v).unwrap();
                    reference.remove(pos);
                }
                _ => {}
            }
            let r = u.select(lo, hi);
            assert_eq!(
                r.end - r.start,
                reference.iter().filter(|&&v| v >= lo && v < hi).count(),
                "count at step {step}"
            );
            // The cached aggregate equals a fresh scan of the reference.
            let agg = u.cracker().aggregate_range(r, lo, hi);
            assert_eq!(agg.sum, scan_sum(&reference, lo, hi), "sum at step {step}");
            assert_sums_match_fresh_scan(&u);
            assert!(u.validate(), "invariants at step {step}");
        }
        u.merge_all();
        assert_sums_match_fresh_scan(&u);
        let r = u.select(0, 1000);
        let agg = u.cracker().aggregate_range(r, 0, 1000);
        assert_eq!(agg.sum, scan_sum(&reference, 0, 1000));
        assert_eq!(agg.count as usize, reference.len());
    }

    #[test]
    fn sorted_piece_survives_updates_with_a_patched_prefix() {
        // A fully sorted, prefix-seeded column keeps its sorted pieces
        // sorted — and their prefix arrays live — through insert/delete
        // merges: the ripple patches the suffix instead of discarding.
        let mut u = UpdatableCrackerColumn::from_values_with_rowids(base());
        u.sort_fully();
        assert_eq!(u.cracker().prefix_pieces(), 1);
        let mut reference = base();
        for (step, &(ins, del)) in [(45, 40), (12, 90), (100, 15), (33, 45)].iter().enumerate() {
            u.insert(ins);
            reference.push(ins);
            u.delete(del);
            let pos = reference.iter().position(|&x| x == del).unwrap();
            reference.remove(pos);
            u.merge_all();
            assert!(u.validate(), "step {step}");
            let c = u.cracker();
            assert!(
                c.pieces().iter().all(|p| p.sorted),
                "step {step}: the single sorted piece must stay sorted"
            );
            assert_eq!(
                c.prefix_pieces(),
                c.piece_count(),
                "step {step}: prefix patched, not discarded"
            );
            assert_sums_match_fresh_scan(&u);
            // Interior aggregates stay zero-read through the updates.
            let r = c.select_if_answerable(20, 80).expect("sorted + prefix");
            let agg = c.aggregate_range(r, 20, 80);
            let expected: i128 = reference
                .iter()
                .filter(|&&v| (20..80).contains(&v))
                .map(|&v| i128::from(v))
                .sum();
            assert_eq!(agg.sum, expected, "step {step}");
            assert_eq!(agg.scanned_values, 0, "step {step}");
        }
    }

    #[test]
    fn oversized_sorted_pieces_fall_back_to_cheap_placement() {
        // Above MAX_PATCHED_PIECE_LEN the O(piece) patch would make every
        // merged update unboundedly expensive, so the ripple reverts to the
        // O(1) placement: sorted + prefix are given up, sums stay patched,
        // answers stay exact.
        let n = MAX_PATCHED_PIECE_LEN + 64;
        let mut u = UpdatableCrackerColumn::from_values((0..n as Value).collect());
        u.sort_fully();
        assert_eq!(u.cracker().prefix_pieces(), 1);
        u.insert(5);
        u.merge_all();
        assert!(u.validate());
        let c = u.cracker();
        assert!(
            c.pieces().iter().all(|p| !p.sorted && p.prefix.is_none()),
            "oversized piece must take the O(1) fallback"
        );
        assert_eq!(c.cached_sum_pieces(), c.piece_count(), "sum still patched");
        assert_eq!(u.count(0, 10), 11);
    }

    #[test]
    fn empty_column_accepts_inserts() {
        let mut u = UpdatableCrackerColumn::from_values(vec![]);
        u.insert(5);
        u.insert(1);
        assert_eq!(u.count(0, 10), 2);
        assert!(u.validate());
        u.delete(5);
        assert_eq!(u.count(0, 10), 1);
        assert!(u.validate());
    }
}

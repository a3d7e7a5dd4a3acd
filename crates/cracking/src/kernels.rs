//! In-place partitioning kernels.
//!
//! These are the physical reorganization primitives of database cracking:
//! `crack_in_two` splits a piece around one pivot (used when a query bound
//! falls into a piece), `crack_in_three` splits a piece around two pivots in
//! a single logical step (used when both bounds of a range query fall into
//! the same piece), and `crack_in_k` splits a piece around an arbitrary
//! sorted pivot set in one kernel invocation (used by batched execution,
//! where all of a batch's predicate bounds landing in a piece are resolved
//! together). All exist in a plain form and in a form that permutes a
//! parallel row-id array, which is what enables tuple reconstruction
//! (projections of other attributes) after cracking.
//!
//! # Range contract
//!
//! Every kernel and every caller in this crate uses **half-open ranges**:
//! a bound pair `(lo, hi)` always means the value interval `[lo, hi)` —
//! `lo` inclusive, `hi` exclusive. Concretely:
//!
//! * `crack_in_two(data, pivot)` puts values `< pivot` on the left and
//!   values `>= pivot` on the right, returning the index of the first
//!   value `>= pivot`;
//! * `crack_in_three(data, lo, hi)` produces the regions `< lo`,
//!   `[lo, hi)` and `>= hi`;
//! * a **degenerate** bound pair with `hi <= lo` denotes the empty interval:
//!   every `crack_in_three` variant (branchy and predicated, with and
//!   without row ids) then performs exactly one `crack_in_two` at `lo` and
//!   returns `(a, a)` — the data is still usefully partitioned at `lo`, the
//!   middle region is empty, and the only boundary a caller may record in a
//!   piece index is the one for `lo` (no boundary for `hi` materializes).
//!
//! # Physical forms
//!
//! Each kernel comes in two public flavors, and the predicated sum-fused
//! two-way kernel has a third, vector, implementation under it:
//!
//! * the **branchy** reference form (`crack_in_two`, …) uses the classic
//!   two-pointer / Dutch-national-flag loops whose `if value < pivot`
//!   branch is data-dependent — on uniform-random pieces it mispredicts
//!   roughly every other element, stalling the pipeline;
//! * the **predicated** form (`crack_in_two_pred`, …) replaces the branch
//!   with arithmetic on the comparison result: an unconditional swap plus a
//!   cursor advanced by `(value < pivot) as usize`. Every iteration executes
//!   the same instruction stream, so there is nothing to mispredict, at the
//!   price of always paying the swap's loads and stores;
//! * the **vector** form (private module `simd`) is an in-place AVX-512
//!   compress partition under [`crack_in_two_sums_pred`] and
//!   [`crack_in_two_with_rowids_sums_pred`] — and so under the three-way
//!   (two passes) and `crack_in_k` (recursive sweeps) sum-fused predicated
//!   kernels that call them, which are the kernels production runs. It is
//!   picked at run time, with no setting: it runs when the CPU has
//!   AVX-512F (plus AVX-512VL for row ids) and the piece has at least 16
//!   values. Otherwise the scalar predicated loop runs unchanged; it is the
//!   one fallback, kept because hosts without AVX-512 need it and because
//!   the vector form's two saved 8-value vectors need 16 values. The
//!   partition saves the first and last 8 values in registers, then loads
//!   8 values at a time from the side with less free space and writes
//!   both sides with one full-vector store each. Its **free-space
//!   invariant**: the free slots always number 16 between steps, so after
//!   a load both sides hold at least 8 and neither store can leave the
//!   piece or overwrite an unread value. Sums are fused and exact (32-bit
//!   halves summed in 64-bit lanes, reduced to `i128` once). The
//!   plain (non-sum) predicated kernels stay scalar: production does not
//!   call them.
//!
//! The vector and scalar predicated forms produce the same split and the
//! same sums; like branchy and predicated, they may differ only in the
//! order *within* each side.
//!
//! Mispredict stalls dominate on large out-of-cache pieces, while the extra
//! memory traffic of predication is felt most when a piece is cache
//! resident. [`CrackKernel`] packages the choice between branchy and
//! predicated: `Auto` dispatches to the branchy form below a piece-length
//! threshold and to the predicated form from it on; the measurements that
//! set [`DEFAULT_PREDICATION_THRESHOLD`] found predication ahead at every
//! size measured.

use crate::{RowId, Value};

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd;

/// Partitions `data` in place so that all values `< pivot` precede all
/// values `>= pivot`. Returns the index of the first value `>= pivot`
/// (equivalently, the number of values `< pivot`).
///
/// Branchy reference implementation (two-pointer loop).
pub fn crack_in_two(data: &mut [Value], pivot: Value) -> usize {
    if data.is_empty() {
        return 0;
    }
    let mut lo = 0usize;
    let mut hi = data.len();
    while lo < hi {
        if data[lo] < pivot {
            lo += 1;
        } else {
            hi -= 1;
            data.swap(lo, hi);
        }
    }
    lo
}

/// Like [`crack_in_two`], but keeps a parallel `rowids` array aligned with
/// the values (every swap is mirrored).
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths.
pub fn crack_in_two_with_rowids(data: &mut [Value], rowids: &mut [RowId], pivot: Value) -> usize {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    if data.is_empty() {
        return 0;
    }
    let mut lo = 0usize;
    let mut hi = data.len();
    while lo < hi {
        if data[lo] < pivot {
            lo += 1;
        } else {
            hi -= 1;
            data.swap(lo, hi);
            rowids.swap(lo, hi);
        }
    }
    lo
}

/// Branch-free variant of [`crack_in_two`].
///
/// A predicated Lomuto partition: the write cursor trails the read cursor,
/// every examined element is swapped to the write position unconditionally,
/// and the write cursor advances by `(value < pivot) as usize`. The region
/// `data[write..read]` only ever holds values `>= pivot`, so the
/// unconditional swap is a no-op exactly when the element should stay —
/// correctness never depends on the comparison being taken as a branch,
/// which is what lets the compiler emit straight-line code.
///
/// Same contract and return value as [`crack_in_two`]; only the resulting
/// order *within* each side of the partition may differ.
pub fn crack_in_two_pred(data: &mut [Value], pivot: Value) -> usize {
    let mut write = 0usize;
    for read in 0..data.len() {
        let lt = usize::from(data[read] < pivot);
        data.swap(write, read);
        write += lt;
    }
    write
}

/// Branch-free variant of [`crack_in_two_with_rowids`] (see
/// [`crack_in_two_pred`] for the technique).
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths.
pub fn crack_in_two_with_rowids_pred(
    data: &mut [Value],
    rowids: &mut [RowId],
    pivot: Value,
) -> usize {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    let mut write = 0usize;
    for read in 0..data.len() {
        let lt = usize::from(data[read] < pivot);
        data.swap(write, read);
        rowids.swap(write, read);
        write += lt;
    }
    write
}

/// Partitions `data` in place into three regions in a single pass:
/// values `< lo`, values in `[lo, hi)`, and values `>= hi`.
///
/// Returns `(a, b)` such that `data[..a] < lo`, `lo <= data[a..b] < hi`, and
/// `data[b..] >= hi`.
///
/// If `hi <= lo` (degenerate empty interval) the call performs a single
/// [`crack_in_two`] at `lo` and returns `(a, a)`; see the module docs for
/// the full degenerate-range contract.
///
/// Branchy reference implementation (Dutch-national-flag pass).
pub fn crack_in_three(data: &mut [Value], lo: Value, hi: Value) -> (usize, usize) {
    if hi <= lo {
        let a = crack_in_two(data, lo);
        return (a, a);
    }
    let mut lt = 0usize; // data[..lt] < lo
    let mut i = 0usize; // data[lt..i] in [lo, hi)
    let mut gt = data.len(); // data[gt..] >= hi
    while i < gt {
        let v = data[i];
        if v < lo {
            data.swap(i, lt);
            lt += 1;
            i += 1;
        } else if v >= hi {
            gt -= 1;
            data.swap(i, gt);
        } else {
            i += 1;
        }
    }
    (lt, gt)
}

/// Like [`crack_in_three`], but keeps a parallel `rowids` array aligned.
///
/// The degenerate `hi <= lo` interval behaves exactly like the plain form:
/// one [`crack_in_two_with_rowids`] at `lo`, returning `(a, a)`.
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths.
pub fn crack_in_three_with_rowids(
    data: &mut [Value],
    rowids: &mut [RowId],
    lo: Value,
    hi: Value,
) -> (usize, usize) {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    if hi <= lo {
        let a = crack_in_two_with_rowids(data, rowids, lo);
        return (a, a);
    }
    let mut lt = 0usize;
    let mut i = 0usize;
    let mut gt = data.len();
    while i < gt {
        let v = data[i];
        if v < lo {
            data.swap(i, lt);
            rowids.swap(i, lt);
            lt += 1;
            i += 1;
        } else if v >= hi {
            gt -= 1;
            data.swap(i, gt);
            rowids.swap(i, gt);
        } else {
            i += 1;
        }
    }
    (lt, gt)
}

/// Branch-free variant of [`crack_in_three`].
///
/// A three-way partition cannot be predicated as a single pass without
/// introducing data-dependent stores at both ends of the piece, so the
/// predicated form runs two branch-free [`crack_in_two_pred`] passes: first
/// at `lo` over the whole piece, then at `hi` over the upper remainder.
/// Each pass is straight-line code; the second touches only `data[a..]`.
///
/// Same contract and return value as [`crack_in_three`], including the
/// degenerate `hi <= lo` behavior.
pub fn crack_in_three_pred(data: &mut [Value], lo: Value, hi: Value) -> (usize, usize) {
    if hi <= lo {
        let a = crack_in_two_pred(data, lo);
        return (a, a);
    }
    let a = crack_in_two_pred(data, lo);
    let b = a + crack_in_two_pred(&mut data[a..], hi);
    (a, b)
}

/// Branch-free variant of [`crack_in_three_with_rowids`] (see
/// [`crack_in_three_pred`]).
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths.
pub fn crack_in_three_with_rowids_pred(
    data: &mut [Value],
    rowids: &mut [RowId],
    lo: Value,
    hi: Value,
) -> (usize, usize) {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    if hi <= lo {
        let a = crack_in_two_with_rowids_pred(data, rowids, lo);
        return (a, a);
    }
    let a = crack_in_two_with_rowids_pred(data, rowids, lo);
    let b = a + crack_in_two_with_rowids_pred(&mut data[a..], &mut rowids[a..], hi);
    (a, b)
}

// ---------------------------------------------------------------------
// Multi-pivot kernels (batched cracking)
// ---------------------------------------------------------------------

fn assert_pivots_increasing(pivots: &[Value]) {
    assert!(
        pivots.windows(2).all(|w| w[0] < w[1]),
        "pivots must be strictly increasing"
    );
}

/// Shared engine of the `crack_in_k` family: recursive median-pivot
/// partitioning. The piece is partitioned around the *middle* pivot with one
/// streaming two-way pass, then each half recurses on its pivot subset, so
/// `k` pivots cost `O(n log k)` total work in `log k` perfectly balanced
/// sweeps instead of the `O(n k)` that `k` separate [`crack_in_two`] calls
/// would pay on a piece none of them shrinks much.
///
/// This shape was chosen over a classify-and-permute single pass (counting
/// pass + in-place cycle placement) after measuring both: the cycle walk's
/// per-element classification forms a serial dependency chain the CPU cannot
/// overlap, making it 7–18× *slower* at 1M values than these tight two-way
/// sweeps, which stream with full ILP and hardware prefetch (see
/// `benches/micro_crack_kernels.rs`).
fn crack_in_k_rec(
    data: &mut [Value],
    rowids: Option<&mut [RowId]>,
    pivots: &[Value],
    offset: usize,
    boundaries: &mut [usize],
    predicated: bool,
) {
    if pivots.is_empty() {
        return;
    }
    let mid = pivots.len() / 2;
    let pivot = pivots[mid];
    let mut rowids = rowids;
    let split = match (&mut rowids, predicated) {
        (Some(ids), true) => crack_in_two_with_rowids_pred(data, ids, pivot),
        (Some(ids), false) => crack_in_two_with_rowids(data, ids, pivot),
        (None, true) => crack_in_two_pred(data, pivot),
        (None, false) => crack_in_two(data, pivot),
    };
    boundaries[mid] = offset + split;
    let (left_data, right_data) = data.split_at_mut(split);
    let (left_ids, right_ids) = match rowids {
        Some(ids) => {
            let (a, b) = ids.split_at_mut(split);
            (Some(a), Some(b))
        }
        None => (None, None),
    };
    let (left_bounds, rest) = boundaries.split_at_mut(mid);
    crack_in_k_rec(
        left_data,
        left_ids,
        &pivots[..mid],
        offset,
        left_bounds,
        predicated,
    );
    crack_in_k_rec(
        right_data,
        right_ids,
        &pivots[mid + 1..],
        offset + split,
        &mut rest[1..],
        predicated,
    );
}

/// Partitions `data` in place around all of `pivots` (strictly increasing)
/// at once, producing `k + 1` value-ordered regions: values `< pivots[0]`,
/// `[pivots[0], pivots[1])`, …, values `>= pivots[k-1]`.
///
/// Returns one boundary per pivot: `boundaries[i]` is the index of the
/// first value `>= pivots[i]` (equivalently the number of values
/// `< pivots[i]`) — exactly what `k` separate [`crack_in_two`] calls would
/// return, but computed with `O(n log k)` recursive median-pivot sweeps
/// instead of `k` full passes.
///
/// An empty pivot list moves nothing and returns an empty vector.
///
/// Branchy reference form (two-pointer sweeps).
///
/// # Panics
///
/// Panics if `pivots` is not strictly increasing.
pub fn crack_in_k(data: &mut [Value], pivots: &[Value]) -> Vec<usize> {
    assert_pivots_increasing(pivots);
    let mut boundaries = vec![0usize; pivots.len()];
    crack_in_k_rec(data, None, pivots, 0, &mut boundaries, false);
    boundaries
}

/// Branch-free variant of [`crack_in_k`]: every recursive sweep is a
/// predicated [`crack_in_two_pred`] pass, so random pivots cannot stall the
/// pipeline on any level.
///
/// # Panics
///
/// Panics if `pivots` is not strictly increasing.
pub fn crack_in_k_pred(data: &mut [Value], pivots: &[Value]) -> Vec<usize> {
    assert_pivots_increasing(pivots);
    let mut boundaries = vec![0usize; pivots.len()];
    crack_in_k_rec(data, None, pivots, 0, &mut boundaries, true);
    boundaries
}

/// Like [`crack_in_k`], but keeps a parallel `rowids` array aligned with
/// the values (every swap is mirrored).
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths, or if `pivots` is
/// not strictly increasing.
pub fn crack_in_k_with_rowids(
    data: &mut [Value],
    rowids: &mut [RowId],
    pivots: &[Value],
) -> Vec<usize> {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    assert_pivots_increasing(pivots);
    let mut boundaries = vec![0usize; pivots.len()];
    crack_in_k_rec(data, Some(rowids), pivots, 0, &mut boundaries, false);
    boundaries
}

/// Branch-free variant of [`crack_in_k_with_rowids`] (see
/// [`crack_in_k_pred`]).
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths, or if `pivots` is
/// not strictly increasing.
pub fn crack_in_k_with_rowids_pred(
    data: &mut [Value],
    rowids: &mut [RowId],
    pivots: &[Value],
) -> Vec<usize> {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    assert_pivots_increasing(pivots);
    let mut boundaries = vec![0usize; pivots.len()];
    crack_in_k_rec(data, Some(rowids), pivots, 0, &mut boundaries, true);
    boundaries
}

// ---------------------------------------------------------------------
// Sum-fused kernels (aggregate-cache by-products)
// ---------------------------------------------------------------------

/// Split position plus the value sums of both sides of one two-way
/// partitioning pass.
///
/// The sums are a *fused by-product*: the partitioning sweep already streams
/// every value of the piece through a register, so accumulating `lo_sum`
/// (values `< pivot`) and `total_sum` costs two adds per element and no
/// extra pass. `total_sum - lo_sum` is the sum of the `>= pivot` side.
/// This is what feeds the per-piece aggregate cache — piece sums are
/// produced while the data is already in cache, never by re-reading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoWaySums {
    /// Index of the first value `>= pivot` (same as [`crack_in_two`]).
    pub split: usize,
    /// Sum of the values `< pivot`.
    pub lo_sum: i128,
    /// Sum of *all* values in the piece.
    pub total_sum: i128,
}

impl TwoWaySums {
    /// Sum of the values `>= pivot`.
    #[must_use]
    pub fn hi_sum(&self) -> i128 {
        self.total_sum - self.lo_sum
    }
}

/// Region boundaries plus per-region sums of one three-way partitioning
/// pass (see [`TwoWaySums`] for the fusion rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreeWaySums {
    /// Index of the first value `>= lo` (same as [`crack_in_three`]).
    pub a: usize,
    /// Index of the first value `>= hi`.
    pub b: usize,
    /// Sums of the three regions `< lo`, `[lo, hi)` and `>= hi`. For the
    /// degenerate `hi <= lo` interval the middle sum is 0.
    pub sums: [i128; 3],
}

/// Boundaries plus per-segment sums of one multi-pivot pass: `k` pivots
/// produce `k + 1` segments, `segment_sums[i]` being the sum of the values
/// between boundary `i - 1` and boundary `i` (see [`TwoWaySums`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWaySums {
    /// One boundary per pivot (same as [`crack_in_k`]).
    pub boundaries: Vec<usize>,
    /// One sum per segment (`boundaries.len() + 1` entries).
    pub segment_sums: Vec<i128>,
}

/// Sum-fused [`crack_in_two`]: same partitioning, plus both side sums.
pub fn crack_in_two_sums(data: &mut [Value], pivot: Value) -> TwoWaySums {
    let mut lo = 0usize;
    let mut hi = data.len();
    let mut lo_sum = 0i128;
    let mut total_sum = 0i128;
    while lo < hi {
        let v = data[lo];
        // Each element is examined (and counted) exactly once: `< pivot`
        // elements when the cursor passes them, `>= pivot` elements when
        // they are swapped out to the tail.
        total_sum += i128::from(v);
        if v < pivot {
            lo_sum += i128::from(v);
            lo += 1;
        } else {
            hi -= 1;
            data.swap(lo, hi);
        }
    }
    TwoWaySums {
        split: lo,
        lo_sum,
        total_sum,
    }
}

/// Sum-fused [`crack_in_two_pred`] (branch-free, see [`TwoWaySums`]).
///
/// Runs the AVX-512 compress partition when the CPU has it and the piece
/// has at least 16 values, the scalar predicated loop otherwise (see
/// "Physical forms" in the module docs).
pub fn crack_in_two_sums_pred(data: &mut [Value], pivot: Value) -> TwoWaySums {
    #[cfg(target_arch = "x86_64")]
    if let Some(sums) = simd::crack_in_two_sums(data, pivot) {
        return sums;
    }
    crack_in_two_sums_scalar(data, pivot)
}

/// The scalar predicated loop behind [`crack_in_two_sums_pred`]: what
/// runs on hosts without AVX-512 and on pieces under 16 values. Public so
/// that benches can price the vector form against it; production calls
/// [`crack_in_two_sums_pred`].
pub fn crack_in_two_sums_scalar(data: &mut [Value], pivot: Value) -> TwoWaySums {
    let mut write = 0usize;
    let mut lo_sum = 0i128;
    let mut total_sum = 0i128;
    for read in 0..data.len() {
        let v = data[read];
        let lt = v < pivot;
        // Branch-free masked accumulation, same trick as the storage scans.
        let mask = -(i64::from(lt));
        lo_sum += i128::from(v & mask);
        total_sum += i128::from(v);
        data.swap(write, read);
        write += usize::from(lt);
    }
    TwoWaySums {
        split: write,
        lo_sum,
        total_sum,
    }
}

/// Sum-fused [`crack_in_two_with_rowids`].
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths.
pub fn crack_in_two_with_rowids_sums(
    data: &mut [Value],
    rowids: &mut [RowId],
    pivot: Value,
) -> TwoWaySums {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    let mut lo = 0usize;
    let mut hi = data.len();
    let mut lo_sum = 0i128;
    let mut total_sum = 0i128;
    while lo < hi {
        let v = data[lo];
        total_sum += i128::from(v);
        if v < pivot {
            lo_sum += i128::from(v);
            lo += 1;
        } else {
            hi -= 1;
            data.swap(lo, hi);
            rowids.swap(lo, hi);
        }
    }
    TwoWaySums {
        split: lo,
        lo_sum,
        total_sum,
    }
}

/// Sum-fused [`crack_in_two_with_rowids_pred`].
///
/// Runs the AVX-512 compress partition (row ids moved with the same masks)
/// when the CPU has AVX-512F/VL and the piece has at least 16 values, the
/// scalar predicated loop otherwise.
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths.
pub fn crack_in_two_with_rowids_sums_pred(
    data: &mut [Value],
    rowids: &mut [RowId],
    pivot: Value,
) -> TwoWaySums {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    #[cfg(target_arch = "x86_64")]
    if let Some(sums) = simd::crack_in_two_with_rowids_sums(data, rowids, pivot) {
        return sums;
    }
    crack_in_two_with_rowids_sums_scalar(data, rowids, pivot)
}

/// The scalar predicated loop behind
/// [`crack_in_two_with_rowids_sums_pred`] (lengths already checked).
fn crack_in_two_with_rowids_sums_scalar(
    data: &mut [Value],
    rowids: &mut [RowId],
    pivot: Value,
) -> TwoWaySums {
    let mut write = 0usize;
    let mut lo_sum = 0i128;
    let mut total_sum = 0i128;
    for read in 0..data.len() {
        let v = data[read];
        let lt = v < pivot;
        let mask = -(i64::from(lt));
        lo_sum += i128::from(v & mask);
        total_sum += i128::from(v);
        data.swap(write, read);
        rowids.swap(write, read);
        write += usize::from(lt);
    }
    TwoWaySums {
        split: write,
        lo_sum,
        total_sum,
    }
}

/// Sum-fused [`crack_in_three`]: region boundaries plus all three region
/// sums from the single Dutch-national-flag pass. Degenerate `hi <= lo`
/// performs one [`crack_in_two_sums`] at `lo` (empty middle, sum 0).
pub fn crack_in_three_sums(data: &mut [Value], lo: Value, hi: Value) -> ThreeWaySums {
    if hi <= lo {
        let two = crack_in_two_sums(data, lo);
        return ThreeWaySums {
            a: two.split,
            b: two.split,
            sums: [two.lo_sum, 0, two.hi_sum()],
        };
    }
    let mut lt = 0usize;
    let mut i = 0usize;
    let mut gt = data.len();
    let mut sums = [0i128; 3];
    while i < gt {
        let v = data[i];
        if v < lo {
            sums[0] += i128::from(v);
            data.swap(i, lt);
            lt += 1;
            i += 1;
        } else if v >= hi {
            sums[2] += i128::from(v);
            gt -= 1;
            data.swap(i, gt);
        } else {
            sums[1] += i128::from(v);
            i += 1;
        }
    }
    ThreeWaySums { a: lt, b: gt, sums }
}

/// Sum-fused [`crack_in_three_pred`]: two branch-free
/// [`crack_in_two_sums_pred`] passes, region sums composed from the pass
/// totals.
pub fn crack_in_three_sums_pred(data: &mut [Value], lo: Value, hi: Value) -> ThreeWaySums {
    if hi <= lo {
        let two = crack_in_two_sums_pred(data, lo);
        return ThreeWaySums {
            a: two.split,
            b: two.split,
            sums: [two.lo_sum, 0, two.hi_sum()],
        };
    }
    let first = crack_in_two_sums_pred(data, lo);
    let second = crack_in_two_sums_pred(&mut data[first.split..], hi);
    ThreeWaySums {
        a: first.split,
        b: first.split + second.split,
        sums: [first.lo_sum, second.lo_sum, second.hi_sum()],
    }
}

/// Sum-fused [`crack_in_three_with_rowids`].
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths.
pub fn crack_in_three_with_rowids_sums(
    data: &mut [Value],
    rowids: &mut [RowId],
    lo: Value,
    hi: Value,
) -> ThreeWaySums {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    if hi <= lo {
        let two = crack_in_two_with_rowids_sums(data, rowids, lo);
        return ThreeWaySums {
            a: two.split,
            b: two.split,
            sums: [two.lo_sum, 0, two.hi_sum()],
        };
    }
    let mut lt = 0usize;
    let mut i = 0usize;
    let mut gt = data.len();
    let mut sums = [0i128; 3];
    while i < gt {
        let v = data[i];
        if v < lo {
            sums[0] += i128::from(v);
            data.swap(i, lt);
            rowids.swap(i, lt);
            lt += 1;
            i += 1;
        } else if v >= hi {
            sums[2] += i128::from(v);
            gt -= 1;
            data.swap(i, gt);
            rowids.swap(i, gt);
        } else {
            sums[1] += i128::from(v);
            i += 1;
        }
    }
    ThreeWaySums { a: lt, b: gt, sums }
}

/// Sum-fused [`crack_in_three_with_rowids_pred`].
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths.
pub fn crack_in_three_with_rowids_sums_pred(
    data: &mut [Value],
    rowids: &mut [RowId],
    lo: Value,
    hi: Value,
) -> ThreeWaySums {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    if hi <= lo {
        let two = crack_in_two_with_rowids_sums_pred(data, rowids, lo);
        return ThreeWaySums {
            a: two.split,
            b: two.split,
            sums: [two.lo_sum, 0, two.hi_sum()],
        };
    }
    let first = crack_in_two_with_rowids_sums_pred(data, rowids, lo);
    let second = crack_in_two_with_rowids_sums_pred(
        &mut data[first.split..],
        &mut rowids[first.split..],
        hi,
    );
    ThreeWaySums {
        a: first.split,
        b: first.split + second.split,
        sums: [first.lo_sum, second.lo_sum, second.hi_sum()],
    }
}

/// Sum-fused twin of [`crack_in_k_rec`]: every recursive sweep is a fused
/// two-way pass, and each recursion leaf records its segment's sum. The
/// parent knows every child subrange's total (left = `lo_sum`, right =
/// `total - lo_sum` of its own pass), so leaves with no pivots left assign
/// `subrange_sum` without ever touching the data again — the whole segment
/// sum vector is a by-product of the `log k` sweeps the partitioning does
/// anyway.
#[allow(clippy::too_many_arguments)]
fn crack_in_k_rec_sums(
    data: &mut [Value],
    rowids: Option<&mut [RowId]>,
    pivots: &[Value],
    offset: usize,
    subrange_sum: Option<i128>,
    boundaries: &mut [usize],
    segment_sums: &mut [i128],
    predicated: bool,
) {
    if pivots.is_empty() {
        // Every recursive call passes `Some` for the leaf (the parent
        // computes the child sums before recursing); a `None` here is a
        // kernel bug no fallback could hide, so abort over a wrong sum.
        // lint:allow(panic-path)
        segment_sums[0] = subrange_sum.expect("leaf segments always have a parent-computed sum");
        return;
    }
    let mid = pivots.len() / 2;
    let pivot = pivots[mid];
    let mut rowids = rowids;
    let pass = match (&mut rowids, predicated) {
        (Some(ids), true) => crack_in_two_with_rowids_sums_pred(data, ids, pivot),
        (Some(ids), false) => crack_in_two_with_rowids_sums(data, ids, pivot),
        (None, true) => crack_in_two_sums_pred(data, pivot),
        (None, false) => crack_in_two_sums(data, pivot),
    };
    if let Some(s) = subrange_sum {
        debug_assert_eq!(pass.total_sum, s, "pass total must match parent");
    }
    boundaries[mid] = offset + pass.split;
    let (left_data, right_data) = data.split_at_mut(pass.split);
    let (left_ids, right_ids) = match rowids {
        Some(ids) => {
            let (a, b) = ids.split_at_mut(pass.split);
            (Some(a), Some(b))
        }
        None => (None, None),
    };
    let (left_bounds, rest_bounds) = boundaries.split_at_mut(mid);
    let (left_sums, right_sums) = segment_sums.split_at_mut(mid + 1);
    crack_in_k_rec_sums(
        left_data,
        left_ids,
        &pivots[..mid],
        offset,
        Some(pass.lo_sum),
        left_bounds,
        left_sums,
        predicated,
    );
    crack_in_k_rec_sums(
        right_data,
        right_ids,
        &pivots[mid + 1..],
        offset + pass.split,
        Some(pass.total_sum - pass.lo_sum),
        &mut rest_bounds[1..],
        right_sums,
        predicated,
    );
}

/// Shared driver of the public sum-fused `crack_in_k` variants.
fn crack_in_k_sums_impl(
    data: &mut [Value],
    rowids: Option<&mut [RowId]>,
    pivots: &[Value],
    predicated: bool,
) -> KWaySums {
    assert_pivots_increasing(pivots);
    if pivots.is_empty() {
        return KWaySums {
            boundaries: Vec::new(),
            segment_sums: Vec::new(),
        };
    }
    let mut boundaries = vec![0usize; pivots.len()];
    let mut segment_sums = vec![0i128; pivots.len() + 1];
    // The top-level total is produced by the first sweep itself; only the
    // recursion's leaves need a parent-supplied subrange sum, and the top
    // level always has at least one pivot here, so `None` never reaches a
    // leaf — no pre-pass over the data.
    crack_in_k_rec_sums(
        data,
        rowids,
        pivots,
        0,
        None,
        &mut boundaries,
        &mut segment_sums,
        predicated,
    );
    KWaySums {
        boundaries,
        segment_sums,
    }
}

/// Sum-fused [`crack_in_k`]: boundaries plus all `k + 1` segment sums.
///
/// # Panics
///
/// Panics if `pivots` is not strictly increasing.
pub fn crack_in_k_sums(data: &mut [Value], pivots: &[Value]) -> KWaySums {
    crack_in_k_sums_impl(data, None, pivots, false)
}

/// Sum-fused [`crack_in_k_pred`].
///
/// # Panics
///
/// Panics if `pivots` is not strictly increasing.
pub fn crack_in_k_sums_pred(data: &mut [Value], pivots: &[Value]) -> KWaySums {
    crack_in_k_sums_impl(data, None, pivots, true)
}

/// Sum-fused [`crack_in_k_with_rowids`].
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths, or if `pivots` is
/// not strictly increasing.
pub fn crack_in_k_with_rowids_sums(
    data: &mut [Value],
    rowids: &mut [RowId],
    pivots: &[Value],
) -> KWaySums {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    crack_in_k_sums_impl(data, Some(rowids), pivots, false)
}

/// Sum-fused [`crack_in_k_with_rowids_pred`].
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths, or if `pivots` is
/// not strictly increasing.
pub fn crack_in_k_with_rowids_sums_pred(
    data: &mut [Value],
    rowids: &mut [RowId],
    pivots: &[Value],
) -> KWaySums {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    crack_in_k_sums_impl(data, Some(rowids), pivots, true)
}

/// Default piece length (in values) below which [`CrackKernel::Auto`]
/// dispatches to the branchy kernels.
///
/// Measured with the sum-fused rows of `benches/micro_crack_kernels.rs`
/// (uniform-random pieces, each cracked at a pivot drawn from it, at least
/// 64 Ki values per sample; Intel Xeon with AVX-512, ns per value):
///
/// | piece values | branchy | scalar predicated | dispatched predicated |
/// |-------------:|--------:|------------------:|----------------------:|
/// | 4            | 3.75    | 1.37              | 1.35 (scalar)         |
/// | 16           | 3.40    | 1.04              | 1.10 (vector)         |
/// | 64           | 2.74    | 1.01              | 0.60                  |
/// | 512          | 2.89    | 1.02              | 0.46                  |
/// | 64 Ki        | 3.97    | 1.00              | 0.31                  |
/// | 4 Mi         | 2.79    | 1.16              | 0.81                  |
///
/// The predicated forms win at every measured size, the smallest included:
/// a pivot drawn from the piece mispredicts the branchy loop on about
/// every other value however small the piece is. The crossover therefore
/// lies below 4 values, the smallest size measured, and the branchy form
/// keeps only pieces under 4 values, where the two loops differ by a few
/// nanoseconds. (The branchy form still wins when a piece is already
/// partitioned around the pivot — predictable branches — which a cracker
/// does not produce: a piece is cracked only at a pivot it does not yet
/// hold as a boundary.)
pub const DEFAULT_PREDICATION_THRESHOLD: usize = 4;

/// Which physical kernel implementation actually ran for one dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// The branchy reference kernels.
    Branchy,
    /// The branch-free predicated kernels.
    Predicated,
}

/// Policy selecting between branchy and predicated kernels per dispatch.
///
/// The policy is consulted with the length of the piece about to be cracked;
/// `Auto` mirrors the paper's cache-threshold reasoning (small, cache
/// resident pieces favor the branchy form, large ones the predicated form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrackKernel {
    /// Always use the branchy reference kernels.
    Branchy,
    /// Always use the predicated branch-free kernels.
    Predicated,
    /// Use branchy kernels for pieces shorter than `branchy_below` values
    /// and predicated kernels from that length on.
    Auto {
        /// Piece length at which dispatch switches to the predicated form.
        branchy_below: usize,
    },
}

impl CrackKernel {
    /// The `Auto` policy with the measured default threshold.
    #[must_use]
    pub fn auto() -> Self {
        CrackKernel::Auto {
            branchy_below: DEFAULT_PREDICATION_THRESHOLD,
        }
    }

    /// Resolves the policy for a piece of `piece_len` values.
    #[must_use]
    pub fn choose(&self, piece_len: usize) -> KernelChoice {
        match *self {
            CrackKernel::Branchy => KernelChoice::Branchy,
            CrackKernel::Predicated => KernelChoice::Predicated,
            CrackKernel::Auto { branchy_below } => {
                if piece_len < branchy_below {
                    KernelChoice::Branchy
                } else {
                    KernelChoice::Predicated
                }
            }
        }
    }

    /// Short stable name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CrackKernel::Branchy => "branchy",
            CrackKernel::Predicated => "predicated",
            CrackKernel::Auto { .. } => "auto",
        }
    }

    /// Dispatching [`crack_in_two`] / [`crack_in_two_pred`].
    pub fn crack_in_two(&self, data: &mut [Value], pivot: Value) -> usize {
        match self.choose(data.len()) {
            KernelChoice::Branchy => crack_in_two(data, pivot),
            KernelChoice::Predicated => crack_in_two_pred(data, pivot),
        }
    }

    /// Dispatching [`crack_in_two_with_rowids`] /
    /// [`crack_in_two_with_rowids_pred`].
    pub fn crack_in_two_with_rowids(
        &self,
        data: &mut [Value],
        rowids: &mut [RowId],
        pivot: Value,
    ) -> usize {
        match self.choose(data.len()) {
            KernelChoice::Branchy => crack_in_two_with_rowids(data, rowids, pivot),
            KernelChoice::Predicated => crack_in_two_with_rowids_pred(data, rowids, pivot),
        }
    }

    /// Dispatching [`crack_in_three`] / [`crack_in_three_pred`].
    pub fn crack_in_three(&self, data: &mut [Value], lo: Value, hi: Value) -> (usize, usize) {
        match self.choose(data.len()) {
            KernelChoice::Branchy => crack_in_three(data, lo, hi),
            KernelChoice::Predicated => crack_in_three_pred(data, lo, hi),
        }
    }

    /// Dispatching [`crack_in_three_with_rowids`] /
    /// [`crack_in_three_with_rowids_pred`].
    pub fn crack_in_three_with_rowids(
        &self,
        data: &mut [Value],
        rowids: &mut [RowId],
        lo: Value,
        hi: Value,
    ) -> (usize, usize) {
        match self.choose(data.len()) {
            KernelChoice::Branchy => crack_in_three_with_rowids(data, rowids, lo, hi),
            KernelChoice::Predicated => crack_in_three_with_rowids_pred(data, rowids, lo, hi),
        }
    }

    /// Dispatching [`crack_in_k`] / [`crack_in_k_pred`].
    pub fn crack_in_k(&self, data: &mut [Value], pivots: &[Value]) -> Vec<usize> {
        match self.choose(data.len()) {
            KernelChoice::Branchy => crack_in_k(data, pivots),
            KernelChoice::Predicated => crack_in_k_pred(data, pivots),
        }
    }

    /// Dispatching [`crack_in_k_with_rowids`] /
    /// [`crack_in_k_with_rowids_pred`].
    pub fn crack_in_k_with_rowids(
        &self,
        data: &mut [Value],
        rowids: &mut [RowId],
        pivots: &[Value],
    ) -> Vec<usize> {
        match self.choose(data.len()) {
            KernelChoice::Branchy => crack_in_k_with_rowids(data, rowids, pivots),
            KernelChoice::Predicated => crack_in_k_with_rowids_pred(data, rowids, pivots),
        }
    }

    /// Dispatching [`crack_in_two_sums`] / [`crack_in_two_sums_pred`].
    pub fn crack_in_two_sums(&self, data: &mut [Value], pivot: Value) -> TwoWaySums {
        match self.choose(data.len()) {
            KernelChoice::Branchy => crack_in_two_sums(data, pivot),
            KernelChoice::Predicated => crack_in_two_sums_pred(data, pivot),
        }
    }

    /// Dispatching [`crack_in_two_with_rowids_sums`] /
    /// [`crack_in_two_with_rowids_sums_pred`].
    pub fn crack_in_two_with_rowids_sums(
        &self,
        data: &mut [Value],
        rowids: &mut [RowId],
        pivot: Value,
    ) -> TwoWaySums {
        match self.choose(data.len()) {
            KernelChoice::Branchy => crack_in_two_with_rowids_sums(data, rowids, pivot),
            KernelChoice::Predicated => crack_in_two_with_rowids_sums_pred(data, rowids, pivot),
        }
    }

    /// Dispatching [`crack_in_three_sums`] / [`crack_in_three_sums_pred`].
    pub fn crack_in_three_sums(&self, data: &mut [Value], lo: Value, hi: Value) -> ThreeWaySums {
        match self.choose(data.len()) {
            KernelChoice::Branchy => crack_in_three_sums(data, lo, hi),
            KernelChoice::Predicated => crack_in_three_sums_pred(data, lo, hi),
        }
    }

    /// Dispatching [`crack_in_three_with_rowids_sums`] /
    /// [`crack_in_three_with_rowids_sums_pred`].
    pub fn crack_in_three_with_rowids_sums(
        &self,
        data: &mut [Value],
        rowids: &mut [RowId],
        lo: Value,
        hi: Value,
    ) -> ThreeWaySums {
        match self.choose(data.len()) {
            KernelChoice::Branchy => crack_in_three_with_rowids_sums(data, rowids, lo, hi),
            KernelChoice::Predicated => crack_in_three_with_rowids_sums_pred(data, rowids, lo, hi),
        }
    }

    /// Dispatching [`crack_in_k_sums`] / [`crack_in_k_sums_pred`].
    pub fn crack_in_k_sums(&self, data: &mut [Value], pivots: &[Value]) -> KWaySums {
        match self.choose(data.len()) {
            KernelChoice::Branchy => crack_in_k_sums(data, pivots),
            KernelChoice::Predicated => crack_in_k_sums_pred(data, pivots),
        }
    }

    /// Dispatching [`crack_in_k_with_rowids_sums`] /
    /// [`crack_in_k_with_rowids_sums_pred`].
    pub fn crack_in_k_with_rowids_sums(
        &self,
        data: &mut [Value],
        rowids: &mut [RowId],
        pivots: &[Value],
    ) -> KWaySums {
        match self.choose(data.len()) {
            KernelChoice::Branchy => crack_in_k_with_rowids_sums(data, rowids, pivots),
            KernelChoice::Predicated => crack_in_k_with_rowids_sums_pred(data, rowids, pivots),
        }
    }
}

impl Default for CrackKernel {
    fn default() -> Self {
        CrackKernel::auto()
    }
}

impl std::fmt::Display for CrackKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Running totals of kernel dispatches, split by the physical form that ran.
///
/// Maintained by [`crate::CrackerColumn`] and surfaced through the engine's
/// metrics so benches can report which path served a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelDispatches {
    /// Dispatches served by the branchy reference kernels.
    pub branchy: u64,
    /// Dispatches served by the predicated kernels.
    pub predicated: u64,
}

impl KernelDispatches {
    /// Records one dispatch.
    pub fn record(&mut self, choice: KernelChoice) {
        match choice {
            KernelChoice::Branchy => self.branchy += 1,
            KernelChoice::Predicated => self.predicated += 1,
        }
    }

    /// Total dispatches of either form.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.branchy + self.predicated
    }

    /// Component-wise difference against an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: KernelDispatches) -> KernelDispatches {
        KernelDispatches {
            branchy: self.branchy - earlier.branchy,
            predicated: self.predicated - earlier.predicated,
        }
    }

    /// Component-wise accumulation.
    pub fn add(&mut self, delta: KernelDispatches) {
        self.branchy += delta.branchy;
        self.predicated += delta.predicated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partitioned_two(data: &[Value], split: usize, pivot: Value) {
        assert!(
            data[..split].iter().all(|&v| v < pivot),
            "left side violated"
        );
        assert!(
            data[split..].iter().all(|&v| v >= pivot),
            "right side violated"
        );
    }

    fn assert_partitioned_three(data: &[Value], a: usize, b: usize, lo: Value, hi: Value) {
        assert!(data[..a].iter().all(|&v| v < lo), "first region violated");
        assert!(
            data[a..b].iter().all(|&v| v >= lo && v < hi),
            "middle region violated"
        );
        assert!(data[b..].iter().all(|&v| v >= hi), "last region violated");
    }

    #[test]
    fn crack_in_two_basic() {
        let mut data = vec![5, 1, 9, 3, 7, 3, 0, 10];
        let orig = {
            let mut d = data.clone();
            d.sort_unstable();
            d
        };
        let split = crack_in_two(&mut data, 5);
        assert_eq!(split, 4);
        assert_partitioned_two(&data, split, 5);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "multiset must be preserved");
    }

    #[test]
    fn crack_in_two_extremes() {
        let mut data = vec![3, 1, 2];
        assert_eq!(crack_in_two(&mut data, i64::MIN), 0);
        assert_eq!(crack_in_two(&mut data, 100), 3);
        let mut empty: Vec<Value> = vec![];
        assert_eq!(crack_in_two(&mut empty, 5), 0);
        let mut single = vec![7];
        assert_eq!(crack_in_two(&mut single, 7), 0);
        assert_eq!(crack_in_two(&mut single, 8), 1);
    }

    #[test]
    fn crack_in_two_all_equal_values() {
        let mut data = vec![4; 10];
        assert_eq!(crack_in_two(&mut data, 4), 0);
        assert_eq!(crack_in_two(&mut data, 5), 10);
    }

    #[test]
    fn crack_in_two_with_rowids_keeps_pairs_aligned() {
        let mut data = vec![50, 10, 90, 30];
        let mut rowids: Vec<RowId> = vec![0, 1, 2, 3];
        let pairs_before: Vec<(Value, RowId)> =
            data.iter().copied().zip(rowids.iter().copied()).collect();
        let split = crack_in_two_with_rowids(&mut data, &mut rowids, 40);
        assert_partitioned_two(&data, split, 40);
        let mut pairs_after: Vec<(Value, RowId)> =
            data.iter().copied().zip(rowids.iter().copied()).collect();
        let mut expected = pairs_before;
        expected.sort_unstable();
        pairs_after.sort_unstable();
        assert_eq!(
            pairs_after, expected,
            "value/rowid pairs must survive cracking"
        );
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn crack_in_two_with_rowids_rejects_mismatched_lengths() {
        let mut data = vec![1, 2];
        let mut rowids: Vec<RowId> = vec![0];
        let _ = crack_in_two_with_rowids(&mut data, &mut rowids, 1);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn predicated_with_rowids_rejects_mismatched_lengths() {
        let mut data = vec![1, 2];
        let mut rowids: Vec<RowId> = vec![0];
        let _ = crack_in_two_with_rowids_pred(&mut data, &mut rowids, 1);
    }

    #[test]
    fn crack_in_three_basic() {
        let mut data = vec![5, 1, 9, 3, 7, 3, 0, 10, 4, 6];
        let mut expected = data.clone();
        expected.sort_unstable();
        let (a, b) = crack_in_three(&mut data, 3, 7);
        assert_partitioned_three(&data, a, b, 3, 7);
        assert_eq!(b - a, 5); // 5, 3, 3, 4, 6
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn crack_in_three_degenerate_range() {
        let mut data = vec![5, 1, 9, 3];
        let (a, b) = crack_in_three(&mut data, 6, 6);
        assert_eq!(a, b);
        assert!(data[..a].iter().all(|&v| v < 6));
        assert!(data[a..].iter().all(|&v| v >= 6));
        let (a, b) = crack_in_three(&mut data, 8, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_range_consistent_across_all_variants() {
        // All four crack_in_three variants must agree on the degenerate
        // interval: partition at `lo`, report an empty middle.
        let base = vec![5, 1, 9, 3, 7, 2, 8];
        for (lo, hi) in [(6, 6), (8, 2), (i64::MAX, i64::MIN)] {
            let expected_split = base.iter().filter(|&&v| v < lo).count();

            let mut d = base.clone();
            assert_eq!(
                crack_in_three(&mut d, lo, hi),
                (expected_split, expected_split)
            );

            let mut d = base.clone();
            assert_eq!(
                crack_in_three_pred(&mut d, lo, hi),
                (expected_split, expected_split)
            );
            assert_partitioned_two(&d, expected_split, lo);

            let mut d = base.clone();
            let mut ids: Vec<RowId> = (0..base.len() as RowId).collect();
            assert_eq!(
                crack_in_three_with_rowids(&mut d, &mut ids, lo, hi),
                (expected_split, expected_split)
            );

            let mut d = base.clone();
            let mut ids: Vec<RowId> = (0..base.len() as RowId).collect();
            assert_eq!(
                crack_in_three_with_rowids_pred(&mut d, &mut ids, lo, hi),
                (expected_split, expected_split)
            );
            assert_partitioned_two(&d, expected_split, lo);
        }
    }

    #[test]
    fn crack_in_three_whole_range() {
        let mut data = vec![2, 9, 4];
        let (a, b) = crack_in_three(&mut data, i64::MIN, i64::MAX);
        assert_eq!(a, 0);
        assert_eq!(b, 3);
    }

    #[test]
    fn crack_in_three_with_rowids_keeps_pairs_aligned() {
        let mut data = vec![50, 10, 90, 30, 70, 20];
        let mut rowids: Vec<RowId> = (0..6).collect();
        let mut expected: Vec<(Value, RowId)> =
            data.iter().copied().zip(rowids.iter().copied()).collect();
        let (a, b) = crack_in_three_with_rowids(&mut data, &mut rowids, 25, 75);
        assert_partitioned_three(&data, a, b, 25, 75);
        let mut pairs: Vec<(Value, RowId)> =
            data.iter().copied().zip(rowids.iter().copied()).collect();
        pairs.sort_unstable();
        expected.sort_unstable();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn crack_in_three_empty_input() {
        let mut data: Vec<Value> = vec![];
        assert_eq!(crack_in_three(&mut data, 1, 5), (0, 0));
        assert_eq!(crack_in_three_pred(&mut data, 1, 5), (0, 0));
    }

    #[test]
    fn predicated_two_matches_branchy_split() {
        let samples: &[&[Value]] = &[
            &[],
            &[7],
            &[4; 10],
            &[5, 1, 9, 3, 7, 3, 0, 10],
            &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
        ];
        for &sample in samples {
            for pivot in [-1, 0, 3, 5, 7, 100] {
                let mut branchy = sample.to_vec();
                let mut pred = sample.to_vec();
                let a = crack_in_two(&mut branchy, pivot);
                let b = crack_in_two_pred(&mut pred, pivot);
                assert_eq!(a, b, "split mismatch for {sample:?} at {pivot}");
                assert_partitioned_two(&pred, b, pivot);
                let mut x = branchy;
                let mut y = pred;
                x.sort_unstable();
                y.sort_unstable();
                assert_eq!(x, y, "multiset mismatch");
            }
        }
    }

    #[test]
    fn predicated_three_matches_branchy_boundaries() {
        let sample = vec![5, 1, 9, 3, 7, 3, 0, 10, 4, 6, 2, 8];
        for (lo, hi) in [(3, 7), (0, 11), (-5, 100), (4, 5), (7, 3)] {
            let mut branchy = sample.clone();
            let mut pred = sample.clone();
            assert_eq!(
                crack_in_three(&mut branchy, lo, hi),
                crack_in_three_pred(&mut pred, lo, hi),
                "boundary mismatch for [{lo},{hi})"
            );
            if lo < hi {
                let (a, b) = crack_in_three_pred(&mut pred.clone(), lo, hi);
                assert_partitioned_three(&pred, a, b, lo, hi);
            }
        }
    }

    #[test]
    fn predicated_rowids_stay_aligned() {
        let data = vec![50, 10, 90, 30, 70, 20, 40, 80];
        let mut d = data.clone();
        let mut ids: Vec<RowId> = (0..data.len() as RowId).collect();
        let split = crack_in_two_with_rowids_pred(&mut d, &mut ids, 45);
        assert_partitioned_two(&d, split, 45);
        for (&v, &id) in d.iter().zip(&ids) {
            assert_eq!(data[id as usize], v, "rowid must still address its value");
        }
        let mut d = data.clone();
        let mut ids: Vec<RowId> = (0..data.len() as RowId).collect();
        let (a, b) = crack_in_three_with_rowids_pred(&mut d, &mut ids, 25, 75);
        assert_partitioned_three(&d, a, b, 25, 75);
        for (&v, &id) in d.iter().zip(&ids) {
            assert_eq!(data[id as usize], v);
        }
    }

    #[test]
    fn kernel_policy_dispatch() {
        let auto = CrackKernel::auto();
        assert_eq!(auto.choose(0), KernelChoice::Branchy);
        assert_eq!(
            auto.choose(DEFAULT_PREDICATION_THRESHOLD - 1),
            KernelChoice::Branchy
        );
        assert_eq!(
            auto.choose(DEFAULT_PREDICATION_THRESHOLD),
            KernelChoice::Predicated
        );
        assert_eq!(CrackKernel::Branchy.choose(1 << 30), KernelChoice::Branchy);
        assert_eq!(CrackKernel::Predicated.choose(1), KernelChoice::Predicated);
        assert_eq!(CrackKernel::default(), CrackKernel::auto());
        assert_eq!(CrackKernel::Predicated.to_string(), "predicated");
        assert_eq!(CrackKernel::auto().name(), "auto");
    }

    #[test]
    fn kernel_policy_methods_partition_correctly() {
        for kernel in [
            CrackKernel::Branchy,
            CrackKernel::Predicated,
            CrackKernel::Auto { branchy_below: 4 },
        ] {
            let mut data = vec![5, 1, 9, 3, 7, 3, 0, 10];
            let split = kernel.crack_in_two(&mut data, 5);
            assert_eq!(split, 4, "{kernel}");
            assert_partitioned_two(&data, split, 5);

            let mut data = vec![5, 1, 9, 3, 7, 3, 0, 10];
            let (a, b) = kernel.crack_in_three(&mut data, 3, 7);
            assert_partitioned_three(&data, a, b, 3, 7);

            let base = vec![50, 10, 90, 30, 70, 20];
            let mut data = base.clone();
            let mut ids: Vec<RowId> = (0..6).collect();
            let split = kernel.crack_in_two_with_rowids(&mut data, &mut ids, 40);
            assert_partitioned_two(&data, split, 40);
            for (&v, &id) in data.iter().zip(&ids) {
                assert_eq!(base[id as usize], v);
            }

            let mut data = base.clone();
            let mut ids: Vec<RowId> = (0..6).collect();
            let (a, b) = kernel.crack_in_three_with_rowids(&mut data, &mut ids, 25, 75);
            assert_partitioned_three(&data, a, b, 25, 75);
        }
    }

    fn assert_partitioned_k(data: &[Value], boundaries: &[usize], pivots: &[Value]) {
        assert_eq!(boundaries.len(), pivots.len());
        let mut prev = 0usize;
        for (i, (&b, &p)) in boundaries.iter().zip(pivots).enumerate() {
            assert!(b >= prev, "boundaries must be non-decreasing");
            assert!(
                data[..b].iter().all(|&v| v < p),
                "values before boundary {i} must be < {p}"
            );
            assert!(
                data[b..].iter().all(|&v| v >= p),
                "values after boundary {i} must be >= {p}"
            );
            prev = b;
        }
    }

    #[test]
    fn crack_in_k_matches_repeated_crack_in_two() {
        let base: Vec<Value> = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6, 9, 4];
        for pivots in [
            vec![5],
            vec![3, 9],
            vec![2, 7, 12, 15],
            vec![-10, 0, 4, 4 + 1, 100],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        ] {
            let mut expected = Vec::new();
            for &p in &pivots {
                let mut d = base.clone();
                expected.push(crack_in_two(&mut d, p));
            }
            type KernelFn = fn(&mut [Value], &[Value]) -> Vec<usize>;
            let forms: [(&str, KernelFn); 2] = [("branchy", crack_in_k), ("pred", crack_in_k_pred)];
            for (name, kernel) in forms {
                let mut data = base.clone();
                let boundaries = kernel(&mut data, &pivots);
                assert_eq!(boundaries, expected, "{name} boundaries for {pivots:?}");
                assert_partitioned_k(&data, &boundaries, &pivots);
                let mut sorted = data.clone();
                sorted.sort_unstable();
                let mut orig = base.clone();
                orig.sort_unstable();
                assert_eq!(sorted, orig, "{name} must preserve the multiset");
            }
        }
    }

    #[test]
    fn crack_in_k_edge_cases() {
        // Empty pivot list: nothing moves, nothing returned.
        let mut d = vec![3, 1, 2];
        assert!(crack_in_k(&mut d, &[]).is_empty());
        assert_eq!(d, vec![3, 1, 2]);
        // Empty data: all boundaries are 0.
        let mut empty: Vec<Value> = vec![];
        assert_eq!(crack_in_k(&mut empty, &[1, 5]), vec![0, 0]);
        // All values identical: boundaries snap to the ends.
        let mut same = vec![4; 8];
        assert_eq!(crack_in_k_pred(&mut same, &[4, 5]), vec![0, 8]);
        // Pivots outside the data range.
        let mut d = vec![10, 20, 30];
        assert_eq!(crack_in_k(&mut d, &[-5, 100]), vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn crack_in_k_rejects_unsorted_pivots() {
        let mut d = vec![1, 2, 3];
        let _ = crack_in_k(&mut d, &[5, 5]);
    }

    #[test]
    fn crack_in_k_with_rowids_keeps_pairs_aligned() {
        let base = vec![50, 10, 90, 30, 70, 20, 40, 80, 60, 15];
        let pivots = vec![25, 45, 75];
        for pred in [false, true] {
            let mut d = base.clone();
            let mut ids: Vec<RowId> = (0..base.len() as RowId).collect();
            let boundaries = if pred {
                crack_in_k_with_rowids_pred(&mut d, &mut ids, &pivots)
            } else {
                crack_in_k_with_rowids(&mut d, &mut ids, &pivots)
            };
            assert_partitioned_k(&d, &boundaries, &pivots);
            for (&v, &id) in d.iter().zip(&ids) {
                assert_eq!(base[id as usize], v, "rowid must still address its value");
            }
        }
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn crack_in_k_with_rowids_rejects_mismatched_lengths() {
        let mut d = vec![1, 2];
        let mut ids: Vec<RowId> = vec![0];
        let _ = crack_in_k_with_rowids(&mut d, &mut ids, &[1]);
    }

    #[test]
    fn crack_in_k_kernel_policy_dispatch() {
        for kernel in [
            CrackKernel::Branchy,
            CrackKernel::Predicated,
            CrackKernel::Auto { branchy_below: 4 },
        ] {
            let base = vec![5, 1, 9, 3, 7, 3, 0, 10, 4, 6];
            let pivots = vec![3, 7];
            let mut d = base.clone();
            let boundaries = kernel.crack_in_k(&mut d, &pivots);
            assert_partitioned_k(&d, &boundaries, &pivots);
            let mut d = base.clone();
            let mut ids: Vec<RowId> = (0..base.len() as RowId).collect();
            let boundaries = kernel.crack_in_k_with_rowids(&mut d, &mut ids, &pivots);
            assert_partitioned_k(&d, &boundaries, &pivots);
            for (&v, &id) in d.iter().zip(&ids) {
                assert_eq!(base[id as usize], v);
            }
        }
    }

    fn slice_sum(values: &[Value]) -> i128 {
        values.iter().map(|&v| i128::from(v)).sum()
    }

    #[test]
    fn sum_fused_two_way_matches_plain_and_scan() {
        let samples: &[&[Value]] = &[
            &[],
            &[7],
            &[4; 10],
            &[5, 1, 9, 3, 7, 3, 0, 10],
            &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
            &[i64::MAX, i64::MIN, 0, i64::MAX, i64::MIN],
        ];
        for &sample in samples {
            for pivot in [i64::MIN, -1, 0, 3, 5, 7, 100, i64::MAX] {
                let mut plain = sample.to_vec();
                let expected_split = crack_in_two(&mut plain, pivot);
                let expected_lo = slice_sum(&plain[..expected_split]);
                let expected_total = slice_sum(sample);
                for fused in [crack_in_two_sums, crack_in_two_sums_pred] {
                    let mut d = sample.to_vec();
                    let got = fused(&mut d, pivot);
                    assert_eq!(got.split, expected_split, "{sample:?} at {pivot}");
                    assert_eq!(got.lo_sum, expected_lo, "{sample:?} at {pivot}");
                    assert_eq!(got.total_sum, expected_total, "{sample:?} at {pivot}");
                    assert_eq!(got.hi_sum(), expected_total - expected_lo);
                    assert_partitioned_two(&d, got.split, pivot);
                }
                // Row-id forms: same sums, pairs stay aligned.
                for pred in [false, true] {
                    let mut d = sample.to_vec();
                    let mut ids: Vec<RowId> = (0..sample.len() as RowId).collect();
                    let got = if pred {
                        crack_in_two_with_rowids_sums_pred(&mut d, &mut ids, pivot)
                    } else {
                        crack_in_two_with_rowids_sums(&mut d, &mut ids, pivot)
                    };
                    assert_eq!((got.split, got.lo_sum), (expected_split, expected_lo));
                    for (&v, &id) in d.iter().zip(&ids) {
                        assert_eq!(sample[id as usize], v);
                    }
                }
            }
        }
    }

    #[test]
    fn sum_fused_three_way_matches_plain_and_scan() {
        let sample = vec![5, 1, 9, 3, 7, 3, 0, 10, 4, 6, 2, 8];
        for (lo, hi) in [(3, 7), (0, 11), (-5, 100), (4, 5), (7, 3), (6, 6)] {
            let mut plain = sample.clone();
            let (a, b) = crack_in_three(&mut plain, lo, hi);
            let expected = [
                slice_sum(&plain[..a]),
                slice_sum(&plain[a..b]),
                slice_sum(&plain[b..]),
            ];
            for fused in [crack_in_three_sums, crack_in_three_sums_pred] {
                let mut d = sample.clone();
                let got = fused(&mut d, lo, hi);
                assert_eq!((got.a, got.b), (a, b), "[{lo},{hi})");
                assert_eq!(got.sums, expected, "[{lo},{hi})");
            }
            for pred in [false, true] {
                let mut d = sample.clone();
                let mut ids: Vec<RowId> = (0..sample.len() as RowId).collect();
                let got = if pred {
                    crack_in_three_with_rowids_sums_pred(&mut d, &mut ids, lo, hi)
                } else {
                    crack_in_three_with_rowids_sums(&mut d, &mut ids, lo, hi)
                };
                assert_eq!((got.a, got.b), (a, b), "[{lo},{hi}) rowids pred={pred}");
                assert_eq!(got.sums, expected);
                for (&v, &id) in d.iter().zip(&ids) {
                    assert_eq!(sample[id as usize], v);
                }
            }
        }
    }

    #[test]
    fn sum_fused_k_way_matches_plain_and_scan() {
        let base: Vec<Value> = vec![13, 16, 4, 9, 2, 12, 7, 1, 19, 3, 14, 11, 8, 6, 9, 4];
        for pivots in [
            vec![5],
            vec![3, 9],
            vec![2, 7, 12, 15],
            vec![-10, 0, 4, 5, 100],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        ] {
            let mut plain = base.clone();
            let expected_bounds = crack_in_k(&mut plain, &pivots);
            let mut cuts = vec![0usize];
            cuts.extend_from_slice(&expected_bounds);
            cuts.push(base.len());
            let expected_sums: Vec<i128> = cuts
                .windows(2)
                .map(|w| slice_sum(&plain[w[0]..w[1]]))
                .collect();
            for fused in [crack_in_k_sums, crack_in_k_sums_pred] {
                let mut d = base.clone();
                let got = fused(&mut d, &pivots);
                assert_eq!(got.boundaries, expected_bounds, "{pivots:?}");
                assert_eq!(got.segment_sums, expected_sums, "{pivots:?}");
            }
            for pred in [false, true] {
                let mut d = base.clone();
                let mut ids: Vec<RowId> = (0..base.len() as RowId).collect();
                let got = if pred {
                    crack_in_k_with_rowids_sums_pred(&mut d, &mut ids, &pivots)
                } else {
                    crack_in_k_with_rowids_sums(&mut d, &mut ids, &pivots)
                };
                assert_eq!(got.boundaries, expected_bounds);
                assert_eq!(got.segment_sums, expected_sums);
                for (&v, &id) in d.iter().zip(&ids) {
                    assert_eq!(base[id as usize], v);
                }
            }
        }
        // Empty pivot list and empty data.
        let mut d = vec![3, 1, 2];
        let got = crack_in_k_sums(&mut d, &[]);
        assert!(got.boundaries.is_empty() && got.segment_sums.is_empty());
        let mut empty: Vec<Value> = vec![];
        let got = crack_in_k_sums(&mut empty, &[1, 5]);
        assert_eq!(got.boundaries, vec![0, 0]);
        assert_eq!(got.segment_sums, vec![0, 0, 0]);
    }

    #[test]
    fn sum_fused_kernel_policy_dispatch() {
        for kernel in [
            CrackKernel::Branchy,
            CrackKernel::Predicated,
            CrackKernel::Auto { branchy_below: 4 },
        ] {
            let base = vec![5, 1, 9, 3, 7, 3, 0, 10, 4, 6];
            let total = slice_sum(&base);

            let mut d = base.clone();
            let two = kernel.crack_in_two_sums(&mut d, 5);
            assert_eq!(two.split, 5, "{kernel}");
            assert_eq!(two.total_sum, total);
            assert_eq!(two.lo_sum, slice_sum(&d[..two.split]));

            let mut d = base.clone();
            let three = kernel.crack_in_three_sums(&mut d, 3, 7);
            assert_eq!(three.sums.iter().sum::<i128>(), total);

            let mut d = base.clone();
            let k = kernel.crack_in_k_sums(&mut d, &[3, 7]);
            assert_eq!(k.segment_sums.iter().sum::<i128>(), total);
            assert_eq!(k.boundaries, vec![three.a, three.b]);
            assert_eq!(k.segment_sums, three.sums.to_vec());

            let mut d = base.clone();
            let mut ids: Vec<RowId> = (0..base.len() as RowId).collect();
            let two = kernel.crack_in_two_with_rowids_sums(&mut d, &mut ids, 5);
            assert_eq!(two.total_sum, total);
            let mut d = base.clone();
            let mut ids: Vec<RowId> = (0..base.len() as RowId).collect();
            let three = kernel.crack_in_three_with_rowids_sums(&mut d, &mut ids, 3, 7);
            assert_eq!(three.sums.iter().sum::<i128>(), total);
            let mut d = base.clone();
            let mut ids: Vec<RowId> = (0..base.len() as RowId).collect();
            let k = kernel.crack_in_k_with_rowids_sums(&mut d, &mut ids, &[3, 7]);
            assert_eq!(k.segment_sums.iter().sum::<i128>(), total);
        }
    }

    /// Deterministic full-range `i64`s (SplitMix64), with `i64::MIN`,
    /// `i64::MAX`, 0 and -1 mixed in so the vector form's `lo32`/`hi32`
    /// sum split meets its extremes.
    fn full_range_values(len: usize, seed: u64) -> Vec<Value> {
        let mut state = seed;
        (0..len)
            .map(|i| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                match i % 7 {
                    0 => i64::MIN,
                    3 => i64::MAX,
                    5 => (z % 3) as Value - 1,
                    _ => (z ^ (z >> 31)) as Value,
                }
            })
            .collect()
    }

    /// One vector-vs-scalar comparison: same split and sums, each side's
    /// predicate, the same multiset, and (with row ids) every row id still
    /// addressing its value.
    #[cfg(target_arch = "x86_64")]
    fn check_vector_against_scalar(input: &[Value], pivot: Value) {
        let mut scalar = input.to_vec();
        let expected = crack_in_two_sums_scalar(&mut scalar, pivot);
        assert_eq!(expected.split, input.iter().filter(|&&v| v < pivot).count());
        assert_eq!(expected.total_sum, slice_sum(input));

        let mut vector = input.to_vec();
        let got = simd::crack_in_two_sums(&mut vector, pivot)
            .expect("the vector form runs from 16 values on an AVX-512F host");
        assert_eq!(got, expected, "len {} pivot {pivot}", input.len());
        assert_partitioned_two(&vector, got.split, pivot);
        let mut a = vector;
        let mut b = scalar;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "multiset, len {} pivot {pivot}", input.len());

        let mut scalar = input.to_vec();
        let mut scalar_ids: Vec<RowId> = (0..input.len() as RowId).collect();
        let expected = crack_in_two_with_rowids_sums_scalar(&mut scalar, &mut scalar_ids, pivot);
        let mut vector = input.to_vec();
        let mut ids: Vec<RowId> = (0..input.len() as RowId).collect();
        let got = simd::crack_in_two_with_rowids_sums(&mut vector, &mut ids, pivot)
            .expect("the row-id vector form runs from 16 values on an AVX-512F/VL host");
        assert_eq!(got, expected, "rowids, len {} pivot {pivot}", input.len());
        assert_partitioned_two(&vector, got.split, pivot);
        for (&v, &id) in vector.iter().zip(&ids) {
            assert_eq!(input[id as usize], v, "row id {id} lost its value");
        }
        ids.sort_unstable();
        assert!(ids.iter().enumerate().all(|(i, &id)| id as usize == i));
    }

    #[test]
    fn vector_partition_equals_scalar_loop() {
        #[cfg(target_arch = "x86_64")]
        let vector = simd::has_rowids_kernel();
        #[cfg(not(target_arch = "x86_64"))]
        let vector = false;
        if !vector {
            println!(
                "SKIPPED vector_partition_equals_scalar_loop: no AVX-512F/VL on this host; \
                 only the scalar loop was checked"
            );
        }
        for len in 0..=80usize {
            for seed in 0..4u64 {
                let input = full_range_values(len, seed * 1_000 + len as u64);
                let mut pivots = vec![i64::MIN, i64::MAX, 0, -1];
                pivots.extend(input.iter().step_by(5).copied());
                for &pivot in &pivots {
                    // The dispatching entry agrees with the scalar loop at
                    // every length, vector form or not.
                    let mut scalar = input.clone();
                    let expected = crack_in_two_sums_scalar(&mut scalar, pivot);
                    let mut dispatched = input.clone();
                    assert_eq!(crack_in_two_sums_pred(&mut dispatched, pivot), expected);
                    assert_partitioned_two(&dispatched, expected.split, pivot);
                    #[cfg(target_arch = "x86_64")]
                    if vector && len >= simd::MIN_LEN {
                        check_vector_against_scalar(&input, pivot);
                    }
                }
            }
            // All-equal pieces, pivot below, at and above the value.
            for value in [i64::MIN, -7, 0, i64::MAX] {
                let input = vec![value; len];
                for pivot in [i64::MIN, value, value.saturating_add(1), i64::MAX] {
                    let mut scalar = input.clone();
                    let expected = crack_in_two_sums_scalar(&mut scalar, pivot);
                    let mut dispatched = input.clone();
                    assert_eq!(crack_in_two_sums_pred(&mut dispatched, pivot), expected);
                    #[cfg(target_arch = "x86_64")]
                    if vector && len >= simd::MIN_LEN {
                        check_vector_against_scalar(&input, pivot);
                    }
                }
            }
        }
        #[cfg(target_arch = "x86_64")]
        {
            // Below the vector threshold the vector entry declines.
            let mut short = vec![1; simd::MIN_LEN - 1];
            assert!(simd::crack_in_two_sums(&mut short, 1).is_none());
        }
    }

    #[test]
    fn dispatch_counters_accumulate() {
        let mut d = KernelDispatches::default();
        d.record(KernelChoice::Branchy);
        d.record(KernelChoice::Predicated);
        d.record(KernelChoice::Predicated);
        assert_eq!(d.branchy, 1);
        assert_eq!(d.predicated, 2);
        assert_eq!(d.total(), 3);
        let earlier = KernelDispatches {
            branchy: 1,
            predicated: 0,
        };
        let delta = d.since(earlier);
        assert_eq!(
            delta,
            KernelDispatches {
                branchy: 0,
                predicated: 2
            }
        );
        let mut acc = KernelDispatches::default();
        acc.add(delta);
        acc.add(delta);
        assert_eq!(acc.predicated, 4);
    }
}

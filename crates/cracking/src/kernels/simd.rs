//! AVX-512 compress partition: the vector form of the predicated sum-fused
//! two-way kernels (see "Physical forms" in the [`super`] module docs).
//!
//! One in-place pass in the selective-store style of Polychroniou, Raghavan
//! and Ross (SIGMOD 2015). The first and the last 8 values are saved in
//! registers, which leaves 8 free slots at each end of the piece. Each step
//! loads 8 values from the side with less free space, compares them with
//! the pivot, and writes the `< pivot` lanes (compressed in a register) as
//! one full vector at the left write cursor and the `>= pivot` lanes
//! (compressed, then expanded into the top lanes) as one full vector ending
//! at the right write cursor. The garbage lanes of both stores land in free
//! slots that later stores overwrite.
//!
//! **Free-space invariant.** Between steps the free slots number exactly 16
//! (`left_free + right_free == 16`). The load comes from the side with less
//! free space, so after it both sides have at least 8 free slots: both
//! full-vector stores are in bounds and overwrite no unread value. The tail
//! (fewer than 8 values) and the two saved vectors are written last with
//! the memory form of compress, which stores exactly the selected lanes,
//! because by then the free space is exactly the values still held in
//! registers.
//!
//! Two alternatives were measured with the `crack_in_two_sums` rows of
//! `micro_crack_kernels` (Intel Xeon with AVX-512) and not taken:
//!
//! * a branch-free side choice (cursor arithmetic on the comparison)
//!   reached 1.2–1.6 G values/s at 64 to 64 Ki values, against 1.7–3.2
//!   G values/s for the branch, so the side choice stays a branch;
//! * the memory form of compress in the main loop (exact stores, no
//!   expand) ran 5–20 % faster than this register form at most sizes on
//!   that Intel box, two runs each. The register form is kept because the
//!   memory form is reported to be microcoded, and far slower, on AMD
//!   Zen 4; here the register form is within 20 % of it.
//!
//! **Sums.** Every lane is split into its low 32 bits (unsigned) and its
//! high 32 bits (arithmetic shift); the total and the masked `< pivot` sums
//! of both halves are accumulated in 64-bit lanes and reduced to `i128`
//! once at the end. A lane takes one add per vector, `len / 8 + 3` adds in
//! all, and the halves cannot overflow below 2^32 adds — any piece under
//! 2^35 values, while a column is bounded by the `u32` row id.

use std::arch::x86_64::{
    __m256i, __m512i, __mmask8, _mm256_loadu_si256, _mm256_mask_compressstoreu_epi32,
    _mm256_maskz_compress_epi32, _mm256_maskz_expand_epi32, _mm256_maskz_loadu_epi32,
    _mm256_setzero_si256, _mm256_storeu_si256, _mm512_add_epi64, _mm512_and_si512,
    _mm512_cmplt_epi64_mask, _mm512_loadu_si512, _mm512_mask_add_epi64,
    _mm512_mask_cmplt_epi64_mask, _mm512_mask_compressstoreu_epi64, _mm512_maskz_compress_epi64,
    _mm512_maskz_expand_epi64, _mm512_maskz_loadu_epi64, _mm512_set1_epi64, _mm512_setzero_si512,
    _mm512_srai_epi64, _mm512_storeu_si512,
};

use super::TwoWaySums;
use crate::{RowId, Value};

/// Lanes per vector (8 × 64-bit values, 8 × 32-bit row ids).
const LANES: usize = 8;

/// Shortest piece the vector form partitions: the two saved vectors alone
/// are 16 values. Shorter pieces run the scalar predicated loop.
pub(super) const MIN_LEN: usize = 2 * LANES;

/// Whether this CPU can run the value-only vector kernel.
pub(super) fn has_values_kernel() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("popcnt")
}

/// Whether this CPU can run the row-id vector kernel.
pub(super) fn has_rowids_kernel() -> bool {
    has_values_kernel() && is_x86_feature_detected!("avx512vl")
}

/// The vector form of [`super::crack_in_two_sums_pred`], or `None` when
/// this CPU lacks AVX-512F or the piece is shorter than [`MIN_LEN`].
pub(super) fn crack_in_two_sums(data: &mut [Value], pivot: Value) -> Option<TwoWaySums> {
    if data.len() < MIN_LEN || !has_values_kernel() {
        return None;
    }
    // SAFETY: avx512f and popcnt were detected just above, and the piece
    // holds at least MIN_LEN values, which is all `partition_values` needs.
    Some(unsafe { partition_values(data, pivot) })
}

/// The vector form of [`super::crack_in_two_with_rowids_sums_pred`], or
/// `None` when this CPU lacks AVX-512F/VL or the piece is shorter than
/// [`MIN_LEN`].
///
/// # Panics
///
/// Panics if `data` and `rowids` have different lengths.
pub(super) fn crack_in_two_with_rowids_sums(
    data: &mut [Value],
    rowids: &mut [RowId],
    pivot: Value,
) -> Option<TwoWaySums> {
    assert_eq!(
        data.len(),
        rowids.len(),
        "values and rowids must be aligned"
    );
    if data.len() < MIN_LEN || !has_rowids_kernel() {
        return None;
    }
    // SAFETY: avx512f, avx512vl and popcnt were detected just above, the
    // piece holds at least MIN_LEN values and `rowids` is as long as
    // `data` (asserted above).
    Some(unsafe { partition_rowids(data, rowids, pivot) })
}

/// # Safety
///
/// The CPU must support avx512f and popcnt, and `data.len() >= MIN_LEN`
/// (SAFETY: `crack_in_two_sums`, the only caller, checks both).
#[target_feature(enable = "avx512f,popcnt")]
unsafe fn partition_values(data: &mut [Value], pivot: Value) -> TwoWaySums {
    // SAFETY: the caller's contract is this function's; the empty row-id
    // slice is never touched when `IDS` is false.
    unsafe { partition::<false>(data, &mut [], pivot) }
}

/// # Safety
///
/// The CPU must support avx512f, avx512vl and popcnt, `data.len() >=
/// MIN_LEN`, and `rowids.len() == data.len()` (SAFETY:
/// `crack_in_two_with_rowids_sums`, the only caller, checks all three).
#[target_feature(enable = "avx512f,avx512vl,popcnt")]
unsafe fn partition_rowids(data: &mut [Value], rowids: &mut [RowId], pivot: Value) -> TwoWaySums {
    // SAFETY: the caller's contract is this function's.
    unsafe { partition::<true>(data, rowids, pivot) }
}

/// The partition itself, shared by both kernels. `IDS` selects whether the
/// row ids move along; with `IDS` false no avx512vl instruction is emitted,
/// so the value-only kernel needs only avx512f.
///
/// # Safety
///
/// Must be inlined into a function that enables avx512f and popcnt (plus
/// avx512vl when `IDS`) on a CPU that has them; `data.len() >= MIN_LEN`;
/// when `IDS`, `rowids.len() == data.len()` (SAFETY: `partition_values`
/// and `partition_rowids`, the only callers, guarantee all of it).
#[inline(always)]
unsafe fn partition<const IDS: bool>(
    data: &mut [Value],
    rowids: &mut [RowId],
    pivot: Value,
) -> TwoWaySums {
    let n = data.len();
    debug_assert!(n >= MIN_LEN);
    debug_assert!(!IDS || rowids.len() == n);
    debug_assert!(
        n / LANES + 3 < 1 << 32,
        "64-bit lane sums are exact only below 2^32 adds per lane"
    );
    let mut p = Partition::<IDS> {
        values: data.as_mut_ptr(),
        ids: rowids.as_mut_ptr(),
        pivot: _mm512_set1_epi64(pivot),
        write_l: 0,
        write_r: n,
        // SAFETY: this function's caller enables avx512f around it.
        sums: unsafe { LaneSums::new() },
    };
    // SAFETY: n >= 16, so both 8-lane loads are inside the piece.
    let (first, last) = unsafe { (p.load(0), p.load(n - LANES)) };
    let mut read_l = LANES;
    let mut read_r = n - LANES;
    while read_r - read_l >= LANES {
        let at = if read_l - p.write_l <= p.write_r - read_r {
            read_l += LANES;
            read_l - LANES
        } else {
            read_r -= LANES;
            read_r
        };
        // SAFETY: `at..at + 8` lies in the unread region `read_l..read_r`
        // as it was before this step.
        let x = unsafe { p.load(at) };
        // The load came from the side with less free space, and the free
        // space was 16 before it, so both sides now have 8 free slots.
        debug_assert!(
            read_l - p.write_l >= LANES && p.write_r - read_r >= LANES,
            "free-space invariant: both sides keep 8 free slots"
        );
        // SAFETY: by the free-space invariant, `write_l..write_l + 8` and
        // `write_r - 8..write_r` are free slots inside the piece.
        unsafe { p.scatter_full(x) };
    }
    // SAFETY: `read_l..read_r` (fewer than 8 values) is unread and inside
    // the piece; the masked load touches only those lanes.
    let tail = unsafe { p.load_masked(read_l, read_r - read_l) };
    // Every unread value is now in a register: the free slots are exactly
    // `write_l..write_r`, as many as the three vectors hold.
    debug_assert_eq!(p.write_r - p.write_l, 2 * LANES + (read_r - read_l));
    // SAFETY: the free region `write_l..write_r` holds exactly the selected
    // lanes of the three vectors, and the memory form of compress stores
    // only the selected lanes, so every store stays inside it.
    unsafe {
        p.scatter_exact(tail);
        p.scatter_exact(first);
        p.scatter_exact(last);
    }
    debug_assert_eq!(p.write_l, p.write_r);
    // SAFETY: this function's caller enables avx512f around it.
    let (lo_sum, total_sum) = unsafe { p.sums.finish() };
    TwoWaySums {
        split: p.write_l,
        lo_sum,
        total_sum,
    }
}

/// One loaded group of up to 8 values, their row ids when `IDS`, and the
/// mask of the lanes that hold a value.
#[derive(Clone, Copy)]
struct Chunk {
    values: __m512i,
    ids: __m256i,
    valid: __mmask8,
}

/// Write cursors of one partition: `values[..write_l]` is `< pivot`,
/// `values[write_r..]` is `>= pivot`, and the slots between them not in
/// the unread region are free.
struct Partition<const IDS: bool> {
    values: *mut Value,
    ids: *mut RowId,
    pivot: __m512i,
    write_l: usize,
    write_r: usize,
    sums: LaneSums,
}

impl<const IDS: bool> Partition<IDS> {
    /// Loads the 8 values (and row ids) at `at`.
    ///
    /// # Safety
    ///
    /// `at + 8` must not exceed the piece length (SAFETY: each call in
    /// `partition` states why it holds).
    #[inline(always)]
    unsafe fn load(&self, at: usize) -> Chunk {
        // SAFETY: the caller keeps `at..at + 8` inside both arrays.
        unsafe {
            Chunk {
                values: _mm512_loadu_si512(self.values.add(at).cast()),
                ids: if IDS {
                    _mm256_loadu_si256(self.ids.add(at).cast())
                } else {
                    _mm256_setzero_si256()
                },
                valid: 0xFF,
            }
        }
    }

    /// Loads the `len < 8` values (and row ids) at `at`; the other lanes
    /// read as zero and are marked invalid.
    ///
    /// # Safety
    ///
    /// `at + len` must not exceed the piece length (SAFETY: the one call
    /// in `partition` states why it holds).
    #[inline(always)]
    unsafe fn load_masked(&self, at: usize, len: usize) -> Chunk {
        let valid = lane_mask_below(len);
        // SAFETY: masked-off lanes are not accessed, and the caller keeps
        // the `len` selected lanes inside both arrays.
        unsafe {
            Chunk {
                values: _mm512_maskz_loadu_epi64(valid, self.values.add(at)),
                ids: if IDS {
                    _mm256_maskz_loadu_epi32(valid, self.ids.add(at).cast())
                } else {
                    _mm256_setzero_si256()
                },
                valid,
            }
        }
    }

    /// Compares a full chunk with the pivot, adds it to the sums, and
    /// writes both sides with one full-vector store each.
    ///
    /// # Safety
    ///
    /// `write_l..write_l + 8` and `write_r - 8..write_r` must be free slots
    /// inside the piece (SAFETY: the free-space invariant, asserted in
    /// `partition` before each call).
    #[inline(always)]
    unsafe fn scatter_full(&mut self, x: Chunk) {
        let lt = _mm512_cmplt_epi64_mask(x.values, self.pivot);
        self.sums.add(x.values, lt);
        let k = lt.count_ones() as usize;
        // Lanes k..8: where the `>= pivot` values go so that they end at
        // `write_r`.
        let top = lane_mask_from(k);
        // SAFETY: the caller guarantees both 8-slot windows are free slots
        // inside the piece.
        unsafe {
            _mm512_storeu_si512(
                self.values.add(self.write_l).cast(),
                _mm512_maskz_compress_epi64(lt, x.values),
            );
            _mm512_storeu_si512(
                self.values.add(self.write_r - LANES).cast(),
                _mm512_maskz_expand_epi64(top, _mm512_maskz_compress_epi64(!lt, x.values)),
            );
            if IDS {
                _mm256_storeu_si256(
                    self.ids.add(self.write_l).cast(),
                    _mm256_maskz_compress_epi32(lt, x.ids),
                );
                _mm256_storeu_si256(
                    self.ids.add(self.write_r - LANES).cast(),
                    _mm256_maskz_expand_epi32(top, _mm256_maskz_compress_epi32(!lt, x.ids)),
                );
            }
        }
        self.write_l += k;
        self.write_r -= LANES - k;
    }

    /// Compares a chunk with the pivot, adds it to the sums, and stores
    /// exactly its valid lanes on their sides.
    ///
    /// # Safety
    ///
    /// The free slots `write_l..write_r` must number at least the chunk's
    /// valid lanes (SAFETY: the calls in `partition` state why they do).
    #[inline(always)]
    unsafe fn scatter_exact(&mut self, x: Chunk) {
        let lt = _mm512_mask_cmplt_epi64_mask(x.valid, x.values, self.pivot);
        let ge = x.valid & !lt;
        self.sums.add(x.values, lt);
        let k = lt.count_ones() as usize;
        let g = ge.count_ones() as usize;
        debug_assert!(self.write_r - self.write_l >= k + g);
        // SAFETY: the memory form of compress writes exactly `k` slots at
        // `write_l` and `g` slots at `write_r - g`, all inside the free
        // region the caller guarantees.
        unsafe {
            _mm512_mask_compressstoreu_epi64(self.values.add(self.write_l).cast(), lt, x.values);
            _mm512_mask_compressstoreu_epi64(
                self.values.add(self.write_r - g).cast(),
                ge,
                x.values,
            );
            if IDS {
                _mm256_mask_compressstoreu_epi32(self.ids.add(self.write_l).cast(), lt, x.ids);
                _mm256_mask_compressstoreu_epi32(self.ids.add(self.write_r - g).cast(), ge, x.ids);
            }
        }
        self.write_l += k;
        self.write_r -= g;
    }
}

/// Per-lane 64-bit sums of the low and high 32-bit halves of every value
/// (all of them, and those `< pivot`).
struct LaneSums {
    total_lo: __m512i,
    total_hi: __m512i,
    lt_lo: __m512i,
    lt_hi: __m512i,
}

impl LaneSums {
    /// # Safety
    ///
    /// Must be inlined into an avx512f function (SAFETY: only `partition`
    /// calls it).
    #[inline(always)]
    unsafe fn new() -> Self {
        let zero = _mm512_setzero_si512();
        LaneSums {
            total_lo: zero,
            total_hi: zero,
            lt_lo: zero,
            lt_hi: zero,
        }
    }

    /// Adds the lanes of `x` (zero in unused lanes) to the totals, and the
    /// lanes in `lt` to the `< pivot` sums.
    ///
    /// # Safety
    ///
    /// Must be inlined into an avx512f function (SAFETY: only `partition`
    /// calls it).
    #[inline(always)]
    unsafe fn add(&mut self, x: __m512i, lt: __mmask8) {
        let lo = _mm512_and_si512(x, _mm512_set1_epi64(0xFFFF_FFFF));
        let hi = _mm512_srai_epi64::<32>(x);
        self.total_lo = _mm512_add_epi64(self.total_lo, lo);
        self.total_hi = _mm512_add_epi64(self.total_hi, hi);
        self.lt_lo = _mm512_mask_add_epi64(self.lt_lo, lt, self.lt_lo, lo);
        self.lt_hi = _mm512_mask_add_epi64(self.lt_hi, lt, self.lt_hi, hi);
    }

    /// Reduces the lanes to `(lo_sum, total_sum)`.
    ///
    /// # Safety
    ///
    /// Must be inlined into an avx512f function (SAFETY: only `partition`
    /// calls it).
    #[inline(always)]
    unsafe fn finish(&self) -> (i128, i128) {
        // SAFETY: the caller's contract is these calls'.
        unsafe {
            (
                reduce(self.lt_lo, self.lt_hi),
                reduce(self.total_lo, self.total_hi),
            )
        }
    }
}

/// `sum(hi lanes) * 2^32 + sum(lo lanes)`, the lo lanes read unsigned.
///
/// # Safety
///
/// Must be inlined into an avx512f function (SAFETY: only
/// `LaneSums::finish` calls it).
#[inline(always)]
unsafe fn reduce(lo: __m512i, hi: __m512i) -> i128 {
    let mut lo_lanes = [0u64; LANES];
    let mut hi_lanes = [0i64; LANES];
    // SAFETY: each array is exactly one 512-bit vector long.
    unsafe {
        _mm512_storeu_si512(lo_lanes.as_mut_ptr().cast(), lo);
        _mm512_storeu_si512(hi_lanes.as_mut_ptr().cast(), hi);
    }
    let lo: i128 = lo_lanes.iter().map(|&l| i128::from(l)).sum();
    let hi: i128 = hi_lanes.iter().map(|&h| i128::from(h)).sum();
    (hi << 32) + lo
}

/// Mask of lanes `0..len` (`len <= 8`).
#[inline(always)]
fn lane_mask_below(len: usize) -> __mmask8 {
    debug_assert!(len <= LANES);
    !(0xFFu16 << len) as __mmask8
}

/// Mask of lanes `from..8` (`from <= 8`).
#[inline(always)]
fn lane_mask_from(from: usize) -> __mmask8 {
    debug_assert!(from <= LANES);
    (0xFFu16 << from) as __mmask8
}

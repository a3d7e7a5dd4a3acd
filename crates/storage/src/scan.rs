//! Bulk scan operators.
//!
//! These tight loops are the "no index" baseline in every experiment of the
//! paper: a select operator that touches every value of a column. They are
//! structured for auto-vectorization: the inner loops run over fixed-width
//! chunks with no early exits and no data-dependent branches, accumulating
//! comparison masks arithmetically, so LLVM can lower them to SIMD compares.
//!
//! Row-producing scans (`scan_positions`, `scan_full`) run in two passes: a
//! vectorized counting pass first, then a branch-free scatter pass into an
//! exactly-sized allocation. The count makes the second pass's selection
//! vector allocation exact (no `Vec` growth doubling, no over-allocation),
//! and both passes are cheaper than one branchy push-per-match loop on
//! anything but tiny inputs.
//!
//! All ranges are half-open: `(lo, hi)` selects values in `[lo, hi)`.

use crate::selection::SelectionVector;
use crate::{RowId, Value};

/// Chunk width of the vectorizable inner loops. 64 `i64`s = 512 bytes = 8
/// AVX-512 / 16 AVX2 vectors per chunk: wide enough that the scalar chunk
/// remainder is noise, narrow enough to stay register-friendly.
const CHUNK: usize = 64;

/// The outcome of a scan with both the qualifying rows and basic aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// Qualifying row ids, in physical order.
    pub rows: SelectionVector,
    /// Number of qualifying rows.
    pub count: u64,
    /// Sum of qualifying values.
    pub sum: i128,
}

/// Counts the values in `[lo, hi)`.
#[must_use]
pub fn scan_count(values: &[Value], lo: Value, hi: Value) -> u64 {
    if hi <= lo {
        return 0;
    }
    let mut total = 0u64;
    let mut chunks = values.chunks_exact(CHUNK);
    for chunk in &mut chunks {
        // Fixed-width, branch-free mask accumulation: vectorizes to SIMD
        // compares + a horizontal add per chunk.
        let mut acc = 0u64;
        for &v in chunk {
            acc += u64::from(v >= lo && v < hi);
        }
        total += acc;
    }
    for &v in chunks.remainder() {
        total += u64::from(v >= lo && v < hi);
    }
    total
}

/// Sums the values in `[lo, hi)`.
#[must_use]
pub fn scan_sum(values: &[Value], lo: Value, hi: Value) -> i128 {
    if hi <= lo {
        return 0;
    }
    let mut total = 0i128;
    let mut chunks = values.chunks_exact(CHUNK);
    for chunk in &mut chunks {
        total += sum_chunk(chunk, lo, hi);
    }
    total + sum_chunk(chunks.remainder(), lo, hi)
}

/// Branch-free masked sum of one chunk (at most [`CHUNK`] values), exact
/// for the full `i64` domain.
///
/// `-(qualifies as i64)` is `0` or all-ones, so `v & mask` keeps or zeroes
/// the value without a branch. The masked value is then split: its low 32
/// bits go to an unsigned lane, its sign-extended high bits to a signed
/// lane. Neither lane can overflow across ≤ 64 summands (bounds 2^38 and
/// 2^37), the loop stays free of `i128` arithmetic so it vectorizes, and
/// `(hi << 32) + lo` reassembles the exact total.
fn sum_chunk(chunk: &[Value], lo: Value, hi: Value) -> i128 {
    debug_assert!(chunk.len() <= CHUNK);
    let mut low_acc = 0u64;
    let mut high_acc = 0i64;
    for &v in chunk {
        let mask = -(i64::from(v >= lo && v < hi));
        let masked = v & mask;
        low_acc += masked as u64 & 0xFFFF_FFFF;
        high_acc += masked >> 32;
    }
    (i128::from(high_acc) << 32) + i128::from(low_acc)
}

/// Builds the exclusive prefix sums of `values`: `out[i]` is the exact sum
/// of `values[..i]`, so `out.len() == values.len() + 1` and any positional
/// range aggregate becomes one subtraction (`sum(a..b) = out[b] - out[a]`).
///
/// This is the build kernel behind [`crate::PrefixSums`] — the structure
/// that makes range aggregates on sorted data zero-read. The loop runs over
/// the same fixed-width chunks as the masked-sum kernel above; unlike it,
/// a prefix sum must *store* every running total, so the output writes (16
/// bytes per value), not the additions, dominate. The accumulator is `i128`
/// throughout: exact over the full `i64` domain at any input length.
#[must_use]
pub fn prefix_sums(values: &[Value]) -> Vec<i128> {
    let mut out: Vec<i128> = Vec::with_capacity(values.len() + 1);
    out.push(0);
    let mut acc = 0i128;
    let mut chunks = values.chunks_exact(CHUNK);
    for chunk in &mut chunks {
        for &v in chunk {
            acc += i128::from(v);
            out.push(acc);
        }
    }
    for &v in chunks.remainder() {
        acc += i128::from(v);
        out.push(acc);
    }
    out
}

/// Position of the first value equal to `v`.
///
/// The delete path's row lookup. Each chunk is tested branch-free (so the
/// compare vectorizes) and only a chunk that holds a match is searched for
/// its position, which is what `Iterator::position`'s per-element early
/// exit would cost on every element.
#[must_use]
pub fn find_first(values: &[Value], v: Value) -> Option<usize> {
    let mut chunks = values.chunks_exact(CHUNK);
    let mut scanned = 0;
    for chunk in &mut chunks {
        let mut hit = false;
        for &x in chunk {
            hit |= x == v;
        }
        if hit {
            break;
        }
        scanned += CHUNK;
    }
    values[scanned..]
        .iter()
        .position(|&x| x == v)
        .map(|off| scanned + off)
}

/// Returns the row ids whose values fall in `[lo, hi)`.
#[must_use]
pub fn scan_positions(values: &[Value], lo: Value, hi: Value) -> SelectionVector {
    if hi <= lo {
        return SelectionVector::new();
    }
    let count = scan_count(values, lo, hi) as usize;
    if count == 0 {
        return SelectionVector::new();
    }
    // Exactly-sized scatter target (+1 slack slot so the unconditional
    // write below never lands out of bounds once the cursor reaches
    // `count`).
    let mut rows: Vec<RowId> = vec![0; count + 1];
    let mut cursor = 0usize;
    for (i, &v) in values.iter().enumerate() {
        // Branch-free scatter: always write, advance the cursor only when
        // the value qualifies, so a non-qualifying write is overwritten.
        rows[cursor] = i as RowId;
        cursor += usize::from(v >= lo && v < hi);
    }
    debug_assert_eq!(cursor, count);
    rows.truncate(count);
    SelectionVector::from_sorted_rows(rows)
}

/// Materializes the values in `[lo, hi)` (select + project on one column).
#[must_use]
pub fn scan_materialize(values: &[Value], lo: Value, hi: Value) -> Vec<Value> {
    if hi <= lo {
        return Vec::new();
    }
    let count = scan_count(values, lo, hi) as usize;
    if count == 0 {
        return Vec::new();
    }
    let mut out: Vec<Value> = vec![0; count + 1];
    let mut cursor = 0usize;
    for &v in values {
        out[cursor] = v;
        cursor += usize::from(v >= lo && v < hi);
    }
    debug_assert_eq!(cursor, count);
    out.truncate(count);
    out
}

/// Runs a full scan producing rows, count and sum in one pass over the
/// (pre-counted) data.
#[must_use]
pub fn scan_full(values: &[Value], lo: Value, hi: Value) -> ScanResult {
    if hi <= lo {
        return ScanResult {
            rows: SelectionVector::new(),
            count: 0,
            sum: 0,
        };
    }
    let count = scan_count(values, lo, hi) as usize;
    if count == 0 {
        return ScanResult {
            rows: SelectionVector::new(),
            count: 0,
            sum: 0,
        };
    }
    let mut rows: Vec<RowId> = vec![0; count + 1];
    let mut cursor = 0usize;
    let mut sum = 0i128;
    for (i, &v) in values.iter().enumerate() {
        let q = v >= lo && v < hi;
        rows[cursor] = i as RowId;
        cursor += usize::from(q);
        let mask = -(i64::from(q));
        sum += i128::from(v & mask);
    }
    debug_assert_eq!(cursor, count);
    rows.truncate(count);
    ScanResult {
        count: count as u64,
        rows: SelectionVector::from_sorted_rows(rows),
        sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: [Value; 8] = [5, 1, 9, 3, 7, 3, 0, 10];

    #[test]
    fn count_sum_positions_materialize_agree() {
        let count = scan_count(&DATA, 3, 8);
        let sum = scan_sum(&DATA, 3, 8);
        let pos = scan_positions(&DATA, 3, 8);
        let mat = scan_materialize(&DATA, 3, 8);
        assert_eq!(count, 4);
        assert_eq!(sum, 5 + 3 + 7 + 3);
        assert_eq!(pos.len(), 4);
        assert_eq!(mat.len(), 4);
        let full = scan_full(&DATA, 3, 8);
        assert_eq!(full.count, count);
        assert_eq!(full.sum, sum);
        assert_eq!(full.rows, pos);
    }

    #[test]
    fn find_first_matches_position_at_every_offset() {
        let values: Vec<Value> = (0..3 * CHUNK as Value + 5).map(|i| i % 150).collect();
        for v in [0, 1, 63, 64, 100, 149, 150, -1] {
            assert_eq!(
                find_first(&values, v),
                values.iter().position(|&x| x == v),
                "value {v}"
            );
        }
        assert_eq!(find_first(&[], 3), None);
        assert_eq!(find_first(&values[10..], 5), Some(145));
    }

    #[test]
    fn empty_and_inverted_ranges() {
        assert_eq!(scan_count(&DATA, 5, 5), 0);
        assert_eq!(scan_count(&DATA, 8, 3), 0);
        assert_eq!(scan_sum(&DATA, 8, 3), 0);
        assert!(scan_positions(&DATA, 8, 3).is_empty());
        assert!(scan_materialize(&DATA, 8, 3).is_empty());
        assert_eq!(scan_full(&DATA, 8, 3).count, 0);
    }

    #[test]
    fn full_domain_range_selects_everything() {
        let count = scan_count(&DATA, i64::MIN, i64::MAX);
        assert_eq!(count, DATA.len() as u64);
    }

    #[test]
    fn boundaries_are_half_open() {
        // lo inclusive, hi exclusive
        assert_eq!(scan_count(&DATA, 3, 4), 2); // the two 3s
        assert_eq!(scan_count(&DATA, 9, 10), 1); // 9 qualifies, 10 does not
        assert_eq!(scan_count(&DATA, 10, 11), 1); // now the 10
    }

    #[test]
    fn empty_input_slice() {
        let empty: [Value; 0] = [];
        assert_eq!(scan_count(&empty, 0, 100), 0);
        assert!(scan_positions(&empty, 0, 100).is_empty());
        assert_eq!(scan_full(&empty, 0, 100).sum, 0);
    }

    #[test]
    fn negative_values_are_handled() {
        let data = [-5, -1, 0, 3];
        assert_eq!(scan_count(&data, -3, 1), 2);
        assert_eq!(scan_sum(&data, -10, 0), -6);
    }

    #[test]
    fn inputs_longer_than_one_chunk_agree_with_reference() {
        // Deterministic pseudo-random data spanning several chunks plus a
        // non-empty remainder.
        let n = CHUNK * 5 + 17;
        let values: Vec<Value> = (0..n)
            .map(|i| ((i as i64).wrapping_mul(2654435761) % 1000) - 500)
            .collect();
        for &(lo, hi) in &[(-500, 500), (-100, 100), (0, 1), (-500, -400), (499, 500)] {
            let expected_count = values.iter().filter(|&&v| v >= lo && v < hi).count() as u64;
            let expected_sum: i128 = values
                .iter()
                .filter(|&&v| v >= lo && v < hi)
                .map(|&v| i128::from(v))
                .sum();
            let expected_rows: Vec<RowId> = values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v >= lo && v < hi)
                .map(|(i, _)| i as RowId)
                .collect();
            assert_eq!(scan_count(&values, lo, hi), expected_count, "[{lo},{hi})");
            assert_eq!(scan_sum(&values, lo, hi), expected_sum, "[{lo},{hi})");
            assert_eq!(scan_positions(&values, lo, hi).rows(), &expected_rows[..]);
            let full = scan_full(&values, lo, hi);
            assert_eq!(full.count, expected_count);
            assert_eq!(full.sum, expected_sum);
            assert_eq!(full.rows.rows(), &expected_rows[..]);
            let mat = scan_materialize(&values, lo, hi);
            assert_eq!(mat.len(), expected_count as usize);
            assert!(mat.iter().all(|&v| v >= lo && v < hi));
        }
    }

    #[test]
    fn prefix_sums_match_reference_across_chunks() {
        let n = CHUNK * 3 + 11;
        let values: Vec<Value> = (0..n)
            .map(|i| ((i as i64).wrapping_mul(2654435761) % 1000) - 500)
            .collect();
        let prefix = prefix_sums(&values);
        assert_eq!(prefix.len(), n + 1);
        assert_eq!(prefix[0], 0);
        let mut acc = 0i128;
        for (i, &v) in values.iter().enumerate() {
            acc += i128::from(v);
            assert_eq!(prefix[i + 1], acc, "entry {}", i + 1);
        }
        // Any range sum is a subtraction of two entries.
        assert_eq!(
            prefix[40] - prefix[7],
            values[7..40].iter().map(|&v| i128::from(v)).sum::<i128>()
        );
        assert_eq!(prefix_sums(&[]), vec![0]);
    }

    #[test]
    fn extreme_domain_values_do_not_overflow() {
        let values = vec![i64::MAX, i64::MIN, i64::MAX, 0, i64::MIN];
        let sum = scan_sum(&values, i64::MIN, i64::MAX);
        // i64::MAX excluded by the half-open upper bound.
        let expected: i128 = i128::from(i64::MIN) * 2;
        assert_eq!(sum, expected);
        let all = scan_sum(&values, i64::MIN, i64::MAX);
        assert_eq!(all, expected);
        let wide: Vec<Value> = std::iter::repeat_n(i64::MAX, CHUNK * 2).collect();
        assert_eq!(
            scan_sum(&wide, 0, i64::MAX),
            0,
            "MAX is excluded by the exclusive bound"
        );
        let wide_min: Vec<Value> = std::iter::repeat_n(i64::MIN, CHUNK * 2).collect();
        assert_eq!(
            scan_sum(&wide_min, i64::MIN, 0),
            i128::from(i64::MIN) * (CHUNK as i128 * 2)
        );
    }
}

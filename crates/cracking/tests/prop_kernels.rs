//! Property-based equivalence suite: the predicated (branch-free) kernels
//! must be observationally equivalent to the branchy reference kernels.
//!
//! For arbitrary pieces and pivots, every variant pair must agree on:
//!
//! * the partition boundaries (the returned split points);
//! * the value multiset (no value lost, duplicated or invented);
//! * the partition predicate itself (each region holds only the values the
//!   contract promises);
//! * value/row-id pair alignment in the `_with_rowids` forms (every row id
//!   still addresses its original value after the permutation).
//!
//! Degenerate inputs — empty pieces, single elements, all-equal pieces,
//! pivots outside the value domain, and empty (`hi <= lo`) intervals — are
//! exercised both through dedicated generators and as boundary cases of the
//! general ones.
//!
//! The sum-fused forms production runs are checked the same way, over
//! full-range `i64` values: the dispatching `*_sums_pred` kernels (the
//! AVX-512 compress partition from 16 values on hosts that have it, the
//! scalar predicated loop otherwise) against the branchy `*_sums` kernels,
//! including both side sums.

use proptest::prelude::*;

use holistic_cracking::kernels::{
    crack_in_k_sums, crack_in_k_sums_pred, crack_in_k_with_rowids_sums,
    crack_in_k_with_rowids_sums_pred, crack_in_three, crack_in_three_pred, crack_in_three_sums,
    crack_in_three_sums_pred, crack_in_three_with_rowids, crack_in_three_with_rowids_pred,
    crack_in_three_with_rowids_sums, crack_in_three_with_rowids_sums_pred, crack_in_two,
    crack_in_two_pred, crack_in_two_sums, crack_in_two_sums_pred, crack_in_two_with_rowids,
    crack_in_two_with_rowids_pred, crack_in_two_with_rowids_sums,
    crack_in_two_with_rowids_sums_pred, CrackKernel,
};

type Value = i64;
type RowId = u32;

fn sorted(mut v: Vec<Value>) -> Vec<Value> {
    v.sort_unstable();
    v
}

fn rowids_for(values: &[Value]) -> Vec<RowId> {
    (0..values.len() as RowId).collect()
}

fn assert_pairs_preserved(original: &[Value], data: &[Value], rowids: &[RowId]) {
    assert_eq!(data.len(), rowids.len());
    for (&v, &id) in data.iter().zip(rowids) {
        assert_eq!(original[id as usize], v, "rowid {id} lost its value");
    }
}

prop_compose! {
    fn arb_piece()(values in prop::collection::vec(-1000i64..1000, 0..600)) -> Vec<Value> {
        values
    }
}

prop_compose! {
    fn arb_all_equal()(v in -1000i64..1000, len in 0usize..200) -> Vec<Value> {
        vec![v; len]
    }
}

prop_compose! {
    /// Full-range values, with `i64::MIN`, `i64::MAX` and small values mixed
    /// in so that pivots equal to elements, duplicates and the extremes of
    /// the sums all come up.
    fn arb_full_range_piece()(
        values in prop::collection::vec((any::<i64>(), 0u8..8), 0..600)
    ) -> Vec<Value> {
        values
            .into_iter()
            .map(|(v, kind)| match kind {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => v % 16,
                _ => v,
            })
            .collect()
    }
}

/// A pivot that is an element of `values` when `from_piece` holds (and the
/// piece is not empty), `any` otherwise.
fn pick_pivot(values: &[Value], any: Value, at: prop::sample::Index, from_piece: bool) -> Value {
    if from_piece && !values.is_empty() {
        values[at.index(values.len())]
    } else {
        any
    }
}

fn sum(values: &[Value]) -> i128 {
    values.iter().map(|&v| i128::from(v)).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn crack_in_two_sums_pred_equals_branchy(
        values in arb_full_range_piece(),
        any_pivot in any::<i64>(),
        at in any::<prop::sample::Index>(),
        from_piece in any::<bool>(),
    ) {
        let pivot = pick_pivot(&values, any_pivot, at, from_piece);
        let mut branchy = values.clone();
        let mut pred = values.clone();
        let expected = crack_in_two_sums(&mut branchy, pivot);
        let got = crack_in_two_sums_pred(&mut pred, pivot);
        prop_assert_eq!(got, expected, "split and both sums must match");
        prop_assert_eq!(got.lo_sum, sum(&pred[..got.split]));
        prop_assert_eq!(got.total_sum, sum(&values));
        prop_assert!(pred[..got.split].iter().all(|&v| v < pivot));
        prop_assert!(pred[got.split..].iter().all(|&v| v >= pivot));
        prop_assert_eq!(sorted(pred), sorted(values), "multiset must be preserved");
    }

    #[test]
    fn crack_in_two_rowids_sums_pred_equals_branchy(
        values in arb_full_range_piece(),
        any_pivot in any::<i64>(),
        at in any::<prop::sample::Index>(),
        from_piece in any::<bool>(),
    ) {
        let pivot = pick_pivot(&values, any_pivot, at, from_piece);
        let mut branchy = values.clone();
        let mut branchy_ids = rowids_for(&values);
        let mut pred = values.clone();
        let mut pred_ids = rowids_for(&values);
        let expected = crack_in_two_with_rowids_sums(&mut branchy, &mut branchy_ids, pivot);
        let got = crack_in_two_with_rowids_sums_pred(&mut pred, &mut pred_ids, pivot);
        prop_assert_eq!(got, expected);
        prop_assert!(pred[..got.split].iter().all(|&v| v < pivot));
        prop_assert!(pred[got.split..].iter().all(|&v| v >= pivot));
        assert_pairs_preserved(&values, &pred, &pred_ids);
        let mut ids = pred_ids;
        ids.sort_unstable();
        prop_assert_eq!(ids, rowids_for(&values), "row ids must stay a permutation");
    }

    #[test]
    fn crack_in_three_sums_pred_equals_branchy(
        values in arb_full_range_piece(),
        (any_lo, any_hi) in (any::<i64>(), any::<i64>()),
        (at_lo, at_hi) in (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
        from_piece in any::<bool>(),
        with_rowids in any::<bool>(),
    ) {
        // Unordered bounds exercise the degenerate `hi <= lo` path too.
        let lo = pick_pivot(&values, any_lo, at_lo, from_piece);
        let hi = pick_pivot(&values, any_hi, at_hi, from_piece);
        let mut branchy = values.clone();
        let mut pred = values.clone();
        let (expected, got) = if with_rowids {
            let mut branchy_ids = rowids_for(&values);
            let mut pred_ids = rowids_for(&values);
            let expected = crack_in_three_with_rowids_sums(&mut branchy, &mut branchy_ids, lo, hi);
            let got = crack_in_three_with_rowids_sums_pred(&mut pred, &mut pred_ids, lo, hi);
            assert_pairs_preserved(&values, &pred, &pred_ids);
            (expected, got)
        } else {
            (
                crack_in_three_sums(&mut branchy, lo, hi),
                crack_in_three_sums_pred(&mut pred, lo, hi),
            )
        };
        prop_assert_eq!(got, expected, "boundaries and region sums must match");
        prop_assert_eq!(got.sums[0], sum(&pred[..got.a]));
        prop_assert_eq!(got.sums[1], sum(&pred[got.a..got.b]));
        prop_assert_eq!(got.sums[2], sum(&pred[got.b..]));
        prop_assert!(pred[..got.a].iter().all(|&v| v < lo));
        if hi > lo {
            prop_assert!(pred[got.a..got.b].iter().all(|&v| v >= lo && v < hi));
            prop_assert!(pred[got.b..].iter().all(|&v| v >= hi));
        }
        prop_assert_eq!(sorted(pred), sorted(values));
    }

    #[test]
    fn crack_in_k_sums_pred_equals_branchy(
        values in arb_full_range_piece(),
        picks in prop::collection::vec(
            (any::<i64>(), any::<prop::sample::Index>(), any::<bool>()),
            0..12,
        ),
        with_rowids in any::<bool>(),
    ) {
        let mut pivots: Vec<Value> = picks
            .into_iter()
            .map(|(v, at, from_piece)| pick_pivot(&values, v, at, from_piece))
            .collect();
        pivots.sort_unstable();
        pivots.dedup();
        let mut branchy = values.clone();
        let mut pred = values.clone();
        let (expected, got) = if with_rowids {
            let mut branchy_ids = rowids_for(&values);
            let mut pred_ids = rowids_for(&values);
            let expected = crack_in_k_with_rowids_sums(&mut branchy, &mut branchy_ids, &pivots);
            let got = crack_in_k_with_rowids_sums_pred(&mut pred, &mut pred_ids, &pivots);
            assert_pairs_preserved(&values, &pred, &pred_ids);
            (expected, got)
        } else {
            (
                crack_in_k_sums(&mut branchy, &pivots),
                crack_in_k_sums_pred(&mut pred, &pivots),
            )
        };
        prop_assert_eq!(&got, &expected, "boundaries and segment sums must match");
        if !pivots.is_empty() {
            let mut cuts = vec![0usize];
            cuts.extend_from_slice(&got.boundaries);
            cuts.push(pred.len());
            for (i, w) in cuts.windows(2).enumerate() {
                prop_assert_eq!(got.segment_sums[i], sum(&pred[w[0]..w[1]]));
            }
        }
        prop_assert_eq!(sorted(pred), sorted(values));
    }

    #[test]
    fn crack_in_two_pred_equals_branchy(values in arb_piece(), pivot in -1100i64..1100) {
        let mut branchy = values.clone();
        let mut pred = values.clone();
        let sa = crack_in_two(&mut branchy, pivot);
        let sb = crack_in_two_pred(&mut pred, pivot);
        prop_assert_eq!(sa, sb, "partition boundary must match");
        prop_assert!(pred[..sb].iter().all(|&v| v < pivot));
        prop_assert!(pred[sb..].iter().all(|&v| v >= pivot));
        prop_assert_eq!(sorted(pred), sorted(values.clone()), "multiset must be preserved");
        prop_assert_eq!(sorted(branchy), sorted(values), "branchy multiset must be preserved");
    }

    #[test]
    fn crack_in_two_rowids_pred_equals_branchy(values in arb_piece(), pivot in -1100i64..1100) {
        let mut branchy = values.clone();
        let mut branchy_ids = rowids_for(&values);
        let mut pred = values.clone();
        let mut pred_ids = rowids_for(&values);
        let sa = crack_in_two_with_rowids(&mut branchy, &mut branchy_ids, pivot);
        let sb = crack_in_two_with_rowids_pred(&mut pred, &mut pred_ids, pivot);
        prop_assert_eq!(sa, sb);
        assert_pairs_preserved(&values, &branchy, &branchy_ids);
        assert_pairs_preserved(&values, &pred, &pred_ids);
        // Row ids are a permutation (no id lost or duplicated).
        let mut ids = pred_ids.clone();
        ids.sort_unstable();
        prop_assert_eq!(ids, rowids_for(&values));
    }

    #[test]
    fn crack_in_three_pred_equals_branchy(
        values in arb_piece(),
        lo in -1100i64..1100,
        width in -200i64..400,
    ) {
        // `width` may be negative: exercises the degenerate hi <= lo path.
        let hi = lo + width;
        let mut branchy = values.clone();
        let mut pred = values.clone();
        let (a1, b1) = crack_in_three(&mut branchy, lo, hi);
        let (a2, b2) = crack_in_three_pred(&mut pred, lo, hi);
        prop_assert_eq!((a1, b1), (a2, b2), "partition boundaries must match");
        prop_assert!(pred[..a2].iter().all(|&v| v < lo));
        if hi > lo {
            prop_assert!(pred[a2..b2].iter().all(|&v| v >= lo && v < hi));
            prop_assert!(pred[b2..].iter().all(|&v| v >= hi));
        } else {
            prop_assert_eq!(a2, b2, "degenerate interval must report an empty middle");
            prop_assert!(pred[a2..].iter().all(|&v| v >= lo));
        }
        prop_assert_eq!(sorted(pred), sorted(values));
    }

    #[test]
    fn crack_in_three_rowids_pred_equals_branchy(
        values in arb_piece(),
        lo in -1100i64..1100,
        width in -200i64..400,
    ) {
        let hi = lo + width;
        let mut branchy = values.clone();
        let mut branchy_ids = rowids_for(&values);
        let mut pred = values.clone();
        let mut pred_ids = rowids_for(&values);
        let ra = crack_in_three_with_rowids(&mut branchy, &mut branchy_ids, lo, hi);
        let rb = crack_in_three_with_rowids_pred(&mut pred, &mut pred_ids, lo, hi);
        prop_assert_eq!(ra, rb);
        assert_pairs_preserved(&values, &branchy, &branchy_ids);
        assert_pairs_preserved(&values, &pred, &pred_ids);
    }

    #[test]
    fn all_equal_pieces_agree(values in arb_all_equal(), pivot in -1100i64..1100) {
        let mut branchy = values.clone();
        let mut pred = values.clone();
        prop_assert_eq!(
            crack_in_two(&mut branchy, pivot),
            crack_in_two_pred(&mut pred, pivot)
        );
        let mut branchy = values.clone();
        let mut pred = values.clone();
        prop_assert_eq!(
            crack_in_three(&mut branchy, pivot, pivot + 1),
            crack_in_three_pred(&mut pred, pivot, pivot + 1)
        );
    }

    #[test]
    fn tiny_pieces_agree(values in prop::collection::vec(-10i64..10, 0..2), pivot in -12i64..12) {
        // Empty and single-element pieces.
        let mut branchy = values.clone();
        let mut pred = values.clone();
        prop_assert_eq!(
            crack_in_two(&mut branchy, pivot),
            crack_in_two_pred(&mut pred, pivot)
        );
        prop_assert_eq!(branchy, pred, "on ≤1 element the layouts are identical");
    }

    #[test]
    fn dispatcher_is_equivalent_at_every_policy(
        values in arb_piece(),
        pivot in -1100i64..1100,
        threshold in 0usize..700,
    ) {
        for kernel in [
            CrackKernel::Branchy,
            CrackKernel::Predicated,
            CrackKernel::Auto { branchy_below: threshold },
        ] {
            let mut reference = values.clone();
            let mut dispatched = values.clone();
            let expected = crack_in_two(&mut reference, pivot);
            let got = kernel.crack_in_two(&mut dispatched, pivot);
            prop_assert_eq!(expected, got, "policy {} diverged", kernel);
            prop_assert_eq!(sorted(dispatched), sorted(values.clone()));

            let mut reference = values.clone();
            let mut dispatched = values.clone();
            let expected = crack_in_two_sums(&mut reference, pivot);
            let got = kernel.crack_in_two_sums(&mut dispatched, pivot);
            prop_assert_eq!(expected, got, "policy {} diverged on the sums form", kernel);
            prop_assert_eq!(sorted(dispatched), sorted(values.clone()));
        }
    }
}

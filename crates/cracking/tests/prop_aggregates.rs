//! Property-based tests for the per-piece aggregate cache: on arbitrary
//! data and operation sequences, every cached piece sum must equal a fresh
//! recomputation from the data, and resolved range aggregates must equal a
//! scan of the base values.
//!
//! Covered operation mixes:
//!
//! * two-way cracks (`crack_select`) and multi-pivot batch cracks
//!   (`crack_select_batch`), with and without row ids;
//! * random refinement actions (the idle-time building block);
//! * update merges (ripple insertion/deletion through
//!   `UpdatableCrackerColumn`), which grow and shrink the column;
//! * direct `PieceIndex` maintenance: sum-recorded splits interleaved with
//!   `grow`/`shrink` against a model data array;
//! * full sorts (`sort_fully`) interleaved with everything above: sorted
//!   pieces carry prefix-sum arrays that must stay exact through
//!   binary-search splits and ripple-patched update merges;
//! * the piece index's run-sum sidecar: after every operation of random
//!   programs (cracks, batch cracks, ripple insert/delete batches, sorts
//!   and prefix seeding, recovery round-trips, injected sum flips, direct
//!   grow/shrink), the sidecar's total for a run of whole pieces equals
//!   the piece-by-piece walk, and the aggregate over the run equals a
//!   scan of the data.

use proptest::prelude::*;

use holistic_cracking::{
    corrupt_column, CorruptionKind, CrackerColumn, PieceIndex, UpdatableCrackerColumn,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scan_sum(values: &[i64], lo: i64, hi: i64) -> i128 {
    values
        .iter()
        .filter(|&&v| v >= lo && v < hi)
        .map(|&v| i128::from(v))
        .sum()
}

fn slice_sum(values: &[i64]) -> i128 {
    values.iter().map(|&v| i128::from(v)).sum()
}

/// The central coherence property: every `Some` piece sum equals a fresh
/// scan of exactly that piece's slice, and every prefix-sum array agrees
/// with a fresh recomputation over the piece's extent.
fn assert_cache_equals_recompute(c: &CrackerColumn) {
    for (i, p) in c.pieces().iter().enumerate() {
        if let Some(sum) = p.sum {
            assert_eq!(
                sum,
                slice_sum(&c.data()[p.start..p.end]),
                "piece {i} cached sum diverged"
            );
        }
        if let Some(prefix) = p.covering_prefix() {
            for pos in p.start..p.end {
                assert_eq!(
                    prefix.sum_range(p.start..pos + 1),
                    slice_sum(&c.data()[p.start..pos + 1]),
                    "piece {i} prefix diverged at position {pos}"
                );
            }
        }
    }
}

/// Sidecar ≡ walk: for every run of whole pieces — all runs on small
/// tables, the runs from a spread of start pieces on large ones — the
/// index's cached run sum equals the piece-by-piece total of the cached
/// sums, and is `None` exactly when the run holds a piece without one (the
/// case `aggregate_range` must price by walking).
fn assert_sidecar_equals_walk(idx: &PieceIndex) {
    let pieces = idx.pieces();
    let n = pieces.len();
    let stride = (n / 12).max(1);
    for a in (0..n).filter(|&a| n <= 64 || a % stride == 0 || a + 1 == n) {
        let mut walk = Some(0i128);
        for b in a + 1..=n {
            walk = walk.and_then(|w| pieces[b - 1].sum.map(|s| w + s));
            assert_eq!(idx.cached_run_sum(a..b), walk, "run {a}..{b} of {n}");
        }
    }
    assert_eq!(idx.cached_run_sum(0..n + 1), None, "run past the table");
}

/// Walk ≡ scan: aggregates over runs of whole pieces (every single piece
/// and a spread of longer runs) equal a scan of the data, and account for
/// every piece of the run exactly once.
fn assert_runs_equal_scan(c: &CrackerColumn) {
    let pieces = c.pieces();
    let n = pieces.len();
    let stride = (n / 8).max(1);
    for a in 0..n {
        let ends = [a + 1, (a + stride).min(n), n];
        for b in ends {
            if a % stride != 0 && b != a + 1 {
                continue;
            }
            let range = pieces[a].start..pieces[b - 1].end;
            let agg = c.aggregate_range(range.clone(), i64::MIN, i64::MAX);
            assert_eq!(agg.sum, slice_sum(&c.data()[range]), "run {a}..{b}");
            assert_eq!(
                agg.cached_pieces + agg.prefix_pieces + agg.scanned_pieces,
                b - a,
                "run {a}..{b} accounts for each piece once"
            );
        }
    }
}

prop_compose! {
    fn arb_column()(values in prop::collection::vec(-1000i64..1000, 0..400)) -> Vec<i64> {
        values
    }
}

prop_compose! {
    fn arb_queries()(queries in prop::collection::vec((-1100i64..1100, -20i64..300), 1..30))
        -> Vec<(i64, i64)>
    {
        // Negative widths produce inverted (empty) ranges on purpose.
        queries.into_iter().map(|(lo, w)| (lo, lo + w)).collect()
    }
}

prop_compose! {
    /// Mixed operations: `(tag, a, b)` interpreted by `apply_op`.
    fn arb_ops()(ops in prop::collection::vec((0u8..7, -1100i64..1100, 0i64..300), 1..40))
        -> Vec<(u8, i64, i64)>
    {
        ops
    }
}

/// Interprets one mixed operation against the updatable column and the
/// reference multiset.
fn apply_op(
    u: &mut UpdatableCrackerColumn,
    reference: &mut Vec<i64>,
    op: (u8, i64, i64),
    rng: &mut StdRng,
) {
    let (tag, a, w) = op;
    match tag {
        // Range select: merges in-range pending updates, then cracks.
        0 | 1 => {
            let _ = u.select(a, a + w);
        }
        // Queue an insert.
        2 => {
            u.insert(a);
            reference.push(a);
        }
        // Queue a delete of a (probably) present value.
        3 => {
            if let Some(&v) = reference.get((w as usize) % reference.len().max(1)) {
                u.delete(v);
                let pos = reference.iter().position(|&x| x == v).unwrap();
                reference.remove(pos);
            }
        }
        // Merge everything that is pending.
        4 => u.merge_all(),
        // Full sort: collapses the index to one sorted, prefix-seeded
        // piece, so later selects split it by binary search and later
        // update merges exercise the ripple's prefix patching.
        5 => u.sort_fully(),
        // A couple of random refinement actions cannot be applied through
        // the updatable wrapper; emulate idle-time work with selects on
        // random bounds instead.
        _ => {
            let lo = (a % 1000).min(900);
            let _ = u.select(lo, lo + (w % 50));
            let _ = rng; // reserved for future op kinds
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_equals_recompute_after_two_way_cracks(
        values in arb_column(),
        queries in arb_queries(),
        with_rowids in any::<bool>(),
    ) {
        let mut c = if with_rowids {
            CrackerColumn::from_values_with_rowids(values.clone())
        } else {
            CrackerColumn::from_values(values.clone())
        };
        for &(lo, hi) in &queries {
            let r = c.crack_select(lo, hi);
            let agg = c.aggregate_range(r, lo, hi);
            prop_assert_eq!(agg.sum, scan_sum(&values, lo, hi), "[{}, {})", lo, hi);
            assert_cache_equals_recompute(&c);
            prop_assert!(c.validate());
        }
        // After any non-degenerate crack, every piece the pass produced
        // carries a cached sum; re-running the same queries is then pure
        // metadata.
        for &(lo, hi) in &queries {
            let r = c.crack_select(lo, hi);
            let agg = c.aggregate_range(r, lo, hi);
            prop_assert_eq!(agg.sum, scan_sum(&values, lo, hi));
            prop_assert_eq!(agg.scanned_values, 0, "resolved replay must be metadata-only");
        }
    }

    #[test]
    fn cache_equals_recompute_after_multi_pivot_batches(
        values in arb_column(),
        batch in arb_queries(),
        with_rowids in any::<bool>(),
    ) {
        let mut batched = if with_rowids {
            CrackerColumn::from_values_with_rowids(values.clone())
        } else {
            CrackerColumn::from_values(values.clone())
        };
        let mut sequential = batched.clone();
        let ranges = batched.crack_select_batch(&batch);
        for (r, &(lo, hi)) in ranges.iter().zip(&batch) {
            let agg = batched.aggregate_range(r.clone(), lo, hi);
            prop_assert_eq!(agg.sum, scan_sum(&values, lo, hi), "[{}, {})", lo, hi);
        }
        assert_cache_equals_recompute(&batched);
        prop_assert!(batched.validate());
        // The sequential replay produces the *identical* piece table —
        // including identical cached sums (Piece equality covers `sum`).
        for &(lo, hi) in &batch {
            let _ = sequential.crack_select(lo, hi);
        }
        prop_assert_eq!(batched.index(), sequential.index());
    }

    #[test]
    fn cache_equals_recompute_after_random_refinement(
        values in arb_column(),
        actions in 0u64..150,
        seed in any::<u64>(),
    ) {
        let mut c = CrackerColumn::from_values(values.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        c.random_cracks(actions, &mut rng);
        assert_cache_equals_recompute(&c);
        prop_assert!(c.validate());
        let agg = c.aggregate_range(0..c.len(), i64::MIN, i64::MAX);
        prop_assert_eq!(agg.sum, slice_sum(&values));
    }

    #[test]
    fn cache_equals_recompute_after_update_merges(
        values in arb_column(),
        ops in arb_ops(),
        seed in any::<u64>(),
        with_rowids in any::<bool>(),
    ) {
        let mut u = if with_rowids {
            UpdatableCrackerColumn::from_values_with_rowids(values.clone())
        } else {
            UpdatableCrackerColumn::from_values(values.clone())
        };
        let mut reference = values.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        for &op in &ops {
            apply_op(&mut u, &mut reference, op, &mut rng);
            assert_cache_equals_recompute(u.cracker());
            prop_assert!(u.validate());
        }
        // Flush everything and check the full aggregate against the model.
        u.merge_all();
        assert_cache_equals_recompute(u.cracker());
        let r = u.select(i64::MIN, i64::MAX);
        let agg = u.cracker().aggregate_range(r, i64::MIN, i64::MAX);
        prop_assert_eq!(agg.count as usize, reference.len());
        // i64::MAX is excluded by the half-open upper bound, but arb values
        // never reach it, so the full-range sum covers the whole multiset.
        prop_assert_eq!(agg.sum, slice_sum(&reference));
    }

    #[test]
    fn prefix_sums_survive_sorted_splits_interleaved_with_updates(
        values in arb_column(),
        ops in arb_ops(),
        seed in any::<u64>(),
        with_rowids in any::<bool>(),
    ) {
        // Start from a fully sorted, prefix-seeded column, then interleave
        // selects (binary-search splits sharing the prefix), inserts and
        // deletes (ripple patches), occasional re-sorts, and full merges.
        // After every operation the prefix arrays must equal a fresh
        // recomputation, and resolved aggregates must equal a model scan.
        let mut u = if with_rowids {
            UpdatableCrackerColumn::from_values_with_rowids(values.clone())
        } else {
            UpdatableCrackerColumn::from_values(values.clone())
        };
        u.sort_fully();
        prop_assert!(u.cracker().prefix_pieces() >= usize::from(!values.is_empty()));
        let mut reference = values.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        for &op in &ops {
            apply_op(&mut u, &mut reference, op, &mut rng);
            assert_cache_equals_recompute(u.cracker());
            prop_assert!(u.validate());
            // Sorted-piece aggregates answered read-only must match the
            // model — but only when no updates are pending in the probed
            // range (selects merge first; the read-only path does not).
            if u.pending_inserts() == 0 && u.pending_deletes() == 0 {
                let (lo, hi) = (op.1.min(900), op.1.min(900) + (op.2 % 80) + 1);
                if let Some(r) = u.cracker().select_if_answerable(lo, hi) {
                    let agg = u.cracker().aggregate_range(r, lo, hi);
                    let expected: i128 = reference
                        .iter()
                        .filter(|&&v| v >= lo && v < hi)
                        .map(|&v| i128::from(v))
                        .sum();
                    prop_assert_eq!(agg.sum, expected, "[{}, {}) read-only", lo, hi);
                    prop_assert_eq!(agg.scanned_values, 0, "[{}, {}) zero-read", lo, hi);
                }
            }
        }
        // Re-sort at the end: one sorted piece, prefix seeded, aggregates
        // exact over the final multiset.
        u.sort_fully();
        assert_cache_equals_recompute(u.cracker());
        let r = u.cracker().select_if_answerable(i64::MIN, i64::MAX)
            .expect("sorted column is always answerable");
        let agg = u.cracker().aggregate_range(r, i64::MIN, i64::MAX);
        prop_assert_eq!(agg.count as usize, reference.len());
        prop_assert_eq!(agg.sum, slice_sum(&reference));
        prop_assert_eq!(agg.scanned_values, 0);
    }

    #[test]
    fn index_sums_survive_direct_splits_grows_and_shrinks(
        initial in prop::collection::vec(-1000i64..1000, 1..200),
        ops in prop::collection::vec((0u8..4, -1100i64..1100, 1usize..8), 1..40),
    ) {
        // Model: a data array maintained alongside a bare PieceIndex. Splits
        // physically partition the model slice and record sums; grow appends
        // (cache-invalidating) values; shrink truncates.
        let mut data = initial.clone();
        let mut idx = PieceIndex::new(data.len());
        for &(tag, pivot, k) in &ops {
            match tag {
                // Sum-recorded split at `pivot` inside its current piece;
                // every third one records no sums (uncached pieces the
                // sidecar must report as such).
                0 | 1 => {
                    if idx.is_empty() {
                        continue;
                    }
                    let target = idx.find_piece_for_value(pivot).unwrap();
                    if idx.resolved_boundary(pivot).is_some() {
                        continue;
                    }
                    let p = idx.piece(target);
                    let slice = &mut data[p.start..p.end];
                    // Manual partition (the kernel equivalence is proven
                    // elsewhere; here we test the *index* maintenance).
                    let mut parts: Vec<i64> = slice.iter().copied().filter(|&v| v < pivot).collect();
                    let split = parts.len();
                    parts.extend(slice.iter().copied().filter(|&v| v >= pivot));
                    let lo_sum = slice_sum(&parts[..split]);
                    let total = slice_sum(&parts);
                    slice.copy_from_slice(&parts);
                    if k % 3 == 0 {
                        idx.split(target, p.start + split, pivot);
                    } else {
                        idx.split_with_sums(target, p.start + split, pivot, lo_sum, total);
                    }
                }
                // Grow: append k values (the appended tail is admissible
                // for the last piece only if its bounds allow; mirror the
                // updates module by relaxing nothing and accepting that the
                // last piece's sum is invalidated).
                2 => {
                    let last_hi = idx
                        .pieces()
                        .last()
                        .and_then(|p| p.lo)
                        .unwrap_or(0);
                    for i in 0..k {
                        data.push(last_hi.saturating_add(i as i64));
                    }
                    idx.grow(k);
                }
                // Shrink: drop k values from the end.
                _ => {
                    let k = k.min(data.len());
                    data.truncate(data.len() - k);
                    idx.shrink(k);
                }
            }
            prop_assert!(idx.validate(&data), "index invariants (incl. sums) violated");
            assert_sidecar_equals_walk(&idx);
        }
    }
}

proptest! {
    // Fewer, larger cases: the programs refine columns past a thousand
    // pieces, so the sidecar spans several blocks and its block cuts,
    // cross-block deltas and removals are exercised.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sidecar_equals_walk_equals_scan_through_random_programs(
        values in prop::collection::vec(-20_000i64..20_000, 0..4000),
        ops in prop::collection::vec((0u8..10, -21_000i64..21_000, 0i64..1200), 1..24),
        with_rowids in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut c = if with_rowids {
            CrackerColumn::from_values_with_rowids(values.clone())
        } else {
            CrackerColumn::from_values(values.clone())
        };
        let mut reference = values.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut next_rowid = values.len() as u32;
        for &(tag, a, w) in &ops {
            match tag {
                0 => {
                    let _ = c.crack_select(a, a + w);
                }
                1 => {
                    let bounds: Vec<(i64, i64)> =
                        (0..4).map(|i| (a + i * 97, a + i * 97 + w / 4 + 1)).collect();
                    let _ = c.crack_select_batch(&bounds);
                }
                2 => {
                    let batch: Vec<(i64, u32)> = (0..(w % 9) + 2)
                        .map(|i| {
                            next_rowid += 1;
                            (a + i * 31, next_rowid)
                        })
                        .collect();
                    reference.extend(batch.iter().map(|&(v, _)| v));
                    c.ripple_insert_batch(&batch);
                }
                3 => {
                    let picks: Vec<i64> = (0..(w % 9) + 2)
                        .filter_map(|i| {
                            let n = reference.len();
                            (n > 0).then(|| reference[(a.unsigned_abs() as usize + i as usize * 7) % n])
                        })
                        .collect();
                    for (v, found) in picks.iter().zip(c.ripple_delete_batch(&picks)) {
                        if found {
                            let pos = reference.iter().position(|x| x == v).unwrap();
                            reference.swap_remove(pos);
                        }
                    }
                }
                4 => {
                    next_rowid += 1;
                    c.ripple_insert(a, next_rowid);
                    reference.push(a);
                }
                5 => {
                    if let Some(&v) = reference.get(w as usize % reference.len().max(1)) {
                        prop_assert!(c.ripple_delete(v));
                        let pos = reference.iter().position(|&x| x == v).unwrap();
                        reference.swap_remove(pos);
                    }
                }
                6 => {
                    let _ = c.seed_prefix_sums();
                }
                7 => c.sort_fully(),
                8 => {
                    // Recovery round-trip: the sidecar is rebuilt from the
                    // decoded pieces, and equality sees only the pieces.
                    let index = PieceIndex::from_parts(c.len(), c.pieces().to_vec()).unwrap();
                    let back = CrackerColumn::from_parts(
                        c.data().to_vec(),
                        c.rowids().map(<[u32]>::to_vec),
                        index,
                        c.kernel(),
                        c.cracks_performed(),
                    )
                    .unwrap();
                    prop_assert_eq!(back.index(), c.index());
                    c = back;
                }
                _ => {
                    let _ = c.random_cracks(w as u64, &mut rng);
                    // An injected sum flip travels through the sidecar too:
                    // validation fails on the piece, the sidecar still
                    // matches the (flipped) walk, and flipping back heals.
                    if corrupt_column(&mut c, CorruptionKind::SumFlip) {
                        assert_sidecar_equals_walk(c.index());
                        prop_assert!(!c.validate(), "a flipped sum must be detected");
                        prop_assert!(corrupt_column(&mut c, CorruptionKind::SumFlip));
                    }
                }
            }
            assert_sidecar_equals_walk(c.index());
            prop_assert!(c.validate());
            assert_runs_equal_scan(&c);
            let full = c.aggregate_range(0..c.len(), i64::MIN, i64::MAX);
            prop_assert_eq!(full.sum, slice_sum(&reference));
        }
    }
}

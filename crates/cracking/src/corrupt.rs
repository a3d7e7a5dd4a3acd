//! Deterministic live corruption injection for learned cracking state.
//!
//! The persistence layer's `FaultInjector` proves the *recovery* path by
//! killing IO at every operation index; this module is its runtime twin.
//! A [`CorruptionInjector`] counts engine operations and can be *armed* to
//! fire exactly once at a chosen index, flipping one field of a cracker
//! column's learned metadata — a cached piece sum, a prefix-sum entry, or
//! a piece boundary — or panicking mid-operation. The integrity sweep in
//! `holistic-core` arms every index in turn and proves that each injected
//! fault is detected (by a paranoia check or the background scrubber),
//! that the column heals to a state equivalent to the reference model,
//! and that no query ever returns a wrong answer in between.
//!
//! Corruption only ever touches *derived* state. The base data array and
//! row ids are never modified, so the engine's base-storage scan path —
//! the quarantine fallback — always stays correct.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use holistic_storage::PrefixSums;

use crate::cracker::CrackerColumn;

/// The classes of learned-state damage the injector can inflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// XOR a cached piece sum (`Piece::sum`) — the aggregate cache lies.
    SumFlip,
    /// XOR one interior entry of a piece's prefix-sum array — the
    /// zero-read sorted path lies.
    PrefixFlip,
    /// Tighten a piece's value bound past a value it holds — the piece
    /// table misroutes predicates.
    BoundaryFlip,
    /// Panic mid-operation, modeling a kernel bug instead of bad
    /// metadata; the containment boundary must convert it into a
    /// quarantine.
    Panic,
}

impl std::fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CorruptionKind::SumFlip => "sum-flip",
            CorruptionKind::PrefixFlip => "prefix-flip",
            CorruptionKind::BoundaryFlip => "boundary-flip",
            CorruptionKind::Panic => "panic",
        })
    }
}

const DISARMED: u64 = u64::MAX;

const KIND_SUM: u8 = 0;
const KIND_PREFIX: u8 = 1;
const KIND_BOUNDARY: u8 = 2;
const KIND_PANIC: u8 = 3;

fn kind_to_u8(kind: CorruptionKind) -> u8 {
    match kind {
        CorruptionKind::SumFlip => KIND_SUM,
        CorruptionKind::PrefixFlip => KIND_PREFIX,
        CorruptionKind::BoundaryFlip => KIND_BOUNDARY,
        CorruptionKind::Panic => KIND_PANIC,
    }
}

fn kind_from_u8(raw: u8) -> CorruptionKind {
    match raw {
        KIND_PREFIX => CorruptionKind::PrefixFlip,
        KIND_BOUNDARY => CorruptionKind::BoundaryFlip,
        KIND_PANIC => CorruptionKind::Panic,
        _ => CorruptionKind::SumFlip,
    }
}

/// Deterministic one-shot corruption injector (see module docs).
///
/// Disarmed (the default) it only counts operations, which is what makes
/// sweeps exhaustive: run a workload once disarmed to learn its operation
/// count, then re-run it once per index with the injector armed there.
#[derive(Debug)]
pub struct CorruptionInjector {
    ops: AtomicU64,
    fire_at: AtomicU64,
    kind: AtomicU8,
}

impl CorruptionInjector {
    /// Creates a disarmed injector.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(CorruptionInjector {
            ops: AtomicU64::new(0),
            fire_at: AtomicU64::new(DISARMED),
            kind: AtomicU8::new(KIND_SUM),
        })
    }

    /// Schedules `kind` to fire at global operation index `index`
    /// (0-based, counted from construction or the last
    /// [`CorruptionInjector::reset`]). Unlike the persistence fault
    /// injector, corruption fires exactly once: operations after the
    /// armed one proceed normally, so the sweep can watch the damaged
    /// engine keep answering while it heals.
    pub fn arm(&self, index: u64, kind: CorruptionKind) {
        self.kind.store(kind_to_u8(kind), Ordering::SeqCst);
        self.fire_at.store(index, Ordering::SeqCst);
    }

    /// Cancels any scheduled corruption.
    pub fn disarm(&self) {
        self.fire_at.store(DISARMED, Ordering::SeqCst);
    }

    /// Resets the operation counter (and disarms).
    pub fn reset(&self) {
        self.disarm();
        self.ops.store(0, Ordering::SeqCst);
    }

    /// Operations ticked so far.
    #[must_use]
    pub fn ops_performed(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Ticks one operation past the injector. Returns the armed kind if
    /// this is exactly the armed index (one-shot), `None` otherwise.
    pub fn tick(&self) -> Option<CorruptionKind> {
        let idx = self.ops.fetch_add(1, Ordering::SeqCst);
        if idx == self.fire_at.load(Ordering::SeqCst) {
            Some(kind_from_u8(self.kind.load(Ordering::SeqCst)))
        } else {
            None
        }
    }
}

/// Applies `kind` to the column's learned metadata, returning whether a
/// field was actually flipped (`false` when the column has no flippable
/// target, e.g. no cached sums for [`CorruptionKind::SumFlip`]).
///
/// Every flip is constructed to be *detectable*: the damaged field
/// contradicts the (untouched) data array, so `CrackerColumn::validate`
/// — and therefore any paranoia check or scrub step covering the piece —
/// must fail afterwards.
///
/// # Panics
/// [`CorruptionKind::Panic`] panics unconditionally; the caller's
/// containment boundary is expected to catch it.
pub fn corrupt_column(col: &mut CrackerColumn, kind: CorruptionKind) -> bool {
    if matches!(kind, CorruptionKind::Panic) {
        // This panic IS the injected fault the containment boundary
        // exists to catch. lint:allow(panic-path)
        panic!("injected kernel panic (corruption injector)");
    }
    let (data, _, index) = col.parts_mut();
    if let CorruptionKind::SumFlip = kind {
        // The flip goes through the index's sum edit, so the run-sum
        // sidecar carries the flipped sum too: the damage is the piece's
        // disagreement with its data, exactly what validation checks.
        let Some((idx, sum)) = index
            .pieces()
            .iter()
            .enumerate()
            .find_map(|(i, p)| p.sum.map(|s| (i, s)))
        else {
            return false;
        };
        index.set_sum(idx, Some(sum ^ 0xA5));
        return true;
    }
    // The remaining flips leave every cached sum as it is.
    let mut pieces = index.pieces_mut();
    match kind {
        CorruptionKind::PrefixFlip => {
            for piece in pieces.iter_mut() {
                if piece.is_empty() {
                    continue;
                }
                let Some(prefix) = piece.covering_prefix() else {
                    continue;
                };
                // Flip the entry one past the piece's middle position:
                // it changes the derived value at that position, which
                // lies inside this piece's extent, so this very piece
                // fails validation.
                let pos = piece.start + piece.len() / 2;
                let entry = pos - prefix.base() + 1;
                let base = prefix.base();
                let mut sums = prefix.sums().to_vec();
                sums[entry] ^= 0xA5;
                let Some(flipped) = PrefixSums::from_parts(base, sums) else {
                    continue;
                };
                piece.prefix = Some(Arc::new(flipped));
                return true;
            }
            false
        }
        CorruptionKind::BoundaryFlip => {
            for piece in pieces.iter_mut() {
                if piece.is_empty() {
                    continue;
                }
                let v = data[piece.start];
                if v < i64::MAX {
                    // The piece's own first value now violates the bound.
                    piece.lo = Some(v + 1);
                } else {
                    piece.hi = Some(v);
                }
                return true;
            }
            false
        }
        CorruptionKind::SumFlip | CorruptionKind::Panic => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cracked() -> CrackerColumn {
        let values: Vec<i64> = (0..2000).map(|i| (i * 7919) % 2000).collect();
        let mut c = CrackerColumn::from_values(values);
        let _ = c.crack_select(100, 400);
        let _ = c.crack_select(900, 1500);
        c
    }

    fn sorted() -> CrackerColumn {
        let mut c = CrackerColumn::from_values((0..1000).rev().collect());
        c.sort_fully();
        c
    }

    #[test]
    fn disarmed_injector_only_counts() {
        let inj = CorruptionInjector::new();
        for _ in 0..10 {
            assert!(inj.tick().is_none());
        }
        assert_eq!(inj.ops_performed(), 10);
    }

    #[test]
    fn armed_injector_fires_exactly_once_at_the_index() {
        let inj = CorruptionInjector::new();
        inj.arm(3, CorruptionKind::PrefixFlip);
        let fired: Vec<Option<CorruptionKind>> = (0..8).map(|_| inj.tick()).collect();
        assert_eq!(
            fired.iter().flatten().count(),
            1,
            "one-shot: exactly one fire"
        );
        assert_eq!(fired[3], Some(CorruptionKind::PrefixFlip));
    }

    #[test]
    fn reset_disarms_and_restarts_the_count() {
        let inj = CorruptionInjector::new();
        inj.arm(0, CorruptionKind::SumFlip);
        assert!(inj.tick().is_some());
        inj.reset();
        assert_eq!(inj.ops_performed(), 0);
        assert!(inj.tick().is_none(), "reset must disarm");
    }

    #[test]
    fn sum_flip_is_detected_by_validate() {
        let mut col = cracked();
        assert!(col.validate());
        assert!(corrupt_column(&mut col, CorruptionKind::SumFlip));
        assert!(!col.validate(), "flipped sum must fail validation");
    }

    #[test]
    fn prefix_flip_is_detected_by_validate() {
        let mut col = sorted();
        assert!(col.validate());
        assert!(corrupt_column(&mut col, CorruptionKind::PrefixFlip));
        assert!(!col.validate(), "flipped prefix entry must fail validation");
    }

    #[test]
    fn boundary_flip_is_detected_by_validate() {
        let mut col = cracked();
        assert!(corrupt_column(&mut col, CorruptionKind::BoundaryFlip));
        assert!(!col.validate(), "tightened bound must fail validation");
    }

    #[test]
    fn corruption_never_touches_base_data() {
        for kind in [
            CorruptionKind::SumFlip,
            CorruptionKind::PrefixFlip,
            CorruptionKind::BoundaryFlip,
        ] {
            let mut col = sorted();
            let before = col.data().to_vec();
            let _ = corrupt_column(&mut col, kind);
            assert_eq!(col.data(), &before[..], "{kind}: data must be untouched");
        }
    }

    #[test]
    #[should_panic(expected = "injected kernel panic")]
    fn panic_kind_panics() {
        let mut col = cracked();
        let _ = corrupt_column(&mut col, CorruptionKind::Panic);
    }

    #[test]
    fn flip_on_a_column_without_targets_reports_false() {
        // A fresh (never cracked, never sorted) column has no cached sums
        // and no prefix arrays.
        let mut col = CrackerColumn::from_values(vec![3, 1, 2]);
        assert!(!corrupt_column(&mut col, CorruptionKind::SumFlip));
        assert!(!corrupt_column(&mut col, CorruptionKind::PrefixFlip));
        assert!(col.validate());
        // Boundary flips always have a target on a non-empty column.
        assert!(corrupt_column(&mut col, CorruptionKind::BoundaryFlip));
        assert!(!col.validate());
    }
}

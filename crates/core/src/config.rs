//! Kernel configuration.

use holistic_cracking::{CrackKernel, CrackPolicy};

/// Configuration of the holistic indexing kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct HolisticConfig {
    /// Piece size (in values) below which further refinement of a cracked
    /// column no longer improves query latency — the paper's observation
    /// that refinement stops paying off once pieces fit in the CPU cache.
    /// It is also the floor of the hot-range boost: a boost pivot that
    /// lands in a piece of at most this many values (or in a sorted piece)
    /// is skipped without cracking.
    pub cache_piece_target: usize,
    /// A value range of a column is considered *hot* once at least this many
    /// queries have cracked it; hot ranges receive extra refinement during
    /// query processing (the paper's "No Time" case). The count is per
    /// exact predicate `[lo, hi)` and decays: the column's detector halves
    /// its counts every [`SKETCH_WIDTH`](crate::stats::SKETCH_WIDTH)
    /// queries, so it measures the current workload, and `u64::MAX`
    /// switches boosting off.
    pub hot_range_query_threshold: u64,
    /// Number of auxiliary random cracks applied to a hot range per query.
    pub boost_cracks_per_query: u64,
    /// Queries per epoch for the online-indexing machinery.
    pub epoch_length: u64,
    /// Whether cracker columns carry row ids (needed for projections of
    /// other attributes; costs one extra u32 per value and slightly slower
    /// cracking).
    pub keep_rowids: bool,
    /// Cracking policy used by the adaptive and holistic select operators.
    pub crack_policy: CrackPolicy,
    /// Physical kernel dispatch policy: branchy reference loops, predicated
    /// branch-free loops, or automatic selection by piece length (the
    /// default — branchy for cache-resident pieces, predicated above).
    pub crack_kernel: CrackKernel,
    /// Seed for the kernel's random number generator (auxiliary refinement
    /// actions, stochastic cracking). Fixed by default for reproducibility.
    pub rng_seed: u64,
    /// Paranoia mode: after every execute/batch/idle action, run the full
    /// cracker-column validation (piece order, cached sums, prefix arrays)
    /// on the touched columns. A violation quarantines the column
    /// ([`HolisticError::Integrity`](crate::HolisticError::Integrity)) and
    /// the query is re-answered from base storage instead of a broken
    /// structure. Defaults to the `HOLISTIC_PARANOIA` environment variable
    /// (`1`/`true`); the test profile ([`HolisticConfig::for_testing`])
    /// always enables it.
    pub paranoia: bool,
    /// Fixed shard extent (in values) for cracker columns: a column longer
    /// than this is split into row-id-contiguous shards of this size, each
    /// behind its own latch, so concurrent writers crack disjoint shards in
    /// parallel and one large cold crack parallelizes across shards.
    /// `0` disables sharding (one shard per column, the classic layout).
    pub shard_extent: usize,
}

/// Reads the `HOLISTIC_PARANOIA` environment toggle.
fn paranoia_from_env() -> bool {
    std::env::var("HOLISTIC_PARANOIA")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
}

impl Default for HolisticConfig {
    fn default() -> Self {
        HolisticConfig {
            // 4096 i64 values = 32 KiB, i.e. an L1-data-cache-resident piece:
            // the boundary pieces a select touches are then effectively free
            // to re-partition, which is where the paper observes refinement
            // stops paying off.
            cache_piece_target: 4096,
            hot_range_query_threshold: 8,
            boost_cracks_per_query: 2,
            epoch_length: 100,
            keep_rowids: false,
            crack_policy: CrackPolicy::Standard,
            crack_kernel: CrackKernel::default(),
            rng_seed: 0x5EED_CAFE,
            paranoia: paranoia_from_env(),
            shard_extent: 0,
        }
    }
}

impl HolisticConfig {
    /// A configuration suitable for small unit-test datasets: the cache
    /// target is lowered so that refinement decisions are still meaningful
    /// on columns of a few thousand values.
    #[must_use]
    pub fn for_testing() -> Self {
        HolisticConfig {
            cache_piece_target: 64,
            hot_range_query_threshold: 3,
            boost_cracks_per_query: 2,
            epoch_length: 10,
            paranoia: true,
            ..Self::default()
        }
    }

    /// Enables or disables paranoia-mode validation explicitly (overriding
    /// the `HOLISTIC_PARANOIA` environment default).
    #[must_use]
    pub fn with_paranoia(mut self, paranoia: bool) -> Self {
        self.paranoia = paranoia;
        self
    }

    /// Sets the cracking policy.
    #[must_use]
    pub fn with_crack_policy(mut self, policy: CrackPolicy) -> Self {
        self.crack_policy = policy;
        self
    }

    /// Sets the physical kernel dispatch policy.
    #[must_use]
    pub fn with_crack_kernel(mut self, kernel: CrackKernel) -> Self {
        self.crack_kernel = kernel;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Enables or disables row-id payloads in cracker columns.
    #[must_use]
    pub fn with_rowids(mut self, keep: bool) -> Self {
        self.keep_rowids = keep;
        self
    }

    /// Sets the fixed shard extent for cracker columns (`0` = unsharded).
    #[must_use]
    pub fn with_shard_extent(mut self, extent: usize) -> Self {
        self.shard_extent = extent;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = HolisticConfig::default();
        assert!(c.cache_piece_target > 0);
        assert!(c.epoch_length > 0);
        assert_eq!(c.crack_policy, CrackPolicy::Standard);
    }

    #[test]
    fn builder_style_setters() {
        let c = HolisticConfig::default()
            .with_crack_policy(CrackPolicy::Mdd1r)
            .with_seed(42)
            .with_rowids(true)
            .with_crack_kernel(CrackKernel::Predicated);
        assert_eq!(c.crack_policy, CrackPolicy::Mdd1r);
        assert_eq!(c.rng_seed, 42);
        assert!(c.keep_rowids);
        assert_eq!(c.crack_kernel, CrackKernel::Predicated);
    }

    #[test]
    fn default_kernel_policy_is_auto() {
        assert_eq!(HolisticConfig::default().crack_kernel, CrackKernel::auto());
    }

    #[test]
    fn paranoia_is_on_in_the_test_profile_and_settable() {
        assert!(HolisticConfig::for_testing().paranoia);
        assert!(HolisticConfig::default().with_paranoia(true).paranoia);
        assert!(!HolisticConfig::for_testing().with_paranoia(false).paranoia);
    }

    #[test]
    fn shard_extent_defaults_off_and_is_settable() {
        assert_eq!(HolisticConfig::default().shard_extent, 0);
        let c = HolisticConfig::default().with_shard_extent(4096);
        assert_eq!(c.shard_extent, 4096);
    }

    #[test]
    fn testing_config_shrinks_thresholds() {
        let c = HolisticConfig::for_testing();
        assert!(c.cache_piece_target < HolisticConfig::default().cache_piece_target);
        assert!(c.epoch_length < HolisticConfig::default().epoch_length);
    }
}

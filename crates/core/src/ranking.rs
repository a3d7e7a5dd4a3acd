//! The ranking model: which column deserves the next refinement action?
//!
//! The paper's cost model "continuously monitors several parameters and can
//! give us the answer to the question: if we detect a couple of idle
//! milliseconds, on which column should we apply a random crack action?"
//! The key observations encoded here:
//!
//! * the benefit of one more crack on a column is proportional to how much
//!   the expected piece length still exceeds the CPU-cache-sized target —
//!   once pieces fit in the cache, extra refinement does not pay off;
//! * columns that appear more often in the workload should be refined first
//!   (weighting by observed frequency), with catalog knowledge (column size)
//!   as the fallback when no workload knowledge exists yet.

use holistic_offline::CostModel;
use holistic_storage::ColumnId;

use crate::stats::KernelStatistics;

/// A scored tuning candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningCandidate {
    /// The column to refine.
    pub column: ColumnId,
    /// The expected benefit score (work units saved per future query,
    /// weighted by the column's observed frequency).
    pub score: f64,
    /// Current average piece length of the column's cracker index.
    pub avg_piece_len: f64,
}

/// The holistic ranking model.
#[derive(Debug, Clone)]
pub struct RankingModel {
    model: CostModel,
    /// Piece length (values) below which refinement is considered done.
    pub cache_piece_target: usize,
}

impl RankingModel {
    /// Creates a ranking model with the given cache-resident piece target.
    #[must_use]
    pub fn new(cache_piece_target: usize) -> Self {
        let mut model = CostModel::new();
        model.cache_piece_values = cache_piece_target.max(1);
        RankingModel {
            model,
            cache_piece_target: cache_piece_target.max(1),
        }
    }

    /// The benefit score of applying one more random crack to a column with
    /// the given statistics.
    ///
    /// A random crack halves the expected piece length, so the benefit is
    /// the refinement gain from `avg_piece_len` to `avg_piece_len / 2`,
    /// weighted by how often the column is queried. Columns that no query
    /// has touched yet still get a small score proportional to their size
    /// ("no knowledge" case: spread actions using catalog information only).
    #[must_use]
    pub fn score(&self, frequency: f64, avg_piece_len: f64, column_len: usize) -> f64 {
        let refinement = self
            .model
            .refinement_benefit(avg_piece_len, avg_piece_len / 2.0);
        if refinement <= 0.0 {
            return 0.0;
        }
        let weight = if frequency > 0.0 {
            frequency
        } else {
            // Catalog-only fallback: large, untouched columns get a small
            // positive weight so idle time is still spread over them.
            0.01 * (column_len.max(1) as f64).log2() / 64.0
        };
        refinement * weight
    }

    /// Ranks all known columns by descending benefit score, dropping columns
    /// whose score is zero (already refined past the cache target).
    ///
    /// Reads only the statistics' atomic counters
    /// ([`KernelStatistics::ranking_rows`]) — the idle loop calls this once
    /// per refinement action, so it must not copy per-column state or
    /// contend with concurrent query recording.
    #[must_use]
    pub fn rank(&self, stats: &KernelStatistics) -> Vec<TuningCandidate> {
        let total_queries = stats.total_queries();
        let mut candidates: Vec<TuningCandidate> = stats
            .ranking_rows()
            .into_iter()
            .map(|(id, queries, avg_piece_len, column_len)| {
                let frequency = if total_queries == 0 {
                    0.0
                } else {
                    queries as f64 / total_queries as f64
                };
                TuningCandidate {
                    column: id,
                    score: self.score(frequency, avg_piece_len, column_len),
                    avg_piece_len,
                }
            })
            .filter(|c| c.score > 0.0)
            .collect();
        candidates.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.column.cmp(&b.column))
        });
        candidates
    }

    /// The single best column to refine next, if any still benefits.
    #[must_use]
    pub fn choose_next(&self, stats: &KernelStatistics) -> Option<ColumnId> {
        self.rank(stats).first().map(|c| c.column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_storage::TableId;

    fn col(i: u32) -> ColumnId {
        ColumnId::new(TableId(0), i)
    }

    #[test]
    fn refined_columns_score_zero() {
        let m = RankingModel::new(1024);
        assert_eq!(m.score(0.5, 512.0, 1_000_000), 0.0);
        assert!(m.score(0.5, 1_000_000.0, 1_000_000) > 0.0);
    }

    #[test]
    fn hotter_columns_score_higher() {
        let m = RankingModel::new(1024);
        let hot = m.score(0.8, 100_000.0, 1_000_000);
        let cold = m.score(0.1, 100_000.0, 1_000_000);
        assert!(hot > cold);
    }

    #[test]
    fn unqueried_columns_still_get_a_small_score() {
        let m = RankingModel::new(1024);
        let s = m.score(0.0, 1_000_000.0, 1_000_000);
        assert!(s > 0.0);
        assert!(s < m.score(0.5, 1_000_000.0, 1_000_000));
    }

    #[test]
    fn rank_orders_by_benefit_and_drops_finished_columns() {
        let m = RankingModel::new(256);
        let stats = KernelStatistics::new();
        stats.register_column(col(0), 100_000);
        stats.register_column(col(1), 100_000);
        stats.register_column(col(2), 100_000);
        // col 0: hot but already refined to tiny pieces.
        for _ in 0..10 {
            stats.record_query(col(0), 0, 100, 0.001);
        }
        stats.record_refinement(col(0), 1000, 100.0);
        // col 1: hot and coarse.
        for _ in 0..10 {
            stats.record_query(col(1), 0, 100, 0.001);
        }
        stats.record_refinement(col(1), 4, 25_000.0);
        // col 2: never queried, coarse.
        let ranked = m.rank(&stats);
        assert_eq!(ranked.len(), 2, "refined col 0 must be dropped: {ranked:?}");
        assert_eq!(ranked[0].column, col(1));
        assert_eq!(ranked[1].column, col(2));
        assert_eq!(m.choose_next(&stats), Some(col(1)));
    }

    #[test]
    fn choose_next_is_none_when_everything_is_refined() {
        let m = RankingModel::new(1 << 20);
        let stats = KernelStatistics::new();
        stats.register_column(col(0), 1000);
        stats.record_refinement(col(0), 100, 10.0);
        assert_eq!(m.choose_next(&stats), None);
        // Empty statistics: nothing to do either.
        assert_eq!(m.choose_next(&KernelStatistics::new()), None);
    }
}

//! Workload summaries: the statistics an index advisor consumes.

use std::collections::BTreeMap;

use crate::{ColumnId, Value};

/// Per-column workload statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnWorkload {
    /// Number of range queries observed (or predicted) on this column.
    pub queries: u64,
    /// Average selectivity of those queries (fraction of rows qualifying).
    pub avg_selectivity: f64,
    /// Smallest predicate lower bound seen, if any.
    pub min_bound: Option<Value>,
    /// Largest predicate upper bound seen, if any.
    pub max_bound: Option<Value>,
}

impl Default for ColumnWorkload {
    fn default() -> Self {
        ColumnWorkload {
            queries: 0,
            avg_selectivity: 0.0,
            min_bound: None,
            max_bound: None,
        }
    }
}

/// A summary of a (known or observed) workload: how often each column is
/// queried and with what selectivity.
///
/// For offline indexing this is the "representative workload W" handed to
/// the advisor a priori; for online/holistic indexing the same structure is
/// filled in incrementally by the monitor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadSummary {
    columns: BTreeMap<ColumnId, ColumnWorkload>,
    total_queries: u64,
}

impl WorkloadSummary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        WorkloadSummary::default()
    }

    /// Records one range query on `column` with the given selectivity and
    /// predicate bounds.
    pub fn record_query(&mut self, column: ColumnId, selectivity: f64, lo: Value, hi: Value) {
        let entry = self.columns.entry(column).or_default();
        let n = entry.queries as f64;
        entry.avg_selectivity =
            (entry.avg_selectivity * n + selectivity.clamp(0.0, 1.0)) / (n + 1.0);
        entry.queries += 1;
        entry.min_bound = Some(entry.min_bound.map_or(lo, |m| m.min(lo)));
        entry.max_bound = Some(entry.max_bound.map_or(hi, |m| m.max(hi)));
        self.total_queries += 1;
    }

    /// Declares an expected workload on `column` without individual queries
    /// (the "known a priori" form used by offline indexing).
    pub fn declare(&mut self, column: ColumnId, queries: u64, avg_selectivity: f64) {
        let entry = self.columns.entry(column).or_default();
        entry.queries += queries;
        entry.avg_selectivity = avg_selectivity.clamp(0.0, 1.0);
        self.total_queries += queries;
    }

    /// Sets `column`'s statistics wholesale, replacing any existing entry
    /// and keeping the total consistent — for summaries assembled from
    /// counters kept elsewhere (the kernel's per-column statistics).
    pub fn insert_column(&mut self, column: ColumnId, workload: ColumnWorkload) {
        let added = workload.queries;
        if let Some(old) = self.columns.insert(column, workload) {
            self.total_queries = self.total_queries.saturating_sub(old.queries);
        }
        self.total_queries += added;
    }

    /// Forgets a column (dropped table): its entry is removed and its
    /// queries no longer count toward the total, so the frequencies of the
    /// remaining columns stay consistent. Returns whether it existed.
    pub fn remove_column(&mut self, column: ColumnId) -> bool {
        match self.columns.remove(&column) {
            Some(entry) => {
                self.total_queries = self.total_queries.saturating_sub(entry.queries);
                true
            }
            None => false,
        }
    }

    /// Total number of queries across all columns.
    #[must_use]
    pub fn total_queries(&self) -> u64 {
        self.total_queries
    }

    /// Number of distinct columns referenced by the workload.
    #[must_use]
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Per-column statistics, if the column appears in the workload.
    #[must_use]
    pub fn column(&self, id: ColumnId) -> Option<&ColumnWorkload> {
        self.columns.get(&id)
    }

    /// Fraction of all queries that touch `column` (0 if no queries at all).
    #[must_use]
    pub fn frequency(&self, id: ColumnId) -> f64 {
        if self.total_queries == 0 {
            return 0.0;
        }
        self.columns
            .get(&id)
            .map_or(0.0, |c| c.queries as f64 / self.total_queries as f64)
    }

    /// Iterates over `(column, statistics)` pairs, most-queried first.
    #[must_use]
    pub fn by_frequency(&self) -> Vec<(ColumnId, &ColumnWorkload)> {
        let mut entries: Vec<(ColumnId, &ColumnWorkload)> =
            self.columns.iter().map(|(id, w)| (*id, w)).collect();
        entries.sort_by(|a, b| b.1.queries.cmp(&a.1.queries).then(a.0.cmp(&b.0)));
        entries
    }

    /// Iterates over all `(column, statistics)` pairs in column order.
    pub fn iter(&self) -> impl Iterator<Item = (ColumnId, &ColumnWorkload)> {
        self.columns.iter().map(|(id, w)| (*id, w))
    }

    /// Merges another summary into this one (used when combining a-priori
    /// knowledge with observed statistics).
    pub fn merge(&mut self, other: &WorkloadSummary) {
        for (id, w) in &other.columns {
            let entry = self.columns.entry(*id).or_default();
            let total = entry.queries + w.queries;
            if total > 0 {
                entry.avg_selectivity = (entry.avg_selectivity * entry.queries as f64
                    + w.avg_selectivity * w.queries as f64)
                    / total as f64;
            }
            entry.queries = total;
            entry.min_bound = match (entry.min_bound, w.min_bound) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            entry.max_bound = match (entry.max_bound, w.max_bound) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        self.total_queries += other.total_queries;
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
    fn empty_summary() {
        let s = WorkloadSummary::new();
        assert_eq!(s.total_queries(), 0);
        assert_eq!(s.column_count(), 0);
        assert_eq!(s.frequency(col(0)), 0.0);
        assert!(s.column(col(0)).is_none());
    }

    #[test]
    fn record_query_accumulates_statistics() {
        let mut s = WorkloadSummary::new();
        s.record_query(col(0), 0.01, 100, 200);
        s.record_query(col(0), 0.03, 50, 150);
        s.record_query(col(1), 0.5, 0, 1000);
        assert_eq!(s.total_queries(), 3);
        assert_eq!(s.column_count(), 2);
        let c0 = s.column(col(0)).unwrap();
        assert_eq!(c0.queries, 2);
        assert!((c0.avg_selectivity - 0.02).abs() < 1e-9);
        assert_eq!(c0.min_bound, Some(50));
        assert_eq!(c0.max_bound, Some(200));
        assert!((s.frequency(col(0)) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn insert_column_replaces_an_entry_and_keeps_the_total() {
        let mut s = WorkloadSummary::new();
        s.record_query(col(0), 0.1, 0, 10);
        let entry = ColumnWorkload {
            queries: 5,
            avg_selectivity: 0.2,
            min_bound: Some(-3),
            max_bound: Some(40),
        };
        s.insert_column(col(1), entry.clone());
        assert_eq!(s.total_queries(), 6);
        s.insert_column(col(0), entry.clone());
        assert_eq!(s.total_queries(), 10);
        assert_eq!(s.column(col(0)), Some(&entry));
    }

    #[test]
    fn declare_sets_expected_workload() {
        let mut s = WorkloadSummary::new();
        s.declare(col(3), 100, 0.01);
        assert_eq!(s.total_queries(), 100);
        assert_eq!(s.column(col(3)).unwrap().queries, 100);
        assert!((s.frequency(col(3)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn by_frequency_orders_most_queried_first() {
        let mut s = WorkloadSummary::new();
        s.declare(col(0), 5, 0.1);
        s.declare(col(1), 50, 0.1);
        s.declare(col(2), 20, 0.1);
        let order: Vec<ColumnId> = s.by_frequency().into_iter().map(|(id, _)| id).collect();
        assert_eq!(order, vec![col(1), col(2), col(0)]);
    }

    #[test]
    fn merge_combines_summaries() {
        let mut a = WorkloadSummary::new();
        a.record_query(col(0), 0.02, 10, 20);
        let mut b = WorkloadSummary::new();
        b.record_query(col(0), 0.04, 5, 40);
        b.record_query(col(1), 0.1, 0, 100);
        a.merge(&b);
        assert_eq!(a.total_queries(), 3);
        let c0 = a.column(col(0)).unwrap();
        assert_eq!(c0.queries, 2);
        assert!((c0.avg_selectivity - 0.03).abs() < 1e-9);
        assert_eq!(c0.min_bound, Some(5));
        assert_eq!(c0.max_bound, Some(40));
        assert_eq!(a.column(col(1)).unwrap().queries, 1);
    }

    #[test]
    fn selectivity_is_clamped() {
        let mut s = WorkloadSummary::new();
        s.record_query(col(0), 7.5, 0, 10);
        assert!(s.column(col(0)).unwrap().avg_selectivity <= 1.0);
        s.declare(col(1), 1, -0.5);
        assert!(s.column(col(1)).unwrap().avg_selectivity >= 0.0);
    }
}

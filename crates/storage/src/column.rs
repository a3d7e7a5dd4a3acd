//! Dense, typed columns — the unit of storage and of bulk processing.

use crate::selection::SelectionVector;
use crate::stats::ColumnStats;
use crate::{Result, RowId, StorageError, Value};

/// Removes the elements at `positions` (strictly ascending) from `values`
/// in one pass, keeping the survivors in order: the run behind each removed
/// element moves down by the number removed so far — one move per removed
/// element, however long the vector. Shared by the base column's delete
/// path and the cracker's batched ripple (data and row-id arrays alike).
///
/// # Panics
///
/// Panics if `positions` is not strictly ascending or reaches past the
/// last element.
pub fn compact_out<T: Copy>(values: &mut Vec<T>, positions: &[usize]) {
    let Some(&first) = positions.first() else {
        return;
    };
    assert!(
        positions.windows(2).all(|w| w[0] < w[1])
            && positions.last().is_some_and(|&p| p < values.len()),
        "removed positions must be strictly ascending and in bounds"
    );
    let mut write = first;
    for (i, &pos) in positions.iter().enumerate() {
        let next = positions.get(i + 1).copied().unwrap_or(values.len());
        values.copy_within(pos + 1..next, write);
        write += next - pos - 1;
    }
    values.truncate(write);
}

/// A dense `i64` column.
///
/// The base image the engine keeps WAL-complete: appends go to the end and
/// deletes compact rows out ([`Column::remove_rows`]). Queries never
/// reorganize it — that happens on the cracking layer's auxiliary copies,
/// as in the paper's column-store substrate.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    values: Vec<Value>,
    stats: ColumnStats,
    /// Whether `stats.histogram` reflects the current contents.
    stats_fresh: bool,
}

impl Column {
    /// Creates an empty column with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Column {
            name: name.into(),
            values: Vec::new(),
            stats: ColumnStats::new(),
            stats_fresh: true,
        }
    }

    /// Creates a column from existing values, building full statistics.
    #[must_use]
    pub fn from_values(name: impl Into<String>, values: Vec<Value>) -> Self {
        let stats = ColumnStats::from_values(&values);
        Column {
            name: name.into(),
            values,
            stats,
            stats_fresh: true,
        }
    }

    /// The column's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw value slice (the "BAT tail" in MonetDB terms).
    #[must_use]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Returns the value at `row`, or an error if out of bounds.
    pub fn get(&self, row: RowId) -> Result<Value> {
        self.values
            .get(row as usize)
            .copied()
            .ok_or(StorageError::RowOutOfBounds {
                row: u64::from(row),
                len: self.values.len(),
            })
    }

    /// Appends a single value.
    pub fn append(&mut self, v: Value) {
        self.values.push(v);
        self.stats.update_scalar(v);
        self.stats_fresh = false;
    }

    /// Appends many values.
    pub fn append_many(&mut self, vs: &[Value]) {
        self.values.reserve(vs.len());
        for &v in vs {
            self.values.push(v);
            self.stats.update_scalar(v);
        }
        self.stats_fresh = false;
    }

    /// Removes the first occurrence of `v`, returning whether it was
    /// found (see [`Column::remove_rows`]).
    pub fn remove_first(&mut self, v: Value) -> bool {
        let Some(pos) = crate::scan::find_first(&self.values, v) else {
            return false;
        };
        self.remove_rows(&[pos]);
        true
    }

    /// Removes the rows at `positions` (strictly ascending) in one
    /// compaction pass. This is the base-image side of the engine's delete
    /// path: the cracking layer ripples the values out of its auxiliary
    /// copy while this keeps the WAL-complete data image in sync.
    /// Statistics are rebuilt from the surviving values, once per call —
    /// so a caller with several rows to remove should pass them together.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is not strictly ascending or reaches past the
    /// last row.
    pub fn remove_rows(&mut self, positions: &[usize]) {
        if positions.is_empty() {
            return;
        }
        compact_out(&mut self.values, positions);
        self.stats = ColumnStats::from_values(&self.values);
        self.stats_fresh = true;
    }

    /// The column statistics (histogram may be stale after appends; call
    /// [`Column::refresh_stats`] to rebuild it).
    #[must_use]
    pub fn stats(&self) -> &ColumnStats {
        &self.stats
    }

    /// Whether the histogram reflects the current column contents.
    #[must_use]
    pub fn stats_fresh(&self) -> bool {
        self.stats_fresh
    }

    /// Rebuilds the histogram and distinct estimate from the current data.
    pub fn refresh_stats(&mut self) {
        self.stats.rebuild_histogram(&self.values);
        self.stats_fresh = true;
    }

    /// Counts rows with values in the half-open range `[lo, hi)` by scanning.
    #[must_use]
    pub fn scan_count(&self, lo: Value, hi: Value) -> u64 {
        crate::scan::scan_count(&self.values, lo, hi)
    }

    /// Returns the row ids with values in `[lo, hi)` by scanning.
    #[must_use]
    pub fn scan_select(&self, lo: Value, hi: Value) -> SelectionVector {
        crate::scan::scan_positions(&self.values, lo, hi)
    }

    /// Materializes the values at the given rows (projection).
    pub fn gather(&self, rows: &SelectionVector) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(rows.len());
        for row in rows.iter() {
            out.push(self.get(row)?);
        }
        Ok(out)
    }

    /// Approximate heap footprint of the column in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<Value>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_column_is_empty() {
        let c = Column::new("a");
        assert_eq!(c.name(), "a");
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.memory_bytes(), 0);
    }

    #[test]
    fn from_values_builds_stats() {
        let c = Column::from_values("a", vec![3, 1, 2]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().min, Some(1));
        assert_eq!(c.stats().max, Some(3));
        assert!(c.stats_fresh());
    }

    #[test]
    fn append_updates_scalar_stats_and_marks_stale() {
        let mut c = Column::from_values("a", vec![5]);
        c.append(10);
        c.append_many(&[1, 7]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.stats().min, Some(1));
        assert_eq!(c.stats().max, Some(10));
        assert!(!c.stats_fresh());
        c.refresh_stats();
        assert!(c.stats_fresh());
        assert!(c.stats().histogram.is_some());
    }

    #[test]
    fn get_in_and_out_of_bounds() {
        let c = Column::from_values("a", vec![10, 20, 30]);
        assert_eq!(c.get(1).unwrap(), 20);
        assert_eq!(
            c.get(3),
            Err(StorageError::RowOutOfBounds { row: 3, len: 3 })
        );
    }

    #[test]
    fn scan_count_and_select_agree() {
        let c = Column::from_values("a", vec![5, 1, 9, 3, 7, 3]);
        assert_eq!(c.scan_count(3, 8), 4);
        let sel = c.scan_select(3, 8);
        assert_eq!(sel.len(), 4);
        let mut rows = sel.into_rows();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 3, 4, 5]);
    }

    #[test]
    fn gather_projects_values() {
        let c = Column::from_values("a", vec![10, 20, 30, 40]);
        let sel = SelectionVector::from_rows(vec![3, 0]);
        assert_eq!(c.gather(&sel).unwrap(), vec![40, 10]);
        let bad = SelectionVector::from_rows(vec![9]);
        assert!(c.gather(&bad).is_err());
    }

    #[test]
    fn remove_first_removes_one_occurrence_and_rebuilds_stats() {
        let mut c = Column::from_values("a", vec![5, 9, 5, 1]);
        assert!(c.remove_first(5));
        assert_eq!(c.values(), &[9, 5, 1]);
        assert!(c.remove_first(9));
        assert_eq!(c.stats().min, Some(1));
        assert_eq!(c.stats().max, Some(5));
        assert!(c.stats_fresh());
        assert!(!c.remove_first(42));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn stats_follow_random_appends_and_deletes() {
        let mut rng = 0x5eed_u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let mut c = Column::from_values("a", (0..300).map(|i| (i * 37) % 101 - 50).collect());
        let mut survivors = c.values().to_vec();
        for step in 0..400 {
            if next().is_multiple_of(3) {
                let v = (next() % 140) as Value - 70;
                c.append(v);
                survivors.push(v);
            } else if !survivors.is_empty() {
                // Mostly held values (the extremes included), sometimes absent.
                let v = if next().is_multiple_of(5) {
                    500
                } else {
                    survivors[next() as usize % survivors.len()]
                };
                let pos = survivors.iter().position(|&x| x == v);
                assert_eq!(c.remove_first(v), pos.is_some(), "step {step}");
                if let Some(pos) = pos {
                    survivors.remove(pos);
                    // A delete leaves the statistics as a rebuild would.
                    assert_eq!(c.stats(), &ColumnStats::from_values(&survivors));
                    assert!(c.stats_fresh());
                }
            }
            assert_eq!(c.values(), survivors.as_slice(), "step {step}");
            let want = ColumnStats::from_values(&survivors);
            let got = c.stats();
            assert_eq!(
                (got.count, got.sum, got.min, got.max),
                (want.count, want.sum, want.min, want.max),
                "step {step}"
            );
        }
    }

    #[test]
    fn remove_rows_compacts_in_one_pass_and_empties_cleanly() {
        let mut c = Column::from_values("a", vec![4, 8, 1, 9, 1, 3]);
        c.remove_rows(&[]);
        c.remove_rows(&[0, 2, 3]);
        assert_eq!(c.values(), &[8, 1, 3]);
        assert_eq!(c.stats(), &ColumnStats::from_values(&[8, 1, 3]));
        c.remove_rows(&[0, 1, 2]);
        assert!(c.is_empty());
        assert_eq!(c.stats(), &ColumnStats::new());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn remove_rows_rejects_unordered_positions() {
        let mut c = Column::from_values("a", vec![1, 2, 3]);
        c.remove_rows(&[1, 1]);
    }

    #[test]
    fn empty_range_scan_returns_nothing() {
        let c = Column::from_values("a", vec![1, 2, 3]);
        assert_eq!(c.scan_count(5, 5), 0);
        assert!(c.scan_select(3, 2).is_empty());
    }
}

//! Deadline- and cancellation-aware batch execution: the engine-side
//! hooks a front-door service dispatches admitted batches through.
//!
//! The service layer (`holistic-server`) forms batches from concurrent
//! client traffic. Between admission and dispatch a query's deadline may
//! expire or its client may disconnect; [`Database::execute_batch_guarded`]
//! re-checks both *at dispatch* and sheds such queries with a typed error
//! — [`HolisticError::DeadlineExceeded`] / [`HolisticError::Cancelled`] —
//! instead of executing them. A shed query performs **no** engine work at
//! all: no cracking, no statistics, no metrics record. Shedding is
//! therefore always safe (never half-executed) and invisible to the
//! learned index state.
//!
//! [`Database::execute_if_resolved`] is the saturation-mode companion: a
//! read-only answer path that serves a query only if the learned state
//! already resolves it (shared latch, zero reorganization), so an
//! overloaded service can keep answering hot ranges without paying index
//! maintenance for cold ones.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::HolisticError;

use super::query::{AccessPath, Query, QueryResult};
use super::{Database, EngineResult};

/// One query of a guarded (service-dispatched) batch: the query itself
/// plus the shed controls the service attached at admission.
#[derive(Debug, Clone)]
pub struct GuardedQuery {
    /// The range query to execute.
    pub query: Query,
    /// Absolute deadline; the query is shed with
    /// [`HolisticError::DeadlineExceeded`] if dispatch happens after it.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag, shared with the owning session.
    /// When set at dispatch the query is shed with
    /// [`HolisticError::Cancelled`].
    pub cancelled: Option<Arc<AtomicBool>>,
}

impl GuardedQuery {
    /// A guarded query with no deadline and no cancellation flag.
    #[must_use]
    pub fn new(query: Query) -> Self {
        GuardedQuery {
            query,
            deadline: None,
            cancelled: None,
        }
    }

    /// Attaches an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a shared cancellation flag.
    #[must_use]
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancelled = Some(flag);
        self
    }

    /// Whether the cancellation flag is set.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// Whether the deadline has passed at `now`.
    #[must_use]
    pub fn is_late(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }
}

impl Database {
    /// Executes a service batch with per-query shed controls.
    ///
    /// Each query is re-checked at dispatch: cancelled queries return
    /// [`HolisticError::Cancelled`], deadline-expired queries return
    /// [`HolisticError::DeadlineExceeded`], and queries naming an unknown
    /// column return their own [`HolisticError::Storage`] — per query,
    /// not failing the batch the way [`Database::execute_batch`] does,
    /// because one bad client request must not shed its batchmates. The
    /// surviving queries execute through the batched path with semantics
    /// identical to [`Database::execute_batch`].
    ///
    /// Every input produces exactly one entry in the output, in order: a
    /// result or a typed error, never both, never neither — the
    /// exactly-one-response contract the service protocol is built on.
    /// A batch-wide execution failure (e.g. a paranoia validation error)
    /// is cloned into every surviving query's slot.
    pub fn execute_batch_guarded(
        &self,
        items: &[GuardedQuery],
    ) -> Vec<Result<QueryResult, HolisticError>> {
        let now = Instant::now();
        let mut out: Vec<Option<Result<QueryResult, HolisticError>>> = vec![None; items.len()];
        let mut live = Vec::with_capacity(items.len());
        let mut live_idx = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            if item.is_cancelled() {
                out[i] = Some(Err(HolisticError::Cancelled));
            } else if item.is_late(now) {
                out[i] = Some(Err(HolisticError::DeadlineExceeded));
            } else if let Err(e) = self.catalog.column(item.query.column) {
                out[i] = Some(Err(e.into()));
            } else {
                live_idx.push(i);
                live.push(item.query);
            }
        }
        if !live.is_empty() {
            match self.execute_batch(&live) {
                Ok(results) => {
                    for (&i, result) in live_idx.iter().zip(results) {
                        out[i] = Some(Ok(result));
                    }
                }
                Err(e) => {
                    for &i in &live_idx {
                        out[i] = Some(Err(e.clone()));
                    }
                }
            }
        }
        out.into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(HolisticError::Validation(
                        "guarded batch left a query slot unfilled".into(),
                    ))
                })
            })
            .collect()
    }

    /// Answers `q` read-only if the learned state already resolves it,
    /// without instantiating crackers or reorganizing anything.
    ///
    /// Returns `Ok(None)` when answering would require work — no cracker
    /// exists for the column yet, or a predicate bound is unresolved and
    /// not binary-searchable in a prefix-seeded sorted piece. The caller
    /// (the service's saturation mode) then chooses between queueing the
    /// query for normal execution and shedding it.
    ///
    /// Deliberately records no predicate statistics and triggers no
    /// hot-range boosts: a saturated service wants zero tuning pressure
    /// from the degraded path.
    pub fn execute_if_resolved(&self, q: &Query) -> EngineResult<Option<QueryResult>> {
        let start = Instant::now();
        self.catalog.column(q.column)?;
        let cracker = self.crackers.read().get(&q.column).cloned();
        let Some(cracker) = cracker else {
            return Ok(None);
        };
        let Some(outcome) = cracker.try_select_readonly(q.lo, q.hi, q.materialize) else {
            return Ok(None);
        };
        self.metrics.record_aggregate_cache(outcome.cache);
        let result = QueryResult {
            count: outcome.count,
            sum: outcome.sum,
            values: outcome.values,
            path: AccessPath::Crack,
            latency: start.elapsed(),
        };
        self.metrics.record_query(result.path, result.latency);
        self.touch_activity();
        Ok(Some(result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HolisticConfig;
    use crate::strategy::IndexingStrategy;
    use holistic_storage::ColumnId;

    fn db_with_column(values: Vec<i64>) -> (Database, ColumnId) {
        let mut db = Database::new(HolisticConfig::for_testing(), IndexingStrategy::Holistic);
        let table = db
            .create_table("t", vec![("v", values)])
            .expect("create table");
        let column = db.column_id(table, "v").expect("column id");
        (db, column)
    }

    #[test]
    fn guarded_batch_sheds_and_executes_per_query() {
        let (db, column) = db_with_column((0..1000).collect());
        let cancel = Arc::new(AtomicBool::new(true));
        let unknown = ColumnId::new(holistic_storage::TableId(99), 0);
        let items = vec![
            GuardedQuery::new(Query::range(column, 10, 20)),
            GuardedQuery::new(Query::range(column, 0, 1000)).with_cancel(Arc::clone(&cancel)),
            GuardedQuery::new(Query::range(column, 30, 40))
                .with_deadline(Instant::now() - std::time::Duration::from_millis(1)),
            GuardedQuery::new(Query::range(unknown, 0, 1)),
        ];
        let out = db.execute_batch_guarded(&items);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].as_ref().map(|r| r.count), Ok(10));
        assert_eq!(out[1], Err(HolisticError::Cancelled));
        assert_eq!(out[2], Err(HolisticError::DeadlineExceeded));
        assert!(matches!(out[3], Err(HolisticError::Storage(_))));
        // Shed queries are exactly that: the engine executed only the
        // surviving one.
        assert_eq!(db.metrics().query_count(), 1);
    }

    #[test]
    fn guarded_batch_matches_plain_batch_for_live_queries() {
        let (db, column) = db_with_column((0..512).rev().collect());
        let queries: Vec<Query> = (0..16)
            .map(|i| Query::range(column, i * 8, i * 8 + 96))
            .collect();
        let plain = db.execute_batch(&queries).expect("plain batch");
        let (db2, column2) = db_with_column((0..512).rev().collect());
        let items: Vec<GuardedQuery> = (0..16)
            .map(|i| {
                GuardedQuery::new(Query::range(column2, i * 8, i * 8 + 96))
                    .with_deadline(Instant::now() + std::time::Duration::from_secs(60))
                    .with_cancel(Arc::new(AtomicBool::new(false)))
            })
            .collect();
        let guarded = db2.execute_batch_guarded(&items);
        for (p, g) in plain.iter().zip(&guarded) {
            let g = g.as_ref().expect("live query answered");
            assert_eq!((p.count, p.sum), (g.count, g.sum));
        }
    }

    #[test]
    fn resolved_path_answers_only_without_work() {
        let (db, column) = db_with_column((0..1000).collect());
        // Nothing learned yet: the read-only path must refuse, not crack.
        assert_eq!(
            db.execute_if_resolved(&Query::range(column, 100, 200))
                .expect("known column"),
            None
        );
        assert_eq!(db.piece_count(column), 0);
        // Learn the bounds through the normal path, then the read-only
        // path answers identically.
        let normal = db
            .execute(&Query::range(column, 100, 200))
            .expect("normal execution");
        let resolved = db
            .execute_if_resolved(&Query::range(column, 100, 200))
            .expect("known column")
            .expect("resolved after cracking");
        assert_eq!((resolved.count, resolved.sum), (normal.count, normal.sum));
        // Unknown columns stay a typed error.
        let unknown = ColumnId::new(holistic_storage::TableId(9), 9);
        assert!(db
            .execute_if_resolved(&Query::range(unknown, 0, 1))
            .is_err());
    }
}

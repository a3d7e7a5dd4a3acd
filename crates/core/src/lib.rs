//! # holistic-core
//!
//! The holistic indexing kernel: offline, online and adaptive indexing
//! unified in one engine, as envisioned by *Holistic Indexing: Offline,
//! Online and Adaptive Indexing in the Same Kernel* (SIGMOD 2012 PhD
//! Symposium).
//!
//! Holistic indexing combines the strengths of the three automated indexing
//! approaches while avoiding their weaknesses:
//!
//! * like **adaptive indexing** (database cracking) it reacts instantly:
//!   indexes are partial and incremental and are refined as a side effect of
//!   every query;
//! * like **online indexing** it monitors the workload continuously and
//!   keeps statistics about which columns and value ranges are hot;
//! * like **offline indexing** it exploits workload knowledge and idle time
//!   — but instead of building a few full indexes it spreads the idle budget
//!   over *many partial indexes* with cheap random refinement actions,
//!   guided by a cost model that knows when further refinement stops paying
//!   off (pieces that fit in the CPU cache).
//!
//! The central type is [`Database`]: a small column-store engine whose
//! select operators implement all the indexing strategies of the paper
//! ([`IndexingStrategy`]) side by side, so they can be compared under
//! identical workloads. The holistic machinery lives in [`stats`]
//! (continuous statistics), [`ranking`] (which column deserves the next
//! refinement action), [`idle`] (idle-time budgets and the tuning executor)
//! and [`background`] (a thread that detects idle time and tunes
//! autonomously).
//!
//! The hot path is shared-reference: [`Database::execute`] and
//! [`Database::run_idle`] take `&self` and synchronize through per-column
//! reader/writer latches, so a shared engine ([`SharedDatabase`], built
//! with [`Database::into_shared`]) serves query traffic and the
//! background tuner through `db.read()` while only structural operations
//! (schema changes, full-index builds, strategy switches) take
//! `db.write()`. With [`HolisticConfig::shard_extent`] set, each cracker
//! column is further split into fixed-extent shards behind their own
//! latches: queries fan out and compose per-shard aggregates, and
//! concurrent writers crack disjoint shards of the same column in
//! parallel. Every lock in the engine is a `holistic-sync` ordered
//! lock carrying its position in the latch hierarchy; debug and paranoia
//! builds panic on out-of-order acquisition. The full design — latch
//! hierarchy, kernel dispatch, aggregate-cache coherence — is documented
//! in the repository's `ARCHITECTURE.md`.
//!
//! # Quickstart
//!
//! The happy path, end to end (`examples/quickstart.rs` is the same
//! sequence at full scale, with timing output):
//!
//! ```
//! use holistic_core::{Database, HolisticConfig, IdleBudget, IndexingStrategy, Query};
//!
//! // 1. Create an engine that uses holistic indexing for its selects.
//! //    `for_testing()` lowers the cache-resident piece target so idle
//! //    refinement is still worthwhile on this small doctest column.
//! let mut db = Database::new(HolisticConfig::for_testing(), IndexingStrategy::Holistic);
//!
//! // 2. Load a table of pseudo-random integers.
//! let n: i64 = 10_000;
//! let values: Vec<i64> = (0..n).map(|i| (i * 7919) % n).collect();
//! let table = db.create_table("readings", vec![("temperature", values)]).unwrap();
//! let col = db.column_id(table, "temperature").unwrap();
//!
//! // 3. Range queries crack the column a little more each time, so
//! //    queries get faster — and every count/sum answer is exact.
//! for i in 0..8 {
//!     let lo = i * (n / 10);
//!     let result = db.execute(&Query::range(col, lo, lo + n / 100)).unwrap();
//!     assert_eq!(result.count, (n / 100) as u64);
//! }
//! assert!(db.piece_count(col) > 1);
//!
//! // 4. The workload pauses: idle time refines the hottest columns.
//! let report = db.run_idle(IdleBudget::Actions(64));
//! assert!(report.actions_applied > 0);
//!
//! // 5. The observed workload can be handed to the offline advisor at
//! //    any time, e.g. to decide whether a full index is worth building.
//! let summary = db.observed_workload();
//! assert_eq!(summary.total_queries(), 8);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod background;
pub mod config;
pub mod engine;
pub mod error;
pub mod idle;
pub mod metrics;
pub mod ranking;
pub mod stats;
pub mod strategy;

pub use background::{BackgroundConfig, BackgroundTuner};
pub use config::HolisticConfig;
pub use engine::guarded::GuardedQuery;
pub use engine::health::{ColumnHealth, ScrubReport};
pub use engine::persist::RecoveryOutcome;
pub use engine::query::{AccessPath, Query, QueryResult};
pub use engine::timeline::{strategy_timeline, TimelinePhase};
pub use engine::{Database, SharedDatabase, UpdateOp};
pub use error::HolisticError;
pub use idle::{IdleBudget, IdleReport};
pub use metrics::{EngineMetrics, IntegrityCounters, ServiceCounters};
pub use ranking::RankingModel;
pub use stats::{ColumnActivity, KernelStatistics};
pub use strategy::{IndexingStrategy, StrategyFeatures};

pub use holistic_cracking::{
    AggregateCacheDelta, CorruptionInjector, CorruptionKind, CrackKernel, CrackPolicy,
    KernelChoice, KernelDispatches,
};
pub use holistic_offline::CostModel;
pub use holistic_persist::{flip_byte, FaultInjector, PersistError};
pub use holistic_storage::{ColumnId, StorageError, TableId, Value};
pub use holistic_sync::{LockLevel, OrderedMutex, OrderedRwLock};

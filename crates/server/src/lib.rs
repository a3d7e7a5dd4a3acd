//! # holistic-server
//!
//! The overload-safe front door of the holistic indexing engine: a
//! std-TCP query service (no async runtime, no external dependencies)
//! that turns concurrent client traffic into the engine's best execution
//! shape — admission-controlled, column-grouped batches — and degrades
//! *gracefully* under load instead of falling over.
//!
//! The engine's biggest measured lever is batching (warm 7.9× at batch
//! 256), but batches have to come from somewhere: [`ServiceCore`] forms
//! them from in-flight queries. The dispatcher takes one column's bucket
//! (at most `max_batch` queries) whenever anything is queued and parks
//! when nothing is, so a batch is what arrived while the previous batch
//! ran — group-commit for queries, with no timer: an idle service answers
//! a lone query at once, a loaded one batches by itself. Around that sit
//! the robustness guarantees:
//!
//! * **Bounded queues** — global and per-client; both reject with a typed
//!   [`HolisticError::Overloaded`] naming the queue, never grow unbounded.
//! * **Deadlines** — enforced at admission *and* dispatch; late queries
//!   are shed with [`HolisticError::DeadlineExceeded`], never
//!   half-executed (a shed query does no engine work at all).
//! * **Cooperative cancellation** — a dropped connection flags its
//!   session; queued queries are shed with [`HolisticError::Cancelled`]
//!   instead of wedging their batch.
//! * **Fairness** — per-client token buckets, so one heavy tenant cannot
//!   starve its neighbors of admission.
//! * **Saturation mode** — above a queue-depth watermark the service
//!   pauses the background tuner and prefers zero-read answers from the
//!   already-learned index state (`execute_if_resolved`).
//! * **Exactly one response** — every admitted query produces exactly one
//!   response or one typed shed; the chaos sweep in this crate's tests
//!   proves it under deterministic connection failure
//!   ([`ConnectionChaos`]: drop/delay/truncate the k-th wire op).
//!
//! The wire format is a length-prefixed binary protocol ([`protocol`])
//! built on the same checksummed codec as the persistence layer. The TCP
//! shell ([`net`]) is a thin thread-per-connection layer over
//! [`ServiceCore`] in which every thread blocks on what feeds it (a
//! blocking `accept`, buffered reads, gathered writes, a parked
//! dispatcher); the core is fully drivable without sockets — the
//! property tests run thousands of admission interleavings against a
//! manual [`ServiceClock`].
//!
//! ```
//! use std::sync::Arc;
//! use holistic_core::{Database, HolisticConfig, IndexingStrategy, Query};
//! use holistic_server::{ServiceConfig, ServiceCore};
//!
//! let mut db = Database::new(HolisticConfig::for_testing(), IndexingStrategy::Holistic);
//! let table = db.create_table("t", vec![("v", (0..1000).collect())]).unwrap();
//! let column = db.column_id(table, "v").unwrap();
//! let core = ServiceCore::new(db.into_shared(), ServiceConfig::for_testing());
//!
//! let responses = core.connect(7);                        // client 7 joins
//! core.admit(7, 1, Query::range(column, 100, 200), None).unwrap();
//! core.flush();                                           // dispatcher's job
//! let resp = responses.recv().unwrap();
//! assert_eq!(resp.request_id, 1);
//! assert_eq!(resp.result.unwrap().count, 100);
//! ```
//!
//! [`HolisticError::Overloaded`]: holistic_core::HolisticError::Overloaded
//! [`HolisticError::DeadlineExceeded`]: holistic_core::HolisticError::DeadlineExceeded
//! [`HolisticError::Cancelled`]: holistic_core::HolisticError::Cancelled

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod chaos;
pub mod core;
pub mod net;
pub mod protocol;

pub use chaos::{ChaosMode, ChaosState, ConnectionChaos};
pub use core::{ServiceClock, ServiceConfig, ServiceCore, ServiceResponse, Session};
pub use net::{serve, Client, Server};
pub use protocol::{QueryReq, Request, RespStatus, ResponseFrame};

//! # holistic-storage
//!
//! Main-memory column-store storage engine used as the substrate of the
//! holistic indexing kernel.
//!
//! The design follows the MonetDB model used by the paper
//! *Holistic Indexing: Offline, Online and Adaptive Indexing in the Same
//! Kernel* (SIGMOD 2012 PhD Symposium): data lives in dense, typed,
//! append-only arrays (one per attribute), queries are bulk-processed a
//! column at a time, and every attribute of every table can be scanned with
//! a tight predicate loop.
//!
//! The crate provides:
//!
//! * [`Column`] — a dense `i64` column with per-column [`ColumnStats`]
//!   (min/max, equi-width histogram, distinct estimate).
//! * [`Table`] and [`Catalog`] — named collections of columns, plus a
//!   catalog of tables addressed by [`TableId`]/[`ColumnId`].
//! * [`scan`] — the bulk scan operators (count, positions, materialize,
//!   aggregate) that every non-indexed access path bottoms out in.
//! * [`PrefixSums`] — exclusive prefix-sum arrays, the zero-read aggregate
//!   structure shared by the cracking layer's sorted pieces and the offline
//!   layer's sorted indexes.
//! * [`SelectionVector`] — the qualifying-row representation shared by the
//!   scan and index access paths.
//! * [`UpdateBuffer`] — pending insert/delete buffers used by the cracking
//!   layer's update support.
//!
//! Values are `i64`, matching the paper's experimental setup (integer
//! attributes drawn uniformly from `[1, 10^8]`). Row identifiers are `u32`
//! (a single column of up to ~4 billion rows), which keeps auxiliary
//! structures compact.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod catalog;
pub mod column;
pub mod error;
pub mod histogram;
pub mod persist;
pub mod prefix;
pub mod scan;
pub mod selection;
pub mod stats;
pub mod table;
pub mod update;

pub use catalog::{Catalog, ColumnId, TableId};
pub use column::{compact_out, Column};
pub use error::StorageError;
pub use histogram::EquiWidthHistogram;
pub use prefix::PrefixSums;
pub use scan::{
    prefix_sums, scan_count, scan_full, scan_materialize, scan_positions, scan_sum, ScanResult,
};
pub use selection::SelectionVector;
pub use stats::ColumnStats;
pub use table::Table;
pub use update::UpdateBuffer;

/// The value type stored in every column.
///
/// The paper's experiments use integer attributes; `i64` covers that and all
/// realistic surrogate-key / timestamp workloads without loss of generality.
pub type Value = i64;

/// Row identifier within a table.
///
/// Logically a `{shard, offset}` pair in the bundlebase block layout, but
/// stored as a single dense `u32`: with a fixed shard extent `E` the shard
/// id is `rowid / E` and the offset within the shard is `rowid % E`
/// ([`shard_of_row`] / [`row_offset_in_shard`]). Keeping the scalar
/// representation means selection vectors, row-id payload arrays and the
/// persistence format are identical whether a column is sharded or not —
/// only the cracking layer's fan-out interprets the two components.
pub type RowId = u32;

/// The shard a row falls into under fixed shard extent `extent`
/// (the block id of the `{block, offset}` interpretation of [`RowId`]).
#[must_use]
pub fn shard_of_row(rowid: RowId, extent: usize) -> usize {
    (rowid as usize).checked_div(extent).unwrap_or(0)
}

/// The offset of a row within its shard under fixed shard extent `extent`.
#[must_use]
pub fn row_offset_in_shard(rowid: RowId, extent: usize) -> usize {
    if extent == 0 {
        rowid as usize
    } else {
        rowid as usize % extent
    }
}

/// The first row id of shard `shard` under fixed shard extent `extent`.
#[must_use]
pub fn first_row_of_shard(shard: usize, extent: usize) -> RowId {
    (shard * extent) as RowId
}

/// Convenience result type for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

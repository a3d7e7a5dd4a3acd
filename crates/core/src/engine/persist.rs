//! Crash-safe persistence of the engine: snapshots, the write-ahead log,
//! and recovery.
//!
//! # What is persisted
//!
//! A snapshot is one atomic file (`snapshot.<generation>`) with three
//! independently checksummed sections:
//!
//! * **META** — the WAL watermark (highest LSN the snapshot covers), the
//!   catalog's id counter, and the set of columns carrying a full sorted
//!   index.
//! * **DATA** — every base table: id, name, column names and values. This
//!   section alone suffices to rebuild a cold engine.
//! * **LEARNED** — every instantiated cracker column's earned state (the
//!   cracked data copy, piece table with cached sums and sorted flags, and
//!   the shared prefix-sum arrays), via
//!   [`holistic_cracking::encode_cracker_column`].
//!
//! Post-snapshot mutations (schema changes, inserts/deletes, full-index
//! builds/drops, cracker births) append `WalRecord`s to `wal.log` —
//! durably, *before* the in-memory state changes — so any crash loses at
//! most the operation whose caller never saw success. Multi-record events
//! (genesis, update batches, the cracker births of one query batch) are
//! *group-committed*: all records in one write and one fsync, where a
//! torn append truncates to a durable prefix of the batch so every record
//! individually keeps WAL-before-apply semantics.
//!
//! # Recovery: the degradation ladder
//!
//! [`Database::recover`] walks down until something works:
//!
//! 1. newest snapshot, all sections valid → decode data + learned state,
//!    replay the WAL tail (`lsn > watermark`);
//! 2. newest snapshot with a corrupt LEARNED section → same, but the
//!    engine comes up cold (crackers rebuild from queries); a single
//!    cracker that fails [`CrackerColumn::validate`] is dropped alone;
//! 3. newest snapshot with corrupt META/DATA → fall back to the previous
//!    generation (and replay a longer WAL tail);
//! 4. no usable snapshot → rebuild from the WAL alone, which works while
//!    the log still begins at genesis (compaction trims it only after a
//!    snapshot succeeded).
//!
//! Every decoded cracker column passes through
//! [`holistic_cracking::decode_cracker_column_with`] under *sampled*
//! validation: structural invariants and a deterministic piece sample are
//! checked at decode time, and the full O(data) content pass is deferred
//! to the background scrubber and the first-touch paranoia check (which
//! quarantine and rebuild instead of answering wrong). Corruption that
//! slips past the checksums still cannot produce wrong answers — it is
//! either rejected here (column rebuilt cold) or healed after restart.
//!
//! [`CrackerColumn::validate`]: holistic_cracking::CrackerColumn::validate

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use holistic_cracking::{
    decode_cracker_column_with, encode_cracker_column, ConcurrentCrackerColumn, DecodeValidation,
};
use holistic_persist::{
    atomic_write, decode_wal, encode_wal, Decoder, Encoder, FaultInjector, PersistError, Snapshot,
    SnapshotBuilder, WalWriter, WAL_HEADER_LEN,
};
use holistic_storage::persist::{decode_column, encode_column};
use holistic_storage::{ColumnId, Table, TableId, Value};

use crate::config::HolisticConfig;
use crate::error::HolisticError;
use crate::strategy::IndexingStrategy;

use super::{Database, EngineResult, UpdateOp};

/// Snapshot section: watermark + id counter + full-index set.
const SECTION_META: u32 = 1;
/// Snapshot section: the base tables (the WAL-complete data image).
const SECTION_DATA: u32 = 2;
/// Snapshot section: the learned cracker state.
const SECTION_LEARNED: u32 = 3;

/// How many snapshot generations stay on disk (the newest, plus one to
/// fall back to when the newest turns out corrupt).
const KEPT_GENERATIONS: usize = 2;

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot.{generation}"))
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

// ---------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------

/// One logged mutation. Every on-disk record is `lsn · tag · fields`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// A table was created (also written as genesis records when
    /// persistence is first enabled on a non-empty engine).
    CreateTable {
        /// The id the catalog assigned — replay must reproduce it.
        id: TableId,
        /// Table name.
        name: String,
        /// `(column name, values)` pairs in positional order.
        columns: Vec<(String, Vec<Value>)>,
    },
    /// A table was dropped.
    DropTable {
        /// The dropped table's id.
        id: TableId,
    },
    /// A value was inserted into, or its first occurrence deleted from, a
    /// (single-column) table.
    Update(UpdateOp),
    /// A full sorted index was built on the column.
    BuildFullIndex {
        /// The indexed column.
        column: ColumnId,
    },
    /// The column's full sorted index was dropped.
    DropFullIndex {
        /// The column whose index was dropped.
        column: ColumnId,
    },
    /// A cracker column was instantiated (the birth of learned state).
    ///
    /// Closes the LEARNED coverage gap (ROADMAP 5d): a cracker born
    /// *after* the last snapshot is invisible to its LEARNED section, so
    /// without this record a crash silently dropped the column back to
    /// nothing and post-snapshot updates replayed into the base only.
    /// Replaying the birth at its log position re-instantiates the
    /// cracker, so later `Insert`/`Delete` records ripple into it exactly
    /// as the forward execution did. Piece boundaries earned since the
    /// snapshot still degrade (queries are not logged — reads must not
    /// write), but the learned copy itself survives, update-complete, and
    /// the loss is reported via [`RecoveryOutcome::crackers_reborn`]
    /// instead of being silent.
    CrackerBorn {
        /// The column whose cracker was instantiated.
        column: ColumnId,
    },
}

const TAG_CREATE_TABLE: u8 = 1;
const TAG_DROP_TABLE: u8 = 2;
const TAG_INSERT: u8 = 3;
const TAG_DELETE: u8 = 4;
const TAG_BUILD_FULL_INDEX: u8 = 5;
const TAG_DROP_FULL_INDEX: u8 = 6;
const TAG_CRACKER_BORN: u8 = 7;

fn put_column_id(e: &mut Encoder, id: ColumnId) {
    e.put_u32(id.table.0);
    e.put_u32(id.column);
}

fn take_column_id(d: &mut Decoder<'_>) -> Result<ColumnId, PersistError> {
    let table = TableId(d.take_u32()?);
    let column = d.take_u32()?;
    Ok(ColumnId { table, column })
}

impl WalRecord {
    /// Builds a `CreateTable` record from a registered table image.
    pub(super) fn create_table(id: TableId, table: &Table) -> Self {
        WalRecord::CreateTable {
            id,
            name: table.name().to_string(),
            columns: table
                .columns()
                .map(|c| (c.name().to_string(), c.values().to_vec()))
                .collect(),
        }
    }

    fn encode(&self, lsn: u64) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(lsn);
        match self {
            WalRecord::CreateTable { id, name, columns } => {
                e.put_u8(TAG_CREATE_TABLE);
                e.put_u32(id.0);
                e.put_str(name);
                e.put_usize(columns.len());
                for (col_name, values) in columns {
                    e.put_str(col_name);
                    e.put_i64_slice(values);
                }
            }
            WalRecord::DropTable { id } => {
                e.put_u8(TAG_DROP_TABLE);
                e.put_u32(id.0);
            }
            WalRecord::Update(op) => {
                let (tag, value) = match *op {
                    UpdateOp::Insert { value, .. } => (TAG_INSERT, value),
                    UpdateOp::Delete { value, .. } => (TAG_DELETE, value),
                };
                e.put_u8(tag);
                put_column_id(&mut e, op.column());
                e.put_i64(value);
            }
            WalRecord::BuildFullIndex { column } => {
                e.put_u8(TAG_BUILD_FULL_INDEX);
                put_column_id(&mut e, *column);
            }
            WalRecord::DropFullIndex { column } => {
                e.put_u8(TAG_DROP_FULL_INDEX);
                put_column_id(&mut e, *column);
            }
            WalRecord::CrackerBorn { column } => {
                e.put_u8(TAG_CRACKER_BORN);
                put_column_id(&mut e, *column);
            }
        }
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<(u64, WalRecord), PersistError> {
        let mut d = Decoder::new(bytes);
        let lsn = d.take_u64()?;
        let record = match d.take_u8()? {
            TAG_CREATE_TABLE => {
                let id = TableId(d.take_u32()?);
                let name = d.take_str()?;
                let count = d.take_len(1)?;
                let mut columns = Vec::with_capacity(count);
                for _ in 0..count {
                    let col_name = d.take_str()?;
                    let values = d.take_i64_vec()?;
                    columns.push((col_name, values));
                }
                WalRecord::CreateTable { id, name, columns }
            }
            TAG_DROP_TABLE => WalRecord::DropTable {
                id: TableId(d.take_u32()?),
            },
            TAG_INSERT => WalRecord::Update(UpdateOp::Insert {
                column: take_column_id(&mut d)?,
                value: d.take_i64()?,
            }),
            TAG_DELETE => WalRecord::Update(UpdateOp::Delete {
                column: take_column_id(&mut d)?,
                value: d.take_i64()?,
            }),
            TAG_BUILD_FULL_INDEX => WalRecord::BuildFullIndex {
                column: take_column_id(&mut d)?,
            },
            TAG_DROP_FULL_INDEX => WalRecord::DropFullIndex {
                column: take_column_id(&mut d)?,
            },
            TAG_CRACKER_BORN => WalRecord::CrackerBorn {
                column: take_column_id(&mut d)?,
            },
            tag => {
                return Err(PersistError::Corrupt(format!(
                    "unknown WAL record tag {tag}"
                )))
            }
        };
        d.finish()?;
        Ok((lsn, record))
    }
}

// ---------------------------------------------------------------------
// Persistence state
// ---------------------------------------------------------------------

/// The live persistence attachment of a [`Database`].
///
/// Lives behind a `Mutex<Option<_>>` on the engine so that
/// [`Database::snapshot`] works through `&self` — a shared engine can
/// snapshot from the background tuner under the outer read lock, where
/// the `&mut self` mutation paths cannot be running.
#[derive(Debug)]
pub(crate) struct PersistenceState {
    dir: PathBuf,
    injector: Arc<FaultInjector>,
    wal: WalWriter,
    /// LSN the next WAL record receives (LSNs start at 1).
    next_lsn: u64,
    /// Snapshot generations currently on disk, oldest first, with the
    /// watermark each covers. WAL compaction must retain every record the
    /// *oldest* kept snapshot still needs.
    kept: Vec<(u64, u64)>,
    /// Highest generation number ever observed (kept or corrupt), so new
    /// snapshots never collide with a leftover file.
    max_generation: u64,
    records_since_snapshot: u64,
}

/// What [`Database::recover`] managed to reconstruct, and at what rung of
/// the degradation ladder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Generation of the snapshot that was loaded (`None` = no usable
    /// snapshot; the engine was rebuilt from the WAL alone or came up
    /// empty).
    pub snapshot_generation: Option<u64>,
    /// Snapshot files that had to be skipped as corrupt/unreadable.
    pub snapshots_skipped: usize,
    /// `true` if the whole LEARNED section was unusable and every column
    /// came up cold.
    pub learned_state_dropped: bool,
    /// Columns whose individual cracker state failed validation and was
    /// dropped (those columns come up cold; answers stay correct).
    pub cold_columns: Vec<ColumnId>,
    /// Columns whose cracker was re-instantiated from a replayed
    /// `CrackerBorn` WAL record: the cracker was born after the
    /// loaded snapshot, so its learned copy was rebuilt (update-complete)
    /// but its piece boundaries degraded to a single piece.
    pub crackers_reborn: Vec<ColumnId>,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: u64,
    /// Bytes dropped from the WAL's torn/corrupt tail.
    pub wal_bytes_dropped: usize,
    /// `true` if no snapshot was usable and the engine was rebuilt from
    /// the WAL's genesis records.
    pub wal_only_rebuild: bool,
    /// Columns whose recovered cracker passed only *sampled* validation:
    /// structural invariants and a deterministic piece sample were checked
    /// at decode time, and the full O(data) pass is deferred to the
    /// background scrubber (the columns are marked scrub-priority) and
    /// the first-touch paranoia check.
    pub sampled_columns: Vec<ColumnId>,
}

impl Database {
    // -----------------------------------------------------------------
    // Attachment and logging
    // -----------------------------------------------------------------

    /// Enables persistence into `dir` (created if missing): from now on
    /// every mutation is WAL-logged before it is applied, and
    /// [`Database::snapshot`] writes checkpoint images there.
    ///
    /// Existing engine state is made durable immediately by writing
    /// genesis `CreateTable` / `BuildFullIndex` records, so the directory
    /// is recoverable from the first moment. Any previous contents of
    /// `dir` are overwritten. All file IO is routed through `injector`
    /// (pass a fresh disarmed one outside of crash tests).
    pub fn set_persistence(
        &mut self,
        dir: impl Into<PathBuf>,
        injector: Arc<FaultInjector>,
    ) -> EngineResult<()> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| HolisticError::Persist(e.to_string()))?;
        let mut wal = WalWriter::create(&wal_path(&dir), Arc::clone(&injector))
            .map_err(HolisticError::from)?;
        let mut next_lsn = 1u64;
        let mut genesis: Vec<Vec<u8>> = Vec::new();
        for (id, table) in self.catalog.tables() {
            genesis.push(WalRecord::create_table(id, table).encode(next_lsn));
            next_lsn += 1;
        }
        for &column in self.full_indexes.keys() {
            genesis.push(WalRecord::BuildFullIndex { column }.encode(next_lsn));
            next_lsn += 1;
        }
        // Crackers instantiated before persistence was attached: log their
        // births so they are WAL-covered from the first moment (their
        // boundaries become durable with the first snapshot).
        let born: Vec<ColumnId> = self.crackers.read().keys().copied().collect();
        for column in born {
            genesis.push(WalRecord::CrackerBorn { column }.encode(next_lsn));
            next_lsn += 1;
        }
        // Genesis is one logical event: group-commit it with a single fsync.
        wal.append_batch(genesis.iter().map(Vec::as_slice))?;
        let records = next_lsn - 1;
        *self.persistence.lock() = Some(PersistenceState {
            dir,
            injector,
            wal,
            next_lsn,
            kept: Vec::new(),
            max_generation: 0,
            records_since_snapshot: records,
        });
        Ok(())
    }

    /// Whether persistence is attached.
    #[must_use]
    pub fn persistence_enabled(&self) -> bool {
        self.persistence.lock().is_some()
    }

    /// Whether WAL records have accumulated since the last snapshot —
    /// the background tuner's cue to checkpoint during idle time.
    #[must_use]
    pub fn persistence_dirty(&self) -> bool {
        self.persistence
            .lock()
            .as_ref()
            .is_some_and(|s| s.records_since_snapshot > 0)
    }

    /// Appends one record to the WAL (no-op without persistence). Called
    /// *before* the in-memory mutation: a crash inside the append fails
    /// the operation without applying it.
    pub(super) fn wal_append(&self, record: &WalRecord) -> EngineResult<()> {
        let mut guard = self.persistence.lock();
        let Some(state) = guard.as_mut() else {
            return Ok(());
        };
        let lsn = state.next_lsn;
        state.wal.append(&record.encode(lsn))?;
        state.next_lsn = lsn + 1;
        state.records_since_snapshot += 1;
        Ok(())
    }

    /// Group commit: appends a batch of records with a single fsync (no-op
    /// without persistence, no IO for an empty batch).
    ///
    /// Called *before* any of the corresponding in-memory mutations, like
    /// [`Database::wal_append`]. A crash mid-append makes a *prefix* of
    /// the batch durable (records are written in order and the torn tail
    /// is truncated at recovery), while the caller applies nothing — so
    /// each record individually keeps the WAL-before-apply contract:
    /// recovery lands on the state after some prefix of the batch.
    pub(super) fn wal_append_batch(&self, records: &[WalRecord]) -> EngineResult<()> {
        if records.is_empty() {
            return Ok(());
        }
        let mut guard = self.persistence.lock();
        let Some(state) = guard.as_mut() else {
            return Ok(());
        };
        let mut lsn = state.next_lsn;
        let payloads: Vec<Vec<u8>> = records
            .iter()
            .map(|record| {
                let bytes = record.encode(lsn);
                lsn += 1;
                bytes
            })
            .collect();
        state.wal.append_batch(payloads.iter().map(Vec::as_slice))?;
        state.next_lsn = lsn;
        state.records_since_snapshot += records.len() as u64;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Snapshots
    // -----------------------------------------------------------------

    /// Writes a snapshot of the complete engine state (data + learned
    /// cracker state + full-index set) and compacts the WAL. Returns the
    /// new snapshot's generation number.
    ///
    /// Takes `&self`: on a shared engine this runs under the outer read
    /// lock, where the `&mut self` mutation paths are excluded, so the
    /// catalog view is consistent; each cracker is encoded under its own
    /// read latch. The file lands atomically (write-temp, fsync, rename,
    /// directory fsync): a crash anywhere leaves the previous generation
    /// untouched.
    pub fn snapshot(&self) -> EngineResult<u64> {
        let mut guard = self.persistence.lock();
        let Some(state) = guard.as_mut() else {
            return Err(HolisticError::Unsupported(
                "persistence is not enabled; call set_persistence first".into(),
            ));
        };
        let watermark = state.next_lsn - 1;
        let generation = state.max_generation + 1;

        let mut builder = SnapshotBuilder::new(generation);
        builder.add_section(SECTION_META, self.encode_meta(watermark));
        builder.add_section(SECTION_DATA, self.encode_data());
        builder.add_section(SECTION_LEARNED, self.encode_learned());
        let bytes = builder.finish();
        atomic_write(
            &snapshot_path(&state.dir, generation),
            &bytes,
            &state.injector,
        )?;
        state.max_generation = generation;
        state.kept.push((generation, watermark));

        // Prune: keep the newest KEPT_GENERATIONS snapshots.
        while state.kept.len() > KEPT_GENERATIONS {
            let (gen, _) = state.kept.remove(0);
            let _ = std::fs::remove_file(snapshot_path(&state.dir, gen));
        }

        // Compact the WAL down to what the oldest kept snapshot still
        // needs. The rewrite is atomic; a crash in between leaves the old
        // (longer) log, which replay handles via the LSN watermark.
        let retain_after = state.kept.first().map_or(0, |&(_, w)| w);
        let wal_file = wal_path(&state.dir);
        let old = std::fs::read(&wal_file).map_err(|e| HolisticError::Persist(e.to_string()))?;
        let contents = decode_wal(&old);
        let retained: Vec<Vec<u8>> = contents
            .records
            .into_iter()
            .filter(|payload| WalRecord::decode(payload).is_ok_and(|(lsn, _)| lsn > retain_after))
            .collect();
        let new_wal = encode_wal(retained.iter().map(Vec::as_slice));
        atomic_write(&wal_file, &new_wal, &state.injector)?;
        state.wal =
            WalWriter::open_append(&wal_file, new_wal.len() as u64, Arc::clone(&state.injector))?;
        state.records_since_snapshot = 0;
        Ok(generation)
    }

    /// Snapshots if persistence is enabled and mutations have accumulated
    /// since the last snapshot; returns whether a snapshot was written.
    /// Errors (including injected crashes) are reported, not swallowed.
    pub fn snapshot_if_dirty(&self) -> EngineResult<bool> {
        if !self.persistence_dirty() {
            return Ok(false);
        }
        self.snapshot().map(|_| true)
    }

    fn encode_meta(&self, watermark: u64) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(watermark);
        e.put_u32(self.catalog.next_table_id().0);
        e.put_usize(self.full_indexes.len());
        for &column in self.full_indexes.keys() {
            put_column_id(&mut e, column);
        }
        e.into_bytes()
    }

    fn encode_data(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_usize(self.catalog.table_count());
        for (id, table) in self.catalog.tables() {
            e.put_u32(id.0);
            e.put_str(table.name());
            e.put_usize(table.column_count());
            for column in table.columns() {
                encode_column(&mut e, column);
            }
        }
        e.into_bytes()
    }

    fn encode_learned(&self) -> Vec<u8> {
        let crackers: Vec<(ColumnId, Arc<ConcurrentCrackerColumn>)> = self
            .crackers
            .read()
            .iter()
            .map(|(id, c)| (*id, Arc::clone(c)))
            .collect();
        let mut e = Encoder::new();
        e.put_usize(crackers.len());
        for (id, cracker) in crackers {
            put_column_id(&mut e, id);
            // Per-shard encoding: extent, shard count, then each shard's
            // piece table length-prefixed. An unsharded column is the
            // one-shard special case (extent 0), so the format is uniform.
            // Each shard is encoded under its own read latch — concurrent
            // queries on other shards proceed during the snapshot.
            e.put_usize(cracker.shard_extent().unwrap_or(0));
            let shard_count = cracker.shard_count();
            e.put_usize(shard_count);
            for shard in 0..shard_count {
                // The shard list is append-only, so every index below the
                // count observed above stays valid.
                let bytes = cracker
                    .with_shard_read(shard, encode_cracker_column)
                    .unwrap_or_default();
                e.put_usize(bytes.len());
                e.put_bytes(&bytes);
            }
        }
        e.into_bytes()
    }

    // -----------------------------------------------------------------
    // Recovery
    // -----------------------------------------------------------------

    /// Rebuilds a database from a persistence directory, walking the
    /// degradation ladder (see the module docs), and re-attaches
    /// persistence so the recovered engine continues logging.
    ///
    /// Pass a fresh, disarmed `injector` — recovery is the *survivor's*
    /// IO, not the crashed process's. Corrupt snapshot files encountered
    /// on the way down are deleted.
    pub fn recover(
        config: HolisticConfig,
        strategy: IndexingStrategy,
        dir: impl Into<PathBuf>,
        injector: Arc<FaultInjector>,
    ) -> EngineResult<(Database, RecoveryOutcome)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| HolisticError::Persist(e.to_string()))?;
        let kernel = config.crack_kernel;
        let mut db = Database::new(config, strategy);
        let mut outcome = RecoveryOutcome::default();

        // Snapshot generations on disk, newest first.
        let mut generations: Vec<u64> = std::fs::read_dir(&dir)
            .map_err(|e| HolisticError::Persist(e.to_string()))?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name();
                name.to_str()?.strip_prefix("snapshot.")?.parse().ok()
            })
            .collect();
        generations.sort_unstable_by(|a, b| b.cmp(a));
        let max_generation = generations.first().copied().unwrap_or(0);

        // Rung 1-3: find the newest snapshot whose META and DATA decode.
        let mut watermark = 0u64;
        let mut loaded_generation = None;
        let mut want_full_index: BTreeSet<ColumnId> = BTreeSet::new();
        for &generation in &generations {
            match Self::load_snapshot(&dir, generation, kernel, &mut db, &mut outcome) {
                Ok((snap_watermark, full_columns)) => {
                    watermark = snap_watermark;
                    loaded_generation = Some(generation);
                    want_full_index = full_columns;
                    break;
                }
                Err(_) => {
                    outcome.snapshots_skipped += 1;
                    // The file is useless for every future recovery too.
                    let _ = std::fs::remove_file(snapshot_path(&dir, generation));
                }
            }
        }
        outcome.snapshot_generation = loaded_generation;

        // Replay the WAL tail (or, on rung 4, the whole WAL).
        let wal_file = wal_path(&dir);
        let wal_bytes = std::fs::read(&wal_file).unwrap_or_default();
        let contents = decode_wal(&wal_bytes);
        outcome.wal_bytes_dropped = contents.dropped_bytes;
        if loaded_generation.is_none() {
            if contents.records.is_empty() {
                // Snapshot files that existed but could not be read mean
                // durable state was lost — refuse rather than come up
                // empty. Likewise a WAL whose *header* is rotted over a
                // full-length file: the header is the first thing written,
                // so a crash can only ever leave a short (< header) torn
                // fragment there; anything longer with a bad header is bit
                // rot hiding real records. A valid header with zero valid
                // records, by contrast, is a crash during the first append
                // (or WAL creation): nothing was ever durably applied, so
                // an empty engine is the truthful state.
                let rotted_header = contents.valid_len == 0 && wal_bytes.len() >= WAL_HEADER_LEN;
                if !generations.is_empty() || rotted_header {
                    return Err(HolisticError::Recovery(
                        "no usable snapshot and no replayable WAL records".into(),
                    ));
                }
                // A genuinely fresh (or torn-at-birth) directory: come up
                // empty.
            } else {
                outcome.wal_only_rebuild = true;
            }
        }
        let mut max_lsn = watermark;
        // A run of consecutive update records — the shape of a typical WAL
        // tail — replays as one batch through the same `apply_ops` the
        // forward path uses. Any other record flushes the run first, so
        // replay order is preserved exactly.
        let mut run: Vec<UpdateOp> = Vec::new();
        fn flush_run(
            db: &mut Database,
            run: &mut Vec<UpdateOp>,
            want_full_index: &mut BTreeSet<ColumnId>,
        ) -> EngineResult<()> {
            db.apply_ops(run)
                .map_err(|e| HolisticError::Recovery(format!("WAL replay failed: {e}")))?;
            for op in run.drain(..) {
                want_full_index.remove(&op.column());
            }
            Ok(())
        }
        for payload in &contents.records {
            // The payload passed its CRC; a decode failure here means a
            // foreign format, not bit rot — stop replaying, like a torn
            // tail, rather than guessing.
            let Ok((lsn, record)) = WalRecord::decode(payload) else {
                break;
            };
            if lsn <= watermark {
                continue;
            }
            if let WalRecord::Update(op) = record {
                run.push(op);
            } else {
                flush_run(&mut db, &mut run, &mut want_full_index)?;
                db.replay_wal_record(&record, &mut want_full_index, &mut outcome)
                    .map_err(|e| {
                        HolisticError::Recovery(format!("WAL replay failed at lsn {lsn}: {e}"))
                    })?;
            }
            max_lsn = max_lsn.max(lsn);
            outcome.wal_records_replayed += 1;
        }
        flush_run(&mut db, &mut run, &mut want_full_index)?;

        // Materialize the full indexes the recovered state calls for.
        for column in want_full_index {
            db.build_full_index_internal(column)?;
        }

        // Re-attach persistence: truncate the WAL's torn tail and keep
        // appending where the crashed process stopped.
        let wal = if contents.valid_len == 0 {
            WalWriter::create(&wal_file, Arc::clone(&injector))?
        } else {
            WalWriter::open_append(&wal_file, contents.valid_len, Arc::clone(&injector))?
        };
        *db.persistence.lock() = Some(PersistenceState {
            dir,
            injector,
            wal,
            next_lsn: max_lsn + 1,
            kept: loaded_generation
                .map(|g| (g, watermark))
                .into_iter()
                .collect(),
            max_generation,
            records_since_snapshot: outcome.wal_records_replayed
                + u64::from(outcome.wal_only_rebuild),
        });
        // Fold the outcome into the metrics so operators (e.g. the query
        // service's startup log) can read how the engine came up without
        // threading the outcome through by hand.
        db.metrics.record_recovery(outcome.clone());
        Ok((db, outcome))
    }

    /// Loads one snapshot generation into `db`. Fails if META or DATA is
    /// unusable; LEARNED degrades gracefully (whole section or individual
    /// columns dropped, recorded in `outcome`).
    fn load_snapshot(
        dir: &Path,
        generation: u64,
        kernel: holistic_cracking::CrackKernel,
        db: &mut Database,
        outcome: &mut RecoveryOutcome,
    ) -> Result<(u64, BTreeSet<ColumnId>), PersistError> {
        let bytes = std::fs::read(snapshot_path(dir, generation))?;
        let snap = Snapshot::parse(&bytes)?;

        // META: watermark, id counter, full-index set.
        let meta = snap
            .section(SECTION_META)
            .ok_or_else(|| PersistError::Corrupt("META section unusable".into()))?;
        let mut d = Decoder::new(meta);
        let watermark = d.take_u64()?;
        let next_table_id = TableId(d.take_u32()?);
        let full_count = d.take_len(8)?;
        let mut want_full_index = BTreeSet::new();
        for _ in 0..full_count {
            want_full_index.insert(take_column_id(&mut d)?);
        }
        d.finish()?;

        // DATA: the base tables.
        let data = snap
            .section(SECTION_DATA)
            .ok_or_else(|| PersistError::Corrupt("DATA section unusable".into()))?;
        let mut d = Decoder::new(data);
        let table_count = d.take_len(1)?;
        let mut tables = Vec::with_capacity(table_count);
        for _ in 0..table_count {
            let id = TableId(d.take_u32()?);
            let name = d.take_str()?;
            let column_count = d.take_len(1)?;
            let mut table = Table::new(name);
            for _ in 0..column_count {
                table
                    .add_column(decode_column(&mut d)?)
                    .map_err(|e| PersistError::Corrupt(e.to_string()))?;
            }
            tables.push((id, table));
        }
        d.finish()?;

        // META and DATA decoded: from here on the snapshot is committed
        // to (LEARNED failures degrade, they no longer reject the file).
        for (id, table) in tables {
            db.catalog
                .register_with_id(id, table)
                .map_err(|e| PersistError::Corrupt(e.to_string()))?;
            for column_id in db.catalog.all_column_ids() {
                if column_id.table == id {
                    let len = db
                        .catalog
                        .column(column_id)
                        .map_err(|e| PersistError::Corrupt(e.to_string()))?
                        .len();
                    db.stats.register_column(column_id, len);
                }
            }
        }
        db.catalog.reserve_ids(next_table_id);

        // LEARNED: best effort, never rejects the snapshot.
        match snap.section(SECTION_LEARNED) {
            None => outcome.learned_state_dropped = true,
            Some(learned) => {
                if let Err(cold) = db.load_learned_section(learned, kernel, outcome) {
                    // Structural corruption inside the section: whatever
                    // was not decoded yet comes up cold.
                    let _ = cold;
                    outcome.learned_state_dropped = true;
                }
            }
        }
        Ok((watermark, want_full_index))
    }

    fn load_learned_section(
        &mut self,
        learned: &[u8],
        kernel: holistic_cracking::CrackKernel,
        outcome: &mut RecoveryOutcome,
    ) -> Result<(), PersistError> {
        let mut d = Decoder::new(learned);
        let count = d.take_len(1)?;
        for _ in 0..count {
            let id = take_column_id(&mut d)?;
            let extent = d.take_len(1)?;
            let shard_count = d.take_len(1)?;
            // Sampled validation: structural invariants and a deterministic
            // ~1-in-32 piece sample are checked here; the full O(data) pass
            // is deferred to the background scrubber (the column is marked
            // scrub-priority below) and the first-touch paranoia check.
            // This cuts restart cost below a cold rebuild while keeping the
            // no-wrong-answers contract — deferred damage heals through
            // quarantine + rebuild instead of answering queries.
            let validation = DecodeValidation::Sampled {
                seed: self.config.rng_seed,
                rate: 32,
            };
            // Every shard's bytes are consumed even after a failure so the
            // decoder stays aligned for the next column; one bad shard
            // drops this column alone (it comes up cold), never the rest.
            let mut shards = Vec::with_capacity(shard_count.min(1024));
            let mut decodable = true;
            for _ in 0..shard_count {
                let len = d.take_len(1)?;
                let bytes = d.take_bytes(len)?;
                if !decodable {
                    continue;
                }
                match decode_cracker_column_with(bytes, kernel, validation) {
                    Ok(col) => shards.push(col),
                    Err(_) => decodable = false,
                }
            }
            // A cracker for a column the catalog does not know is stale
            // noise; a cracker with a bad shard is dropped alone.
            if self.catalog.column(id).is_err() || !decodable || shards.is_empty() {
                outcome.cold_columns.push(id);
                continue;
            }
            self.crackers.write().insert(
                id,
                Arc::new(ConcurrentCrackerColumn::from_shards(shards, extent)),
            );
            self.health.lock().mark_needs_scrub(id);
            outcome.sampled_columns.push(id);
        }
        d.finish()?;
        Ok(())
    }

    /// Applies one replayed WAL record. Mirrors the forward mutation
    /// paths exactly (minus the logging), so replay is deterministic.
    fn replay_wal_record(
        &mut self,
        record: &WalRecord,
        want_full_index: &mut BTreeSet<ColumnId>,
        outcome: &mut RecoveryOutcome,
    ) -> EngineResult<()> {
        match record {
            WalRecord::CreateTable { id, name, columns } => {
                let mut table = Table::new(name.clone());
                for (col_name, values) in columns {
                    table.add_column_from_values(col_name, values.clone())?;
                }
                self.catalog.register_with_id(*id, table)?;
                for column_id in self.catalog.all_column_ids() {
                    if column_id.table == *id {
                        let len = self.catalog.column(column_id)?.len();
                        self.stats.register_column(column_id, len);
                    }
                }
            }
            WalRecord::DropTable { id } => {
                self.drop_table_internal(*id);
                want_full_index.retain(|c| c.table != *id);
            }
            WalRecord::Update(op) => {
                self.apply_ops(&[*op])?;
                want_full_index.remove(&op.column());
            }
            WalRecord::BuildFullIndex { column } => {
                want_full_index.insert(*column);
            }
            WalRecord::DropFullIndex { column } => {
                want_full_index.remove(column);
            }
            WalRecord::CrackerBorn { column } => {
                // Idempotent: racing queries may have logged the birth
                // twice, and a cracker already restored from LEARNED (born
                // before the snapshot, re-logged at genesis) must keep its
                // warm boundaries. A birth for a column the catalog no
                // longer knows is stale noise (the table was dropped later
                // in the same log) and is skipped like stale LEARNED state.
                if self.catalog.column(*column).is_ok()
                    && !self.crackers.read().contains_key(column)
                {
                    let base = self.catalog.column(*column)?;
                    let fresh = self.build_cracker(base);
                    self.crackers.write().insert(*column, Arc::new(fresh));
                    outcome.crackers_reborn.push(*column);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_records_round_trip() {
        let records = [
            WalRecord::CreateTable {
                id: TableId(3),
                name: "events".into(),
                columns: vec![("ts".into(), vec![4, 1, 9]), ("v".into(), vec![-2, 0, 7])],
            },
            WalRecord::DropTable { id: TableId(3) },
            WalRecord::Update(UpdateOp::Insert {
                column: ColumnId::new(TableId(1), 0),
                value: -42,
            }),
            WalRecord::Update(UpdateOp::Delete {
                column: ColumnId::new(TableId(1), 0),
                value: 17,
            }),
            WalRecord::BuildFullIndex {
                column: ColumnId::new(TableId(2), 1),
            },
            WalRecord::DropFullIndex {
                column: ColumnId::new(TableId(2), 1),
            },
            WalRecord::CrackerBorn {
                column: ColumnId::new(TableId(4), 0),
            },
        ];
        for (i, record) in records.iter().enumerate() {
            let bytes = record.encode(i as u64 + 1);
            let (lsn, back) = WalRecord::decode(&bytes).unwrap();
            assert_eq!(lsn, i as u64 + 1);
            assert_eq!(&back, record);
        }
    }

    #[test]
    fn truncated_wal_records_error_cleanly() {
        let bytes = WalRecord::Update(UpdateOp::Insert {
            column: ColumnId::new(TableId(0), 0),
            value: 5,
        })
        .encode(9);
        for cut in 0..bytes.len() {
            assert!(WalRecord::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}

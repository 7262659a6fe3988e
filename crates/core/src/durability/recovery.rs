//! Crash recovery: checkpoint restore, log replay, torn-tail truncation.
//!
//! `open` rebuilds the exact state of a never-crashed process — including
//! the skolem registry, its minting order, and the key sequence — from the
//! latest checkpoint plus the committed prefix of its log generation.
//! Anything after the first torn or corrupt frame is truncated away; log
//! files of other generations are stale (their contents are covered by the
//! checkpoint) and removed.

use super::checkpoint::Checkpoint;
use super::wal::{scan_wal, wal_file_name, Record, RecordBody, WalWriter};
use super::{remove_stale_wals, Durability, DurabilityMode, DurabilityOptions};
use crate::database::Inverda;
use crate::error::CoreError;
use crate::Result;
use inverda_catalog::{MaterializationSchema, SmoId};
use inverda_storage::StorageError;
use std::path::Path;

/// Open (or create) the durable database at `dir`. The caller guarantees
/// `options.mode != Off`.
pub(crate) fn open(dir: &Path, options: DurabilityOptions) -> Result<Inverda> {
    debug_assert!(options.mode != DurabilityMode::Off);
    std::fs::create_dir_all(dir).map_err(|e| {
        CoreError::Storage(StorageError::io(
            format!("create durable dir {}", dir.display()),
            e,
        ))
    })?;
    let db = Inverda::new_in_memory();
    let ckpt = Checkpoint::load(dir).map_err(CoreError::Storage)?;
    let generation = ckpt.as_ref().map(|c| c.generation).unwrap_or(1);
    if let Some(ckpt) = ckpt {
        restore(&db, ckpt)?;
    }
    let wal_path = dir.join(wal_file_name(generation));
    let scan = scan_wal(&wal_path, generation).map_err(CoreError::Storage)?;
    for record in &scan.records {
        replay(&db, record)?;
    }
    // Truncate the torn tail and continue appending where the committed
    // prefix ends; a missing or unreadable-header log starts fresh.
    let writer = if scan.header_ok {
        WalWriter::attach(
            dir,
            generation,
            scan.valid_len,
            scan.records.len() as u64,
            options.mode,
            options.group_size,
        )
    } else {
        WalWriter::create(dir, generation, options.mode, options.group_size)
    }
    .map_err(CoreError::Storage)?;
    remove_stale_wals(dir, generation).map_err(CoreError::Storage)?;
    db.debug_assert_resolutions(&db.state.read());
    db.ids.lock().set_journaling(true);
    let mut db = db;
    db.durability = Some(Durability::new(
        dir.to_path_buf(),
        options,
        writer,
        generation,
    ));
    Ok(db)
}

/// Install a checkpoint into a fresh in-memory database: replay the DDL
/// history (rebuilding genealogy and catalog ids deterministically), then
/// overwrite the derived physical side — materialization schema, every
/// physical table, the registry, the key sequence — with the snapshotted
/// state. Caches start cold.
fn restore(db: &Inverda, ckpt: Checkpoint) -> Result<()> {
    for text in &ckpt.ddl_history {
        db.execute(text)?;
    }
    db.state.write().materialization =
        MaterializationSchema::from_smos(ckpt.materialization.iter().map(|id| SmoId(*id)));
    for name in db.storage.table_names() {
        db.storage.drop_table(&name).map_err(CoreError::Storage)?;
    }
    for rel in ckpt.tables {
        db.storage
            .create_table_with(rel)
            .map_err(CoreError::Storage)?;
    }
    *db.ids.lock() = ckpt.registry;
    db.storage
        .sequences()
        .ensure_key_above(ckpt.key_seq.saturating_sub(1));
    db.compiled.clear();
    db.snapshots.clear();
    Ok(())
}

/// Replay one committed record: registry deltas first, then the key
/// sequence, then the body — the same order the original commit observed
/// them in.
fn replay(db: &Inverda, record: &Record) -> Result<()> {
    {
        let mut reg = db.ids.lock();
        for op in &record.reg_ops {
            reg.apply_op(op);
        }
    }
    db.storage
        .sequences()
        .ensure_key_above(record.key_seq.saturating_sub(1));
    match &record.body {
        RecordBody::Ddl(text) => {
            db.execute(text)?;
        }
        RecordBody::Materialize(smos) => {
            // Re-run the migration procedure live: its planning mints from
            // the restored (pre-materialization) key sequence, reproducing
            // the original mints in the original order.
            db.materialize_exact(MaterializationSchema::from_smos(
                smos.iter().map(|id| SmoId(*id)),
            ))?;
        }
        RecordBody::Batch(batch) => {
            // The batch is the already-propagated physical write set; no
            // rule re-evaluation is needed (or wanted — its mints are in
            // `reg_ops`).
            db.storage.apply(batch).map_err(CoreError::Storage)?;
        }
        RecordBody::RegistryOnly => {}
    }
    Ok(())
}

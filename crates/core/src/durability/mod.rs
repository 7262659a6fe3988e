//! Durability: write-ahead logging, checkpoints, and crash recovery.
//!
//! Every committed state change — validated write batches from the write
//! path's `drain`, genealogy DDL, `MATERIALIZE` switches, and skolem
//! registry deltas — is serialized with the hand-rolled codec of
//! [`inverda_storage::codec`] into an append-only log ([`wal`]).
//! Periodically the full state is snapshotted atomically ([`checkpoint`])
//! and the log rotates to a new generation. [`crate::Inverda::open`]
//! rebuilds the exact state of a never-crashed process: load the latest
//! checkpoint, replay the log tail, truncate any torn suffix at the first
//! failed CRC ([`recovery`]).
//!
//! The log is written synchronously under the database's single writer
//! lock; the commit [mode](DurabilityMode) only chooses when `fsync` runs
//! (per record, or amortized over a group).

pub mod checkpoint;
pub mod recovery;
pub mod wal;

pub use checkpoint::Checkpoint;
pub use wal::{Record, RecordBody, WalWriter};

use inverda_storage::StorageError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// When appended log records become crash-durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// No log at all: the database is purely in-memory, byte-identical in
    /// behavior to the pre-durability engine.
    Off,
    /// One `fsync` per committed record — strongest guarantee, one disk
    /// round trip per statement.
    Commit,
    /// Group commit: records reach the OS immediately but `fsync` runs
    /// once per `group_size` records (and on flush/checkpoint/drop). A
    /// crash can lose a suffix of acknowledged records, never corrupt the
    /// prefix.
    Group,
}

/// Tuning knobs for a durable database instance.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Commit mode; [`DurabilityMode::Off`] makes `open` behave like
    /// [`crate::Inverda::new`] (nothing touches disk).
    pub mode: DurabilityMode,
    /// Records per fsync under [`DurabilityMode::Group`].
    pub group_size: u64,
    /// When `Some(n)`, automatically checkpoint + rotate the log after
    /// every `n` records; `None` checkpoints only on an explicit
    /// [`crate::Inverda::checkpoint`] call.
    pub checkpoint_every: Option<u64>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            mode: DurabilityMode::Commit,
            group_size: 64,
            checkpoint_every: None,
        }
    }
}

/// Mutable log state, swapped as a unit when the log rotates.
#[derive(Debug)]
struct LogState {
    writer: WalWriter,
    generation: u64,
    records_since_checkpoint: u64,
}

/// The durable half of a database: its directory, options, and the live
/// log writer. Held behind `Option` on [`crate::Inverda`]; `None` means
/// in-memory.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    options: DurabilityOptions,
    log: Mutex<LogState>,
    /// When non-zero, overrides `options.group_size` on the live writer and
    /// on every writer created by rotation. The serving pipeline sets this
    /// to `u64::MAX`, turning the group window into cross-session batching:
    /// fsync runs once per drained group (via [`flush`](Durability::flush)),
    /// never from per-record counting.
    group_override: AtomicU64,
}

impl Durability {
    pub(crate) fn new(
        dir: PathBuf,
        options: DurabilityOptions,
        writer: WalWriter,
        generation: u64,
    ) -> Durability {
        let records_since_checkpoint = writer.record_count();
        Durability {
            dir,
            options,
            log: Mutex::new(LogState {
                writer,
                generation,
                records_since_checkpoint,
            }),
            group_override: AtomicU64::new(0),
        }
    }

    /// The group-commit window rotation hands to new writers: the override
    /// when set, the configured `group_size` otherwise.
    fn effective_group_size(&self) -> u64 {
        match self.group_override.load(Ordering::Relaxed) {
            0 => self.options.group_size,
            n => n,
        }
    }

    /// Install (or with `0` clear) a group-window override on the live
    /// writer and all future rotations. See the field docs.
    pub fn set_group_override(&self, group_size: u64) {
        self.group_override.store(group_size, Ordering::Relaxed);
        let mut log = self.log.lock().expect("durability log lock");
        let effective = self.effective_group_size();
        log.writer.set_group_size(effective);
    }

    /// The directory holding the log and checkpoint files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured commit mode.
    pub fn mode(&self) -> DurabilityMode {
        self.options.mode
    }

    /// Append one record; returns true when the auto-checkpoint threshold
    /// has been reached (the caller owns the state locks needed to run
    /// it).
    pub fn append(&self, record: &Record) -> inverda_storage::Result<bool> {
        let mut log = self.log.lock().expect("durability log lock");
        log.writer.append(record)?;
        log.records_since_checkpoint += 1;
        Ok(self
            .options
            .checkpoint_every
            .is_some_and(|n| log.records_since_checkpoint >= n))
    }

    /// Force unsynced appends to disk (group mode; no-op cost otherwise).
    pub fn flush(&self) -> inverda_storage::Result<()> {
        self.log.lock().expect("durability log lock").writer.sync()
    }

    /// Current log file length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.log.lock().expect("durability log lock").writer.len()
    }

    /// Checkpoint + rotate: start `wal-<g+1>.log` (fsynced) *before*
    /// installing the checkpoint that references it, so a crash between
    /// the two steps recovers from the old checkpoint + old complete log.
    /// `build` receives the new generation and produces the snapshot.
    pub fn rotate(&self, build: impl FnOnce(u64) -> Checkpoint) -> inverda_storage::Result<()> {
        let mut log = self.log.lock().expect("durability log lock");
        // Make the current log complete on disk before the new checkpoint
        // can supersede it.
        log.writer.sync()?;
        let old_gen = log.generation;
        let new_gen = old_gen + 1;
        let writer = WalWriter::create(
            &self.dir,
            new_gen,
            self.options.mode,
            self.effective_group_size(),
        )?;
        checkpoint::sync_dir(&self.dir)?;
        let ckpt = build(new_gen);
        debug_assert_eq!(ckpt.generation, new_gen);
        ckpt.write(&self.dir)?;
        // Old logs are now dead weight; their removal is not needed for
        // correctness (recovery ignores generations ≠ the checkpoint's).
        remove_stale_wals(&self.dir, new_gen)?;
        log.writer = writer;
        log.generation = new_gen;
        log.records_since_checkpoint = 0;
        Ok(())
    }
}

/// Delete every `wal-<g>.log` whose generation differs from `keep`.
pub(crate) fn remove_stale_wals(dir: &Path, keep: u64) -> inverda_storage::Result<()> {
    let io = |e| StorageError::io(format!("list wal dir {}", dir.display()), e);
    for entry in std::fs::read_dir(dir).map_err(io)? {
        let entry = entry.map_err(io)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(gen_text) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
        else {
            continue;
        };
        if gen_text.parse::<u64>().is_ok_and(|g| g != keep) {
            std::fs::remove_file(entry.path())
                .map_err(|e| StorageError::io(format!("remove stale wal {name}"), e))?;
        }
    }
    checkpoint::sync_dir(dir)
}

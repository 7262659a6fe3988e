//! The storage engine: a namespace of physical tables plus sequences.
//!
//! Concurrency model: a single `RwLock` over the table map. InVerDa's write
//! propagation touches several tables per logical write and the paper's
//! evaluation measures single-thread performance; a coarse lock keeps batch
//! application trivially atomic while still allowing concurrent readers.
//!
//! Tables are stored as `Arc<Relation>` and mutated copy-on-write, so
//! [`Storage::snapshot`] is an O(1) reference-count bump: a statement that
//! reads a table pays nothing for isolation. While some snapshot of a table
//! is still alive, a write batch copies the table's chunk pointers and then
//! only the row chunks it changes — everything else stays shared with the
//! snapshot (`relation.rs`, "Structural sharing"). Every table carries
//! an **epoch** — a value drawn from one engine-wide monotonic counter,
//! restamped on every mutation — which is the invalidation currency of the
//! cross-statement snapshot store in `inverda-core`: a derived snapshot is
//! reusable iff every physical table in its resolution footprint still shows
//! the epoch observed at resolution time. Epochs are never reused, so a
//! table dropped and re-created can never satisfy a stale footprint.
//!
//! Every table also keeps a bounded **change log**: the row changes of its
//! most recent [`Storage::apply`] batches, each tagged with the epoch it
//! moved the table from and to. [`Storage::changes_between`] composes a
//! contiguous run of them into the net change between two epochs — what
//! lets a reader bring a derived snapshot stamped at an old epoch up to date
//! in O(changed rows) instead of re-deriving it. Only `apply` logs; whatever
//! else gives a table an epoch (creation, [`Storage::swap_tables`],
//! [`Storage::fork`], [`Storage::from_pinned`]) starts it with an empty log,
//! and because epochs are never reused no chain can lead across such a
//! **gap**: the answer is `None` and the reader falls back to re-deriving.

use crate::batch::{WriteBatch, WriteOp};
use crate::error::StorageError;
use crate::relation::{Relation, RelationDelta, Row};
use crate::schema::TableSchema;
use crate::value::Key;
use crate::Result;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Named monotonic sequences.
///
/// `next_key()` serves the global InVerDa identifier sequence `p`; named
/// sequences back the skolem `idT(B)` functions of the id-generating SMOs
/// ("in our implementation, this is merely a regular SQL sequence",
/// Appendix B.3).
#[derive(Debug, Default)]
pub struct SequenceSet {
    key_seq: AtomicU64,
    named: Mutex<BTreeMap<String, u64>>,
}

impl SequenceSet {
    /// Fresh sequence set starting at 1.
    pub fn new() -> Self {
        SequenceSet {
            key_seq: AtomicU64::new(1),
            named: Mutex::new(BTreeMap::new()),
        }
    }

    /// Next value of the global key sequence.
    pub fn next_key(&self) -> Key {
        Key(self.key_seq.fetch_add(1, Ordering::Relaxed))
    }

    /// Bump the key sequence so it exceeds `floor` (used when loading data
    /// with externally assigned keys).
    pub fn ensure_key_above(&self, floor: u64) {
        self.key_seq.fetch_max(floor + 1, Ordering::Relaxed);
    }

    /// Next value of the named sequence (created on first use, starting at 1).
    pub fn next(&self, name: &str) -> u64 {
        let mut named = self.named.lock();
        let counter = named.entry(name.to_string()).or_insert(0);
        *counter += 1;
        *counter
    }

    /// Current value of the key sequence (for diagnostics).
    pub fn current_key(&self) -> u64 {
        self.key_seq.load(Ordering::Relaxed)
    }

    /// An independent copy resuming every sequence — the global key
    /// sequence and all named sequences — at its current value. The fork
    /// primitive of branching: a branch mints from its own floor, so
    /// sibling branches never hand out each other's future values, while
    /// both continue deterministically from the shared prefix.
    pub fn fork(&self) -> SequenceSet {
        SequenceSet {
            key_seq: AtomicU64::new(self.key_seq.load(Ordering::Relaxed)),
            named: Mutex::new(self.named.lock().clone()),
        }
    }
}

/// Most row changes one table's [`ChangeLog`] holds, and most one batch may
/// bring to a table and still be logged. A chain is replayed per changed
/// row through the delta engine (delta-vs-stored: ~3.5 µs a row on the
/// TasKy2 FK DECOMPOSE, against ~2 µs per *stored* row for re-deriving the
/// relation — EXPERIMENTS.md, "O(delta) maintenance through minting hops"),
/// so a thousand logged changes are worth what re-deriving a
/// two-thousand-row relation costs, a few milliseconds either way; a reader
/// further behind than that re-derives. It also caps what a write pays to
/// log (two row clones per change, none at all past the bound — bulk loads
/// are not logged).
const LOG_ROWS: usize = 1024;

/// One row's change: the row before (`None`: inserted) and after (`None`:
/// deleted).
type RowChange = (Key, Option<Row>, Option<Row>);

/// The row changes of one `apply` batch to one table.
#[derive(Debug)]
struct Link {
    /// The table's epoch before the batch; its epoch after is the next
    /// link's `before`, or the table's current epoch for the last link.
    before: u64,
    changes: Vec<RowChange>,
}

/// A table's recent history: a **contiguous** chain of links, oldest first,
/// ending at the table's current epoch (see the module docs).
#[derive(Debug, Default)]
struct ChangeLog {
    links: VecDeque<Link>,
    /// Row changes held across all links (≤ [`LOG_ROWS`]).
    rows: usize,
}

impl ChangeLog {
    /// Append the changes that moved the table on from epoch `before`;
    /// `None` (a batch past the bound) breaks the chain instead.
    fn record(&mut self, before: u64, changes: Option<Vec<RowChange>>) {
        let Some(changes) = changes else {
            *self = ChangeLog::default();
            return;
        };
        self.rows += changes.len();
        self.links.push_back(Link { before, changes });
        while self.rows > LOG_ROWS {
            let oldest = self.links.pop_front().expect("rows are held by links");
            self.rows -= oldest.changes.len();
        }
    }

    /// Position of the link that moved the table on from epoch `from`.
    fn link_from(&self, from: u64) -> Option<usize> {
        // Epochs ascend along the chain.
        self.links.binary_search_by_key(&from, |l| l.before).ok()
    }
}

/// One stored table: shared contents, its current epoch and its recent
/// history.
#[derive(Debug)]
struct TableEntry {
    rel: Arc<Relation>,
    epoch: u64,
    log: ChangeLog,
}

impl TableEntry {
    /// A table as it enters this storage: no history to offer.
    fn new(rel: Arc<Relation>, epoch: u64) -> Self {
        TableEntry {
            rel,
            epoch,
            log: ChangeLog::default(),
        }
    }
}

/// Process-wide source of unique branch tags (see [`Storage::branch_tag`]).
/// Starts at 1 so tag 0 can mean "unbound" in consumers.
static BRANCH_TAG_SEQ: AtomicU64 = AtomicU64::new(1);

fn next_branch_tag() -> u64 {
    BRANCH_TAG_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// A namespace of physical tables.
#[derive(Debug)]
pub struct Storage {
    tables: RwLock<BTreeMap<String, TableEntry>>,
    sequences: SequenceSet,
    /// Engine-wide epoch source; see the module docs. Starts at 1 so a live
    /// table's epoch is never 0 — `epoch_of` returns 0 for missing tables.
    epoch_seq: AtomicU64,
    /// The epoch *namespace* this storage stamps in. Two forked branches
    /// resume the same epoch counter, so after divergence the same epoch
    /// number can describe different table states on each side; the tag
    /// disambiguates. A fresh or [`fork`](Storage::fork)ed storage gets a
    /// process-unique tag; a [`from_pinned`](Storage::from_pinned)
    /// view inherits its origin's tag (its epochs *are* the origin's).
    branch_tag: u64,
}

impl Default for Storage {
    fn default() -> Self {
        Storage::new()
    }
}

impl Storage {
    /// Empty storage.
    pub fn new() -> Self {
        Storage {
            tables: RwLock::new(BTreeMap::new()),
            sequences: SequenceSet::new(),
            epoch_seq: AtomicU64::new(1),
            branch_tag: next_branch_tag(),
        }
    }

    /// The branch tag of this storage's epoch namespace (see the field
    /// docs). Footprint-stamped caches record the tag of the storage they
    /// were resolved against and refuse to serve a storage with a
    /// different tag — epochs are only comparable within one namespace.
    pub fn branch_tag(&self) -> u64 {
        self.branch_tag
    }

    /// An independent copy-on-write fork: every table is shared by `Arc`
    /// at its current epoch (O(tables) reference bumps, no row copies),
    /// the sequences resume at their current values, and the epoch counter
    /// continues from the same point — but under a **fresh** branch tag,
    /// because the fork and the origin will stamp overlapping epoch
    /// numbers onto diverging states from here on. Change logs are not
    /// copied: what the origin changed before the fork is a gap here.
    pub fn fork(&self) -> Storage {
        let tables = self.tables.read();
        let forked = tables
            .iter()
            .map(|(name, entry)| {
                (
                    name.clone(),
                    TableEntry::new(Arc::clone(&entry.rel), entry.epoch),
                )
            })
            .collect();
        Storage {
            tables: RwLock::new(forked),
            sequences: self.sequences.fork(),
            epoch_seq: AtomicU64::new(self.epoch_seq.load(Ordering::Relaxed)),
            branch_tag: next_branch_tag(),
        }
    }

    /// The sequence set.
    pub fn sequences(&self) -> &SequenceSet {
        &self.sequences
    }

    fn next_epoch(&self) -> u64 {
        self.epoch_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Create an empty table. Fails if the name is taken.
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        self.create_table_with(Relation::new(schema))
    }

    /// Create a table pre-filled with `rel`'s rows (used by migration).
    pub fn create_table_with(&self, rel: Relation) -> Result<()> {
        let mut tables = self.tables.write();
        if tables.contains_key(rel.name()) {
            return Err(StorageError::TableExists {
                table: rel.name().to_string(),
            });
        }
        let epoch = self.next_epoch();
        tables.insert(
            rel.name().to_string(),
            TableEntry::new(Arc::new(rel), epoch),
        );
        Ok(())
    }

    /// Drop a table, returning its final contents.
    pub fn drop_table(&self, name: &str) -> Result<Arc<Relation>> {
        self.tables
            .write()
            .remove(name)
            .map(|entry| entry.rel)
            .ok_or_else(|| StorageError::UnknownTable {
                table: name.to_string(),
            })
    }

    /// True iff the physical table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// Names of all physical tables (sorted).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Number of rows in a physical table.
    pub fn row_count(&self, name: &str) -> Result<usize> {
        self.with_table(name, |rel| rel.len())
    }

    /// Run a closure against a read-locked table.
    pub fn with_table<T>(&self, name: &str, f: impl FnOnce(&Relation) -> T) -> Result<T> {
        let tables = self.tables.read();
        let entry = tables.get(name).ok_or_else(|| StorageError::UnknownTable {
            table: name.to_string(),
        })?;
        Ok(f(&entry.rel))
    }

    /// A table's current state as a shared snapshot — O(1); later writes
    /// copy-on-write and leave the snapshot untouched.
    pub fn snapshot(&self, name: &str) -> Result<Arc<Relation>> {
        let tables = self.tables.read();
        tables
            .get(name)
            .map(|entry| Arc::clone(&entry.rel))
            .ok_or_else(|| StorageError::UnknownTable {
                table: name.to_string(),
            })
    }

    /// Snapshot a table together with its epoch, atomically.
    pub fn snapshot_with_epoch(&self, name: &str) -> Result<(Arc<Relation>, u64)> {
        let tables = self.tables.read();
        tables
            .get(name)
            .map(|entry| (Arc::clone(&entry.rel), entry.epoch))
            .ok_or_else(|| StorageError::UnknownTable {
                table: name.to_string(),
            })
    }

    /// The table's current epoch; 0 if the table does not exist (live tables
    /// always have epoch ≥ 1).
    pub fn epoch_of(&self, name: &str) -> u64 {
        self.tables.read().get(name).map(|e| e.epoch).unwrap_or(0)
    }

    /// Snapshot **every** table together with its epoch under one read lock
    /// (mutually consistent) — the raw material of an epoch-pinned reader
    /// view (see [`Storage::from_pinned`]).
    pub fn snapshot_all(&self) -> BTreeMap<String, (Arc<Relation>, u64)> {
        self.tables
            .read()
            .iter()
            .map(|(name, entry)| (name.clone(), (Arc::clone(&entry.rel), entry.epoch)))
            .collect()
    }

    /// The current value of the engine-wide epoch counter (the next
    /// mutation stamps a strictly larger epoch). Diagnostics and pinning.
    pub fn current_epoch(&self) -> u64 {
        self.epoch_seq.load(Ordering::Relaxed)
    }

    /// Rebuild a standalone `Storage` from pinned `(snapshot, epoch)` pairs
    /// — O(tables) `Arc` bumps, no row copies. The result reproduces the
    /// pinned tables *and their epochs* exactly, so footprint-stamped
    /// snapshot-store entries taken at those epochs keep validating against
    /// it; the key sequence resumes at `key_seq` so read-path id minting
    /// over the pinned view mints exactly what a cold read at the pinned
    /// state would have minted. The epoch counter resumes past the largest
    /// pinned epoch (pinned views are never written, so this only keeps the
    /// invariant that live epochs are unique). The tables come without
    /// change logs. The view stamps in `branch_tag`, its origin's: it
    /// reproduces the origin's epochs, so tag-guarded caches forked from
    /// the origin must keep serving it.
    pub fn from_pinned(
        tables: BTreeMap<String, (Arc<Relation>, u64)>,
        key_seq: u64,
        branch_tag: u64,
    ) -> Self {
        let max_epoch = tables.values().map(|(_, e)| *e).max().unwrap_or(0);
        let tables = tables
            .into_iter()
            .map(|(name, (rel, epoch))| (name, TableEntry::new(rel, epoch)))
            .collect();
        let sequences = SequenceSet::new();
        sequences.ensure_key_above(key_seq.saturating_sub(1));
        Storage {
            tables: RwLock::new(tables),
            sequences,
            epoch_seq: AtomicU64::new(max_epoch + 1),
            branch_tag,
        }
    }

    /// Snapshot several tables under one read lock (mutually consistent).
    pub fn snapshot_many(&self, names: &[&str]) -> Result<Vec<Arc<Relation>>> {
        let tables = self.tables.read();
        names
            .iter()
            .map(|name| {
                tables
                    .get(*name)
                    .map(|entry| Arc::clone(&entry.rel))
                    .ok_or_else(|| StorageError::UnknownTable {
                        table: (*name).to_string(),
                    })
            })
            .collect()
    }

    /// Apply a batch atomically: every operation is validated against the
    /// in-order simulated effect of the batch *before* anything is mutated,
    /// so a failing batch leaves storage untouched without an undo log, and
    /// a succeeding one mutates tables copy-on-write (while an outstanding
    /// snapshot still shares a table, only the row chunks the batch changes
    /// are copied). Each
    /// touched table is restamped with a fresh epoch, and its row changes go
    /// to its change log.
    pub fn apply(&self, batch: &WriteBatch) -> Result<()> {
        let mut tables = self.tables.write();
        // ---- Phase 1: validate. `present` overlays the batch's own effects
        // so intra-batch sequences (insert then delete the same key, …) are
        // judged like the sequential application would.
        let mut present: HashMap<(&str, Key), bool> = HashMap::new();
        for op in &batch.ops {
            let name = op.table();
            let entry = tables.get(name).ok_or_else(|| StorageError::UnknownTable {
                table: name.to_string(),
            })?;
            let arity = entry.rel.schema().arity();
            if let WriteOp::Insert { row, .. }
            | WriteOp::Upsert { row, .. }
            | WriteOp::Update { row, .. } = op
            {
                if row.len() != arity {
                    return Err(StorageError::ArityMismatch {
                        table: name.to_string(),
                        expected: arity,
                        got: row.len(),
                    });
                }
            }
            let key = op.key();
            let exists = present
                .get(&(name, key))
                .copied()
                .unwrap_or_else(|| entry.rel.contains_key(key));
            match op {
                WriteOp::Insert { .. } if exists => {
                    return Err(StorageError::DuplicateKey {
                        table: name.to_string(),
                        key: key.0,
                    });
                }
                WriteOp::Delete { .. } | WriteOp::Update { .. } if !exists => {
                    return Err(StorageError::MissingKey {
                        table: name.to_string(),
                        key: key.0,
                    });
                }
                _ => {}
            }
            let present_after =
                !matches!(op, WriteOp::Delete { .. } | WriteOp::DeleteIfPresent { .. });
            present.insert((name, key), present_after);
        }
        // ---- Phase 2: apply (infallible after validation). No-op writes —
        // upserting an identical row, deleting an absent key — are skipped
        // before the copy-on-write, so they neither copy a shared chunk nor
        // move the table's epoch. Every real change is collected for the
        // table's change log, unless the batch brings the table more ops
        // than the log holds: then none of its rows is cloned.
        let mut ops_per_table: HashMap<&str, usize> = HashMap::new();
        if batch.ops.len() > LOG_ROWS {
            for op in &batch.ops {
                *ops_per_table.entry(op.table()).or_default() += 1;
            }
        }
        let mut touched: BTreeMap<&str, Option<Vec<RowChange>>> = BTreeMap::new();
        for op in &batch.ops {
            let entry = tables.get_mut(op.table()).expect("validated");
            let change: RowChange = match op {
                WriteOp::Insert { key, row, .. }
                | WriteOp::Upsert { key, row, .. }
                | WriteOp::Update { key, row, .. } => {
                    let exists = match entry.rel.get(*key) {
                        Some(old) if old == row => continue,
                        old => old.is_some(),
                    };
                    let rel = Arc::make_mut(&mut entry.rel);
                    let old = if exists {
                        Some(rel.update(*key, row.clone()).expect("validated arity"))
                    } else {
                        rel.insert(*key, row.clone()).expect("validated arity");
                        None
                    };
                    (*key, old, Some(row.clone()))
                }
                WriteOp::Delete { key, .. } | WriteOp::DeleteIfPresent { key, .. } => {
                    if !entry.rel.contains_key(*key) {
                        continue;
                    }
                    let old = Arc::make_mut(&mut entry.rel).delete_if_present(*key);
                    (*key, old, None)
                }
            };
            let changes = touched.entry(op.table()).or_insert_with(|| {
                let logged = ops_per_table.get(op.table()).is_none_or(|n| *n <= LOG_ROWS);
                logged.then(Vec::new)
            });
            if let Some(changes) = changes {
                changes.push(change);
            }
        }
        // ---- Phase 3: restamp epochs of touched tables and log what moved
        // them there.
        for (name, changes) in touched {
            let epoch = self.next_epoch();
            if let Some(entry) = tables.get_mut(name) {
                entry.log.record(entry.epoch, changes);
                entry.epoch = epoch;
            }
        }
        Ok(())
    }

    /// The net row changes that took `table` from epoch `from` to epoch
    /// `to`, composed from its change log: per key, the row at `from`
    /// against the row at `to`, keys whose row ends up as it started left
    /// out. `None` when the log does not hold a contiguous chain between
    /// the two — the table does not exist, one of the epochs was never this
    /// table's, the chain has been overwritten, or something other than
    /// [`apply`](Storage::apply) moved the table in between (see the module
    /// docs).
    pub fn changes_between(&self, table: &str, from: u64, to: u64) -> Option<RelationDelta> {
        let tables = self.tables.read();
        let entry = tables.get(table)?;
        if from == to {
            return Some(RelationDelta::default());
        }
        let log = &entry.log;
        let first = log.link_from(from)?;
        let end = if to == entry.epoch {
            log.links.len()
        } else {
            log.link_from(to)?
        };
        if end <= first {
            return None;
        }
        // Per key: its row at `from` (the first change's old side) and at
        // `to` (the last change's new side).
        let mut net: BTreeMap<Key, (&Option<Row>, &Option<Row>)> = BTreeMap::new();
        for (key, old, new) in log.links.range(first..end).flat_map(|l| &l.changes) {
            net.entry(*key).or_insert((old, new)).1 = new;
        }
        let mut delta = RelationDelta::default();
        for (key, ends) in net {
            match ends {
                (None, Some(new)) => delta.inserts.push((key, new.clone())),
                (Some(old), None) => delta.deletes.push((key, old.clone())),
                (Some(old), Some(new)) if old != new => {
                    delta.updates.push((key, old.clone(), new.clone()));
                }
                _ => {}
            }
        }
        Some(delta)
    }

    /// Whether [`changes_between`](Storage::changes_between) can still lead
    /// from epoch `from` to `table`'s current epoch.
    pub fn log_reaches(&self, table: &str, from: u64) -> bool {
        self.tables
            .read()
            .get(table)
            .is_some_and(|entry| from == entry.epoch || entry.log.link_from(from).is_some())
    }

    /// The physical half of a migration, all or nothing: create `creates`,
    /// overwrite the contents of `replaces`, and drop `drops`, returning the
    /// dropped tables' final contents in `drops` order. Every name is
    /// validated against the current table set *before* anything is
    /// mutated (the shape [`Storage::apply`] has), and the whole swap
    /// happens under one write lock, so a failing swap leaves storage
    /// untouched and no reader ever sees half of it. Relations are taken by
    /// `Arc`: a table that becomes physical shares its allocation with the
    /// snapshot it was planned from. Created and replaced tables are
    /// stamped with fresh epochs.
    pub fn swap_tables(
        &self,
        creates: Vec<Arc<Relation>>,
        replaces: Vec<Arc<Relation>>,
        drops: &[String],
    ) -> Result<Vec<Arc<Relation>>> {
        let mut tables = self.tables.write();
        let mut created: BTreeSet<&str> = BTreeSet::new();
        for rel in &creates {
            if tables.contains_key(rel.name()) || !created.insert(rel.name()) {
                return Err(StorageError::TableExists {
                    table: rel.name().to_string(),
                });
            }
        }
        let mut dropped: BTreeSet<&str> = BTreeSet::new();
        let missing = replaces
            .iter()
            .map(|rel| rel.name())
            .find(|name| !tables.contains_key(*name))
            .or_else(|| {
                drops
                    .iter()
                    .map(String::as_str)
                    .find(|name| !tables.contains_key(*name) || !dropped.insert(name))
            });
        if let Some(name) = missing {
            return Err(StorageError::UnknownTable {
                table: name.to_string(),
            });
        }
        for rel in creates.into_iter().chain(replaces) {
            let epoch = self.next_epoch();
            tables.insert(rel.name().to_string(), TableEntry::new(rel, epoch));
        }
        Ok(drops
            .iter()
            .map(|name| tables.remove(name).expect("validated").rel)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn storage_with_t() -> Storage {
        let s = Storage::new();
        s.create_table(TableSchema::new("T", ["a", "b"]).unwrap())
            .unwrap();
        s
    }

    #[test]
    fn create_and_drop() {
        let s = storage_with_t();
        assert!(s.has_table("T"));
        assert!(s
            .create_table(TableSchema::new("T", ["x"]).unwrap())
            .is_err());
        s.drop_table("T").unwrap();
        assert!(!s.has_table("T"));
        assert!(s.drop_table("T").is_err());
    }

    #[test]
    fn batch_applies_atomically() {
        let s = storage_with_t();
        let mut good = WriteBatch::new();
        good.insert("T", Key(1), vec![Value::Int(1), Value::Int(2)]);
        s.apply(&good).unwrap();
        assert_eq!(s.row_count("T").unwrap(), 1);

        // Second op fails (duplicate key) -> first op must be rolled back.
        let mut bad = WriteBatch::new();
        bad.insert("T", Key(2), vec![Value::Int(3), Value::Int(4)])
            .insert("T", Key(1), vec![Value::Int(5), Value::Int(6)]);
        assert!(s.apply(&bad).is_err());
        assert_eq!(s.row_count("T").unwrap(), 1);
        assert!(s.with_table("T", |r| r.get(Key(2)).is_none()).unwrap());
    }

    #[test]
    fn batch_against_missing_table_rolls_back() {
        let s = storage_with_t();
        let mut bad = WriteBatch::new();
        bad.insert("T", Key(7), vec![Value::Int(0), Value::Int(0)])
            .insert("NoSuch", Key(8), vec![]);
        assert!(s.apply(&bad).is_err());
        assert_eq!(s.row_count("T").unwrap(), 0);
    }

    #[test]
    fn intra_batch_effects_are_validated_in_order() {
        let s = storage_with_t();
        // Insert then delete then re-insert the same key: legal in sequence.
        let mut b = WriteBatch::new();
        b.insert("T", Key(1), vec![Value::Int(1), Value::Int(1)])
            .delete("T", Key(1))
            .insert("T", Key(1), vec![Value::Int(2), Value::Int(2)]);
        s.apply(&b).unwrap();
        assert_eq!(
            s.with_table("T", |r| r.get(Key(1)).cloned()).unwrap(),
            Some(vec![Value::Int(2), Value::Int(2)])
        );
        // Update of a key only created earlier in the same batch: legal.
        let mut b2 = WriteBatch::new();
        b2.insert("T", Key(2), vec![Value::Int(3), Value::Int(3)])
            .update("T", Key(2), vec![Value::Int(4), Value::Int(4)]);
        s.apply(&b2).unwrap();
        // Update of a key deleted earlier in the same batch: rejected, and
        // the whole batch must be rolled back.
        let mut b3 = WriteBatch::new();
        b3.delete("T", Key(2))
            .update("T", Key(2), vec![Value::Int(5), Value::Int(5)]);
        assert!(s.apply(&b3).is_err());
        assert_eq!(
            s.with_table("T", |r| r.get(Key(2)).cloned()).unwrap(),
            Some(vec![Value::Int(4), Value::Int(4)])
        );
    }

    #[test]
    fn sequences_are_monotonic_and_independent() {
        let s = Storage::new();
        let k1 = s.sequences().next_key();
        let k2 = s.sequences().next_key();
        assert!(k2 > k1);
        assert_eq!(s.sequences().next("id_Author"), 1);
        assert_eq!(s.sequences().next("id_Author"), 2);
        assert_eq!(s.sequences().next("id_Task"), 1);
        s.sequences().ensure_key_above(1000);
        assert!(s.sequences().next_key().0 > 1000);
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let s = storage_with_t();
        let mut b = WriteBatch::new();
        b.insert("T", Key(1), vec![Value::Int(1), Value::Int(1)]);
        s.apply(&b).unwrap();
        let snap = s.snapshot("T").unwrap();
        let mut b2 = WriteBatch::new();
        b2.delete("T", Key(1));
        s.apply(&b2).unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(s.row_count("T").unwrap(), 0);
    }

    #[test]
    fn a_write_under_a_held_snapshot_copies_only_what_it_touches() {
        let s = storage_with_t();
        let mut load = WriteBatch::new();
        for k in 0..2000 {
            load.insert("T", Key(k), vec![Value::Int(k as i64), Value::Int(0)]);
        }
        s.apply(&load).unwrap();
        let row = |v: i64| vec![Value::Int(v), Value::Int(v)];
        let mut insert = WriteBatch::new();
        insert.insert("T", Key(5000), row(1));
        let mut update = WriteBatch::new();
        update.update("T", Key(1000), row(2));
        let mut delete = WriteBatch::new();
        delete.delete("T", Key(7));
        for batch in [insert, update, delete] {
            let held = s.snapshot("T").unwrap();
            let shown = held.to_string();
            s.apply(&batch).unwrap();
            let now = s.snapshot("T").unwrap();
            assert!(
                now.unshared_chunks(&held) <= 2,
                "copied more than it touched"
            );
            assert_eq!(held.to_string(), shown, "the held snapshot saw the write");
        }
        assert_eq!(s.row_count("T").unwrap(), 2000);
    }

    #[test]
    fn snapshot_many_is_consistent() {
        let s = storage_with_t();
        s.create_table(TableSchema::new("U", ["x"]).unwrap())
            .unwrap();
        let rels = s.snapshot_many(&["T", "U"]).unwrap();
        assert_eq!(rels.len(), 2);
        assert!(s.snapshot_many(&["T", "Nope"]).is_err());
    }

    fn filled(name: &str, key: u64) -> Arc<Relation> {
        let mut rel = Relation::with_columns(name, ["a", "b"]);
        rel.insert(Key(key), vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        Arc::new(rel)
    }

    #[test]
    fn swap_tables_creates_replaces_and_drops() {
        let s = storage_with_t();
        s.create_table(TableSchema::new("Old", ["a", "b"]).unwrap())
            .unwrap();
        let new = filled("New", 7);
        let dropped = s
            .swap_tables(
                vec![Arc::clone(&new)],
                vec![filled("T", 42)],
                &["Old".to_string()],
            )
            .unwrap();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].name(), "Old");
        assert_eq!(s.table_names(), vec!["New", "T"]);
        assert!(s.with_table("T", |r| r.contains_key(Key(42))).unwrap());
        // Shared, not copied: the stored table is the allocation handed in.
        assert!(Arc::ptr_eq(&s.snapshot("New").unwrap(), &new));
    }

    #[test]
    fn swap_tables_is_all_or_nothing() {
        let s = storage_with_t();
        s.create_table(TableSchema::new("Old", ["a", "b"]).unwrap())
            .unwrap();
        let before = s.snapshot_all();
        let untouched = |s: &Storage| {
            let now = s.snapshot_all();
            now.len() == before.len()
                && now.iter().all(|(name, (rel, epoch))| {
                    before
                        .get(name)
                        .is_some_and(|(r, e)| Arc::ptr_eq(r, rel) && e == epoch)
                })
        };
        let old = ["Old".to_string()];
        // The second create collides: the first must not have landed.
        let err = s.swap_tables(vec![filled("New", 1), filled("T", 2)], vec![], &old);
        assert!(matches!(err, Err(StorageError::TableExists { .. })));
        assert!(untouched(&s));
        // A create named twice.
        let err = s.swap_tables(vec![filled("New", 1), filled("New", 2)], vec![], &[]);
        assert!(matches!(err, Err(StorageError::TableExists { .. })));
        assert!(untouched(&s));
        // A replace of a missing table, after a valid create.
        let err = s.swap_tables(vec![filled("New", 1)], vec![filled("Ghost", 2)], &old);
        assert!(matches!(err, Err(StorageError::UnknownTable { .. })));
        assert!(untouched(&s));
        // A drop of a missing table, and one named twice.
        for drops in [
            vec!["Old".to_string(), "Ghost".to_string()],
            vec!["Old".to_string(), "Old".to_string()],
        ] {
            let err = s.swap_tables(vec![filled("New", 1)], vec![filled("T", 2)], &drops);
            assert!(matches!(err, Err(StorageError::UnknownTable { .. })));
            assert!(untouched(&s));
        }
    }

    #[test]
    fn epochs_restamp_on_every_mutation() {
        let s = storage_with_t();
        let e0 = s.epoch_of("T");
        assert!(e0 >= 1);
        assert_eq!(s.epoch_of("NoSuch"), 0);

        let mut b = WriteBatch::new();
        b.insert("T", Key(1), vec![Value::Int(1), Value::Int(1)]);
        s.apply(&b).unwrap();
        let e1 = s.epoch_of("T");
        assert!(e1 > e0);

        // A failing batch must not move the epoch.
        let mut bad = WriteBatch::new();
        bad.insert("T", Key(1), vec![Value::Int(2), Value::Int(2)]);
        assert!(s.apply(&bad).is_err());
        assert_eq!(s.epoch_of("T"), e1);

        // Untouched tables keep their epoch.
        s.create_table(TableSchema::new("U", ["x"]).unwrap())
            .unwrap();
        let eu = s.epoch_of("U");
        let mut b2 = WriteBatch::new();
        b2.delete("T", Key(1));
        s.apply(&b2).unwrap();
        assert!(s.epoch_of("T") > e1);
        assert_eq!(s.epoch_of("U"), eu);

        // Replace and re-create restamp; epochs are never reused.
        s.swap_tables(
            vec![],
            vec![Arc::new(Relation::with_columns("T", ["a", "b"]))],
            &[],
        )
        .unwrap();
        let e3 = s.epoch_of("T");
        assert!(e3 > e1);
        s.drop_table("T").unwrap();
        assert_eq!(s.epoch_of("T"), 0);
        s.create_table(TableSchema::new("T", ["a", "b"]).unwrap())
            .unwrap();
        assert!(s.epoch_of("T") > e3);
    }

    #[test]
    fn snapshot_with_epoch_matches_contents() {
        let s = storage_with_t();
        let (snap0, e0) = s.snapshot_with_epoch("T").unwrap();
        assert!(snap0.is_empty());
        let mut b = WriteBatch::new();
        b.insert("T", Key(1), vec![Value::Int(1), Value::Int(1)]);
        s.apply(&b).unwrap();
        let (snap1, e1) = s.snapshot_with_epoch("T").unwrap();
        assert_eq!(snap1.len(), 1);
        assert!(e1 > e0);
        // The old snapshot still describes the old epoch's contents.
        assert!(snap0.is_empty());
    }

    #[test]
    fn from_pinned_reproduces_tables_epochs_and_key_seq() {
        let s = storage_with_t();
        let mut b = WriteBatch::new();
        b.insert(
            "T",
            s.sequences().next_key(),
            vec![Value::Int(1), Value::Int(2)],
        );
        s.apply(&b).unwrap();
        s.create_table(TableSchema::new("U", ["x"]).unwrap())
            .unwrap();

        let pinned_tables = s.snapshot_all();
        let key_seq = s.sequences().current_key();
        let pin = Storage::from_pinned(pinned_tables, key_seq, s.branch_tag());
        assert_eq!(pin.table_names(), s.table_names());
        assert_eq!(pin.epoch_of("T"), s.epoch_of("T"));
        assert_eq!(pin.epoch_of("U"), s.epoch_of("U"));
        assert_eq!(pin.row_count("T").unwrap(), 1);
        assert_eq!(pin.sequences().current_key(), key_seq);
        assert_eq!(pin.sequences().next_key(), s.sequences().next_key());
        assert!(pin.current_epoch() > pin.epoch_of("T"));

        // The pin is isolated: later writes to the origin do not move it.
        let mut b2 = WriteBatch::new();
        b2.delete("T", Key(1));
        s.apply(&b2).unwrap();
        assert_eq!(pin.row_count("T").unwrap(), 1);
        assert_ne!(pin.epoch_of("T"), s.epoch_of("T"));
    }

    #[test]
    fn fork_is_isolated_and_freshly_tagged() {
        let s = storage_with_t();
        let mut b = WriteBatch::new();
        b.insert(
            "T",
            s.sequences().next_key(),
            vec![Value::Int(1), Value::Int(2)],
        );
        s.apply(&b).unwrap();
        assert_eq!(s.sequences().next("id_X"), 1);

        let f = s.fork();
        assert_ne!(f.branch_tag(), s.branch_tag(), "forks get fresh tags");
        assert_eq!(f.table_names(), s.table_names());
        assert_eq!(f.epoch_of("T"), s.epoch_of("T"));
        assert_eq!(f.sequences().current_key(), s.sequences().current_key());
        // Named sequences resume from the shared prefix, independently.
        assert_eq!(f.sequences().next("id_X"), 2);
        assert_eq!(s.sequences().next("id_X"), 2);

        // Divergent writes stamp overlapping epoch numbers — exactly the
        // aliasing hazard branch tags exist to disambiguate.
        let mut bs = WriteBatch::new();
        bs.insert("T", Key(100), vec![Value::Int(9), Value::Int(9)]);
        s.apply(&bs).unwrap();
        let mut bf = WriteBatch::new();
        bf.insert("T", Key(200), vec![Value::Int(8), Value::Int(8)]);
        f.apply(&bf).unwrap();
        assert_eq!(s.epoch_of("T"), f.epoch_of("T"));
        assert!(s.with_table("T", |r| r.get(Key(200)).is_none()).unwrap());
        assert!(f.with_table("T", |r| r.get(Key(100)).is_none()).unwrap());

        // A pinned view inherits the origin's tag.
        let pin = Storage::from_pinned(
            s.snapshot_all(),
            s.sequences().current_key(),
            s.branch_tag(),
        );
        assert_eq!(pin.branch_tag(), s.branch_tag());
    }

    fn row(a: i64) -> Row {
        vec![Value::Int(a), Value::Int(0)]
    }

    #[test]
    fn change_log_composes_a_chain_to_its_net_change() {
        let s = storage_with_t();
        let e0 = s.epoch_of("T");
        let mut b = WriteBatch::new();
        b.insert("T", Key(1), row(1)).insert("T", Key(2), row(2));
        s.apply(&b).unwrap();
        let e1 = s.epoch_of("T");
        let mut b = WriteBatch::new();
        b.update("T", Key(1), row(10)).insert("T", Key(3), row(3));
        s.apply(&b).unwrap();
        let e2 = s.epoch_of("T");
        // Twice in one batch, then gone; key 3 goes the way it came.
        let mut b = WriteBatch::new();
        b.update("T", Key(2), row(20))
            .update("T", Key(2), row(21))
            .delete("T", Key(3));
        s.apply(&b).unwrap();
        let e3 = s.epoch_of("T");
        let mut b = WriteBatch::new();
        b.delete("T", Key(2));
        s.apply(&b).unwrap();
        let e4 = s.epoch_of("T");

        let whole = s.changes_between("T", e0, e4).unwrap();
        assert_eq!(
            whole,
            s.snapshot("T")
                .unwrap()
                .diff(&Relation::with_columns("T", ["a", "b"]))
        );
        assert_eq!(whole.inserts, vec![(Key(1), row(10))]);
        assert!(whole.deletes.is_empty() && whole.updates.is_empty());
        let tail = s.changes_between("T", e1, e4).unwrap();
        assert_eq!(tail.updates, vec![(Key(1), row(1), row(10))]);
        assert_eq!(tail.deletes, vec![(Key(2), row(2))]);
        assert!(tail.inserts.is_empty(), "key 3 was inserted and deleted");
        let middle = s.changes_between("T", e1, e3).unwrap();
        assert_eq!(
            middle.updates,
            vec![(Key(1), row(1), row(10)), (Key(2), row(2), row(21))]
        );
        assert!(middle.inserts.is_empty() && middle.deletes.is_empty());
        assert!(s.changes_between("T", e2, e2).unwrap().is_empty());
        // Backwards, or from an epoch that was never this table's: no chain.
        assert!(s.changes_between("T", e3, e1).is_none());
        assert!(s.changes_between("T", e4 + 100, e4).is_none());
        assert!(s.changes_between("NoSuch", e0, e1).is_none());
        assert!(s.log_reaches("T", e0) && s.log_reaches("T", e4));
        assert!(!s.log_reaches("T", e4 + 100) && !s.log_reaches("NoSuch", e0));
    }

    #[test]
    fn no_op_writes_log_nothing() {
        let s = storage_with_t();
        let mut b = WriteBatch::new();
        b.insert("T", Key(1), row(1));
        s.apply(&b).unwrap();
        let e1 = s.epoch_of("T");
        let mut noop = WriteBatch::new();
        noop.upsert("T", Key(1), row(1))
            .delete_if_present("T", Key(9));
        s.apply(&noop).unwrap();
        assert_eq!(s.epoch_of("T"), e1);
        assert_eq!(s.tables.read()["T"].log.links.len(), 1);
        // Mixed with a real change, only that one is logged.
        noop.insert("T", Key(2), row(2));
        s.apply(&noop).unwrap();
        let delta = s.changes_between("T", e1, s.epoch_of("T")).unwrap();
        assert_eq!(delta.inserts, vec![(Key(2), row(2))]);
        assert_eq!(delta.len(), 1);
    }

    #[test]
    fn everything_but_a_bounded_apply_is_a_gap() {
        let s = storage_with_t();
        let insert = |s: &Storage, key: u64| {
            let mut b = WriteBatch::new();
            b.insert("T", Key(key), row(key as i64));
            s.apply(&b).unwrap();
        };
        insert(&s, 1);
        let e1 = s.epoch_of("T");

        // A batch past the bound is applied, not logged — and it takes the
        // chain that led up to it along.
        let mut bulk = WriteBatch::new();
        for k in 0..=LOG_ROWS as u64 {
            bulk.insert("T", Key(1000 + k), row(0));
        }
        s.apply(&bulk).unwrap();
        let e2 = s.epoch_of("T");
        assert!(s.changes_between("T", e1, e2).is_none());
        assert!(!s.log_reaches("T", e1));
        assert_eq!(s.tables.read()["T"].log.rows, 0);
        // The bound is per table: a small table in the same batch is logged.
        s.create_table(TableSchema::new("U", ["a", "b"]).unwrap())
            .unwrap();
        let (eu, mut bulk) = (s.epoch_of("U"), WriteBatch::new());
        for k in 0..=LOG_ROWS as u64 {
            bulk.insert("T", Key(5000 + k), row(0));
        }
        bulk.insert("U", Key(1), row(1));
        s.apply(&bulk).unwrap();
        assert_eq!(
            s.changes_between("U", eu, s.epoch_of("U")).unwrap().len(),
            1
        );
        let e2 = s.epoch_of("T");
        insert(&s, 2);
        assert_eq!(
            s.changes_between("T", e2, s.epoch_of("T")).unwrap().len(),
            1
        );

        // A fork and a pinned view know nothing of the origin's history,
        // and log their own from where they start.
        let e3 = s.epoch_of("T");
        let fork = s.fork();
        let pin = Storage::from_pinned(
            s.snapshot_all(),
            s.sequences().current_key(),
            s.branch_tag(),
        );
        for other in [&fork, &pin] {
            assert_eq!(other.epoch_of("T"), e3);
            assert!(other.changes_between("T", e2, e3).is_none());
            assert!(!other.log_reaches("T", e2));
        }
        insert(&fork, 3);
        assert_eq!(
            fork.changes_between("T", e3, fork.epoch_of("T"))
                .unwrap()
                .len(),
            1
        );
        assert!(fork.changes_between("T", e2, fork.epoch_of("T")).is_none());

        // `swap_tables` replaces the contents without a row-level record.
        s.swap_tables(vec![], vec![filled("T", 42)], &[]).unwrap();
        let e4 = s.epoch_of("T");
        assert!(s.changes_between("T", e3, e4).is_none());
        insert(&s, 4);
        assert!(s.changes_between("T", e3, s.epoch_of("T")).is_none());
        assert_eq!(
            s.changes_between("T", e4, s.epoch_of("T")).unwrap().len(),
            1
        );

        // Drop and re-create: a new table under an old name.
        let e5 = s.epoch_of("T");
        s.drop_table("T").unwrap();
        assert!(s.changes_between("T", e4, e5).is_none());
        s.create_table(TableSchema::new("T", ["a", "b"]).unwrap())
            .unwrap();
        insert(&s, 5);
        assert!(s.changes_between("T", e5, s.epoch_of("T")).is_none());
        assert!(!s.log_reaches("T", e5));
    }

    #[test]
    fn change_log_stays_bounded() {
        let s = storage_with_t();
        let mut epochs = vec![s.epoch_of("T")];
        for i in 0..10_000u64 {
            let mut b = WriteBatch::new();
            b.upsert("T", Key(i % 50), row(i as i64));
            if i % 7 == 0 {
                b.upsert("T", Key(100 + i % 13), row(i as i64));
            }
            s.apply(&b).unwrap();
            epochs.push(s.epoch_of("T"));
        }
        {
            let tables = s.tables.read();
            let log = &tables["T"].log;
            assert!(log.rows <= LOG_ROWS && log.rows > LOG_ROWS - 2);
            assert_eq!(
                log.rows,
                log.links.iter().map(|l| l.changes.len()).sum::<usize>()
            );
        }
        // The recent past is still reachable, the distant past is not.
        let now = *epochs.last().unwrap();
        let recent = s.changes_between("T", epochs[epochs.len() - 100], now);
        assert!(recent.is_some_and(|d| d.len() <= 63));
        assert!(s.changes_between("T", epochs[0], now).is_none());
        assert!(!s.log_reaches("T", epochs[5_000]));
    }

    #[test]
    fn concurrent_readers_and_writer() {
        use std::sync::Arc;
        let s = Arc::new(storage_with_t());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let key = Key((t * 1000 + i) as u64);
                    let mut b = WriteBatch::new();
                    b.insert("T", key, vec![Value::Int(t as i64), Value::Int(i as i64)]);
                    s.apply(&b).unwrap();
                    let _ = s.snapshot("T").unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.row_count("T").unwrap(), 200);
    }
}

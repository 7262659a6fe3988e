//! Named branches over the version DAG: fork, diverge, diff, fast-forward,
//! and deterministically merge whole InVerDa databases.
//!
//! The genealogy already lets schema *versions* co-exist over one data set;
//! this module adds the orthogonal axis of parallel *realities*: a
//! [`BranchingInverda`] manages a family of named branches, each a complete
//! [`Inverda`] engine (genealogy + data + skolem registry + caches).
//! Creating a branch is `O(metadata)` — [`Inverda::fork_detached`] shares
//! every table copy-on-write at its current epoch, forks the snapshot store
//! and compiled-rule caches warm, and clones the registry and key-sequence
//! floor — after which writes and DDL land on one branch without disturbing
//! any sibling (storage branch tags make cross-branch snapshot probes
//! guaranteed misses; see `inverda_storage::Storage::fork`).
//!
//! Every mutation is recorded as a **stamped logical operation** in the
//! issuing branch's history: stamps come from one manager-global counter,
//! and each branch tracks the set of stamps whose effects it contains.
//! That set is the merge base: `diff` reports exactly the operations one
//! side has and the other lacks (plus per-table row deltas and registry
//! divergence), [`BranchingInverda::fast_forward`] advances a branch whose
//! counterpart has not diverged, and [`BranchingInverda::merge`] **rebase
//! replays** the source's unintegrated operations onto a scratch fork of
//! the destination — re-minting source-born row keys through the
//! destination's key sequence (a per-merge translation map rewrites
//! updates/deletes that reference them) and resolving skolem payloads
//! through the destination's registry by payload-keyed identity, never
//! re-minting an id the destination already assigned. Conflicts (the same
//! pre-fork row changed differently on both sides, the same schema-version
//! name created on both sides, or a replay failure) surface as a typed
//! [`MergeConflicts`] report and leave the destination untouched.
//!
//! Durability is layered *above* the engines: branch engines are always
//! in-memory, and the manager appends each logical operation to its own
//! log (`branch-0.log`, same `[len][crc32][payload]` framing and torn-tail
//! rule as the database WAL) **before** executing it; recovery re-drives
//! the decodable prefix, which reproduces every branch byte-for-byte
//! because replaying a branch's history from genesis is exactly the
//! branch's definition. Identifier mints performed by *reads* (scans
//! resolve virtual versions and may mint) are not re-driven, so they are
//! captured separately: before any logged action, the affected branch's
//! registry journal is drained into a `Residue` record carrying the
//! journaled ops and the key-sequence floor.

use crate::database::{ExecutionOutcome, Inverda};
use crate::durability::wal::{scan_log, WalWriter};
use crate::durability::DurabilityOptions;
use crate::error::CoreError;
use crate::serving::PinnedView;
use crate::write::LogicalWrite;
use crate::Result;
use inverda_datalog::{RegOp, RegistryDivergence};
use inverda_storage::codec::{Codec, Reader};
use inverda_storage::{Key, Relation, RelationDelta, Row, StorageError, Value};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Name of the branch every manager starts with.
pub const MAIN_BRANCH: &str = "main";

/// Magic bytes opening the branch-layer log's header frame.
pub const BRANCH_MAGIC: &[u8; 8] = b"IVBRLOG1";

/// File name of the branch-layer log (generation 0; the branch log has no
/// checkpoint rotation yet — see ROADMAP).
pub const BRANCH_LOG_NAME: &str = "branch-0.log";

/// One logical operation issued against a branch — the replayable unit of
/// branch history and of the branch log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BranchOp {
    /// A BiDEL script ([`Inverda::execute`]).
    Execute(String),
    /// A batch of logical writes against one versioned table
    /// ([`Inverda::apply_many`]).
    ApplyMany {
        /// Schema version addressed.
        version: String,
        /// Table addressed.
        table: String,
        /// The writes, in order.
        writes: Vec<LogicalWrite>,
    },
}

const OP_EXECUTE: u8 = 0;
const OP_APPLY_MANY: u8 = 1;

impl Codec for BranchOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BranchOp::Execute(script) => {
                out.push(OP_EXECUTE);
                script.encode(out);
            }
            BranchOp::ApplyMany {
                version,
                table,
                writes,
            } => {
                out.push(OP_APPLY_MANY);
                version.encode(out);
                table.encode(out);
                writes.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> inverda_storage::Result<Self> {
        Ok(match r.u8()? {
            OP_EXECUTE => BranchOp::Execute(r.string()?),
            OP_APPLY_MANY => BranchOp::ApplyMany {
                version: r.string()?,
                table: r.string()?,
                writes: Vec::<LogicalWrite>::decode(r)?,
            },
            t => {
                return Err(StorageError::codec(format!("invalid branch op tag {t}")));
            }
        })
    }
}

/// One record of the branch-layer log. Replay re-drives the same internal
/// entry points the live calls use, so a recovered manager is the
/// deterministic replay of the log's valid prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BranchRecord {
    /// Registry mutations performed by *reads* since the branch's last
    /// record (scans on virtual versions may mint), plus the key-sequence
    /// floor to restore. Applied verbatim on replay — read paths are not
    /// re-driven.
    Residue {
        branch: String,
        reg_ops: Vec<RegOp>,
        key_seq: u64,
    },
    /// `branch_from(from, name)`.
    Create { name: String, from: String },
    /// One logical operation on `branch` (logged before execution; a
    /// failing operation fails identically on replay).
    Op { branch: String, op: BranchOp },
    /// `merge(src, dst)` — only logged for merges that committed.
    Merge { src: String, dst: String },
    /// `fast_forward(src, dst)`.
    FastForward { src: String, dst: String },
    /// `drop_branch(name)`.
    Drop { name: String },
}

const REC_RESIDUE: u8 = 0;
const REC_CREATE: u8 = 1;
const REC_OP: u8 = 2;
const REC_MERGE: u8 = 3;
const REC_FAST_FORWARD: u8 = 4;
const REC_DROP: u8 = 5;

impl Codec for BranchRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BranchRecord::Residue {
                branch,
                reg_ops,
                key_seq,
            } => {
                out.push(REC_RESIDUE);
                branch.encode(out);
                reg_ops.encode(out);
                key_seq.encode(out);
            }
            BranchRecord::Create { name, from } => {
                out.push(REC_CREATE);
                name.encode(out);
                from.encode(out);
            }
            BranchRecord::Op { branch, op } => {
                out.push(REC_OP);
                branch.encode(out);
                op.encode(out);
            }
            BranchRecord::Merge { src, dst } => {
                out.push(REC_MERGE);
                src.encode(out);
                dst.encode(out);
            }
            BranchRecord::FastForward { src, dst } => {
                out.push(REC_FAST_FORWARD);
                src.encode(out);
                dst.encode(out);
            }
            BranchRecord::Drop { name } => {
                out.push(REC_DROP);
                name.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> inverda_storage::Result<Self> {
        Ok(match r.u8()? {
            REC_RESIDUE => BranchRecord::Residue {
                branch: r.string()?,
                reg_ops: Vec::<RegOp>::decode(r)?,
                key_seq: r.u64()?,
            },
            REC_CREATE => BranchRecord::Create {
                name: r.string()?,
                from: r.string()?,
            },
            REC_OP => BranchRecord::Op {
                branch: r.string()?,
                op: BranchOp::decode(r)?,
            },
            REC_MERGE => BranchRecord::Merge {
                src: r.string()?,
                dst: r.string()?,
            },
            REC_FAST_FORWARD => BranchRecord::FastForward {
                src: r.string()?,
                dst: r.string()?,
            },
            REC_DROP => BranchRecord::Drop { name: r.string()? },
            t => {
                return Err(StorageError::codec(format!(
                    "invalid branch record tag {t}"
                )));
            }
        })
    }
}

/// One stamped operation in a branch's history. A branch's state is, by
/// construction, the replay of its history (successful entries, in order)
/// on a fresh engine — the differential property `branch_props.rs` checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Position in the manager-global operation sequence. Stamps identify
    /// operations across branches: a fork inherits the parent's history,
    /// and a merge appends the source's entries (rewritten to be
    /// self-contained on the destination) under their original stamps.
    pub stamp: u64,
    /// The operation, self-contained for this branch: updates and deletes
    /// reference keys as minted *here* (merge rewrites them).
    pub op: BranchOp,
    /// Whether the operation succeeded (failed operations are kept — they
    /// consume a stamp and fail identically on replay).
    pub ok: bool,
    /// Per-write results of an `ApplyMany` (`Some(key)` for inserts) —
    /// the key-lineage record merge uses to translate source-born keys.
    pub minted: Vec<Option<Key>>,
    /// Schema versions the operation created (conflict pre-check for
    /// same-name creation on both sides of a merge).
    pub created: Vec<String>,
}

/// What one side of a merge did, net, to a row key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetChange {
    /// The row ended up deleted.
    Deleted,
    /// The row ended up with this payload.
    Set(Row),
}

/// One side's net change to a conflicted key, with the version/table lens
/// it was written through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SideChange {
    /// Schema version the write addressed.
    pub version: String,
    /// Table the write addressed.
    pub table: String,
    /// The net change.
    pub change: NetChange,
}

/// One conflict found by [`BranchingInverda::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeConflict {
    /// Both sides changed the same pre-fork row, differently. (Two
    /// identical updates, or a delete on both sides, are *not* conflicts.)
    Write {
        /// The contested row key.
        key: Key,
        /// What the merge source did.
        src: SideChange,
        /// What the merge destination did.
        dst: SideChange,
    },
    /// Both sides created a schema version of the same name.
    Version {
        /// The contested schema-version name.
        name: String,
    },
    /// A source operation that succeeded on its own branch failed when
    /// replayed onto the destination (e.g. it depends on a schema version
    /// the destination dropped, or on key lineage lost to a prior merge).
    Replay {
        /// Stamp of the failing source operation.
        stamp: u64,
        /// The replay error, rendered.
        error: String,
    },
}

/// The typed conflict report of a refused merge; carried by
/// [`CoreError::MergeConflicts`]. The destination branch is untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeConflicts {
    /// Merge source branch.
    pub src: String,
    /// Merge destination branch.
    pub dst: String,
    /// Every conflict found, in deterministic (stamp / key) order.
    pub conflicts: Vec<MergeConflict>,
}

impl fmt::Display for MergeConflicts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "merge of '{}' into '{}' found {} conflict(s):",
            self.src,
            self.dst,
            self.conflicts.len()
        )?;
        for c in &self.conflicts {
            match c {
                MergeConflict::Write { key, src, dst } => write!(
                    f,
                    " [row #{} changed on both sides: {}.{} vs {}.{}]",
                    key.0, src.version, src.table, dst.version, dst.table
                )?,
                MergeConflict::Version { name } => {
                    write!(f, " [schema version '{name}' created on both sides]")?;
                }
                MergeConflict::Replay { stamp, error } => {
                    write!(f, " [op #{stamp} does not replay: {error}]")?;
                }
            }
        }
        Ok(())
    }
}

/// Outcome of a committed [`BranchingInverda::merge`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Source operations replayed onto the destination (failed and
    /// fully-filtered source entries are integrated without replay).
    pub applied: usize,
    /// Source-born row keys that were re-minted through the destination's
    /// key sequence during replay.
    pub remapped_keys: usize,
}

/// One table's row delta in a [`BranchDiff`], read through a schema
/// version both branches share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDiff {
    /// The shared schema version.
    pub version: String,
    /// The table within it.
    pub table: String,
    /// Rows to add/remove/change to get from branch `a`'s content to
    /// branch `b`'s ([`Relation::diff`]: `b.diff(&a)`).
    pub delta: RelationDelta,
}

/// Everything that differs between two branches: genealogy divergence
/// (schema versions only one side has, operations only one side has),
/// per-table row deltas over the shared versions, and skolem-registry
/// divergence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BranchDiff {
    /// Schema versions only branch `a` has.
    pub only_in_a: Vec<String>,
    /// Schema versions only branch `b` has.
    pub only_in_b: Vec<String>,
    /// Row deltas (`a` → `b`) per shared `(version, table)`, in name
    /// order; tables with identical content are omitted.
    pub tables: Vec<TableDiff>,
    /// Skolem-registry divergence (`a` is "left", `b` is "right").
    pub registry: RegistryDivergence,
    /// Operations branch `a` has that `b` has not integrated.
    pub a_ahead: usize,
    /// Operations branch `b` has that `a` has not integrated.
    pub b_ahead: usize,
}

impl BranchDiff {
    /// True iff the branches are indistinguishable: same versions, same
    /// rows, same registry, and neither is ahead.
    pub fn is_empty(&self) -> bool {
        self.only_in_a.is_empty()
            && self.only_in_b.is_empty()
            && self.tables.is_empty()
            && self.registry.is_empty()
            && self.a_ahead == 0
            && self.b_ahead == 0
    }
}

/// Per-branch state inside the manager.
struct BranchState {
    /// The branch's engine — always purely in-memory; the branch layer
    /// owns durability (see module docs).
    db: Arc<Inverda>,
    /// Stamped operations whose replay from genesis *is* this branch.
    history: Vec<HistoryEntry>,
    /// Stamps whose effects this branch contains (history stamps plus
    /// stamps integrated without a history entry: failed source ops and
    /// fully-filtered deletes of a merge).
    integrated: BTreeSet<u64>,
}

struct Inner {
    branches: BTreeMap<String, BranchState>,
    next_stamp: u64,
    log: Option<WalWriter>,
}

struct BranchCore {
    inner: Mutex<Inner>,
    /// Whether branch registries journal read-mints (true iff a log is
    /// attached; kept separately because replay runs before the writer is
    /// attached).
    durable: bool,
    dir: Option<PathBuf>,
}

/// Result of one executed logical operation.
enum OpReturn {
    Executed(ExecutionOutcome),
    Applied(Vec<Option<Key>>),
}

fn fresh_branch(durable: bool) -> BranchState {
    let db = Inverda::new_in_memory();
    if durable {
        db.ids.lock().set_journaling(true);
    }
    BranchState {
        db: Arc::new(db),
        history: Vec::new(),
        integrated: BTreeSet::new(),
    }
}

fn unknown(name: &str) -> CoreError {
    CoreError::UnknownBranch {
        name: name.to_string(),
    }
}

/// Drain `db`'s registry journal (read-mints since the branch's last
/// record) into a `Residue` record. Must precede any action record of the
/// same branch, or replay would re-drive the action without the mints.
fn log_residue(log: &mut WalWriter, name: &str, db: &Inverda) -> Result<()> {
    let reg_ops = db.ids.lock().take_journal();
    if reg_ops.is_empty() {
        return Ok(());
    }
    let key_seq = db.storage.sequences().current_key();
    log.append(&BranchRecord::Residue {
        branch: name.to_string(),
        reg_ops,
        key_seq,
    })?;
    Ok(())
}

/// Net effects of a history segment on rows that existed before the
/// segment: `key → last (version, table, change)`, with writes to keys the
/// segment itself minted excluded (fresh rows cannot conflict — merge
/// re-mints them).
fn net_effects(entries: &[&HistoryEntry]) -> BTreeMap<Key, SideChange> {
    let mut minted: BTreeSet<Key> = BTreeSet::new();
    for e in entries {
        minted.extend(e.minted.iter().flatten().copied());
    }
    let mut net = BTreeMap::new();
    for e in entries {
        if !e.ok {
            continue;
        }
        if let BranchOp::ApplyMany {
            version,
            table,
            writes,
        } = &e.op
        {
            for w in writes {
                let (key, change) = match w {
                    LogicalWrite::Insert(_) => continue,
                    LogicalWrite::Update(k, row) => (*k, NetChange::Set(row.clone())),
                    LogicalWrite::Delete(k) => (*k, NetChange::Deleted),
                };
                if minted.contains(&key) {
                    continue;
                }
                net.insert(
                    key,
                    SideChange {
                        version: version.clone(),
                        table: table.clone(),
                        change,
                    },
                );
            }
        }
    }
    net
}

/// Whether the two sides' net changes to the same key are compatible
/// (identical, so the merge can keep either).
fn compatible(a: &SideChange, b: &SideChange) -> bool {
    match (&a.change, &b.change) {
        // Deleted is deleted, whichever version lens issued it.
        (NetChange::Deleted, NetChange::Deleted) => true,
        _ => a == b,
    }
}

impl BranchCore {
    // ------------------------------------------------------------------
    // Internal entry points: each takes the locked `Inner`, a `do_log`
    // flag (false during replay), and performs validation → residue →
    // action record → execution, in that order.
    // ------------------------------------------------------------------

    fn create_locked(
        inner: &mut Inner,
        durable: bool,
        do_log: bool,
        parent_name: &str,
        name: &str,
    ) -> Result<()> {
        let Inner { branches, log, .. } = inner;
        if branches.contains_key(name) {
            return Err(CoreError::BranchExists {
                name: name.to_string(),
            });
        }
        let parent = branches
            .get(parent_name)
            .ok_or_else(|| unknown(parent_name))?;
        if do_log {
            if let Some(w) = log.as_mut() {
                // Drain before forking so the clone's memo state is fully
                // covered by the log prefix preceding the Create record.
                log_residue(w, parent_name, &parent.db)?;
                w.append(&BranchRecord::Create {
                    name: name.to_string(),
                    from: parent_name.to_string(),
                })?;
            }
        }
        let db = parent.db.fork_detached();
        if durable {
            db.ids.lock().set_journaling(true);
        }
        let state = BranchState {
            db: Arc::new(db),
            history: parent.history.clone(),
            integrated: parent.integrated.clone(),
        };
        branches.insert(name.to_string(), state);
        Ok(())
    }

    fn exec_op_locked(
        inner: &mut Inner,
        durable: bool,
        do_log: bool,
        name: &str,
        op: BranchOp,
    ) -> Result<OpReturn> {
        let Inner {
            branches,
            next_stamp,
            log,
        } = inner;
        let state = branches.get_mut(name).ok_or_else(|| unknown(name))?;
        if do_log {
            if let Some(w) = log.as_mut() {
                log_residue(w, name, &state.db)?;
                w.append(&BranchRecord::Op {
                    branch: name.to_string(),
                    op: op.clone(),
                })?;
            }
        }
        let stamp = *next_stamp;
        *next_stamp += 1;
        let result = match &op {
            BranchOp::Execute(script) => state.db.execute(script).map(OpReturn::Executed),
            BranchOp::ApplyMany {
                version,
                table,
                writes,
            } => state
                .db
                .apply_many(version, table, writes.clone())
                .map(OpReturn::Applied),
        };
        if durable {
            // The op's own mints are re-derived by re-driving it on
            // replay; discard them so they are not double-applied.
            state.db.ids.lock().take_journal();
        }
        let (ok, minted, created) = match &result {
            Ok(OpReturn::Executed(outcome)) => (true, Vec::new(), outcome.created_versions.clone()),
            Ok(OpReturn::Applied(minted)) => (true, minted.clone(), Vec::new()),
            Err(_) => (false, Vec::new(), Vec::new()),
        };
        state.history.push(HistoryEntry {
            stamp,
            op,
            ok,
            minted,
            created,
        });
        state.integrated.insert(stamp);
        result
    }

    fn fast_forward_locked(
        inner: &mut Inner,
        durable: bool,
        do_log: bool,
        src_name: &str,
        dst_name: &str,
    ) -> Result<usize> {
        let Inner { branches, log, .. } = inner;
        let src = branches.get(src_name).ok_or_else(|| unknown(src_name))?;
        let dst = branches.get(dst_name).ok_or_else(|| unknown(dst_name))?;
        if src_name == dst_name {
            return Ok(0);
        }
        let dst_ops = dst
            .history
            .iter()
            .filter(|e| !src.integrated.contains(&e.stamp))
            .count();
        if dst_ops > 0 {
            return Err(CoreError::CannotFastForward {
                dst: dst_name.to_string(),
                dst_ops,
            });
        }
        let advanced = src
            .history
            .iter()
            .filter(|e| !dst.integrated.contains(&e.stamp))
            .count();
        if advanced == 0 {
            return Ok(0);
        }
        if do_log {
            if let Some(w) = log.as_mut() {
                log_residue(w, src_name, &src.db)?;
                log_residue(w, dst_name, &dst.db)?;
                w.append(&BranchRecord::FastForward {
                    src: src_name.to_string(),
                    dst: dst_name.to_string(),
                })?;
            }
        }
        // dst has nothing of its own: advancing it is re-forking src.
        let db = src.db.fork_detached();
        if durable {
            db.ids.lock().set_journaling(true);
        }
        let history = src.history.clone();
        let integrated = src.integrated.clone();
        let dst = branches.get_mut(dst_name).expect("validated above");
        dst.db = Arc::new(db);
        dst.history = history;
        dst.integrated = integrated;
        Ok(advanced)
    }

    fn merge_locked(
        inner: &mut Inner,
        durable: bool,
        do_log: bool,
        src_name: &str,
        dst_name: &str,
    ) -> Result<MergeOutcome> {
        let Inner { branches, log, .. } = inner;
        let src = branches.get(src_name).ok_or_else(|| unknown(src_name))?;
        let dst = branches.get(dst_name).ok_or_else(|| unknown(dst_name))?;
        if src_name == dst_name {
            return Ok(MergeOutcome::default());
        }
        let src_new: Vec<HistoryEntry> = src
            .history
            .iter()
            .filter(|e| !dst.integrated.contains(&e.stamp))
            .cloned()
            .collect();
        if src_new.is_empty() {
            return Ok(MergeOutcome::default());
        }
        let dst_new: Vec<&HistoryEntry> = dst
            .history
            .iter()
            .filter(|e| !src.integrated.contains(&e.stamp))
            .collect();

        let report = |conflicts: Vec<MergeConflict>| {
            CoreError::MergeConflicts(MergeConflicts {
                src: src_name.to_string(),
                dst: dst_name.to_string(),
                conflicts,
            })
        };

        // Conflict detection, entirely before any mutation.
        let mut conflicts = Vec::new();
        let dst_versions = dst.db.versions();
        for e in &src_new {
            if !e.ok {
                continue;
            }
            for v in &e.created {
                if dst_versions.iter().any(|d| d == v) {
                    conflicts.push(MergeConflict::Version { name: v.clone() });
                }
            }
        }
        let src_net = net_effects(&src_new.iter().collect::<Vec<_>>());
        let dst_net = net_effects(&dst_new);
        for (key, s) in &src_net {
            if let Some(d) = dst_net.get(key) {
                if !compatible(s, d) {
                    conflicts.push(MergeConflict::Write {
                        key: *key,
                        src: s.clone(),
                        dst: d.clone(),
                    });
                }
            }
        }
        if !conflicts.is_empty() {
            return Err(report(conflicts));
        }

        // Rebase replay on a scratch fork; the destination is untouched
        // until the whole replay has succeeded.
        let scratch = dst.db.fork_detached();
        let src_minted: BTreeSet<Key> = src_new
            .iter()
            .flat_map(|e| e.minted.iter().flatten().copied())
            .collect();
        let mut translation: BTreeMap<Key, Key> = BTreeMap::new();
        let mut new_entries: Vec<HistoryEntry> = Vec::new();
        let mut applied = 0usize;
        for entry in &src_new {
            if !entry.ok {
                continue;
            }
            let fail = |e: String| {
                report(vec![MergeConflict::Replay {
                    stamp: entry.stamp,
                    error: e,
                }])
            };
            match &entry.op {
                BranchOp::Execute(script) => match scratch.execute(script) {
                    Ok(outcome) => {
                        new_entries.push(HistoryEntry {
                            stamp: entry.stamp,
                            op: entry.op.clone(),
                            ok: true,
                            minted: Vec::new(),
                            created: outcome.created_versions,
                        });
                        applied += 1;
                    }
                    Err(e) => return Err(fail(e.to_string())),
                },
                BranchOp::ApplyMany {
                    version,
                    table,
                    writes,
                } => {
                    let translate = |k: Key| -> Result<Key> {
                        if let Some(t) = translation.get(&k) {
                            Ok(*t)
                        } else if src_minted.contains(&k) {
                            Err(fail(format!(
                                "row #{} was born on '{src_name}' but its lineage is \
                                 not part of this merge",
                                k.0
                            )))
                        } else {
                            Ok(k)
                        }
                    };
                    // Rewrite the batch to be self-contained on the
                    // destination: source-born keys go through the
                    // translation map, deletes of already-absent rows
                    // (both sides deleted — proven compatible above) are
                    // filtered.
                    let mut rewritten: Vec<LogicalWrite> = Vec::with_capacity(writes.len());
                    let mut insert_origs: Vec<(usize, Option<Key>)> = Vec::new();
                    for (i, w) in writes.iter().enumerate() {
                        match w {
                            LogicalWrite::Insert(row) => {
                                insert_origs.push((
                                    rewritten.len(),
                                    entry.minted.get(i).copied().flatten(),
                                ));
                                rewritten.push(LogicalWrite::Insert(row.clone()));
                            }
                            LogicalWrite::Update(k, row) => {
                                rewritten.push(LogicalWrite::Update(translate(*k)?, row.clone()));
                            }
                            LogicalWrite::Delete(k) => {
                                let k = translate(*k)?;
                                match scratch.get(version, table, k) {
                                    Ok(Some(_)) => rewritten.push(LogicalWrite::Delete(k)),
                                    Ok(None) => {}
                                    Err(e) => return Err(fail(e.to_string())),
                                }
                            }
                        }
                    }
                    if rewritten.is_empty() {
                        continue;
                    }
                    match scratch.apply_many(version, table, rewritten.clone()) {
                        Ok(minted) => {
                            for (pos, orig) in insert_origs {
                                if let (Some(orig), Some(Some(new))) = (orig, minted.get(pos)) {
                                    translation.insert(orig, *new);
                                }
                            }
                            new_entries.push(HistoryEntry {
                                stamp: entry.stamp,
                                op: BranchOp::ApplyMany {
                                    version: version.clone(),
                                    table: table.clone(),
                                    writes: rewritten,
                                },
                                ok: true,
                                minted,
                                created: Vec::new(),
                            });
                            applied += 1;
                        }
                        Err(e) => return Err(fail(e.to_string())),
                    }
                }
            }
        }
        if durable {
            // Replay re-derives the merge's own mints by re-driving the
            // Merge record; journal from here on.
            let mut reg = scratch.ids.lock();
            reg.set_journaling(true);
        }

        // Commit. Residues first so the Merge record replays against the
        // exact registry state the live merge computed over.
        if do_log {
            if let Some(w) = log.as_mut() {
                log_residue(w, src_name, &src.db)?;
                log_residue(w, dst_name, &dst.db)?;
                w.append(&BranchRecord::Merge {
                    src: src_name.to_string(),
                    dst: dst_name.to_string(),
                })?;
            }
        }
        let src_integrated = src.integrated.clone();
        let remapped_keys = translation.len();
        let dst = branches.get_mut(dst_name).expect("validated above");
        dst.db = Arc::new(scratch);
        dst.history.extend(new_entries);
        dst.integrated.extend(src_integrated);
        Ok(MergeOutcome {
            applied,
            remapped_keys,
        })
    }

    fn drop_locked(inner: &mut Inner, do_log: bool, name: &str) -> Result<()> {
        let Inner { branches, log, .. } = inner;
        if name == MAIN_BRANCH {
            return Err(CoreError::ProtectedBranch {
                name: name.to_string(),
            });
        }
        if !branches.contains_key(name) {
            return Err(unknown(name));
        }
        if do_log {
            if let Some(w) = log.as_mut() {
                w.append(&BranchRecord::Drop {
                    name: name.to_string(),
                })?;
            }
        }
        branches.remove(name);
        Ok(())
    }

    /// Re-drive one logged record during recovery. Errors of the original
    /// call recur deterministically and are swallowed exactly as the live
    /// caller observed them.
    fn replay_record(inner: &mut Inner, durable: bool, record: BranchRecord) {
        match record {
            BranchRecord::Residue {
                branch,
                reg_ops,
                key_seq,
            } => {
                if let Some(state) = inner.branches.get(&branch) {
                    let mut reg = state.db.ids.lock();
                    for op in &reg_ops {
                        reg.apply_op(op);
                    }
                    // `apply_op` does not journal, but any later mint
                    // would; keep the journal clean of replay artifacts.
                    reg.take_journal();
                    drop(reg);
                    state
                        .db
                        .storage
                        .sequences()
                        .ensure_key_above(key_seq.saturating_sub(1));
                }
            }
            BranchRecord::Create { name, from } => {
                let _ = Self::create_locked(inner, durable, false, &from, &name);
            }
            BranchRecord::Op { branch, op } => {
                let _ = Self::exec_op_locked(inner, durable, false, &branch, op);
            }
            BranchRecord::Merge { src, dst } => {
                let _ = Self::merge_locked(inner, durable, false, &src, &dst);
            }
            BranchRecord::FastForward { src, dst } => {
                let _ = Self::fast_forward_locked(inner, durable, false, &src, &dst);
            }
            BranchRecord::Drop { name } => {
                let _ = Self::drop_locked(inner, false, &name);
            }
        }
    }

    fn flush_locked(inner: &mut Inner) -> Result<()> {
        let Inner { branches, log, .. } = inner;
        if let Some(w) = log.as_mut() {
            for (name, state) in branches.iter() {
                log_residue(w, name, &state.db)?;
            }
            w.sync()?;
        }
        Ok(())
    }
}

impl Drop for BranchCore {
    fn drop(&mut self) {
        let _ = BranchCore::flush_locked(&mut self.inner.lock());
    }
}

/// Manager of named branches over complete InVerDa databases. See the
/// module docs for the model; start from [`BranchingInverda::new`] and the
/// [`Branch`] handle.
pub struct BranchingInverda {
    core: Arc<BranchCore>,
}

impl Default for BranchingInverda {
    fn default() -> Self {
        BranchingInverda::new()
    }
}

impl BranchingInverda {
    /// Fresh in-memory manager with one empty `main` branch.
    /// [`BranchingInverda::open_in`] opens a durable one.
    pub fn new() -> Self {
        let mut branches = BTreeMap::new();
        branches.insert(MAIN_BRANCH.to_string(), fresh_branch(false));
        BranchingInverda {
            core: Arc::new(BranchCore {
                inner: Mutex::new(Inner {
                    branches,
                    next_stamp: 0,
                    log: None,
                }),
                durable: false,
                dir: None,
            }),
        }
    }

    /// [`BranchingInverda::new`] under the name that says it touches no
    /// disk.
    pub fn new_in_memory() -> Self {
        BranchingInverda::new()
    }

    /// Open (or create) a durable manager in `dir`: recover every branch
    /// by re-driving the branch log's valid prefix, truncate any torn
    /// tail, and continue appending. `options.mode` governs fsync policy
    /// exactly as for [`Inverda::open_in`]; `checkpoint_every` is ignored
    /// (the branch log has no rotation yet).
    pub fn open_in(dir: impl AsRef<Path>, options: DurabilityOptions) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StorageError::io(format!("create {}", dir.display()), e))?;
        let path = dir.join(BRANCH_LOG_NAME);
        let scan = scan_log::<BranchRecord>(&path, BRANCH_MAGIC, 0)?;
        let mut branches = BTreeMap::new();
        branches.insert(MAIN_BRANCH.to_string(), fresh_branch(true));
        let mut inner = Inner {
            branches,
            next_stamp: 0,
            log: None,
        };
        let record_count = scan.records.len() as u64;
        for record in scan.records {
            BranchCore::replay_record(&mut inner, true, record);
        }
        let writer = if scan.header_ok {
            WalWriter::attach_at(
                path,
                scan.valid_len,
                record_count,
                options.mode,
                options.group_size,
            )?
        } else {
            WalWriter::create_at(path, BRANCH_MAGIC, 0, options.mode, options.group_size)?
        };
        inner.log = Some(writer);
        Ok(BranchingInverda {
            core: Arc::new(BranchCore {
                inner: Mutex::new(inner),
                durable: true,
                dir: Some(dir),
            }),
        })
    }

    /// Handle to the `main` branch.
    pub fn main(&self) -> Branch {
        Branch {
            core: Arc::clone(&self.core),
            name: MAIN_BRANCH.to_string(),
        }
    }

    /// Handle to an existing branch.
    pub fn get(&self, name: &str) -> Result<Branch> {
        let inner = self.core.inner.lock();
        if !inner.branches.contains_key(name) {
            return Err(unknown(name));
        }
        Ok(Branch {
            core: Arc::clone(&self.core),
            name: name.to_string(),
        })
    }

    /// Fork `main` into a new branch — `O(metadata)`, no data copied.
    pub fn branch(&self, name: &str) -> Result<Branch> {
        self.branch_from(MAIN_BRANCH, name)
    }

    /// Fork `parent` into a new branch named `name`.
    pub fn branch_from(&self, parent: &str, name: &str) -> Result<Branch> {
        let mut inner = self.core.inner.lock();
        BranchCore::create_locked(&mut inner, self.core.durable, true, parent, name)?;
        Ok(Branch {
            core: Arc::clone(&self.core),
            name: name.to_string(),
        })
    }

    /// Names of all live branches, sorted.
    pub fn branch_names(&self) -> Vec<String> {
        self.core.inner.lock().branches.keys().cloned().collect()
    }

    /// Everything that differs between branches `a` and `b`; see
    /// [`BranchDiff`]. Read-only (the scans it performs may mint skolem
    /// ids through each branch's read path, like any other read).
    pub fn diff(&self, a: &str, b: &str) -> Result<BranchDiff> {
        let inner = self.core.inner.lock();
        let sa = inner.branches.get(a).ok_or_else(|| unknown(a))?;
        let sb = inner.branches.get(b).ok_or_else(|| unknown(b))?;
        let va = sa.db.versions();
        let vb = sb.db.versions();
        let set_a: BTreeSet<&String> = va.iter().collect();
        let set_b: BTreeSet<&String> = vb.iter().collect();
        let mut diff = BranchDiff {
            only_in_a: va.iter().filter(|v| !set_b.contains(v)).cloned().collect(),
            only_in_b: vb.iter().filter(|v| !set_a.contains(v)).cloned().collect(),
            a_ahead: sa
                .history
                .iter()
                .filter(|e| !sb.integrated.contains(&e.stamp))
                .count(),
            b_ahead: sb
                .history
                .iter()
                .filter(|e| !sa.integrated.contains(&e.stamp))
                .count(),
            ..BranchDiff::default()
        };
        let mut shared: Vec<&String> = va.iter().filter(|v| set_b.contains(v)).collect();
        shared.sort();
        for version in shared {
            let mut tables = sa.db.tables_of(version)?;
            tables.sort();
            let tables_b: BTreeSet<String> = sb.db.tables_of(version)?.into_iter().collect();
            for table in tables {
                if !tables_b.contains(&table) {
                    continue;
                }
                let ra = sa.db.scan(version, &table)?;
                let rb = sb.db.scan(version, &table)?;
                let delta = rb.diff(&ra);
                if !delta.deletes.is_empty()
                    || !delta.inserts.is_empty()
                    || !delta.updates.is_empty()
                {
                    diff.tables.push(TableDiff {
                        version: version.clone(),
                        table,
                        delta,
                    });
                }
            }
        }
        diff.registry = sa
            .db
            .registry_snapshot()
            .divergence(&sb.db.registry_snapshot());
        Ok(diff)
    }

    /// Advance `dst` to `src`'s exact state, provided `dst` has no
    /// operations of its own since the merge base (otherwise
    /// [`CoreError::CannotFastForward`]). Returns the number of
    /// operations `dst` advanced by (0 = already up to date).
    pub fn fast_forward(&self, src: &str, dst: &str) -> Result<usize> {
        let mut inner = self.core.inner.lock();
        BranchCore::fast_forward_locked(&mut inner, self.core.durable, true, src, dst)
    }

    /// Merge `src` into `dst`: rebase-replay `src`'s unintegrated
    /// operations onto `dst` (see the module docs for key translation and
    /// registry discipline). Disjoint changes union; conflicting changes
    /// return [`CoreError::MergeConflicts`] with `dst` untouched. `src` is
    /// never modified.
    pub fn merge(&self, src: &str, dst: &str) -> Result<MergeOutcome> {
        let mut inner = self.core.inner.lock();
        BranchCore::merge_locked(&mut inner, self.core.durable, true, src, dst)
    }

    /// Delete a branch (its log history remains; `main` cannot be
    /// dropped).
    pub fn drop_branch(&self, name: &str) -> Result<()> {
        let mut inner = self.core.inner.lock();
        BranchCore::drop_locked(&mut inner, true, name)
    }

    /// Drain every branch's pending read-mint residue to the branch log
    /// and fsync it (no-op for an in-memory manager).
    pub fn flush(&self) -> Result<()> {
        BranchCore::flush_locked(&mut self.core.inner.lock())
    }

    /// Where the branch log lives, if durable.
    pub fn durable_dir(&self) -> Option<PathBuf> {
        self.core.dir.clone()
    }

    /// Bytes in the branch log (None when in-memory) — lets tests truncate
    /// at exact record boundaries.
    pub fn log_len(&self) -> Option<u64> {
        self.core.inner.lock().log.as_ref().map(|w| w.len())
    }
}

/// Handle to one named branch — the write surface of the branch layer.
/// Cheap to clone; all methods go through the manager so every mutation is
/// stamped, recorded in the branch's history, and (when durable) logged.
#[derive(Clone)]
pub struct Branch {
    core: Arc<BranchCore>,
    name: String,
}

impl Branch {
    /// This branch's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execute a BiDEL script on this branch ([`Inverda::execute`]).
    pub fn execute(&self, script: &str) -> Result<ExecutionOutcome> {
        let mut inner = self.core.inner.lock();
        match BranchCore::exec_op_locked(
            &mut inner,
            self.core.durable,
            true,
            &self.name,
            BranchOp::Execute(script.to_string()),
        )? {
            OpReturn::Executed(outcome) => Ok(outcome),
            OpReturn::Applied(_) => unreachable!("execute op returns an outcome"),
        }
    }

    /// Apply a batch of logical writes on this branch
    /// ([`Inverda::apply_many`]).
    pub fn apply_many(
        &self,
        version: &str,
        table: &str,
        writes: Vec<LogicalWrite>,
    ) -> Result<Vec<Option<Key>>> {
        let mut inner = self.core.inner.lock();
        match BranchCore::exec_op_locked(
            &mut inner,
            self.core.durable,
            true,
            &self.name,
            BranchOp::ApplyMany {
                version: version.to_string(),
                table: table.to_string(),
                writes,
            },
        )? {
            OpReturn::Applied(minted) => Ok(minted),
            OpReturn::Executed(_) => unreachable!("apply op returns minted keys"),
        }
    }

    /// Insert one row; returns the minted key.
    pub fn insert(&self, version: &str, table: &str, row: Vec<Value>) -> Result<Key> {
        let minted = self.apply_many(version, table, vec![LogicalWrite::Insert(row)])?;
        Ok(minted[0].expect("insert mints a key"))
    }

    /// Replace the row under `key`.
    pub fn update(&self, version: &str, table: &str, key: Key, row: Vec<Value>) -> Result<()> {
        self.apply_many(version, table, vec![LogicalWrite::Update(key, row)])?;
        Ok(())
    }

    /// Delete the row under `key`.
    pub fn delete(&self, version: &str, table: &str, key: Key) -> Result<()> {
        self.apply_many(version, table, vec![LogicalWrite::Delete(key)])?;
        Ok(())
    }

    /// Scan a versioned table on this branch (under the manager lock, so
    /// read-mints serialize with residue logging).
    pub fn scan(&self, version: &str, table: &str) -> Result<Arc<Relation>> {
        self.with_db(|db| db.scan(version, table))?
    }

    /// One row by key.
    pub fn get(&self, version: &str, table: &str, key: Key) -> Result<Option<Row>> {
        self.with_db(|db| db.get(version, table, key))?
    }

    /// Schema versions on this branch.
    pub fn versions(&self) -> Result<Vec<String>> {
        self.with_db(|db| db.versions())
    }

    /// A pinned, immutable MVCC view of this branch
    /// ([`Inverda::pin`](crate::serving::PinnedView)).
    pub fn pin(&self) -> Result<PinnedView> {
        self.with_db(|db| db.pin())
    }

    /// This branch's stamped operation history (a clone).
    pub fn history(&self) -> Result<Vec<HistoryEntry>> {
        let inner = self.core.inner.lock();
        let state = inner
            .branches
            .get(&self.name)
            .ok_or_else(|| unknown(&self.name))?;
        Ok(state.history.clone())
    }

    /// The branch's underlying engine, for read-only use (diagnostics,
    /// benchmarks, equivalence oracles). Writing or executing DDL through
    /// it bypasses history stamping and the branch log — such changes are
    /// invisible to diff/merge and lost on recovery.
    pub fn engine(&self) -> Result<Arc<Inverda>> {
        let inner = self.core.inner.lock();
        let state = inner
            .branches
            .get(&self.name)
            .ok_or_else(|| unknown(&self.name))?;
        Ok(Arc::clone(&state.db))
    }

    fn with_db<T>(&self, f: impl FnOnce(&Inverda) -> T) -> Result<T> {
        let inner = self.core.inner.lock();
        let state = inner
            .branches
            .get(&self.name)
            .ok_or_else(|| unknown(&self.name))?;
        Ok(f(&state.db))
    }
}

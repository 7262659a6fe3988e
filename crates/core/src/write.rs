//! Write propagation: the engine-side equivalent of the generated triggers.
//!
//! A logical write on `version.table` becomes a [`Delta`] on that table
//! version and is pushed, hop by hop, toward the physical storage:
//!
//! * **Case 1 (local)** — applied to the physical data table directly;
//! * **Case 2 (forwards)** — mapped through γ_tgt of the materialized
//!   outgoing SMO onto the target-side tables (data, auxiliary, shared);
//! * **Case 3 (backwards)** — mapped through γ_src of the virtualized
//!   incoming SMO onto the source side.
//!
//! At each hop the mapping's update-propagation rules produce exact deltas
//! for *all* relations of the destination side, including the auxiliary
//! tables that preserve otherwise-lost information (lost twins, separated
//! twins, condition violators, computed values, generated identifiers).
//!
//! Deletes additionally purge key-matching rows from the physical auxiliary
//! tables of *adjacent* SMOs that the propagation path does not traverse:
//! the paper's laws only constrain round trips of states, and without the
//! purge a separated twin recorded in `S⁺` would resurrect a tuple deleted
//! through the side that physically stores it (see DESIGN.md).
//!
//! The drain is sequential at every `INVERDA_THREADS` width: it takes the
//! hop of the smallest pending table version, one hop at a time, and each
//! hop's propagation mints through one reserve-then-commit scope
//! ([`propagate_compiled`]). The post-commit reverse-maintenance pass walks
//! the traversed hops in ready-set rounds, one hop at a time in ready
//! order. The pool is left to the bulk evaluator, so the write path is
//! byte-identical at any width by construction (DESIGN.md "Deterministic
//! minting & reservation commit").

use crate::compiled::Direction;
use crate::database::{Inverda, State, WritePath};
use crate::edb::VersionedEdb;
use crate::error::CoreError;
use crate::snapshot::{SnapshotMaintenance, StoredHeads};
use crate::Result;
use inverda_catalog::{SmoId, StorageCase, TableVersionId};
use inverda_datalog::delta::{
    propagate_by_recompute_compiled, propagate_compiled, propagate_vs_stored, Delta, DeltaMap,
    PatchedEdb,
};
use inverda_datalog::eval::{evaluate_compiled, EdbView};
use inverda_storage::codec::{Codec, Reader};
use inverda_storage::{Key, Row, Value, WriteBatch};
use std::collections::{BTreeMap, BTreeSet};

/// One logical write against a schema version's table, for batched
/// [`Inverda::apply_many`] application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalWrite {
    /// Insert a new row (a fresh InVerDa identifier is minted).
    Insert(Row),
    /// Replace the row under the key.
    Update(Key, Row),
    /// Delete the row under the key.
    Delete(Key),
}

const LW_INSERT: u8 = 0;
const LW_UPDATE: u8 = 1;
const LW_DELETE: u8 = 2;

// Wire form for the branch layer's operation log.
impl Codec for LogicalWrite {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogicalWrite::Insert(row) => {
                out.push(LW_INSERT);
                row.encode(out);
            }
            LogicalWrite::Update(key, row) => {
                out.push(LW_UPDATE);
                key.encode(out);
                row.encode(out);
            }
            LogicalWrite::Delete(key) => {
                out.push(LW_DELETE);
                key.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> inverda_storage::Result<Self> {
        Ok(match r.u8()? {
            LW_INSERT => LogicalWrite::Insert(Row::decode(r)?),
            LW_UPDATE => LogicalWrite::Update(Key::decode(r)?, Row::decode(r)?),
            LW_DELETE => LogicalWrite::Delete(Key::decode(r)?),
            t => {
                return Err(inverda_storage::StorageError::codec(format!(
                    "invalid logical-write tag {t}"
                )))
            }
        })
    }
}

/// One SMO hop a drain traversed, recorded so snapshot maintenance can walk
/// the chain *backward* after the write lands. The forward hop's head
/// deltas are what gets applied, but a virtual relation's **visible** state
/// is defined by resolution back from physical storage — in twin corners
/// (SPLIT with overlapping conditions, separations) the two can disagree,
/// so patches must be derived from the landed deltas through each side's
/// defining mapping, not from the forward inputs.
struct HopRecord {
    smo: SmoId,
    forwards: bool,
}

/// Everything a drain accumulates for post-commit snapshot maintenance.
#[derive(Default)]
struct MaintenancePlan {
    /// Patch/invalidate/purge records handed to [`SnapshotStore::commit`].
    ///
    /// [`SnapshotStore::commit`]: crate::snapshot::SnapshotStore::commit
    maint: SnapshotMaintenance,
    /// SMO hops traversed, for the backward reverse-propagation passes.
    hops: Vec<HopRecord>,
    /// Exact deltas of *physical* relations as applied by the batch —
    /// the trustworthy seeds of the reverse passes.
    landed: DeltaMap,
    /// Whether maintenance is being tracked at all (delta write path with
    /// the snapshot store enabled).
    track: bool,
}

impl MaintenancePlan {
    fn landed_merge(&mut self, rel: &str, delta: &Delta) {
        match self.landed.get_mut(rel) {
            Some(existing) => existing.merge(delta),
            None => {
                self.landed.insert(rel.to_string(), delta.clone());
            }
        }
    }
}

impl Inverda {
    /// Insert a row into `version.table`; returns the InVerDa identifier.
    pub fn insert(&self, version: &str, table: &str, row: Vec<Value>) -> Result<Key> {
        Ok(self.insert_many(version, table, vec![row])?[0])
    }

    /// Insert many rows in one propagation round (bulk load).
    pub fn insert_many(
        &self,
        version: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<Vec<Key>> {
        let writes = rows.into_iter().map(LogicalWrite::Insert).collect();
        Ok(self
            .apply_many(version, table, writes)?
            .into_iter()
            .flatten()
            .collect())
    }

    /// Replace the row under `key` in `version.table`.
    pub fn update(&self, version: &str, table: &str, key: Key, row: Vec<Value>) -> Result<()> {
        self.apply_many(version, table, vec![LogicalWrite::Update(key, row)])
            .map(|_| ())
    }

    /// Delete the row under `key` from `version.table`.
    pub fn delete(&self, version: &str, table: &str, key: Key) -> Result<()> {
        self.apply_many(version, table, vec![LogicalWrite::Delete(key)])
            .map(|_| ())
    }

    /// Apply a batch of mixed logical writes to `version.table` in **one**
    /// propagation round: the writes are folded into a single exact delta
    /// (later writes see the effects of earlier ones), so per-statement view
    /// setup and SMO-hop evaluation amortize across the whole batch — the
    /// mixed-workload sibling of [`insert_many`](Inverda::insert_many).
    ///
    /// Returns one entry per input write: the minted identifier for inserts,
    /// `None` for updates and deletes. Fails atomically: an invalid write
    /// (missing row, arity mismatch) leaves the database untouched.
    pub fn apply_many(
        &self,
        version: &str,
        table: &str,
        writes: Vec<LogicalWrite>,
    ) -> Result<Vec<Option<Key>>> {
        let _guard = self.write_lock.lock();
        let state = self.state.read();
        let key_seq_before = self.storage.sequences().current_key();
        let result = self.apply_many_locked(&state, version, table, writes);
        // A committed batch drained its journal into its own WAL record;
        // whatever remains (mints of a rejected batch's validation reads,
        // of a failed drain) is flushed so the crash-recovered registry
        // matches the in-memory one — and a rejected batch leaves exactly
        // the trace it left in memory: registry deltas, no writes. A
        // rejected batch can also consume keys without journaling (inserts
        // allocate before a later write fails validation), so the error
        // path logs a record whenever the sequence advanced, keeping
        // recovered key minting in lockstep with the in-memory process.
        if self.durability.is_some() {
            let reg_ops = self.ids.0.lock().take_journal();
            let key_seq = self.storage.sequences().current_key();
            if !reg_ops.is_empty() || (result.is_err() && key_seq != key_seq_before) {
                self.wal_append(
                    &state,
                    crate::durability::Record {
                        reg_ops,
                        key_seq,
                        body: crate::durability::RecordBody::RegistryOnly,
                    },
                )?;
            }
        }
        result
    }

    fn apply_many_locked(
        &self,
        state: &crate::database::State,
        version: &str,
        table: &str,
        writes: Vec<LogicalWrite>,
    ) -> Result<Vec<Option<Key>>> {
        let tv = state.genealogy.resolve(version, table)?;
        let arity = state.genealogy.table_version(tv).columns.len();
        let rel = state.genealogy.table_version(tv).rel.clone();
        let check_arity = |row: &Row| -> Result<()> {
            if row.len() != arity {
                return Err(CoreError::Storage(
                    inverda_storage::StorageError::ArityMismatch {
                        table: table.to_string(),
                        expected: arity,
                        got: row.len(),
                    },
                ));
            }
            Ok(())
        };
        let missing = |key: Key| CoreError::MissingRow {
            version: version.to_string(),
            table: table.to_string(),
            key: key.0,
        };
        let mut delta = Delta::new();
        let mut out = Vec::with_capacity(writes.len());
        {
            // One view serves every old-row lookup of the batch; `overlay`
            // layers the batch's own effects on top so later writes see
            // earlier ones.
            let ids = self.id_source();
            let edb = self.edb(state, &ids);
            let mut overlay: BTreeMap<Key, Option<Row>> = BTreeMap::new();
            let current = |overlay: &BTreeMap<Key, Option<Row>>, key: Key| -> Result<Option<Row>> {
                match overlay.get(&key) {
                    Some(row) => Ok(row.clone()),
                    None => Ok(edb.by_key(&rel, key)?),
                }
            };
            for write in writes {
                match write {
                    LogicalWrite::Insert(row) => {
                        check_arity(&row)?;
                        let key = self.storage.sequences().next_key();
                        delta.merge(&Delta::insert(key, row.clone()));
                        overlay.insert(key, Some(row));
                        out.push(Some(key));
                    }
                    LogicalWrite::Update(key, row) => {
                        check_arity(&row)?;
                        let old = current(&overlay, key)?.ok_or_else(|| missing(key))?;
                        if old != row {
                            delta.merge(&Delta::update(key, old, row.clone()));
                            overlay.insert(key, Some(row));
                        }
                        out.push(None);
                    }
                    LogicalWrite::Delete(key) => {
                        let old = current(&overlay, key)?.ok_or_else(|| missing(key))?;
                        delta.merge(&Delta::delete(key, old));
                        overlay.insert(key, None);
                        out.push(None);
                    }
                }
            }
        }
        if !delta.is_empty() {
            self.apply_logical(state, tv, delta)?;
        }
        Ok(out)
    }

    /// Propagate a logical delta on a table version to physical storage and
    /// apply it atomically, then patch or invalidate the affected snapshot
    /// store entries (see [`crate::snapshot`]).
    pub(crate) fn apply_logical(
        &self,
        state: &State,
        tv: TableVersionId,
        delta: Delta,
    ) -> Result<()> {
        let mut batch = WriteBatch::new();
        let mut plan = MaintenancePlan {
            track: matches!(state.write_path, WritePath::Delta) && self.snapshot_store().is_some(),
            ..MaintenancePlan::default()
        };
        {
            let ids = self.id_source();
            let edb = self.edb(state, &ids);
            let mut pending: BTreeMap<TableVersionId, (Delta, Option<SmoId>)> = BTreeMap::new();
            pending.insert(tv, (delta, None));
            self.drain(state, &edb, &mut pending, &mut batch, &mut plan)?;
            if plan.track {
                let hops = std::mem::take(&mut plan.hops);
                let landed = std::mem::take(&mut plan.landed);
                self.reverse_maintenance(state, &edb, hops, landed, &ids, &mut plan.maint);
            }
        }
        // Capture which entries are valid *before* the batch lands: only a
        // pre-write-valid snapshot may be patched (patching a stale one
        // would compound the staleness).
        match self.snapshot_store() {
            Some(store) => {
                let valid = store.valid_rels(&self.storage, plan.maint.patches.keys());
                self.storage.apply(&batch)?;
                store.commit(&plan.maint, &valid, &self.storage);
            }
            None => self.storage.apply(&batch)?,
        }
        // The batch is committed: log the validated physical write set with
        // everything the statement minted or re-seeded (validation reads,
        // drain-time registry sync, maintenance-time mints). Replay applies
        // the batch directly — no rule re-evaluation — so the key-sequence
        // stamp is the post-statement value.
        if self.durability.is_some() {
            let reg_ops = self.ids.0.lock().take_journal();
            let key_seq = self.storage.sequences().current_key();
            self.wal_append(
                state,
                crate::durability::Record {
                    reg_ops,
                    key_seq,
                    body: crate::durability::RecordBody::Batch(batch),
                },
            )?;
        }
        Ok(())
    }

    /// Process pending per-table-version deltas until all reach physical
    /// storage. Deltas heading through the same SMO hop are combined so
    /// multi-source SMOs (MERGE, JOIN) see all their changed inputs at once.
    ///
    /// When maintenance is tracked, the plan records every physical delta
    /// the batch will apply plus the hop sequence, so
    /// [`reverse_maintenance`](Inverda::reverse_maintenance) can patch the
    /// snapshot store in place after the batch commits instead of letting
    /// every resolved relation on the path go stale.
    fn drain(
        &self,
        state: &State,
        edb: &VersionedEdb<'_>,
        pending: &mut BTreeMap<TableVersionId, (Delta, Option<SmoId>)>,
        batch: &mut WriteBatch,
        plan: &mut MaintenancePlan,
    ) -> Result<()> {
        let g = &state.genealogy;
        let m = &state.materialization;
        let catalog = self.compiled.catalog_index(g);
        while let Some((&tv, _)) = pending.iter().next() {
            let case = m.storage_of(g, tv);
            match case {
                StorageCase::Local => {
                    let (delta, arrived) = pending.remove(&tv).expect("present");
                    let rel = g.table_version(tv).rel.clone();
                    self.purge_sibling_aux(state, tv, &delta, arrived, None, batch, plan);
                    if let Some(generator) = catalog.hint_generators.get(&rel) {
                        self.sync_registry(generator, &delta);
                    }
                    if plan.track {
                        // Physical rel: its store entry only carries join
                        // indexes, which the patch keeps in sync; the landed
                        // delta also seeds the reverse passes.
                        plan.maint.record_patch(&rel, &delta);
                        plan.landed_merge(&rel, &delta);
                    }
                    apply_delta_physically(&rel, &delta, batch);
                }
                StorageCase::Forward(smo) | StorageCase::Backward(smo) => {
                    // The hop of the smallest pending table version.
                    let forwards = matches!(case, StorageCase::Forward(_));
                    let input = self.pop_hop_inputs(state, smo, pending, batch, plan);
                    let inst = g.smo(smo);
                    let (direction, rules) = if forwards {
                        (Direction::ToTgt, &inst.derived.to_tgt)
                    } else {
                        (Direction::ToSrc, &inst.derived.to_src)
                    };
                    let crs = self
                        .compiled
                        .get_or_compile(smo, direction, rules)
                        .map_err(CoreError::from)?;
                    let ids = self.id_source();
                    let head_deltas = match state.write_path {
                        WritePath::Delta => {
                            propagate_compiled(&crs, edb, &input, &ids, edb.head_columns())?
                        }
                        WritePath::Recompute => propagate_by_recompute_compiled(
                            &crs,
                            edb,
                            &input,
                            &ids,
                            edb.head_columns(),
                        )?,
                    };
                    self.distribute_hop(state, smo, forwards, head_deltas, pending, batch, plan);
                }
            }
        }
        Ok(())
    }

    /// Remove every pending delta departing through `smo` (purging sibling
    /// aux tables) and return them keyed by relation — the input of one
    /// hop's propagation.
    fn pop_hop_inputs(
        &self,
        state: &State,
        smo: SmoId,
        pending: &mut BTreeMap<TableVersionId, (Delta, Option<SmoId>)>,
        batch: &mut WriteBatch,
        plan: &mut MaintenancePlan,
    ) -> DeltaMap {
        let g = &state.genealogy;
        let m = &state.materialization;
        let departing: Vec<TableVersionId> = pending
            .iter()
            .filter(|(id, _)| match m.storage_of(g, **id) {
                StorageCase::Forward(s) | StorageCase::Backward(s) => s == smo,
                StorageCase::Local => false,
            })
            .map(|(id, _)| *id)
            .collect();
        let mut input = DeltaMap::new();
        for id in &departing {
            let (delta, arrived) = pending.remove(id).expect("present");
            self.purge_sibling_aux(state, *id, &delta, arrived, Some(smo), batch, plan);
            input.insert(g.table_version(*id).rel.clone(), delta);
        }
        input
    }

    /// Distribute one hop's head deltas: data heads continue as pending
    /// deltas of the destination table versions; aux and shared heads are
    /// physical on the destination side and land in the batch; intermediate
    /// heads (`Sn`, `Tn`, `Ro`, …) are discarded. Records the hop for the
    /// reverse-maintenance pass.
    #[allow(clippy::too_many_arguments)]
    fn distribute_hop(
        &self,
        state: &State,
        smo: SmoId,
        forwards: bool,
        head_deltas: DeltaMap,
        pending: &mut BTreeMap<TableVersionId, (Delta, Option<SmoId>)>,
        batch: &mut WriteBatch,
        plan: &mut MaintenancePlan,
    ) {
        let inst = state.genealogy.smo(smo);
        if plan.track {
            plan.hops.push(HopRecord { smo, forwards });
        }
        let next_data = if forwards {
            inst.derived.tgt_data.iter().zip(inst.targets.iter())
        } else {
            inst.derived.src_data.iter().zip(inst.sources.iter())
        };
        let next_index: BTreeMap<&str, TableVersionId> =
            next_data.map(|(t, id)| (t.rel.as_str(), *id)).collect();
        let aux_side = if forwards {
            &inst.derived.tgt_aux
        } else {
            &inst.derived.src_aux
        };
        for (rel, d) in head_deltas {
            if d.is_empty() {
                continue;
            }
            if let Some(next_tv) = next_index.get(rel.as_str()) {
                match pending.get_mut(next_tv) {
                    Some((existing, _)) => existing.merge(&d),
                    None => {
                        pending.insert(*next_tv, (d, Some(smo)));
                    }
                }
                continue;
            }
            if let Some(shared) = inst.derived.shared_aux.iter().find(|s| s.new_name == rel) {
                if plan.track {
                    plan.maint.record_patch(&shared.table.rel, &d);
                    plan.landed_merge(&shared.table.rel, &d);
                }
                apply_delta_physically(&shared.table.rel, &d, batch);
                continue;
            }
            if aux_side.iter().any(|a| a.rel == rel) {
                if plan.track {
                    plan.maint.record_patch(&rel, &d);
                    plan.landed_merge(&rel, &d);
                }
                apply_delta_physically(&rel, &d, batch);
            }
        }
    }

    /// Walk the traversed hops **backward from physical storage**, deriving
    /// the true visible-state delta of every departed side by pushing the
    /// already-known deltas of the side closer to the data through the
    /// departed side's *defining* mapping (the hop's opposite direction).
    /// This is the incremental-view-maintenance core of the snapshot store:
    /// the forward hop deltas are what gets applied physically, but a
    /// virtual relation's visible state is whatever resolution from the
    /// physical state derives — in twin corners (overlapping SPLIT,
    /// separations) the two differ, so only backward-derived deltas are
    /// trustworthy patches.
    ///
    /// A hop whose defining mapping is staged or can mint skolem ids (the
    /// id-generating SMOs) cannot be maintained by the two-state probe —
    /// evaluating its *old* state could mint for a payload that vanished in
    /// this very write — so it is maintained **against the stored
    /// snapshots** instead
    /// ([`maintain_against_stored`](Inverda::maintain_against_stored)):
    /// a non-staged minting mapping (FK DECOMPOSE) by delta-vs-stored,
    /// O(delta); a staged one (DECOMPOSE ON condition, the JOIN variants) by
    /// recompute-vs-stored, O(state). Either way only the departed side's
    /// **new** state is evaluated, which keeps the registry and the key
    /// sequence in lockstep with a store-disabled database executing the
    /// same statement-and-read sequence. Departed relations without a valid
    /// stored entry, and maintenance failures, degrade to invalidation;
    /// they never fail the write.
    fn reverse_maintenance(
        &self,
        state: &State,
        edb: &VersionedEdb<'_>,
        hops: Vec<HopRecord>,
        landed: DeltaMap,
        ids: &dyn inverda_datalog::eval::IdSource,
        maint: &mut SnapshotMaintenance,
    ) {
        if hops.is_empty() {
            return;
        }
        let g = &state.genealogy;
        let m = &state.materialization;
        // A diamond drain can traverse one SMO twice; by the time a hop is
        // ready its destination deltas are fully known, so one pass per SMO
        // suffices.
        let mut remaining: Vec<HopRecord> = Vec::new();
        for hop in hops {
            if !remaining.iter().any(|h| h.smo == hop.smo) {
                remaining.push(hop);
            }
        }
        let catalog = self.compiled.catalog_index(g);
        // rel → true delta, seeded with what physically landed and extended
        // by each processed hop; rels whose delta could not be derived.
        let mut known = landed;
        let mut unknown: BTreeSet<String> = BTreeSet::new();
        while !remaining.is_empty() {
            let remaining_smos: BTreeSet<SmoId> = remaining.iter().map(|h| h.smo).collect();
            // A hop is ready once no unprocessed hop still has to derive the
            // delta of one of its destination data rels (i.e. every virtual
            // destination's defining SMO has been processed or was never
            // traversed). Simultaneously-ready hops are mutually independent
            // — a ready hop's inputs cannot be another *ready* hop's
            // departed relations (those would make it non-ready).
            let mut ready: Vec<HopRecord> = Vec::new();
            let mut rest: Vec<HopRecord> = Vec::new();
            for h in remaining.drain(..) {
                let inst = g.smo(h.smo);
                let dest = if h.forwards {
                    &inst.derived.tgt_data
                } else {
                    &inst.derived.src_data
                };
                let is_ready = dest.iter().all(|t| {
                    if self.storage.has_table(&t.rel) {
                        return true;
                    }
                    match catalog.rel_index.get(&t.rel).map(|tv| m.storage_of(g, *tv)) {
                        Some(StorageCase::Forward(s)) | Some(StorageCase::Backward(s)) => {
                            !remaining_smos.contains(&s)
                        }
                        _ => true,
                    }
                });
                if is_ready {
                    ready.push(h);
                } else {
                    rest.push(h);
                }
            }
            remaining = rest;
            // Acyclic by construction (hops order along paths to storage);
            // if that ever breaks, degrade to invalidation rather than loop.
            if ready.is_empty() {
                for h in &remaining {
                    self.invalidate_departed(state, h, maint, &mut unknown);
                }
                return;
            }
            // One hop at a time, in ready order: a hop maintained against
            // the stored snapshots may mint, so it must run at its canonical
            // position — innermost hop first, exactly the order a post-write
            // cold read resolves (and therefore mints) in.
            for h in &ready {
                self.maintain_hop(state, edb, h, ids, &mut known, &mut unknown, maint);
            }
        }
    }

    /// One ready hop of [`reverse_maintenance`](Inverda::reverse_maintenance):
    /// push the known deltas of what the departed side's defining mapping
    /// reads through that mapping, record the results as patches and as
    /// known deltas — or invalidate the departed side when that cannot be
    /// done.
    #[allow(clippy::too_many_arguments)]
    fn maintain_hop(
        &self,
        state: &State,
        edb: &VersionedEdb<'_>,
        h: &HopRecord,
        ids: &dyn inverda_datalog::eval::IdSource,
        known: &mut DeltaMap,
        unknown: &mut BTreeSet<String>,
        maint: &mut SnapshotMaintenance,
    ) {
        let inst = state.genealogy.smo(h.smo);
        let (rev_direction, rev_rules, dep_data, dep_aux, dest_data, dest_aux) = if h.forwards {
            (
                Direction::ToSrc,
                &inst.derived.to_src,
                &inst.derived.src_data,
                &inst.derived.src_aux,
                &inst.derived.tgt_data,
                &inst.derived.tgt_aux,
            )
        } else {
            (
                Direction::ToTgt,
                &inst.derived.to_tgt,
                &inst.derived.tgt_data,
                &inst.derived.tgt_aux,
                &inst.derived.src_data,
                &inst.derived.src_aux,
            )
        };
        let dep_virtual: Vec<&str> = dep_data
            .iter()
            .map(|t| t.rel.as_str())
            .chain(dep_aux.iter().map(|a| a.rel.as_str()))
            .filter(|rel| !self.storage.has_table(rel))
            .collect();
        if dep_virtual.is_empty() {
            // Departed side fully physical — nothing to maintain.
            return;
        }
        // Relations the defining mapping reads: destination data rels, the
        // SMO's destination-side aux (physical by materialization
        // invariant), and shared aux under their physical names.
        let inputs: Vec<&str> = dest_data
            .iter()
            .map(|t| t.rel.as_str())
            .chain(dest_aux.iter().map(|a| a.rel.as_str()))
            .chain(inst.derived.shared_aux.iter().map(|s| s.table.rel.as_str()))
            .collect();
        let rev_crs = match self
            .compiled
            .get_or_compile(h.smo, rev_direction, rev_rules)
        {
            Ok(crs) if !inputs.iter().any(|rel| unknown.contains(*rel)) => crs,
            _ => {
                self.invalidate_departed(state, h, maint, unknown);
                return;
            }
        };
        let mut rev_input = DeltaMap::new();
        for rel in &inputs {
            if let Some(d) = known.get(*rel) {
                if !d.is_empty() {
                    rev_input.insert((*rel).to_string(), d.clone());
                }
            }
        }
        let against_stored = rev_crs.staged() || rev_crs.mints_ids();
        let deltas = if rev_input.is_empty() {
            // Nothing the mapping reads changed: the departed side is
            // certified unchanged (empty patches refresh stamps) — staged
            // and minting mappings included.
            Some(DeltaMap::new())
        } else if against_stored {
            // Staged or id-minting defining mapping: maintained against the
            // stored snapshots (see
            // [`maintain_against_stored`](Inverda::maintain_against_stored)).
            self.maintain_against_stored(edb, &dep_virtual, &rev_crs, &rev_input, ids)
        } else {
            propagate_compiled(&rev_crs, edb, &rev_input, ids, edb.head_columns()).ok()
        };
        let Some(mut deltas) = deltas else {
            // Maintenance failures degrade to invalidation; they never fail
            // the write.
            self.invalidate_departed(state, h, maint, unknown);
            return;
        };
        for rel in dep_virtual {
            // A relation the propagation left out is unchanged; one that
            // maintenance against the stored snapshots left out has no
            // valid entry.
            let delta = match deltas.remove(rel) {
                Some(delta) => delta,
                None if rev_input.is_empty() || !against_stored => Delta::new(),
                None => {
                    // Only an entry that was valid before this write may be
                    // patched; anything else re-resolves cold on next read
                    // (recording it as unknown poisons dependents, like an
                    // invalidation would).
                    maint.record_invalidate(rel);
                    unknown.insert(rel.to_string());
                    continue;
                }
            };
            maint.record_patch(rel, &delta);
            match known.get_mut(rel) {
                Some(existing) => existing.merge(&delta),
                None => {
                    known.insert(rel.to_string(), delta);
                }
            }
        }
    }

    /// The deltas of a departed side's warm snapshots under a staged or
    /// id-minting defining mapping `crs`, given the deltas `input` of what
    /// it reads: one (possibly empty) delta per relation of `dep_virtual`
    /// with a pre-write-valid stored snapshot, none for the others. `None`
    /// when nothing is warm — the O(state) work is skipped and the next
    /// cold read performs the identical mints, so registry lockstep with a
    /// store-disabled twin is unaffected — or when maintenance fails.
    ///
    /// Only the side's **new** state is ever evaluated: its mints are then
    /// exactly those a post-write cold read performs, in the same order,
    /// and nothing is minted for a payload that vanished in this very
    /// write. Two ways to get there:
    ///
    /// * **delta-vs-stored**
    ///   ([`propagate_vs_stored`](inverda_datalog::delta::propagate_vs_stored),
    ///   which also states the mint-order argument): probe the changed
    ///   tuples, re-derive the candidate rows, take every old row from the
    ///   stored snapshots — O(delta);
    /// * **recompute-vs-stored**: evaluate the new state in full and diff
    ///   it against the stored snapshots — O(state). It remains for
    ///   *staged* rule sets, whose rules consume heads of the set itself
    ///   (the `old`/`new` intermediates) that no snapshot stores, so a
    ///   candidate row cannot be re-derived from stored state; for a side
    ///   only partly warm (a cold head's key conflicts would go unseen);
    ///   and for bulk deltas
    ///   ([`StoredHeads::outnumbered_by`]) — where one evaluation beats
    ///   per-tuple probing.
    fn maintain_against_stored(
        &self,
        edb: &VersionedEdb<'_>,
        dep_virtual: &[&str],
        crs: &inverda_datalog::CompiledRuleSet,
        input: &DeltaMap,
        ids: &dyn inverda_datalog::eval::IdSource,
    ) -> Option<DeltaMap> {
        let store = self.snapshot_store()?;
        let stored = StoredHeads {
            store,
            rels: dep_virtual
                .iter()
                .filter_map(|rel| Some((*rel, store.peek_valid(rel, &self.storage)?)))
                .collect(),
        };
        if stored.rels.is_empty() {
            return None;
        }
        let derived_warm = crs
            .head_names()
            .filter(|head| dep_virtual.contains(head))
            .all(|head| stored.rels.contains_key(head));
        let patched = PatchedEdb::new(edb, input);
        let mut deltas = if crs.staged() || !derived_warm || stored.outnumbered_by(input) {
            store.note_recompute();
            let mut new_out = evaluate_compiled(crs, &patched, ids, edb.head_columns()).ok()?;
            let mut deltas = DeltaMap::new();
            for (rel, old) in &stored.rels {
                // A head the mapping derives no rules for is empty by
                // construction (single-arm aux).
                let Some(new) = new_out.remove(*rel) else {
                    continue;
                };
                deltas.insert((*rel).to_string(), Delta::from(new.diff(old)));
            }
            deltas
        } else {
            propagate_vs_stored(crs, &patched, input, ids, &stored).ok()?
        };
        // Unchanged warm heads get an empty delta: it refreshes their stamps.
        for rel in stored.rels.keys() {
            deltas.entry((*rel).to_string()).or_default();
        }
        Some(deltas)
    }

    /// Mark every virtual relation of a hop's departed side as
    /// unmaintainable: invalidate its snapshot and poison dependents.
    fn invalidate_departed(
        &self,
        state: &State,
        hop: &HopRecord,
        maint: &mut SnapshotMaintenance,
        unknown: &mut BTreeSet<String>,
    ) {
        let inst = state.genealogy.smo(hop.smo);
        let (dep_data, dep_aux) = if hop.forwards {
            (&inst.derived.src_data, &inst.derived.src_aux)
        } else {
            (&inst.derived.tgt_data, &inst.derived.tgt_aux)
        };
        for rel in dep_data
            .iter()
            .map(|t| t.rel.as_str())
            .chain(dep_aux.iter().map(|a| a.rel.as_str()))
        {
            if !self.storage.has_table(rel) {
                maint.record_invalidate(rel);
                unknown.insert(rel.to_string());
            }
        }
    }

    /// Keep the skolem registry consistent with a physical id-bearing
    /// relation: replaced payloads are forgotten, new payloads recorded.
    fn sync_registry(&self, generator: &str, delta: &Delta) {
        let mut reg = self.ids.0.lock();
        for row in delta.deletes.values() {
            reg.unobserve(generator, row);
        }
        for (key, row) in &delta.inserts {
            reg.observe(generator, row, key.0);
        }
    }

    /// Purge key-matching rows of physical auxiliary tables of SMOs adjacent
    /// to `tv` that the propagation neither arrived through nor departs
    /// through. Pure deletes purge every aux kind; **updates** additionally
    /// purge the adjacent SMOs' *payload-keyed* aux tables (Appendix B.3's
    /// `ID_R(p, t)` assignment memos) — a payload-changing update
    /// invalidates such an entry, and keeping it stale would pin the old
    /// payload's generated id onto the new payload, colliding with the old
    /// payload's surviving twin on re-derivation (the historical
    /// twin-separated FK-DECOMPOSE `KeyConflict`). Twin-separation aux
    /// (`R⁺`/`R⁻`) is untouched by updates, and re-minting after the purge
    /// goes through the skolem registry, which reproduces the same id
    /// whenever the generator arguments did not actually change.
    ///
    /// Purged tables are recorded on the plan: these writes bypass delta
    /// propagation, so any snapshot whose footprint includes a purged table
    /// must be invalidated rather than patched.
    #[allow(clippy::too_many_arguments)]
    fn purge_sibling_aux(
        &self,
        state: &State,
        tv: TableVersionId,
        delta: &Delta,
        arrived: Option<SmoId>,
        departing: Option<SmoId>,
        batch: &mut WriteBatch,
        plan: &mut MaintenancePlan,
    ) {
        let g = &state.genealogy;
        let m = &state.materialization;
        let deleted: Vec<Key> = delta
            .deletes
            .keys()
            .filter(|k| !delta.inserts.contains_key(k))
            .copied()
            .collect();
        let updated: Vec<Key> = delta
            .deletes
            .keys()
            .filter(|k| delta.inserts.contains_key(k))
            .copied()
            .collect();
        if deleted.is_empty() && updated.is_empty() {
            return;
        }
        let mut adjacent: Vec<SmoId> = vec![g.incoming(tv)];
        adjacent.extend(g.outgoing(tv).iter().copied());
        for smo in adjacent {
            if Some(smo) == arrived || Some(smo) == departing {
                continue;
            }
            let inst = g.smo(smo);
            if !inst.moves_data() {
                continue;
            }
            // Physical aux of this SMO under the current materialization.
            let aux = if m.is_materialized(g, smo) {
                &inst.derived.tgt_aux
            } else {
                &inst.derived.src_aux
            };
            for a in aux
                .iter()
                .chain(inst.derived.shared_aux.iter().map(|s| &s.table))
            {
                let payload_keyed = inst.derived.payload_keyed_aux.contains(&a.rel);
                let update_purge = payload_keyed && !updated.is_empty();
                if deleted.is_empty() && !update_purge {
                    continue;
                }
                plan.maint.record_purge(&a.rel);
                for k in &deleted {
                    batch.delete_if_present(a.rel.clone(), *k);
                }
                if payload_keyed {
                    for k in &updated {
                        batch.delete_if_present(a.rel.clone(), *k);
                    }
                }
            }
        }
    }
}

/// Turn a delta into physical write ops (tolerant: propagation is exact,
/// but aux purges may have removed rows already).
fn apply_delta_physically(rel: &str, delta: &Delta, batch: &mut WriteBatch) {
    for key in delta.deletes.keys() {
        if !delta.inserts.contains_key(key) {
            batch.delete_if_present(rel.to_string(), *key);
        }
    }
    for (key, row) in &delta.inserts {
        batch.upsert(rel.to_string(), *key, row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inverda_storage::Value;

    fn tasky_full() -> Inverda {
        let db = Inverda::new();
        db.execute(
            "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio); \
             CREATE SCHEMA VERSION Do! FROM TasKy WITH \
               SPLIT TABLE Task INTO Todo WITH prio = 1; \
               DROP COLUMN prio FROM Todo DEFAULT 1; \
             CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
               DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author; \
               RENAME COLUMN author IN Author TO name;",
        )
        .unwrap();
        db
    }

    fn seed(db: &Inverda) -> Vec<Key> {
        // Figure 1's data set.
        db.insert_many(
            "TasKy",
            "Task",
            vec![
                vec!["Ann".into(), "Organize party".into(), 3.into()],
                vec!["Ben".into(), "Learn for exam".into(), 2.into()],
                vec!["Ann".into(), "Write paper".into(), 1.into()],
                vec!["Ben".into(), "Clean room".into(), 1.into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure_1_views_from_initial_materialization() {
        let db = tasky_full();
        let keys = seed(&db);
        // TasKy sees all 4 tasks.
        assert_eq!(db.count("TasKy", "Task").unwrap(), 4);
        // Do! sees the two prio-1 tasks, without the prio column.
        let todo = db.scan("Do!", "Todo").unwrap();
        assert_eq!(todo.len(), 2);
        assert!(todo.contains_key(keys[2]));
        assert!(todo.contains_key(keys[3]));
        assert_eq!(
            todo.get(keys[2]).unwrap(),
            &vec![Value::text("Ann"), Value::text("Write paper")]
        );
        // TasKy2: 4 tasks with fk, 2 authors.
        let task2 = db.scan("TasKy2", "Task").unwrap();
        assert_eq!(task2.len(), 4);
        let authors = db.scan("TasKy2", "Author").unwrap();
        assert_eq!(authors.len(), 2);
        // Tasks reference author ids that exist in Author.
        for (_, row) in task2.iter() {
            let fk = row[2].clone();
            let fk_key = match fk {
                Value::Int(i) => Key(i as u64),
                other => panic!("non-id fk {other}"),
            };
            assert!(authors.contains_key(fk_key), "dangling fk {fk_key}");
        }
    }

    #[test]
    fn writes_in_do_propagate_backwards() {
        // "When a new entry is inserted in Todo, this will automatically
        // insert a corresponding task with priority 1 to Task in TasKy."
        let db = tasky_full();
        seed(&db);
        let k = db
            .insert("Do!", "Todo", vec!["Eve".into(), "New task".into()])
            .unwrap();
        let task = db.scan("TasKy", "Task").unwrap();
        assert_eq!(
            task.get(k).unwrap(),
            &vec![Value::text("Eve"), Value::text("New task"), Value::Int(1)]
        );
        // And it is visible in TasKy2 as well.
        assert!(db.scan("TasKy2", "Task").unwrap().contains_key(k));

        // Updates and deletes propagate too.
        db.update("Do!", "Todo", k, vec!["Eve".into(), "Edited".into()])
            .unwrap();
        assert_eq!(
            db.get("TasKy", "Task", k).unwrap().unwrap()[1],
            Value::text("Edited")
        );
        db.delete("Do!", "Todo", k).unwrap();
        assert!(db.get("TasKy", "Task", k).unwrap().is_none());
        assert!(db.get("TasKy2", "Task", k).unwrap().is_none());
    }

    #[test]
    fn writes_in_tasky2_propagate_backwards_through_fk_decompose() {
        let db = tasky_full();
        seed(&db);
        let authors = db.scan("TasKy2", "Author").unwrap();
        let ann_id = authors
            .iter()
            .find(|(_, row)| row[0] == Value::text("Ann"))
            .map(|(k, _)| k)
            .unwrap();
        // Insert a task for the existing author Ann through TasKy2.
        let k = db
            .insert(
                "TasKy2",
                "Task",
                vec!["Fix bug".into(), 2.into(), Value::Int(ann_id.0 as i64)],
            )
            .unwrap();
        let row = db.get("TasKy", "Task", k).unwrap().unwrap();
        assert_eq!(
            row,
            vec![Value::text("Ann"), Value::text("Fix bug"), Value::Int(2)]
        );
    }

    #[test]
    fn update_through_tasky_changes_do_view() {
        let db = tasky_full();
        let keys = seed(&db);
        // Raising prio of "Organize party" to 1 adds it to Do!.
        db.update(
            "TasKy",
            "Task",
            keys[0],
            vec!["Ann".into(), "Organize party".into(), 1.into()],
        )
        .unwrap();
        assert_eq!(db.count("Do!", "Todo").unwrap(), 3);
        // Lowering "Write paper" to 2 removes it.
        db.update(
            "TasKy",
            "Task",
            keys[2],
            vec!["Ann".into(), "Write paper".into(), 2.into()],
        )
        .unwrap();
        assert_eq!(db.count("Do!", "Todo").unwrap(), 2);
    }

    #[test]
    fn missing_rows_are_reported() {
        let db = tasky_full();
        seed(&db);
        assert!(matches!(
            db.delete("Do!", "Todo", Key(99_999)),
            Err(CoreError::MissingRow { .. })
        ));
        assert!(matches!(
            db.update(
                "TasKy",
                "Task",
                Key(99_999),
                vec!["x".into(), "y".into(), 1.into()]
            ),
            Err(CoreError::MissingRow { .. })
        ));
    }

    #[test]
    fn apply_many_mixed_batch_matches_sequential_writes() {
        // One drain for the whole mixed batch must produce exactly the
        // state that individual statements produce.
        let batched = tasky_full();
        let sequential = tasky_full();
        let kb = seed(&batched);
        let ks = seed(&sequential);
        assert_eq!(kb, ks);

        let outcome = batched
            .apply_many(
                "TasKy",
                "Task",
                vec![
                    LogicalWrite::Insert(vec!["Eve".into(), "New".into(), 1.into()]),
                    LogicalWrite::Update(
                        kb[0],
                        vec!["Ann".into(), "Organize party".into(), 1.into()],
                    ),
                    LogicalWrite::Delete(kb[3]),
                ],
            )
            .unwrap();
        assert_eq!(outcome.len(), 3);
        let new_key = outcome[0].expect("insert returns a key");
        assert_eq!(outcome[1], None);
        assert_eq!(outcome[2], None);

        let k2 = sequential
            .insert("TasKy", "Task", vec!["Eve".into(), "New".into(), 1.into()])
            .unwrap();
        assert_eq!(k2, new_key);
        sequential
            .update(
                "TasKy",
                "Task",
                ks[0],
                vec!["Ann".into(), "Organize party".into(), 1.into()],
            )
            .unwrap();
        sequential.delete("TasKy", "Task", ks[3]).unwrap();

        for (v, t) in [
            ("TasKy", "Task"),
            ("Do!", "Todo"),
            ("TasKy2", "Task"),
            ("TasKy2", "Author"),
        ] {
            assert_eq!(
                batched.scan(v, t).unwrap().to_string(),
                sequential.scan(v, t).unwrap().to_string(),
                "{v}.{t}"
            );
        }
    }

    #[test]
    fn apply_many_later_writes_see_earlier_ones() {
        let db = tasky_full();
        let out = db
            .apply_many(
                "TasKy",
                "Task",
                vec![
                    LogicalWrite::Insert(vec!["Eve".into(), "draft".into(), 2.into()]),
                    // Update the row just inserted in this very batch.
                    LogicalWrite::Update(Key(0), vec![]), // placeholder, replaced below
                ],
            )
            .map(|_| ());
        // The placeholder key 0 does not exist: the whole batch must fail
        // atomically and leave no trace of the first insert.
        assert!(out.is_err());
        assert_eq!(db.count("TasKy", "Task").unwrap(), 0);

        // Now a real insert-then-update-then-delete chain within one batch.
        let out = db
            .apply_many(
                "TasKy",
                "Task",
                vec![LogicalWrite::Insert(vec![
                    "Eve".into(),
                    "draft".into(),
                    2.into(),
                ])],
            )
            .unwrap();
        let k = out[0].unwrap();
        let res = db
            .apply_many(
                "TasKy",
                "Task",
                vec![
                    LogicalWrite::Update(k, vec!["Eve".into(), "final".into(), 1.into()]),
                    LogicalWrite::Delete(k),
                ],
            )
            .unwrap();
        assert_eq!(res, vec![None, None]);
        assert!(db.get("TasKy", "Task", k).unwrap().is_none());
        assert_eq!(db.count("Do!", "Todo").unwrap(), 0);
    }

    #[test]
    fn recompute_path_agrees_with_delta_path() {
        let run = |path: WritePath| {
            let db = tasky_full();
            db.set_write_path(path);
            let keys = seed(&db);
            db.insert("Do!", "Todo", vec!["Eve".into(), "t5".into()])
                .unwrap();
            db.update(
                "TasKy",
                "Task",
                keys[0],
                vec!["Ann".into(), "Organize party".into(), 1.into()],
            )
            .unwrap();
            db.delete("Do!", "Todo", keys[3]).unwrap();
            let mut out = Vec::new();
            for (v, t) in [
                ("TasKy", "Task"),
                ("Do!", "Todo"),
                ("TasKy2", "Task"),
                ("TasKy2", "Author"),
            ] {
                let rel = db.scan(v, t).unwrap();
                out.push(format!("{v}.{t}: {rel}"));
            }
            out.join("\n")
        };
        // Key sequences are deterministic, so the final states must match
        // exactly between the two write paths.
        assert_eq!(run(WritePath::Delta), run(WritePath::Recompute));
    }
}

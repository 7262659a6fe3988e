//! Update propagation: mapping write deltas through a rule set.
//!
//! This is the engine-side equivalent of the paper's generated triggers.
//! Section 6: "InVerDa adopts an update propagation technique for Datalog
//! rules \[2] that results in minimal write operations" — e.g. Rules 52–54
//! propagate an insert on the source table of a materialized SPLIT to the
//! target-side tables it affects, and to nothing else.
//!
//! Implementation: semi-naive probing. For every body literal over a changed
//! relation, the changed tuples are bound into that literal and the rest of
//! the rule body is evaluated (against the pre-state for deletions, the
//! post-state for insertions) to find *candidate* head keys. Candidates are
//! then re-derived per key in both states and diffed, which yields an exact,
//! minimal head delta — including the `old ¬R(p,A)` existence guards of the
//! paper's update rules, which fall out of the diff.
//!
//! Rule sets whose rules consume earlier heads (the id-generating SMOs of
//! Appendix B.4/B.6, with their `old`/`new` staging) fall back to a full
//! two-state evaluation and diff; they are exactly the SMOs whose triggers
//! also need non-key joins in SQL.
//!
//! A caller that holds the heads' *old* state — the snapshot store keeping
//! derived relations current — needs neither the old-state probes nor the
//! old-state re-derivation: [`propagate_vs_stored`] evaluates the new state
//! only, which is also what makes it safe for id-minting rule sets.

use crate::ast::RuleSet;
use crate::error::DatalogError;
use crate::eval::{
    evaluate_compiled, head_cells_bound_by, value_key, CTerm, CompiledRuleSet, EdbView, Evaluator,
    IdSource, ReservingIds, RowMap,
};
use crate::skolem::{self, PlaceholderPatch};
use crate::Result;
use inverda_storage::{ColumnIndex, Key, Relation, RelationDelta, Row, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Changes to one relation. A key present in both `deletes` and `inserts`
/// denotes an update.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// Rows removed, keyed by tuple identifier (old payload).
    pub deletes: BTreeMap<Key, Row>,
    /// Rows added, keyed by tuple identifier (new payload).
    pub inserts: BTreeMap<Key, Row>,
}

impl Delta {
    /// Empty delta.
    pub fn new() -> Self {
        Delta::default()
    }

    /// Delta inserting one row.
    pub fn insert(key: Key, row: Row) -> Self {
        let mut d = Delta::new();
        d.inserts.insert(key, row);
        d
    }

    /// Delta deleting one row.
    pub fn delete(key: Key, row: Row) -> Self {
        let mut d = Delta::new();
        d.deletes.insert(key, row);
        d
    }

    /// Delta updating one row.
    pub fn update(key: Key, old: Row, new: Row) -> Self {
        let mut d = Delta::new();
        d.deletes.insert(key, old);
        d.inserts.insert(key, new);
        d
    }

    /// True iff no changes are recorded.
    pub fn is_empty(&self) -> bool {
        self.deletes.is_empty() && self.inserts.is_empty()
    }

    /// Number of affected keys.
    pub fn len(&self) -> usize {
        // Both sides iterate in key order: count the keys they share (the
        // updates) by one merge walk.
        let mut deletes = self.deletes.keys().peekable();
        let mut updates = 0;
        for key in self.inserts.keys() {
            while deletes.next_if(|d| *d < key).is_some() {}
            if deletes.next_if_eq(&key).is_some() {
                updates += 1;
            }
        }
        self.deletes.len() + self.inserts.len() - updates
    }

    /// The changed tuples that take part in firings of one state at a
    /// literal of the given polarity: in the new state the inserts at a
    /// positive literal and the deletes at a negated one (they enable new
    /// firings); in the old state the other way round (they supported
    /// firings that are now lost).
    fn side_at(&self, positive: bool, new_state: bool) -> &BTreeMap<Key, Row> {
        if positive == new_state {
            &self.inserts
        } else {
            &self.deletes
        }
    }

    /// Apply to a relation in place (delete-then-insert; same-key pairs act
    /// as updates).
    pub fn apply_to(&self, rel: &mut Relation) -> Result<()> {
        for key in self.deletes.keys() {
            rel.delete_if_present(*key);
        }
        for (key, row) in &self.inserts {
            rel.upsert(*key, row.clone()).map_err(DatalogError::from)?;
        }
        Ok(())
    }

    /// Fold another delta into this one (later changes win). A later delete
    /// cancels an earlier insert of the key — leaving the earlier delete, if
    /// any (the key was updated, then deleted), or nothing at all (the tuple
    /// existed only transiently).
    pub fn merge(&mut self, other: &Delta) {
        for (k, row) in &other.deletes {
            if self.inserts.remove(k).is_none() {
                self.deletes.entry(*k).or_insert_with(|| row.clone());
            }
        }
        for (k, row) in &other.inserts {
            self.inserts.insert(*k, row.clone());
        }
    }
}

/// A relation diff as a delta: an update is the delete of its old row plus
/// the insert of its new one.
impl From<RelationDelta> for Delta {
    fn from(diff: RelationDelta) -> Delta {
        let mut delta = Delta::new();
        delta.deletes.extend(diff.deletes);
        delta.inserts.extend(diff.inserts);
        for (key, old_row, new_row) in diff.updates {
            delta.deletes.insert(key, old_row);
            delta.inserts.insert(key, new_row);
        }
        delta
    }
}

/// Deltas for several relations, keyed by relation name.
pub type DeltaMap = BTreeMap<String, Delta>;

/// An EDB overlaying write deltas on a base view: the "new state".
pub struct PatchedEdb<'a> {
    /// Pre-state.
    pub base: &'a dyn EdbView,
    /// Changes to overlay.
    pub patches: &'a DeltaMap,
    cache: RefCell<BTreeMap<String, Arc<Relation>>>,
    /// Overlay indexes of the patched relations, by relation and column.
    indexes: RefCell<BTreeMap<String, BTreeMap<usize, Arc<ColumnIndex>>>>,
}

impl<'a> PatchedEdb<'a> {
    /// Overlay `patches` on `base`.
    pub fn new(base: &'a dyn EdbView, patches: &'a DeltaMap) -> Self {
        PatchedEdb {
            base,
            patches,
            cache: RefCell::new(BTreeMap::new()),
            indexes: RefCell::new(BTreeMap::new()),
        }
    }
}

impl EdbView for PatchedEdb<'_> {
    fn full(&self, relation: &str) -> Result<Arc<Relation>> {
        if let Some(cached) = self.cache.borrow().get(relation) {
            return Ok(Arc::clone(cached));
        }
        let base = self.base.full(relation)?;
        let out = match self.patches.get(relation) {
            None => base,
            Some(delta) if delta.is_empty() => base,
            Some(delta) => {
                let mut rel = base.clone_rows();
                delta.apply_to(&mut rel)?;
                Arc::new(rel)
            }
        };
        self.cache
            .borrow_mut()
            .insert(relation.to_string(), Arc::clone(&out));
        Ok(out)
    }

    fn by_key(&self, relation: &str, key: Key) -> Result<Option<Row>> {
        if let Some(delta) = self.patches.get(relation) {
            if let Some(row) = delta.inserts.get(&key) {
                return Ok(Some(row.clone()));
            }
            if delta.deletes.contains_key(&key) {
                return Ok(None);
            }
        }
        self.base.by_key(relation, key)
    }

    fn contains(&self, relation: &str) -> bool {
        self.base.contains(relation) || self.patches.contains_key(relation)
    }

    fn overlay(&self, relation: &str) -> Result<Option<(Arc<Relation>, &Delta)>> {
        match self.patches.get(relation) {
            Some(delta) if !delta.is_empty() => Ok(Some((self.base.full(relation)?, delta))),
            _ => Ok(None),
        }
    }

    /// The base view's index under an overlay of the patched rows' changes
    /// — O(delta), where materializing the patched relation and indexing it
    /// again would be O(relation) per statement. Built once per view: the
    /// state it describes is never materialized, so no relation keeps it.
    fn index(&self, relation: &str, column: usize) -> Result<Arc<ColumnIndex>> {
        let delta = match self.patches.get(relation) {
            Some(delta) if !delta.is_empty() => delta,
            _ => return self.base.index(relation, column),
        };
        let built = self
            .indexes
            .borrow()
            .get(relation)
            .and_then(|cols| cols.get(&column).cloned());
        if let Some(index) = built {
            return Ok(index);
        }
        let mut index = ColumnIndex::overlay(self.base.index(relation, column)?);
        for (key, old) in &delta.deletes {
            index.apply_row_change(column, *key, Some(old), None);
        }
        for (key, new) in &delta.inserts {
            index.apply_row_change(column, *key, None, Some(new));
        }
        let index = Arc::new(index);
        self.indexes
            .borrow_mut()
            .entry(relation.to_string())
            .or_default()
            .insert(column, Arc::clone(&index));
        Ok(index)
    }
}

/// Propagate input deltas through a rule set, returning the exact deltas of
/// every head relation. Compiles the rules first; use
/// [`propagate_compiled`] to reuse a compiled set across writes.
pub fn propagate(
    rules: &RuleSet,
    base: &dyn EdbView,
    input_delta: &DeltaMap,
    ids: &dyn IdSource,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<DeltaMap> {
    propagate_compiled(
        &CompiledRuleSet::compile(rules)?,
        base,
        input_delta,
        ids,
        head_columns,
    )
}

/// Propagate input deltas through a pre-compiled rule set.
///
/// **Minting rule sets participate**: a non-staged set that binds variables
/// through skolem generators runs its whole propagation under an
/// evaluation-scope [`ReservingIds`]. The probes and re-derivations reserve
/// placeholders in exploration order (old-state probes, new-state probes,
/// then the new-state re-derivation of every candidate key, then the
/// old-state one), and one commit at the end mints real ids in that order and
/// patches them through the returned deltas via `patch_delta_map`. A
/// propagation that fails returns before the commit, so it mints nothing.
/// Staged sets (which consume their own heads) take the recompute fallback.
pub fn propagate_compiled(
    crs: &CompiledRuleSet,
    base: &dyn EdbView,
    input_delta: &DeltaMap,
    ids: &dyn IdSource,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<DeltaMap> {
    if crs.staged() {
        return propagate_by_recompute_compiled(crs, base, input_delta, ids, head_columns);
    }
    if !crs.mints_ids() {
        return propagate_unstaged(crs, base, input_delta, ids);
    }
    // Reserve, then commit once: ids are minted in exploration order, and
    // only by a propagation that succeeded.
    let reserving = ReservingIds::new(ids, skolem::SCOPE_EVAL);
    let out = propagate_unstaged(crs, base, input_delta, &reserving)?;
    let patch = reserving.commit();
    Ok(patch_delta_map(out, &patch))
}

/// The shared body of [`propagate_compiled`] for non-staged rule sets.
fn propagate_unstaged(
    crs: &CompiledRuleSet,
    base: &dyn EdbView,
    input_delta: &DeltaMap,
    ids: &dyn IdSource,
) -> Result<DeltaMap> {
    if let Some(RowMap::Projection(projection)) = &crs.row_map {
        if let Some(out) = pass_through(crs, projection, base, input_delta)? {
            return Ok(out);
        }
    }
    let patched = PatchedEdb::new(base, input_delta);

    // ---- Phase 1 (old state): probe deletions at positive literals and
    // insertions at negative literals.
    // ---- Phase 2 (new state): probe insertions at positive literals and
    // deletions at negative literals.
    let mut candidates: BTreeMap<String, BTreeSet<Key>> = BTreeMap::new();
    {
        let old_ev = Evaluator::new(base, ids);
        probe_rules(crs, &old_ev, input_delta, ProbeState::Old, &mut candidates)?;
        let new_ev = Evaluator::new(&patched, ids);
        probe_rules(crs, &new_ev, input_delta, ProbeState::New, &mut candidates)?;
    }

    // ---- Phase 3: resolve candidates exactly in both states — the whole
    // new-state pass first, which is the reservation order.
    let new_ev = Evaluator::new(&patched, ids);
    let mut new_rows: Vec<Vec<Option<Row>>> = Vec::with_capacity(candidates.len());
    for (head, keys) in &candidates {
        let rows = keys
            .iter()
            .map(|key| new_ev.head_row_for_key(crs, head, *key))
            .collect::<Result<_>>()?;
        new_rows.push(rows);
    }
    let old_ev = Evaluator::new(base, ids);
    let mut out: DeltaMap = DeltaMap::new();
    for ((head, keys), new_rows) in candidates.iter().zip(new_rows) {
        let mut delta = Delta::new();
        for (key, new) in keys.iter().zip(new_rows) {
            match (old_ev.head_row_for_key(crs, head, *key)?, new) {
                (None, Some(row)) => {
                    delta.inserts.insert(*key, row);
                }
                (Some(row), None) => {
                    delta.deletes.insert(*key, row);
                }
                (Some(old_row), Some(new_row)) if old_row != new_row => {
                    delta.deletes.insert(*key, old_row);
                    delta.inserts.insert(*key, new_row);
                }
                _ => {}
            }
        }
        if !delta.is_empty() {
            out.insert(head.clone(), delta);
        }
    }
    Ok(out)
}

/// Propagation through a [projection set](RowMap::Projection) — every rule
/// `Hᵢ(p, πᵢ(x)) ← B(p, x)` — without an evaluator: `Hᵢ`'s row under a key
/// is the projection of `B`'s, so `Hᵢ`'s delta is made of the changed keys
/// of `B` whose projected rows differ between the two states. The rows are
/// read as phase 3 of the general path reads them: every key's new row
/// first (the overlay's, which touches no base relation), then every key's
/// old row from `base`, head by head in name order and in ascending key
/// order; a body relation two heads share is read once. An input delta
/// that is not minimal (a delete of an absent key, a delete and insert of
/// one row) so still yields an exact delta. `None` when a row is not of the
/// atom's arity: the general path then decides, as it would have.
fn pass_through(
    crs: &CompiledRuleSet,
    projection: &[Vec<usize>],
    base: &dyn EdbView,
    input_delta: &DeltaMap,
) -> Result<Option<DeltaMap>> {
    // Per body relation: its atoms' arity and every changed key's old row.
    type OldRows = (usize, Vec<(Key, Option<Row>)>);
    let mut old_rows: BTreeMap<&str, OldRows> = BTreeMap::new();
    let mut out = DeltaMap::new();
    for head in crs.head_names() {
        let rule = crs.rules_for(head)[0];
        let (_, atom, _) = crs.body_atoms(rule).next().expect("one positive atom");
        let Some(changed) = input_delta.get(&atom.relation) else {
            continue;
        };
        let arity = atom.terms.len() - 1;
        if !old_rows.contains_key(atom.relation.as_str()) {
            let mut rows = changed.deletes.values().chain(changed.inserts.values());
            if rows.any(|row| row.len() != arity) {
                return Ok(None);
            }
            let keys: BTreeSet<Key> = changed
                .deletes
                .keys()
                .chain(changed.inserts.keys())
                .copied()
                .collect();
            let mut olds = Vec::with_capacity(keys.len());
            for key in keys {
                let old = base.by_key(&atom.relation, key)?;
                if old.as_ref().is_some_and(|row| row.len() != arity) {
                    return Ok(None);
                }
                olds.push((key, old));
            }
            old_rows.insert(&atom.relation, (arity, olds));
        }
        let (read_arity, olds) = &old_rows[atom.relation.as_str()];
        if *read_arity != arity {
            return Ok(None);
        }
        let project =
            |row: &Row| -> Row { projection[rule].iter().map(|&c| row[c].clone()).collect() };
        let mut delta = Delta::new();
        for (key, old) in olds {
            let old = old.as_ref().map(project);
            let new = changed.inserts.get(key).map(project);
            if old == new {
                continue;
            }
            delta.deletes.extend(old.map(|row| (*key, row)));
            delta.inserts.extend(new.map(|row| (*key, row)));
        }
        if !delta.is_empty() {
            out.insert(head.to_string(), delta);
        }
    }
    Ok(Some(out))
}

/// Fallback: evaluate the whole rule set in both states and diff the heads.
/// Exact but O(state); used for staged rule sets (id-generating SMOs).
pub fn propagate_by_recompute(
    rules: &RuleSet,
    base: &dyn EdbView,
    input_delta: &DeltaMap,
    ids: &dyn IdSource,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<DeltaMap> {
    propagate_by_recompute_compiled(
        &CompiledRuleSet::compile(rules)?,
        base,
        input_delta,
        ids,
        head_columns,
    )
}

/// [`propagate_by_recompute`] over a pre-compiled rule set.
pub fn propagate_by_recompute_compiled(
    crs: &CompiledRuleSet,
    base: &dyn EdbView,
    input_delta: &DeltaMap,
    ids: &dyn IdSource,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<DeltaMap> {
    let old_out = evaluate_compiled(crs, base, ids, head_columns)?;
    let patched = PatchedEdb::new(base, input_delta);
    let new_out = evaluate_compiled(crs, &patched, ids, head_columns)?;
    let mut out = DeltaMap::new();
    for (head, new_rel) in &new_out {
        let old_rel = &old_out[head];
        let d = new_rel.diff(old_rel);
        if d.is_empty() {
            continue;
        }
        out.insert(head.clone(), Delta::from(d));
    }
    Ok(out)
}

/// **Delta-vs-stored** propagation: the head deltas of a *non-staged* rule
/// set when the heads' old state is at hand (`stored`, e.g. the snapshot
/// store's entries) — the O(delta) way to keep derived snapshots of an
/// **id-minting** mapping current. `new_state` is the input state the heads
/// are to be brought up to, `input_delta` the changes that led to it from
/// the state `stored` was derived over — one write's, or the merged changes
/// of several (the write path overlays its deltas on the pre-write view, a
/// [`PatchedEdb`]; a reader catching a stale snapshot up passes the live
/// view and the changes logged since). `stored` serves the old state of
/// every head to maintain ([`EdbView::contains`] selects them; other heads
/// are derived for their mints only) and must equal what evaluating `crs`
/// over the old input state with `ids` derived. Returns the non-empty head
/// deltas.
///
/// The old state is never evaluated. Only the **new** state is, and only
/// around the changed tuples:
///
/// 1. for every changed tuple that can take part in the new state (an
///    insert at a positive literal, a delete at a negated one), the keys of
///    its rule's depth-0 scan that are consistent with it are collected — a
///    superset of the scan keys of every firing that uses the tuple, the
///    ones cut short behind a generator call included (against throw-away
///    reservations: probe order means nothing);
/// 2. each rule is then **replayed** for exactly those scan keys, in rule
///    order and ascending key order, under the real reservation scope: the
///    head tuples of the replay are the new rows of their keys;
/// 3. the old rows that may have lost a derivation are read out of `stored`
///    by the head cells a deleted tuple (or a tuple inserted at a negated
///    literal) fixes — the key, or else a payload-column probe;
/// 4. a candidate's new row is the replayed one, or its stored row if some
///    rule still derives that very tuple (checked with all head variables
///    seeded and generators only *peeked*: nothing is ever minted for a
///    payload that vanished since). The check is an existence query: it
///    stops at its first witness, in an order of its own; see
///    `Evaluator::derives_head_tuple` for why that is exact.
///
/// **Mint order.** The ids minted are exactly those a full evaluation of
/// the new state mints ([`evaluate_compiled`], what a cold read of the
/// heads performs), in the same order. A full evaluation reserves where —
/// in rule order, then scan-key order, then join order — a (possibly
/// partial) firing first reaches a generator with arguments that have no
/// id. A firing prefix of the new state that uses no changed tuple was
/// explored in the old state too, so its arguments were memoized when
/// `stored` was derived. Every other one sits under one of the collected
/// scan keys, and step 2 re-runs everything under those keys in the full
/// evaluation's relative order — so it meets the same unknown arguments in
/// the same order, and the commit epilogue mints them that way. (Ids are
/// assumed fresh — the engine draws them from the key sequence — so a
/// minted key never collides with a stored one.) Nothing in the argument
/// asks for `input_delta` to be a single statement's: it is stated against
/// one evaluation of the whole new state, which is what whoever holds no
/// `stored` performs at the same point.
///
/// Rules without a keyed depth-0 scan are replayed whole, a changed tuple
/// that shares no variable with its rule's scan atom selects every scan
/// key, and a literal that fixes no head cell makes every stored row a
/// candidate: still exact, no longer O(delta). Errors a full evaluation of
/// the new state would raise at a changed firing (a
/// [`DatalogError::KeyConflict`] between a new tuple and a surviving one
/// included) are raised here too.
pub fn propagate_vs_stored(
    crs: &CompiledRuleSet,
    new_state: &dyn EdbView,
    input_delta: &DeltaMap,
    ids: &dyn IdSource,
    stored: &dyn EdbView,
) -> Result<DeltaMap> {
    debug_assert!(!crs.staged(), "staged sets consume their own heads");

    // ---- 1. Scan keys the changed tuples touch, per rule they occur in.
    let mut scan_keys: BTreeMap<usize, BTreeSet<Key>> = BTreeMap::new();
    {
        let scratch = ReservingIds::new(ids, skolem::SCOPE_CHUNK);
        let ev = Evaluator::new(new_state, &scratch);
        for (rule_idx, rule) in crs.rules.iter().enumerate() {
            for (lit_idx, atom, positive) in crs.body_atoms(rule_idx) {
                let Some(delta) = input_delta.get(&atom.relation) else {
                    continue;
                };
                let keys = scan_keys.entry(rule_idx).or_default();
                if rule.has_keyed_scan() {
                    for (key, row) in delta.side_at(positive, true) {
                        ev.probe_scan_keys(rule, lit_idx, *key, row, keys)?;
                    }
                }
            }
        }
    }

    // ---- 2. Replay, in the full evaluation's order, under the real scope.
    let scope = ReservingIds::new(ids, skolem::SCOPE_EVAL);
    let mut fresh: BTreeMap<&str, BTreeMap<Key, Row>> = BTreeMap::new();
    {
        let ev = Evaluator::new(new_state, &scope);
        for (&rule_idx, keys) in &scan_keys {
            let rule = &crs.rules[rule_idx];
            let tuples = if rule.has_keyed_scan() {
                ev.scan_key_head_tuples(rule, keys)?
            } else {
                ev.rule_head_tuples(rule, &rule.base_order, None)?
            };
            let head = rule.head.relation.as_str();
            let rows = fresh.entry(head).or_default();
            for (key, row) in tuples {
                match rows.get(&key) {
                    Some(existing) if *existing != row => {
                        return Err(DatalogError::KeyConflict {
                            relation: head.to_string(),
                            key: key.0,
                        })
                    }
                    Some(_) => {}
                    None => {
                        rows.insert(key, row);
                    }
                }
            }
        }
    }

    // ---- 3. + 4. Per maintained head: candidates, then old vs. new rows.
    let survives = Evaluator::witness_search(new_state, ids);
    let no_rows = BTreeMap::new();
    let mut out = DeltaMap::new();
    for head in crs.head_names() {
        if !stored.contains(head) {
            continue;
        }
        let fresh_rows = fresh.get(head).unwrap_or(&no_rows);
        let mut candidates: BTreeSet<Key> = fresh_rows.keys().copied().collect();
        for &rule_idx in crs.rules_for(head) {
            for (lit_idx, atom, positive) in crs.body_atoms(rule_idx) {
                let Some(delta) = input_delta.get(&atom.relation) else {
                    continue;
                };
                for (key, row) in delta.side_at(positive, false) {
                    let rule = &crs.rules[rule_idx];
                    let Some(cells) = head_cells_bound_by(rule, lit_idx, *key, row) else {
                        continue;
                    };
                    stored_candidates(stored, head, &cells, &mut candidates)?;
                }
            }
        }
        let mut delta = Delta::new();
        for key in candidates {
            let old = stored.by_key(head, key)?;
            let new = fresh_rows.get(&key);
            if old.as_ref() == new {
                continue;
            }
            let old_survives = match &old {
                Some(row) => survives.derives_head_tuple(crs, head, key, row)?,
                None => false,
            };
            match (old, new) {
                (Some(_), Some(_)) if old_survives => {
                    return Err(DatalogError::KeyConflict {
                        relation: head.to_string(),
                        key: key.0,
                    })
                }
                (Some(_), None) if old_survives => {}
                (old, new) => {
                    delta.deletes.extend(old.map(|row| (key, row)));
                    delta.inserts.extend(new.map(|row| (key, row.clone())));
                }
            }
        }
        if !delta.is_empty() {
            out.insert(head.to_string(), delta);
        }
    }
    let patch = scope.commit();
    Ok(patch_delta_map(out, &patch))
}

/// The keys of `stored[head]` rows agreeing with the head cells a changed
/// tuple fixes (`cells[0]` is the key cell): the one key, or the rows an
/// index probe on the first fixed payload column finds that also agree on
/// the other fixed columns, or — nothing fixed — every row.
fn stored_candidates(
    stored: &dyn EdbView,
    head: &str,
    cells: &[Option<Value>],
    out: &mut BTreeSet<Key>,
) -> Result<()> {
    if let Some(key_cell) = &cells[0] {
        // A cell that is no key (ω) keys no stored row.
        out.extend(value_key(head, key_cell).ok());
        return Ok(());
    }
    let fixed: Vec<(usize, &Value)> = cells[1..]
        .iter()
        .enumerate()
        .filter_map(|(col, cell)| cell.as_ref().map(|v| (col, v)))
        .collect();
    match fixed.first() {
        None => out.extend(stored.full(head)?.keys()),
        Some(&(col, value)) => {
            let rel = stored.full(head)?;
            if col >= rel.schema().arity() {
                return Ok(());
            }
            for &key in stored.index(head, col)?.keys_for(value) {
                let Some(row) = rel.get(key) else { continue };
                if fixed.iter().all(|&(c, v)| row.get(c) == Some(v)) {
                    out.insert(key);
                }
            }
        }
    }
    Ok(())
}

/// Rewrite a committed reservation patch through a delta map: placeholder
/// keys and payload cells become the minted ids. A no-op (and
/// allocation-free) when nothing was reserved. The commit epilogue of
/// [`propagate_compiled`] and [`propagate_vs_stored`].
fn patch_delta_map(deltas: DeltaMap, patch: &PlaceholderPatch) -> DeltaMap {
    if patch.is_empty() {
        return deltas;
    }
    deltas
        .into_iter()
        .map(|(rel, delta)| {
            let resolve = |side: BTreeMap<Key, Row>| {
                side.into_iter()
                    .map(|(key, mut row)| {
                        patch.resolve_row(&mut row);
                        (Key(patch.resolve_id(key.0)), row)
                    })
                    .collect()
            };
            let patched = Delta {
                deletes: resolve(delta.deletes),
                inserts: resolve(delta.inserts),
            };
            (rel, patched)
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq)]
enum ProbeState {
    Old,
    New,
}

/// Seed every rule with changed tuples and collect candidate head keys.
///
/// **Why this is exact.** If both full evaluations, of the old state and of
/// the new, succeed, the candidates hold every head key whose row differs
/// between them, although a probe ends a branch on an expression error
/// instead of failing. A head row changes only through a firing that uses a
/// changed tuple: one of the old state that a deletion at a positive
/// literal or an insertion at a negative one takes away, or one of the new
/// state that an insertion at a positive literal or a deletion at a
/// negative one brings. The probe of that tuple at that literal, in that
/// state, walks the firing's bindings, so every step on the way is part of
/// a firing of the probed state. Had a condition or assignment on the way
/// failed, the cold evaluation of that state would have failed too: it
/// reaches the filter once the literals its order (`base_order`) puts first
/// are matched, all of them part of the firing, so with the same inputs.
/// Hence no branch toward a candidate fails, and a branch that does extends
/// to no firing, so ending it loses no candidate.
///
/// A probe seeds the changed tuple first, so it can reach a filter before
/// an atom that would reject the firing: in `H0(p, d) ← T0(p, a, a), T1(q,
/// a), d = 6 / a`, a `T1` insert with `a = 0` divides before any `T0` row is
/// read, although no `T0` row has `a = 0`. So on an expression error the
/// probe tries, under its frame, the literals the cold order puts before the
/// filter and its path has not matched (`Evaluator::cold_evaluation_meets`):
/// a match means the cold evaluation meets the same failure, and the probe
/// raises it; none, and only the branch ends. A skolem literal among them is
/// not tried, since trying it would mint; the branch ends.
///
/// **A key-local rule skips the join.** A changed tuple at a positive or
/// negated atom whose key term is the head's key variable names its own key
/// as the candidate, without a seed frame or a join, when the rule is
/// [key-local](crate::eval::CompiledRule::key_local) and the set mints
/// nothing. Every column-level and SPLIT mapping has this shape. Phase 3
/// re-derives the candidate in both states, so the shortcut is exact if both
/// full evaluations succeed:
///
/// - *The candidates are a superset of the keys whose rows change.* Every
///   firing that uses the tuple at that atom binds the head's key variable
///   to the tuple's key, so the probe would have found that key or none.
/// - *An extra candidate raises nothing.* Its keyed re-derivation in a state
///   walks `keyed_order` under key p. At a condition or assignment, the
///   key-local flag has every literal that `base_order` puts before it
///   matched under the walk's frame: the walk follows the cold order's
///   prefix for the scan row p. The cold evaluation of that state has the
///   same branch, reaches the filter with the same inputs, and would fail
///   on it too. Two rules a key-seeded row conflicts on are two firings of
///   that state, so the cold evaluation meets that conflict too. An extra
///   candidate therefore costs one keyed re-derivation, never a wrong row.
/// - *No mint or reservation moves*, since the set mints nothing.
///
/// The flag is what excludes `H(p, d) ← B(q, b), A(p, a), d = 6 / a`: keyed
/// by p, the walk divides after `A` and before `B`, which the cold order
/// matches first, so with `B` empty it would raise what no cold evaluation
/// meets.
///
/// **When a state cannot be evaluated**, propagation promises no error. It
/// fails where a probe or a candidate's re-derivation meets a failure the
/// cold evaluation meets too (the `T0` insert with `a = 0` above fails so),
/// and otherwise returns the difference of the firings it completes. A
/// failure on a firing that no probe reaches with its cold-order literals
/// matched, and that no candidate's re-derivation meets, is not seen: a
/// probe explores only the branches through a changed tuple.
fn probe_rules(
    crs: &CompiledRuleSet,
    ev: &Evaluator<'_>,
    input_delta: &DeltaMap,
    state: ProbeState,
    candidates: &mut BTreeMap<String, BTreeSet<Key>>,
) -> Result<()> {
    let mint_free = !crs.mints_ids();
    for rule_idx in 0..crs.rules.len() {
        let rule = &crs.rules[rule_idx];
        for (lit_idx, atom, positive) in crs.body_atoms(rule_idx) {
            let Some(delta) = input_delta.get(&atom.relation) else {
                continue;
            };
            let own_key = mint_free
                && rule.key_local
                && rule
                    .head_key_slot
                    .is_some_and(|slot| atom.terms[0] == CTerm::Var(slot));
            // Which changed tuples to probe in this state:
            // old state: deletions of positive literals (they supported old
            //   derivations) and insertions at negative literals (they kill
            //   old derivations);
            // new state: insertions at positive literals and deletions at
            //   negative literals.
            let tuples = delta.side_at(positive, state == ProbeState::New);
            let keys = candidates.entry(rule.head.relation.clone()).or_default();
            for (key, row) in tuples {
                if own_key && atom.terms.len() == row.len() + 1 {
                    keys.insert(*key);
                    continue;
                }
                // For positive literals in their supporting state the tuple
                // is present, so skipping the literal is exact; for the
                // other cases skipping over-approximates, which is fine —
                // candidates are re-derived exactly afterwards.
                ev.probe_head_keys(crs, rule_idx, lit_idx, *key, row, keys)?;
            }
        }
    }
    candidates.retain(|_, keys| !keys.is_empty());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Literal, Rule, RuleSet, Term};
    use crate::eval::MapEdb;
    use crate::skolem::SkolemRegistry;
    use inverda_storage::{BinaryOp, Expr, Value};

    fn ids() -> RefCell<SkolemRegistry> {
        RefCell::new(SkolemRegistry::new())
    }

    /// γtgt of a materialized SPLIT on prio (simplified clean-state shape).
    fn split_gamma_tgt() -> RuleSet {
        let vars = ["p", "author", "task", "prio"];
        RuleSet::new(vec![
            Rule::new(
                Atom::vars("R", &vars),
                vec![
                    Literal::Pos(Atom::vars("T", &vars)),
                    Literal::Cond(Expr::col("prio").eq(Expr::lit(1))),
                    Literal::Neg(Atom::new("Rminus", vec![Term::var("p")])),
                ],
            ),
            Rule::new(
                Atom::vars("S", &vars),
                vec![
                    Literal::Pos(Atom::vars("T", &vars)),
                    Literal::Cond(Expr::col("prio").ge(Expr::lit(2))),
                ],
            ),
        ])
    }

    fn task_edb() -> MapEdb {
        let mut t = Relation::with_columns("T", ["author", "task", "prio"]);
        t.insert(
            Key(1),
            vec!["Ann".into(), "Organize party".into(), 3.into()],
        )
        .unwrap();
        t.insert(Key(3), vec!["Ann".into(), "Write paper".into(), 1.into()])
            .unwrap();
        t.insert(Key(4), vec!["Ben".into(), "Clean room".into(), 1.into()])
            .unwrap();
        let mut edb = MapEdb::new();
        edb.add(t);
        edb.add(Relation::with_columns("Rminus", [] as [&str; 0]));
        edb
    }

    #[test]
    fn insert_propagates_to_matching_partition_only() {
        let edb = task_edb();
        let sk = ids();
        let mut input = DeltaMap::new();
        input.insert(
            "T".into(),
            Delta::insert(Key(9), vec!["Eve".into(), "New".into(), 1.into()]),
        );
        let out = propagate(&split_gamma_tgt(), &edb, &input, &sk, &BTreeMap::new()).unwrap();
        assert!(out.contains_key("R"));
        assert!(!out.contains_key("S"));
        let r = &out["R"];
        assert_eq!(r.inserts.len(), 1);
        assert!(r.deletes.is_empty());
        assert_eq!(
            r.inserts[&Key(9)],
            vec![Value::text("Eve"), Value::text("New"), Value::Int(1)]
        );
    }

    #[test]
    fn update_moving_between_partitions_deletes_and_inserts() {
        let edb = task_edb();
        let sk = ids();
        // prio 1 -> 2: leaves R, enters S.
        let mut input = DeltaMap::new();
        input.insert(
            "T".into(),
            Delta::update(
                Key(3),
                vec!["Ann".into(), "Write paper".into(), 1.into()],
                vec!["Ann".into(), "Write paper".into(), 2.into()],
            ),
        );
        let out = propagate(&split_gamma_tgt(), &edb, &input, &sk, &BTreeMap::new()).unwrap();
        assert_eq!(out["R"].deletes.len(), 1);
        assert!(out["R"].inserts.is_empty());
        assert_eq!(out["S"].inserts.len(), 1);
        assert!(out["S"].deletes.is_empty());
    }

    #[test]
    fn delete_propagates_to_partition() {
        let edb = task_edb();
        let sk = ids();
        let mut input = DeltaMap::new();
        input.insert(
            "T".into(),
            Delta::delete(
                Key(1),
                vec!["Ann".into(), "Organize party".into(), 3.into()],
            ),
        );
        let out = propagate(&split_gamma_tgt(), &edb, &input, &sk, &BTreeMap::new()).unwrap();
        assert!(!out.contains_key("R"));
        assert_eq!(out["S"].deletes.len(), 1);
    }

    #[test]
    fn negative_literal_insert_kills_derivation() {
        // Inserting p into Rminus removes p from R.
        let edb = task_edb();
        let sk = ids();
        let mut input = DeltaMap::new();
        input.insert("Rminus".into(), Delta::insert(Key(3), vec![]));
        let out = propagate(&split_gamma_tgt(), &edb, &input, &sk, &BTreeMap::new()).unwrap();
        assert_eq!(out["R"].deletes.len(), 1);
        assert!(out["R"].deletes.contains_key(&Key(3)));
    }

    #[test]
    fn negative_literal_delete_restores_derivation() {
        // Rminus contains key 3; removing it restores R(3).
        let mut edb = task_edb();
        let mut rminus = Relation::with_columns("Rminus", [] as [&str; 0]);
        rminus.insert(Key(3), vec![]).unwrap();
        edb.add(rminus);
        let sk = ids();
        let mut input = DeltaMap::new();
        input.insert("Rminus".into(), Delta::delete(Key(3), vec![]));
        let out = propagate(&split_gamma_tgt(), &edb, &input, &sk, &BTreeMap::new()).unwrap();
        assert_eq!(out["R"].inserts.len(), 1);
        assert!(out["R"].inserts.contains_key(&Key(3)));
    }

    #[test]
    fn noop_write_produces_no_delta() {
        let edb = task_edb();
        let sk = ids();
        // "Update" that does not change the row.
        let mut input = DeltaMap::new();
        input.insert(
            "T".into(),
            Delta::update(
                Key(3),
                vec!["Ann".into(), "Write paper".into(), 1.into()],
                vec!["Ann".into(), "Write paper".into(), 1.into()],
            ),
        );
        let out = propagate(&split_gamma_tgt(), &edb, &input, &sk, &BTreeMap::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn propagate_agrees_with_recompute() {
        let edb = task_edb();
        let rules = split_gamma_tgt();
        let mut input = DeltaMap::new();
        input.insert(
            "T".into(),
            Delta::update(
                Key(4),
                vec!["Ben".into(), "Clean room".into(), 1.into()],
                vec!["Ben".into(), "Clean room".into(), 5.into()],
            ),
        );
        let sk1 = ids();
        let fast = propagate(&rules, &edb, &input, &sk1, &BTreeMap::new()).unwrap();
        let sk2 = ids();
        let slow = propagate_by_recompute(&rules, &edb, &input, &sk2, &BTreeMap::new()).unwrap();
        let slow: DeltaMap = slow.into_iter().filter(|(_, d)| !d.is_empty()).collect();
        assert_eq!(fast, slow);
    }

    /// `head(p, d) ← body…, d = 6 / a`.
    fn dividing_rule(head: &str, body: Vec<Literal>) -> RuleSet {
        let mut body = body;
        body.push(Literal::Assign {
            var: "d".into(),
            expr: Expr::Binary(
                Box::new(Expr::lit(6)),
                BinaryOp::Div,
                Box::new(Expr::col("a")),
            ),
        });
        RuleSet::new(vec![Rule::new(Atom::vars(head, &["p", "d"]), body)])
    }

    /// `name(k, vals…)` rows under payload columns `c0, c1, …`.
    fn rows(name: &str, rows: &[(u64, &[i64])]) -> Relation {
        let arity = rows.first().map_or(0, |(_, vals)| vals.len());
        let mut rel = Relation::with_columns(name, (0..arity).map(|i| format!("c{i}")));
        for (key, vals) in rows {
            let row = vals.iter().map(|v| Value::Int(*v)).collect();
            rel.insert(Key(*key), row).unwrap();
        }
        rel
    }

    /// Propagation of `input` through `rules`, and the naive two-state
    /// diff's verdict: both cold evaluations succeed or not.
    fn propagate_and_recompute(
        rules: &RuleSet,
        edb: &MapEdb,
        input: &DeltaMap,
    ) -> (Result<DeltaMap>, Result<DeltaMap>) {
        let fast = propagate(rules, edb, input, &ids(), &BTreeMap::new());
        let fast = fast.map(|out| out.into_iter().filter(|(_, d)| !d.is_empty()).collect());
        let slow = propagate_by_recompute(rules, edb, input, &ids(), &BTreeMap::new());
        let slow = slow.map(|out| out.into_iter().filter(|(_, d)| !d.is_empty()).collect());
        (fast, slow)
    }

    /// A probe seeds the changed `T1` tuple first and reaches the
    /// assignment before `T0`, the atom the cold evaluation matches first:
    /// `a = 0` divides on a branch that no `T0` row completes. Both cold
    /// evaluations succeed, so propagation must too, with their diff.
    #[test]
    fn a_probe_ends_a_branch_that_no_firing_completes() {
        let rules = dividing_rule(
            "H0",
            vec![
                Literal::Pos(Atom::vars("T0", &["p", "a", "a"])),
                Literal::Pos(Atom::vars("T1", &["q", "a"])),
            ],
        );
        let mut edb = MapEdb::new();
        edb.add(rows("T0", &[(1, &[2, 2])]));
        edb.add(rows("T1", &[(5, &[2])]));
        let mut input = DeltaMap::new();
        input.insert("T1".into(), Delta::insert(Key(7), vec![Value::Int(0)]));
        let (fast, slow) = propagate_and_recompute(&rules, &edb, &input);
        assert_eq!(slow, Ok(DeltaMap::new()));
        assert_eq!(fast, slow);
        // A `T0` row with `a = 0` makes the new state fail cold, and the
        // probe of it raises: the seed is the atom the cold order matches
        // before the assignment.
        let mut input = DeltaMap::new();
        input.insert("T0".into(), Delta::insert(Key(3), vec![0.into(), 0.into()]));
        let (fast, slow) = propagate_and_recompute(&rules, &edb, &input);
        assert!(slow.is_err());
        assert!(fast.is_err(), "{fast:?}");
    }

    /// A probe that reaches a failing assignment before an atom the cold
    /// order matches first tries that atom under its frame: a match means
    /// the cold evaluation meets the same failure, and the probe raises it;
    /// none, and the branch ends.
    #[test]
    fn a_probe_raises_only_what_the_cold_evaluation_meets() {
        let rules = dividing_rule(
            "H",
            vec![
                Literal::Pos(Atom::vars("B", &["q", "b"])),
                Literal::Pos(Atom::vars("A", &["p", "a"])),
            ],
        );
        let mut input = DeltaMap::new();
        input.insert("A".into(), Delta::insert(Key(2), vec![Value::Int(0)]));
        for b_rows in [&[][..], &[(9, &[1][..])]] {
            let mut edb = MapEdb::new();
            edb.add(rows("A", &[(1, &[3])]));
            let mut b = rows("B", b_rows);
            if b_rows.is_empty() {
                b = Relation::with_columns("B", ["c0"]);
            }
            edb.add(b);
            let (fast, slow) = propagate_and_recompute(&rules, &edb, &input);
            // Empty `B`: both states evaluate, to no row. A `B` row: the new
            // state divides by zero cold, and the probe raises it.
            assert_eq!(slow.is_ok(), b_rows.is_empty());
            assert_eq!(fast, slow, "B = {b_rows:?}");
        }
    }

    /// A known deviation, pinned until it is fixed: phase 3 re-derives the
    /// probed candidate `H(2)` in the old state by `keyed_order`, which seeds
    /// `A(2)` and divides by its new `a = 0` before matching `B`, the atom
    /// the cold order matches first. Both cold evaluations succeed (the new
    /// state has no `B` row, so it never divides), and they agree that
    /// `H(1)` and `H(2)` are deleted, but `propagate` fails. The fix flips
    /// the first assertion to `fast == slow`.
    #[test]
    fn known_deviation_keyed_rederivation_divides_where_both_cold_evaluations_succeed() {
        let rules = dividing_rule(
            "H",
            vec![
                Literal::Pos(Atom::vars("B", &["q", "b"])),
                Literal::Pos(Atom::vars("A", &["p", "a"])),
            ],
        );
        let mut edb = MapEdb::new();
        edb.add(rows("A", &[(1, &[3]), (2, &[3])]));
        edb.add(rows("B", &[(9, &[1])]));
        let mut input = DeltaMap::new();
        input.insert(
            "A".into(),
            Delta::update(Key(2), vec![Value::Int(3)], vec![Value::Int(0)]),
        );
        input.insert("B".into(), Delta::delete(Key(9), vec![Value::Int(1)]));
        let (fast, slow) = propagate_and_recompute(&rules, &edb, &input);
        assert!(
            matches!(&fast, Err(e) if e.to_string().contains("division by zero")),
            "{fast:?}"
        );
        let slow = slow.unwrap();
        let h = &slow["H"];
        assert_eq!(
            h.deletes.keys().copied().collect::<Vec<_>>(),
            [Key(1), Key(2)]
        );
        assert!(h.inserts.is_empty());
        assert_eq!(Some(slow), naive_diff(&rules, &edb, &input));
    }

    /// The naive interpreter's two-state diff of every head, `None` if
    /// either state fails to evaluate.
    fn naive_diff(rules: &RuleSet, edb: &MapEdb, input: &DeltaMap) -> Option<DeltaMap> {
        let old = crate::naive::evaluate(rules, edb, &ids(), &BTreeMap::new()).ok()?;
        let patched = PatchedEdb::new(edb, input);
        let new = crate::naive::evaluate(rules, &patched, &ids(), &BTreeMap::new()).ok()?;
        let diffs = new
            .iter()
            .map(|(head, rel)| (head, Delta::from(rel.diff(&old[head]))));
        Some(
            diffs
                .filter(|(_, d)| !d.is_empty())
                .map(|(h, d)| (h.clone(), d))
                .collect(),
        )
    }

    /// RENAME COLUMN's mapping: `H(p, a, b) ← B(p, a, b)`.
    fn rename_rules() -> RuleSet {
        let vars = ["p", "a", "b"];
        RuleSet::new(vec![Rule::new(
            Atom::vars("H", &vars),
            vec![Literal::Pos(Atom::vars("B", &vars))],
        )])
    }

    #[test]
    fn an_identity_set_passes_a_delta_through_exactly() {
        let rules = rename_rules();
        let crs = CompiledRuleSet::compile(&rules).unwrap();
        assert_eq!(crs.row_map, Some(RowMap::Projection(vec![vec![0, 1]])));
        let mut edb = MapEdb::new();
        edb.add(rows("B", &[(1, &[1, 2]), (2, &[3, 4])]));
        let row = |a: i64, b: i64| vec![Value::Int(a), Value::Int(b)];
        let mut inputs = Vec::new();
        // A delete of an absent key, and a delete plus insert of an
        // identical row: neither changes `H`.
        let mut absent = Delta::delete(Key(7), row(0, 0));
        absent.merge(&Delta::update(Key(2), row(3, 4), row(3, 4)));
        inputs.push(absent.clone());
        // The same next to real changes of every kind.
        absent.merge(&Delta::update(Key(1), row(1, 2), row(1, 5)));
        absent.merge(&Delta::insert(Key(9), row(6, 6)));
        inputs.push(absent);
        inputs.push(Delta::delete(Key(2), row(3, 4)));
        for delta in inputs {
            let mut input = DeltaMap::new();
            input.insert("B".into(), delta);
            let slow = naive_diff(&rules, &edb, &input).unwrap();
            let fast = propagate_compiled(&crs, &edb, &input, &ids(), &BTreeMap::new());
            assert_eq!(fast, Ok(slow), "{input:?}");
        }
    }

    #[test]
    fn a_row_of_another_arity_takes_the_general_path() {
        let crs = CompiledRuleSet::compile(&rename_rules()).unwrap();
        let mut general = crs.clone();
        general.row_map = None;
        let mut edb = MapEdb::new();
        edb.add(rows("B", &[(1, &[1, 2])]));
        let mut delta = Delta::update(Key(1), vec![1.into(), 2.into()], vec![1.into(), 5.into()]);
        delta.merge(&Delta::insert(Key(9), vec![Value::Int(6)]));
        let mut input = DeltaMap::new();
        input.insert("B".into(), delta);
        let Some(RowMap::Projection(projection)) = &crs.row_map else {
            panic!("a projection set")
        };
        assert_eq!(pass_through(&crs, projection, &edb, &input), Ok(None));
        let fast = propagate_compiled(&crs, &edb, &input, &ids(), &BTreeMap::new());
        let slow = propagate_compiled(&general, &edb, &input, &ids(), &BTreeMap::new());
        assert_eq!(fast, slow);
        assert_eq!(fast.unwrap()["H"].len(), 1);
    }

    /// Every delta of `changes` on `B` through the projection set `rules`:
    /// the pass-through equals the naive two-state diff and the general
    /// path over `B`'s rows of arity 3.
    fn assert_projection_passes_through(rules: &RuleSet, heads: usize) {
        let crs = CompiledRuleSet::compile(rules).unwrap();
        assert!(matches!(&crs.row_map, Some(RowMap::Projection(p)) if p.len() == heads));
        let mut general = crs.clone();
        general.row_map = None;
        let mut edb = MapEdb::new();
        edb.add(rows(
            "B",
            &[(1, &[1, 2, 3]), (2, &[4, 5, 6]), (3, &[7, 8, 9])],
        ));
        let row = |vals: [i64; 3]| vals.iter().map(|v| Value::Int(*v)).collect::<Row>();
        let mut noise = Delta::delete(Key(7), row([0, 0, 0]));
        noise.merge(&Delta::update(Key(2), row([4, 5, 6]), row([4, 5, 6])));
        let mut mixed = noise.clone();
        mixed.merge(&Delta::update(Key(1), row([1, 2, 3]), row([1, 2, 9])));
        mixed.merge(&Delta::update(Key(3), row([7, 8, 9]), row([0, 8, 9])));
        mixed.merge(&Delta::insert(Key(9), row([6, 6, 6])));
        let inputs = [
            noise,
            mixed,
            Delta::delete(Key(2), row([4, 5, 6])),
            Delta::update(Key(1), row([1, 2, 3]), row([5, 2, 3])),
        ];
        for delta in inputs {
            let mut input = DeltaMap::new();
            input.insert("B".into(), delta);
            let slow = naive_diff(rules, &edb, &input).unwrap();
            let fast = propagate_compiled(&crs, &edb, &input, &ids(), &BTreeMap::new());
            let general = propagate_compiled(&general, &edb, &input, &ids(), &BTreeMap::new());
            assert_eq!(fast, Ok(slow), "{input:?}");
            assert_eq!(fast, general, "{input:?}");
        }
    }

    /// ADD COLUMN's γ_src over `B(p, a, b, c)`, `c` the added column: the
    /// data head drops `c`, the aux head keeps it.
    #[test]
    fn add_columns_to_src_passes_a_delta_through_exactly() {
        let rules = RuleSet::new(vec![
            Rule::new(
                Atom::vars("S", &["p", "a", "b"]),
                vec![Literal::Pos(Atom::new(
                    "B",
                    vec![Term::var("p"), Term::var("a"), Term::var("b"), Term::Anon],
                ))],
            ),
            Rule::new(
                Atom::vars("Aux", &["p", "c"]),
                vec![Literal::Pos(Atom::new(
                    "B",
                    vec![Term::var("p"), Term::Anon, Term::Anon, Term::var("c")],
                ))],
            ),
        ]);
        assert_projection_passes_through(&rules, 2);
    }

    /// DROP COLUMN's γ_tgt over `B(p, a, b, c)`, dropping the middle column
    /// `b`: the data head skips it, the aux head keeps only it.
    #[test]
    fn drop_columns_to_tgt_passes_a_delta_through_exactly() {
        let rules = RuleSet::new(vec![
            Rule::new(
                Atom::vars("T", &["p", "a", "c"]),
                vec![Literal::Pos(Atom::new(
                    "B",
                    vec![Term::var("p"), Term::var("a"), Term::Anon, Term::var("c")],
                ))],
            ),
            Rule::new(
                Atom::vars("Aux", &["p", "b"]),
                vec![Literal::Pos(Atom::vars("B", &["p", "a", "b", "c"]))],
            ),
        ]);
        assert_projection_passes_through(&rules, 2);
    }

    #[test]
    fn a_rule_is_key_local_only_where_its_keyed_walk_keeps_the_cold_prefixes() {
        let a = || Literal::Pos(Atom::vars("A", &["p", "a"]));
        let b = || Literal::Pos(Atom::vars("B", &["q", "b"]));
        // Cold: `B`, `A`, the division; keyed by p: `A`, the division, `B`.
        let swapped = CompiledRuleSet::compile(&dividing_rule("H", vec![b(), a()])).unwrap();
        assert!(!swapped.rules[0].key_local);
        // `A` first: both orders divide right after it.
        let plain = CompiledRuleSet::compile(&dividing_rule("H", vec![a(), b()])).unwrap();
        assert!(plain.rules[0].key_local);
    }

    /// ADD COLUMN's γ_tgt: `H(p, a, c) ← T(p, a), ¬Aux(p, _), c = 6 / a`
    /// and `H(p, a, c) ← T(p, a), Aux(p, c)`, both key-local.
    #[test]
    fn add_columns_key_local_shape_equals_naive() {
        let data = || Literal::Pos(Atom::vars("T", &["p", "a"]));
        let rules = RuleSet::new(vec![
            Rule::new(
                Atom::vars("H", &["p", "a", "c"]),
                vec![
                    data(),
                    Literal::Neg(Atom::new("Aux", vec![Term::var("p"), Term::Anon])),
                    Literal::Assign {
                        var: "c".into(),
                        expr: Expr::Binary(
                            Box::new(Expr::lit(6)),
                            BinaryOp::Div,
                            Box::new(Expr::col("a")),
                        ),
                    },
                ],
            ),
            Rule::new(
                Atom::vars("H", &["p", "a", "c"]),
                vec![data(), Literal::Pos(Atom::vars("Aux", &["p", "c"]))],
            ),
        ]);
        let crs = CompiledRuleSet::compile(&rules).unwrap();
        assert!(crs.rules.iter().all(|rule| rule.key_local));
        // `T(2)` divides by zero unless `Aux` covers it.
        let mut edb = MapEdb::new();
        edb.add(rows("T", &[(1, &[3]), (2, &[0]), (3, &[2])]));
        edb.add(rows("Aux", &[(2, &[7])]));
        let int = |v: i64| vec![Value::Int(v)];
        let changes = [
            ("T", Delta::insert(Key(4), int(1))),
            ("T", Delta::update(Key(1), int(3), int(6))),
            ("T", Delta::delete(Key(3), int(2))),
            ("T", Delta::delete(Key(8), int(1))),
            ("T", Delta::update(Key(2), int(0), int(1))),
            ("T", Delta::insert(Key(5), int(0))),
            ("Aux", Delta::insert(Key(1), int(9))),
            ("Aux", Delta::insert(Key(6), int(9))),
            ("Aux", Delta::update(Key(2), int(7), int(8))),
            ("Aux", Delta::delete(Key(2), int(7))),
        ];
        for (rel, delta) in changes {
            let mut input = DeltaMap::new();
            input.insert(rel.into(), delta);
            let fast = propagate_compiled(&crs, &edb, &input, &ids(), &BTreeMap::new());
            match naive_diff(&rules, &edb, &input) {
                Some(slow) => assert_eq!(fast, Ok(slow), "{input:?}"),
                // The new state divides by zero cold, and so does the
                // changed key's re-derivation.
                None => assert!(fast.is_err(), "{input:?}: {fast:?}"),
            }
        }
    }

    #[test]
    fn staged_rulesets_use_recompute_fallback() {
        // Second rule consumes the first rule's head -> staged.
        let rules = RuleSet::new(vec![
            Rule::new(
                Atom::vars("Mid", &["p", "x"]),
                vec![Literal::Pos(Atom::vars("In", &["p", "x"]))],
            ),
            Rule::new(
                Atom::vars("Out", &["p", "x"]),
                vec![
                    Literal::Pos(Atom::vars("Mid", &["p", "x"])),
                    Literal::Cond(Expr::col("x").gt(Expr::lit(0))),
                ],
            ),
        ]);
        let mut input_rel = Relation::with_columns("In", ["x"]);
        input_rel.insert(Key(1), vec![Value::Int(5)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(input_rel);
        let sk = ids();
        let mut input = DeltaMap::new();
        input.insert("In".into(), Delta::insert(Key(2), vec![Value::Int(7)]));
        let out = propagate(&rules, &edb, &input, &sk, &BTreeMap::new()).unwrap();
        assert_eq!(out["Mid"].inserts.len(), 1);
        assert_eq!(out["Out"].inserts.len(), 1);
    }

    #[test]
    fn patched_edb_overlays_deltas() {
        let edb = task_edb();
        let mut patches = DeltaMap::new();
        patches.insert(
            "T".into(),
            Delta::update(
                Key(1),
                vec!["Ann".into(), "Organize party".into(), 3.into()],
                vec!["Ann".into(), "Organize party".into(), 1.into()],
            ),
        );
        let patched = PatchedEdb::new(&edb, &patches);
        let row = patched.by_key("T", Key(1)).unwrap().unwrap();
        assert_eq!(row[2], Value::Int(1));
        let full = patched.full("T").unwrap();
        assert_eq!(full.get(Key(1)).unwrap()[2], Value::Int(1));
        assert_eq!(full.len(), 3);
    }

    #[test]
    fn delta_merge_composes_per_key() {
        let row = |v: i64| vec![Value::Int(v)];
        // insert → delete: the tuple existed only transiently.
        let mut d = Delta::insert(Key(1), row(1));
        d.merge(&Delta::delete(Key(1), row(1)));
        assert!(d.is_empty());
        // update → delete: the pre-update row is what gets deleted.
        let mut d = Delta::update(Key(1), row(1), row(2));
        d.merge(&Delta::delete(Key(1), row(2)));
        assert_eq!(d, Delta::delete(Key(1), row(1)));
        // delete → insert: an update.
        let mut d = Delta::delete(Key(1), row(1));
        d.merge(&Delta::insert(Key(1), row(3)));
        assert_eq!(d, Delta::update(Key(1), row(1), row(3)));
        assert_eq!(d.len(), 1);
        d.merge(&Delta::insert(Key(2), row(4)));
        d.merge(&Delta::delete(Key(0), row(0)));
        assert_eq!(d.len(), 3);
    }

    /// A view that counts how often its relations are materialized.
    struct CountingEdb {
        inner: MapEdb,
        fulls: std::sync::atomic::AtomicUsize,
    }

    impl EdbView for CountingEdb {
        fn full(&self, relation: &str) -> Result<Arc<Relation>> {
            self.fulls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.full(relation)
        }

        fn by_key(&self, relation: &str, key: Key) -> Result<Option<Row>> {
            self.inner.by_key(relation, key)
        }

        fn contains(&self, relation: &str) -> bool {
            self.inner.contains(relation)
        }

        fn index(&self, relation: &str, column: usize) -> Result<Arc<ColumnIndex>> {
            self.inner.index(relation, column)
        }
    }

    #[test]
    fn patched_index_and_key_lookups_never_materialize_the_base() {
        let base = CountingEdb {
            inner: task_edb(),
            fulls: Default::default(),
        };
        let mut patches = DeltaMap::new();
        let mut delta = Delta::update(
            Key(3),
            vec!["Ann".into(), "Write paper".into(), 1.into()],
            vec!["Ben".into(), "Write paper".into(), 1.into()],
        );
        delta.merge(&Delta::delete(
            Key(4),
            vec!["Ben".into(), "Clean room".into(), 1.into()],
        ));
        delta.merge(&Delta::insert(
            Key(9),
            vec!["Ann".into(), "New".into(), 2.into()],
        ));
        patches.insert("T".into(), delta);
        let patched = PatchedEdb::new(&base, &patches);

        let by_author = patched.index("T", 0).unwrap();
        assert_eq!(by_author.keys_for(&Value::text("Ann")), &[Key(1), Key(9)]);
        assert_eq!(by_author.keys_for(&Value::text("Ben")), &[Key(3)]);
        assert_eq!(
            patched.by_key("T", Key(3)).unwrap().unwrap()[0],
            Value::text("Ben")
        );
        assert!(patched.by_key("T", Key(4)).unwrap().is_none());
        assert!(patched.by_key("T", Key(1)).unwrap().is_some());
        // An unpatched relation's index is the base's own.
        patched.index("Rminus", 0).unwrap();
        assert_eq!(base.fulls.load(std::sync::atomic::Ordering::Relaxed), 0);

        // The overlay index describes exactly the materialized patched state.
        let full = patched.full("T").unwrap();
        let rebuilt = full.build_column_index(0);
        for author in ["Ann", "Ben", "Eve"] {
            let author = Value::text(author);
            assert_eq!(by_author.keys_for(&author), rebuilt.keys_for(&author));
        }
    }
}

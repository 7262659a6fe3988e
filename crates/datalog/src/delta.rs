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
    evaluate_compiled, head_cells_bound_by, value_key, CompiledRuleSet, EdbView, Evaluator,
    IdSource, ReservingIds,
};
use crate::skolem::{self, PlaceholderPatch};
use crate::Result;
use inverda_storage::{ColumnIndex, IndexCache, Key, Relation, RelationDelta, Row, Value};
use parking_lot::Mutex;
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
    cache: Mutex<BTreeMap<String, Arc<Relation>>>,
    indexes: IndexCache,
}

impl<'a> PatchedEdb<'a> {
    /// Overlay `patches` on `base`.
    pub fn new(base: &'a dyn EdbView, patches: &'a DeltaMap) -> Self {
        PatchedEdb {
            base,
            patches,
            cache: Mutex::new(BTreeMap::new()),
            indexes: IndexCache::new(),
        }
    }
}

impl EdbView for PatchedEdb<'_> {
    fn full(&self, relation: &str) -> Result<Arc<Relation>> {
        if let Some(cached) = self.cache.lock().get(relation) {
            return Ok(Arc::clone(cached));
        }
        let base = self.base.full(relation)?;
        let out = match self.patches.get(relation) {
            None => base,
            Some(delta) if delta.is_empty() => base,
            Some(delta) => {
                let mut rel = (*base).clone();
                delta.apply_to(&mut rel)?;
                Arc::new(rel)
            }
        };
        self.cache
            .lock()
            .insert(relation.to_string(), Arc::clone(&out));
        Ok(out)
    }

    fn prepare_parallel(&self, relations: &[&str]) -> Result<bool> {
        // The base must be shareable first; patching itself is pure, but
        // pre-patch every requested relation sequentially so workers only
        // hit the cache.
        if !self.base.prepare_parallel(relations)? {
            return Ok(false);
        }
        for rel in relations {
            if self.full(rel).is_err() {
                // Let the sequential path produce the canonical outcome.
                return Ok(false);
            }
        }
        Ok(true)
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

    /// The base view's (cached) index under an overlay of the patched rows'
    /// changes — O(delta), where materializing the patched relation and
    /// indexing it again would be O(relation) per statement.
    fn index(&self, relation: &str, column: usize) -> Result<Arc<ColumnIndex>> {
        let delta = match self.patches.get(relation) {
            Some(delta) if !delta.is_empty() => delta,
            _ => return self.base.index(relation, column),
        };
        self.indexes.get_or_build(relation, column, || {
            let mut index = ColumnIndex::overlay(self.base.index(relation, column)?);
            for (key, old) in &delta.deletes {
                index.apply_row_change(column, *key, Some(old), None);
            }
            for (key, new) in &delta.inserts {
                index.apply_row_change(column, *key, None, Some(new));
            }
            Ok(index)
        })
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
    let mut new_ev = Evaluator::new(&patched, ids);
    let mut new_rows: Vec<Vec<Option<Row>>> = Vec::with_capacity(candidates.len());
    for (head, keys) in &candidates {
        let rows = keys
            .iter()
            .map(|key| new_ev.head_row_for_key(crs, head, *key))
            .collect::<Result<_>>()?;
        new_rows.push(rows);
    }
    let mut old_ev = Evaluator::new(base, ids);
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
///    payload that vanished since).
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
    let survives = Evaluator::peeking(new_state, ids);
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
            for (key, row) in stored.by_column(head, col, value)? {
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
fn probe_rules(
    crs: &CompiledRuleSet,
    ev: &Evaluator<'_>,
    input_delta: &DeltaMap,
    state: ProbeState,
    candidates: &mut BTreeMap<String, BTreeSet<Key>>,
) -> Result<()> {
    for rule_idx in 0..crs.rules.len() {
        for (lit_idx, atom, positive) in crs.body_atoms(rule_idx) {
            let Some(delta) = input_delta.get(&atom.relation) else {
                continue;
            };
            // Which changed tuples to probe in this state:
            // old state: deletions of positive literals (they supported old
            //   derivations) and insertions at negative literals (they kill
            //   old derivations);
            // new state: insertions at positive literals and deletions at
            //   negative literals.
            let tuples = delta.side_at(positive, state == ProbeState::New);
            let head = &crs.rules[rule_idx].head.relation;
            let keys = candidates.entry(head.clone()).or_default();
            for (key, row) in tuples {
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
    use inverda_storage::{Expr, Value};

    fn ids() -> Mutex<SkolemRegistry> {
        Mutex::new(SkolemRegistry::new())
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

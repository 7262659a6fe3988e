//! Lazy versioned EDB: resolves any table version's state by expanding SMO
//! mappings toward the physical storage.
//!
//! This is the engine-side equivalent of the generated *views* (Section 6):
//! each virtual table version is defined by the mapping rules of exactly one
//! adjacent SMO instance — γ_src of a materialized outgoing SMO (Case 2,
//! forwards) or γ_tgt of the virtualized incoming SMO (Case 3, backwards) —
//! and those rules reference relations one step closer to the data, so
//! resolution recurses along the genealogy and terminates at physical
//! tables. Key lookups are pushed through the mapping rules instead of
//! materializing whole relations, like a DBMS optimizer pushing a key
//! predicate into a view.
//!
//! Mappings are evaluated in their **compiled** form, served by the
//! database-wide [`CompiledStore`]. So is what the rule structure alone
//! says about a relation's resolution closure: one `Resolution` record —
//! static footprint, physical or not, replayable, mint-free, and the
//! restructuring SMOs on the way — walked once per catalog state and read
//! by every gate below (keep-or-evict, catch-up, footprint stamping, and
//! `MATERIALIZE`'s slice gate and carry). Resolved relations and per-key
//! rows are cached for the lifetime of the view (one statement / one
//! propagation step); a relation's join indexes live in the relation itself
//! ([`Relation::index`]) — and, when the view is bound to the
//! database's [`SnapshotStore`], resolved snapshots outlive the statement:
//! a warm read reuses the stored `Arc<Relation>` (and its indexes) as long
//! as every physical table in the relation's static resolution footprint
//! still shows the storage epoch stamped at resolution time. Cold
//! resolutions stamp their footprint *before* evaluating, so a snapshot
//! raced by a concurrent write can never be served (its stamp is already
//! behind the table's epoch).
//!
//! Between warm and cold sits **read-time catch-up**
//! (`VersionedEdb::catch_up`): a stale snapshot — left behind by a write
//! through a sibling version — is brought up to the state the statement
//! reads by replaying the physical tables' logged changes through its
//! defining rule set, **hop by hop**: a body relation that is itself a
//! stale snapshot is caught up first, and the head deltas it applied are
//! this hop's input. Where its closure can mint ids this happens only at
//! the one point where a cold resolution would have evaluated the relation
//! whole ([`EdbView::full`]); key lookups then push their key down exactly
//! as over a relation nobody ever resolved. A mint-free closure has nothing
//! to mint early, so it is caught up at its first touch, point lookups
//! included.

use crate::compiled::{CatalogIndex, CompiledStore, Direction, FusedChain};
use crate::snapshot::{SnapshotStore, StaleHeads, StoredHeads};
use crate::Result;
use inverda_catalog::{Genealogy, MaterializationSchema, SmoId, StorageCase, TableVersionId};
use inverda_datalog::delta::{propagate_vs_stored, Delta, DeltaMap};
use inverda_datalog::eval::{evaluate_compiled, EdbView, Evaluator, IdSource};
use inverda_datalog::simplify::{apply_empty, Derivation};
use inverda_datalog::{fusion, CompiledRuleSet, DatalogError, Literal, Rule, RuleSet};
use inverda_storage::{Key, Relation, Row, Storage};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Physical table → storage epoch: a snapshot's footprint stamps.
type Stamps = BTreeMap<String, u64>;

/// What one [`VersionedEdb::catch_up`] did to a rule set's heads.
struct CaughtUp {
    /// The stamps the heads were stale at,
    from: Stamps,
    /// the stamps they were brought up to,
    to: Stamps,
    /// and the head deltas applied in between.
    deltas: DeltaMap,
}

/// Read view over the whole versioned database under one materialization
/// schema. Caches resolved relations and key lookups for the lifetime of the
/// view (one statement / one propagation step); bound to a
/// [`SnapshotStore`], it additionally reuses and replenishes cross-statement
/// snapshots.
pub struct VersionedEdb<'a> {
    genealogy: &'a Genealogy,
    materialization: &'a MaterializationSchema,
    storage: &'a Storage,
    ids: &'a dyn IdSource,
    compiled: &'a CompiledStore,
    /// Cross-statement snapshot store, when reuse is enabled.
    snapshots: Option<&'a SnapshotStore>,
    /// Name-keyed genealogy lookups, shared across statements.
    catalog: Arc<CatalogIndex>,
    cache: RefCell<BTreeMap<String, Arc<Relation>>>,
    /// Physical table → epoch of the snapshot this statement reads (first
    /// access wins, so footprint stamps agree with the data actually read).
    seen_epochs: RefCell<HashMap<String, u64>>,
    /// Two-level `rel → key → row` cache: lookups are by `&str`, so the hot
    /// path allocates nothing.
    key_cache: RefCell<HashMap<String, HashMap<Key, Option<Row>>>>,
}

impl<'a> VersionedEdb<'a> {
    /// Build a view for the given catalog state.
    pub fn new(
        genealogy: &'a Genealogy,
        materialization: &'a MaterializationSchema,
        storage: &'a Storage,
        ids: &'a dyn IdSource,
        compiled: &'a CompiledStore,
    ) -> Self {
        VersionedEdb {
            genealogy,
            materialization,
            storage,
            ids,
            compiled,
            snapshots: None,
            catalog: compiled.catalog_index(genealogy),
            cache: RefCell::new(BTreeMap::new()),
            seen_epochs: RefCell::new(HashMap::new()),
            key_cache: RefCell::new(HashMap::new()),
        }
    }

    /// Bind the view to a cross-statement snapshot store: warm reads are
    /// served from (and cold resolutions recorded into) the store.
    pub fn with_store(mut self, store: &'a SnapshotStore) -> Self {
        self.snapshots = Some(store);
        self
    }

    /// Column-name map for derived heads (shared with the delta engine).
    pub fn head_columns(&self) -> &BTreeMap<String, Vec<String>> {
        &self.catalog.head_columns
    }

    /// The mapping that defines a virtual table version, together with the
    /// head name to extract: γ_src of the materialized outgoing SMO
    /// (forwards) or γ_tgt of the virtualized incoming SMO (backwards).
    fn defining_rules(&self, tv: TableVersionId) -> Option<(SmoId, Direction, &'a RuleSet)> {
        match self.materialization.storage_of(self.genealogy, tv) {
            StorageCase::Local => None,
            StorageCase::Forward(m) => {
                Some((m, Direction::ToSrc, &self.genealogy.smo(m).derived.to_src))
            }
            StorageCase::Backward(m) => {
                Some((m, Direction::ToTgt, &self.genealogy.smo(m).derived.to_tgt))
            }
        }
    }

    /// The mapping direction and rule set that derive an aux table's side:
    /// γ_tgt for target-side aux, γ_src for source-side.
    fn aux_rules(&self, smo: SmoId, tgt_side: bool) -> (Direction, &'a RuleSet) {
        let inst = self.genealogy.smo(smo);
        if tgt_side {
            (Direction::ToTgt, &inst.derived.to_tgt)
        } else {
            (Direction::ToSrc, &inst.derived.to_src)
        }
    }

    /// The SMO and rule set whose evaluation materializes `relation` (a
    /// virtual table version or a virtual aux table), if any.
    fn resolving_mapping(&self, relation: &str) -> Option<(SmoId, &'a RuleSet)> {
        if let Some(tv) = self.catalog.rel_index.get(relation) {
            return self.defining_rules(*tv).map(|(smo, _, rules)| (smo, rules));
        }
        if let Some((smo, tgt_side)) = self.catalog.aux_index.get(relation).copied() {
            return Some((smo, self.aux_rules(smo, tgt_side).1));
        }
        None
    }

    /// `relation`'s [`Resolution`]: served from the [`CompiledStore`], or
    /// walked and cached there. A walk that meets a rule cycle or a relation
    /// nothing defines caches nothing (see [`Walk::unstable`]).
    pub(crate) fn resolution(&self, relation: &str) -> Arc<Resolution> {
        if let Some(hit) = self.compiled.resolution(relation) {
            return hit;
        }
        let mut walk = Walk {
            edb: self,
            memo: HashMap::new(),
            unstable: false,
        };
        let done = walk.visit(relation);
        if !walk.unstable {
            self.compiled.cache_resolutions(
                walk.memo
                    .into_iter()
                    .filter_map(|(rel, done)| Some((rel, done?))),
            );
        }
        done
    }

    /// Footprint of `relation` stamped with the epochs this statement's
    /// snapshots correspond to: the first-read epoch where the table was
    /// already read, the current epoch otherwise. Stamps are taken *before*
    /// resolution, so a write racing the resolution leaves the stamp behind
    /// the restamped epoch and the entry is simply never served.
    fn stamped_footprint(&self, relation: &str) -> BTreeMap<String, u64> {
        let resolution = self.resolution(relation);
        let seen = self.seen_epochs.borrow();
        resolution
            .footprint
            .iter()
            .map(|table| {
                let epoch = seen
                    .get(table)
                    .copied()
                    .unwrap_or_else(|| self.storage.epoch_of(table));
                (table.clone(), epoch)
            })
            .collect()
    }

    /// Compiled form of an SMO's rule set, via the database-wide store.
    fn compiled_rules(
        &self,
        smo: SmoId,
        direction: Direction,
        rules: &RuleSet,
    ) -> inverda_datalog::Result<Arc<CompiledRuleSet>> {
        self.compiled.get_or_compile(smo, direction, rules)
    }

    /// Whether a resolution keeps (caches and stores) this head of the rule
    /// set it evaluated: a table version, or an aux table that is not
    /// physical. Shared `@new` heads describe the next physical state, not
    /// current state, and intermediate heads (Sn, Ro, …) are artifacts.
    fn keeps_head(&self, head: &str) -> bool {
        self.catalog.rel_index.contains_key(head)
            || (self.catalog.aux_index.contains_key(head) && !self.storage.has_table(head))
    }

    fn resolve_with(
        &self,
        relation: &str,
        crs: &CompiledRuleSet,
        stamp: Option<&BTreeMap<String, u64>>,
    ) -> Result<Arc<Relation>> {
        let out = evaluate_compiled(crs, self, self.ids, &self.catalog.head_columns)
            .map_err(crate::CoreError::from)?;
        let mut cache = self.cache.borrow_mut();
        let mut requested = None;
        for (head, rel) in out {
            // Cache sibling heads too — one evaluation serves every output
            // of the defining SMO: the side's table versions and its
            // (virtual) aux tables.
            if self.keeps_head(&head) {
                let shared = Arc::new(rel);
                if head == relation {
                    requested = Some(Arc::clone(&shared));
                }
                // Every sibling head is defined by this same rule set, so
                // the requested relation's stamped footprint covers them.
                if let (Some(store), Some(stamp)) = (self.snapshots, stamp) {
                    store.store_entry(&head, Arc::clone(&shared), stamp.clone());
                }
                cache.insert(head, shared);
            }
        }
        match requested {
            Some(rel) => Ok(rel),
            // An aux table the mapping derives no rules for is empty by
            // construction (e.g. the single-arm split's R⁻, which has no
            // second twin to lose).
            None if self.catalog.aux_index.contains_key(relation) => {
                let columns = self
                    .catalog
                    .head_columns
                    .get(relation)
                    .cloned()
                    .unwrap_or_default();
                let empty = Arc::new(Relation::new(
                    inverda_storage::TableSchema::new(relation.to_string(), columns)
                        .expect("valid aux schema"),
                ));
                if let (Some(store), Some(stamp)) = (self.snapshots, stamp) {
                    store.store_entry(relation, Arc::clone(&empty), stamp.clone());
                }
                cache.insert(relation.to_string(), Arc::clone(&empty));
                Ok(empty)
            }
            None => Err(crate::CoreError::from(DatalogError::UnboundRelation {
                relation: relation.to_string(),
            })),
        }
    }

    fn resolve_virtual(
        &self,
        relation: &str,
        tv: TableVersionId,
        stamp: Option<&BTreeMap<String, u64>>,
    ) -> Result<Arc<Relation>> {
        // One fused hop instead of k, when the chain fuses. The stamp was
        // computed from the *original* hop-by-hop rules, i.e. the union of
        // every constituent hop's footprint — exactly the read set of the
        // fused evaluation (including the aux tables assumed empty).
        if let Some(chain) = self.fused_chain(relation, tv) {
            return self.resolve_with(relation, &chain.crs, stamp);
        }
        let (smo, direction, rules) = self
            .defining_rules(tv)
            .expect("virtual table version must have defining rules");
        let crs = self
            .compiled_rules(smo, direction, rules)
            .map_err(crate::CoreError::from)?;
        self.resolve_with(relation, &crs, stamp)
    }

    /// Resolve a non-physical aux table: it is part of its side's derived
    /// state, so evaluate the mapping *toward* that side.
    fn resolve_virtual_aux(
        &self,
        relation: &str,
        smo: SmoId,
        tgt_side: bool,
        stamp: Option<&BTreeMap<String, u64>>,
    ) -> Result<Arc<Relation>> {
        let (direction, rules) = self.aux_rules(smo, tgt_side);
        let crs = self
            .compiled_rules(smo, direction, rules)
            .map_err(crate::CoreError::from)?;
        self.resolve_with(relation, &crs, stamp)
    }

    /// The compiled defining rule set of a virtual relation (table version
    /// or aux table), if it has one.
    fn defining_compiled(
        &self,
        relation: &str,
    ) -> Option<inverda_datalog::Result<Arc<CompiledRuleSet>>> {
        if let Some(tv) = self.catalog.rel_index.get(relation).copied() {
            let (smo, direction, rules) = self.defining_rules(tv)?;
            return Some(self.compiled_rules(smo, direction, rules));
        }
        if let Some((smo, tgt_side)) = self.catalog.aux_index.get(relation).copied() {
            let (direction, rules) = self.aux_rules(smo, tgt_side);
            return Some(self.compiled_rules(smo, direction, rules));
        }
        None
    }

    /// The relation's state **without forcing a cold resolution**: served
    /// from the statement cache, physical storage, or a valid snapshot-store
    /// entry. `None` means only a cold evaluation could answer — the query
    /// planner then resolves the relation through [`EdbView::full`].
    pub fn peek_resolved(&self, relation: &str) -> inverda_datalog::Result<Option<Arc<Relation>>> {
        if let Some(hit) = self.cache.borrow().get(relation) {
            return Ok(Some(Arc::clone(hit)));
        }
        if self.storage.has_table(relation) {
            return self.physical_full(relation).map(Some);
        }
        Ok(self.probe_store(relation))
    }

    /// The read paths' one probe of the snapshot store. A valid entry is
    /// served, and pinned into the statement cache. A stale one stays in
    /// the store iff [`catch_up`](VersionedEdb::catch_up) may still bring it
    /// up to date — its [`Resolution`] is `replayable` and the change log
    /// still leads on from every stamp of its physical footprint — and is
    /// dropped otherwise, before the cold resolution that replaces it
    /// allocates its own. A kept line whose closure mints nothing is caught
    /// up right here, at its first touch, point lookups included: with no id
    /// to mint ahead of time, the catch-up is invisible but for its speed.
    /// One that can mint waits for [`full`](EdbView::full) — and so does
    /// every line while epoch-pinned readers are outstanding, when the store
    /// keeps it without asking.
    fn probe_store(&self, relation: &str) -> Option<Arc<Relation>> {
        let store = self.snapshots?;
        let mut kept = None;
        let hit = store.get(relation, self.storage, |stamps| {
            let resolution = self.resolution(relation);
            let keep = resolution.replayable
                && stamps
                    .iter()
                    .all(|(table, epoch)| self.storage.log_reaches(table, *epoch));
            kept = keep.then_some(resolution);
            keep
        });
        if let Some(hit) = hit {
            self.cache
                .borrow_mut()
                .insert(relation.to_string(), Arc::clone(&hit));
            return Some(hit);
        }
        if kept.is_some_and(|resolution| resolution.mint_free) {
            return self.caught_up(relation);
        }
        None
    }

    /// `relation` [caught up](VersionedEdb::catch_up) and pinned into the
    /// statement cache, or `None`.
    fn caught_up(&self, relation: &str) -> Option<Arc<Relation>> {
        self.catch_up(relation)?;
        self.cache.borrow().get(relation).map(Arc::clone)
    }

    /// **Read-time catch-up**: bring the stale snapshot of `relation` — and
    /// those of the sibling heads its defining rule set derives, where they
    /// sit under the same stamps — up to the state this statement reads,
    /// from the physical tables' change logs, instead of resolving it cold.
    /// `Some` means the statement cache now holds every head patched;
    /// `None` means this hop is untouched and the caller does what a
    /// database without a store does — which then raises the canonical
    /// error or mints canonically. (An input hop may have been caught up on
    /// its own before the failure: that is right by itself.)
    ///
    /// The unfused defining rule set, non-staged, is replayed by
    /// [`propagate_vs_stored`] — the one catch-up propagation — over one
    /// input delta per body relation. A physical table's is composed from
    /// its change log, from its stamp to the epoch this statement reads it
    /// at. A virtual one's is what **its own catch-up** applied: the
    /// recursion runs hop by hop, outward from the data, and each hop's head
    /// deltas are the next one's input. That delta is only this hop's input
    /// delta if it starts where this hop's snapshot was derived — **stamp
    /// alignment**: the input's `from` stamps are ours, restricted to its
    /// footprint. Snapshots resolved and caught up together always align.
    /// An input brought up to date without this hop no longer does — a
    /// write patched it on its own path (a write through `TasKy2.Task`
    /// patches the DECOMPOSE's `Author` head, not the RENAME above it), or
    /// its first touch caught it up where this hop's catch-up gave up — and
    /// its delta would miss what changed before. That is not repaired:
    /// `None`.
    ///
    /// Mint order: a closure that can mint is caught up from
    /// [`full`](EdbView::full) only, where a database without a store
    /// evaluates the rule set over the whole new state — resolving its
    /// inputs first, each committing its own mints — and that evaluation is
    /// what each hop's [`propagate_vs_stored`] mint-order argument is
    /// stated against. A mint-free one is also caught up at its first touch
    /// ([`probe_store`](VersionedEdb::probe_store)). DESIGN.md "Read-time
    /// catch-up".
    fn catch_up(&self, relation: &str) -> Option<CaughtUp> {
        let store = self.snapshots?;
        let crs = self.defining_compiled(relation)?.ok()?;
        if crs.staged() {
            return None;
        }
        let heads = crs.head_names().filter(|head| self.keeps_head(head));
        let stale = store.stale_heads(relation, heads, self.storage)?;
        let inputs = crs.body_relations();
        let mut input = DeltaMap::new();
        let mut to = Stamps::new();
        for &table in &inputs {
            let delta = if self.storage.has_table(table) {
                // What happened between the epoch the snapshots were
                // derived at and the epoch this statement reads it at.
                let stamp = *stale.stamps.get(table)?;
                self.full(table).ok()?;
                let epoch = self.seen_epochs.borrow().get(table).copied()?;
                to.insert(table.to_string(), epoch);
                Delta::from(self.storage.changes_between(table, stamp, epoch)?)
            } else {
                // Only a stale input has a delta to hand on, and
                // `stale_heads` refuses a valid one. One this statement
                // already holds was brought up to date without us, even if
                // a concurrent write has made its line stale again since.
                if self.cache.borrow().contains_key(table) {
                    return None;
                }
                // A database without a store resolves a sole input whole
                // before this set mints anything: it is every rule's scan.
                // Next to other inputs it may only be probed — by key,
                // minting per key — so an input that can mint is caught up
                // here only alone.
                let resolution = self.resolution(table);
                if inputs.len() > 1 && !(resolution.replayable && resolution.mint_free) {
                    return None;
                }
                let mut caught = self.catch_up(table)?;
                let aligned = caught
                    .from
                    .iter()
                    .all(|(t, epoch)| stale.stamps.get(t) == Some(epoch));
                if !aligned {
                    return None;
                }
                to.append(&mut caught.to);
                caught.deltas.remove(table).unwrap_or_default()
            };
            if !delta.is_empty() {
                input.insert(table.to_string(), delta);
            }
        }
        // The inputs' footprints make up ours (the install restamps every
        // table of it from `to`).
        if !to.keys().eq(stale.stamps.keys()) {
            return None;
        }
        let StaleHeads {
            stamps: from,
            rels,
            seqs,
        } = stale;
        let stored = StoredHeads { rels };
        if stored.outnumbered_by(&input) {
            return None;
        }
        let deltas = propagate_vs_stored(&crs, self, &input, self.ids, &stored).ok()?;
        // Let go of the snapshots: unshared, they are patched in place.
        drop(stored);
        let patched = store.catch_up(&seqs, &deltas, &to)?;
        let mut cache = self.cache.borrow_mut();
        for (head, rel) in patched {
            cache.insert(head.to_string(), rel);
        }
        Some(CaughtUp { from, to, deltas })
    }

    /// Serve a physical table: O(1) shared snapshot, with the epoch recorded
    /// for later footprint stamping.
    fn physical_full(&self, relation: &str) -> inverda_datalog::Result<Arc<Relation>> {
        let (shared, epoch) = self
            .storage
            .snapshot_with_epoch(relation)
            .map_err(DatalogError::Storage)?;
        self.seen_epochs
            .borrow_mut()
            .entry(relation.to_string())
            .or_insert(epoch);
        self.cache
            .borrow_mut()
            .insert(relation.to_string(), Arc::clone(&shared));
        Ok(shared)
    }

    /// Whether `tv`'s defining hop may participate in a fused run: its SMO
    /// is a positional map and its rule set is skolem-free and
    /// non-staged. Returns the mapping restricted to the rules deriving
    /// `relation` (sound for non-staged sets, whose heads are independent),
    /// borrowed from the genealogy.
    fn fusable_hop(&self, relation: &str, tv: TableVersionId) -> Option<Vec<&'a Rule>> {
        let (smo, _, rules) = self.defining_rules(tv)?;
        if !self.genealogy.smo(smo).derived.is_positional_map() {
            return None;
        }
        if !fusion::hop_fusable(rules) {
            return None;
        }
        let restricted = rules.rules_for(relation);
        (!restricted.is_empty()).then_some(restricted)
    }

    /// The first body relation of `rules` that is a virtual table version
    /// and not one of `barriers`: the next intermediate a fused run would
    /// unfold.
    fn next_intermediate<'r>(
        &self,
        rules: impl IntoIterator<Item = &'r Rule>,
        barriers: &BTreeSet<String>,
    ) -> Option<(String, TableVersionId)> {
        rules
            .into_iter()
            .flat_map(|r| r.body.iter())
            .find_map(|lit| match lit {
                Literal::Pos(a) | Literal::Neg(a) => {
                    let rel = a.relation.as_str();
                    if self.storage.has_table(rel) || barriers.contains(rel) {
                        return None;
                    }
                    self.catalog
                        .rel_index
                        .get(rel)
                        .copied()
                        .map(|ctv| (rel.to_string(), ctv))
                }
                _ => None,
            })
    }

    /// Lemma-2-simplify one hop's rules against its currently-empty
    /// physical aux tables, **pinning** each one's (empty) snapshot into the
    /// statement caches and recording it in `assumed`. Pinning makes the
    /// assumption part of this statement's consistent read set: the aux
    /// table is in the chain's resolution footprint, so a later write to it
    /// bumps its epoch past the stamp and invalidates any snapshot resolved
    /// through the fused chain — and every cache hit revalidates emptiness
    /// before evaluating.
    fn simplify_empty_aux(&self, rules: RuleSet, assumed: &mut BTreeSet<String>) -> RuleSet {
        let mut empty = BTreeSet::new();
        for rule in &rules.rules {
            for lit in &rule.body {
                if let Literal::Pos(a) | Literal::Neg(a) = lit {
                    let rel = a.relation.as_str();
                    if empty.contains(rel)
                        || !self.catalog.aux_index.contains_key(rel)
                        || !self.storage.has_table(rel)
                    {
                        continue;
                    }
                    if let Ok(snap) = self.physical_full(rel) {
                        if snap.is_empty() {
                            empty.insert(rel.to_string());
                        }
                    }
                }
            }
        }
        if empty.is_empty() {
            return rules;
        }
        let simplified = apply_empty(&rules, &empty, &mut Derivation::silent());
        assumed.extend(empty);
        simplified
    }

    /// The fused γ-chain resolving `relation` (a virtual table version):
    /// served from the [`CompiledStore`] after revalidating its
    /// aux-emptiness assumptions, built and cached on a miss. `None` when
    /// the view is bound to no snapshot store, the defining hop cannot be
    /// fused, or the hop reads [resolved state](VersionedEdb::is_resolved_state)
    /// — callers then take the ordinary hop-by-hop path. A view with no
    /// store is the reference configuration (a store-off database, and the
    /// store audit's cold re-resolution), so fused ≡ hop-by-hop is checked
    /// wherever warm ≡ cold is.
    fn fused_chain(&self, relation: &str, tv: TableVersionId) -> Option<Arc<FusedChain>> {
        // A view bound to no store resolves hop by hop.
        self.snapshots?;
        if let Some(hit) = self.compiled.fused_get(tv) {
            let valid = hit.assumed_empty.iter().all(|aux| {
                self.storage.has_table(aux)
                    && self
                        .physical_full(aux)
                        .map(|r| r.is_empty())
                        .unwrap_or(false)
            });
            if valid {
                return Some(hit);
            }
            self.compiled.fused_invalidate(tv);
        }
        self.build_fused_chain(relation, tv)
    }

    /// Whether the virtual table version `rel` is **resolved state**:
    /// already resolved for this statement, servable from a valid snapshot,
    /// or owning a fused chain of its own. Fusion exists to skip *cold*
    /// intermediates; composing a run through one of these would pay a
    /// k-hop unfold and compile to avoid state that is already there (and,
    /// for a snapshot, that the write path keeps patched).
    fn is_resolved_state(&self, rel: &str, tv: TableVersionId) -> bool {
        self.compiled.fused_get(tv).is_some()
            || self.cache.borrow().contains_key(rel)
            || self
                .snapshots
                .is_some_and(|store| store.peek_valid(rel, self.storage).is_some())
    }

    /// Compose the longest fusable run starting at `relation`'s defining
    /// hop into one rule set, compile it, and cache it. Body atoms over a
    /// non-fusable (barrier) or budget-exceeding hop are left in place —
    /// evaluation resolves them recursively, so a chain interrupted by a
    /// SPLIT simply fuses per segment.
    ///
    /// **A fused run ends where resolved state begins**: an intermediate
    /// that [is resolved state](VersionedEdb::is_resolved_state) is a
    /// barrier too, and when it is the relation the defining hop itself
    /// reads there is nothing to fuse — `None`, and the hop is evaluated
    /// from its defining rules over that relation. So a version created on
    /// top of a warm one is a one-hop read, and a statement walking a chain
    /// outward from the data (`MATERIALIZE`) composes nothing it has
    /// already resolved. Fused ≡ hop-by-hop, so where a run ends is free to
    /// depend on what happens to be cached.
    ///
    /// That first case is decided before the hop's rules are cloned and
    /// Lemma-2-simplified against empty aux tables, on the rules as the
    /// genealogy holds them. Simplifying first cannot change the answer:
    /// Lemma 2 drops literals over empty relations, or whole rules, but
    /// never the data atom of a rule it keeps, and every rule of a
    /// column-level hop reads the same input version. So the first virtual
    /// relation the simplified rules read is the one the unsimplified ones
    /// read, or no rule is left — and both orders return `None`.
    fn build_fused_chain(&self, relation: &str, tv: TableVersionId) -> Option<Arc<FusedChain>> {
        let hop = self.fusable_hop(relation, tv)?;
        let mut barriers: BTreeSet<String> = BTreeSet::new();
        if let Some((input, itv)) = self.next_intermediate(hop.iter().copied(), &barriers) {
            if self.is_resolved_state(&input, itv) {
                return None;
            }
        }
        let budget = fusion::FusionBudget::default();
        let mut assumed = BTreeSet::new();
        let mut fused = self.simplify_empty_aux(owned(hop), &mut assumed);
        if fused.rules_for(relation).is_empty() {
            return None;
        }
        let mut hops = 1usize;
        let mut target = tv;
        loop {
            // Next intermediate: a body relation that is itself a virtual
            // table version and not yet declared a barrier.
            let next = self.next_intermediate(&fused.rules, &barriers);
            let Some((crel, ctv)) = next else { break };
            if self.is_resolved_state(&crel, ctv) {
                if hops == 1 {
                    return None;
                }
                barriers.insert(crel);
                continue;
            }
            let Some(defs) = self.fusable_hop(&crel, ctv) else {
                barriers.insert(crel);
                continue;
            };
            let defs = self.simplify_empty_aux(owned(defs), &mut assumed);
            let next_fused = if defs.is_empty() {
                // Every defining rule vanished under the emptiness
                // assumptions: the intermediate version is empty, Lemma 2
                // applies to its occurrences directly.
                let e: BTreeSet<String> = [crel.clone()].into_iter().collect();
                apply_empty(&fused, &e, &mut Derivation::silent())
            } else {
                match fusion::inline_hop(&fused, &defs, &budget) {
                    Some(f) => f,
                    None => {
                        barriers.insert(crel);
                        continue;
                    }
                }
            };
            if next_fused.rules_for(relation).is_empty() {
                // The fused head would be empty — correct, but the resolve
                // path expects at least one rule per requested head; leave
                // this case to hop-by-hop resolution.
                return None;
            }
            fused = next_fused;
            hops += 1;
            target = ctv;
        }
        let crs = Arc::new(CompiledRuleSet::compile(&fused).ok()?);
        debug_assert!(!crs.staged() && !crs.mints_ids());
        Some(self.compiled.fused_insert(FusedChain {
            crs,
            source: tv,
            target,
            hops,
            assumed_empty: assumed,
        }))
    }

    /// The fused chain's compiled rule set for `relation`, if one applies —
    /// the key-seeded path ([`EdbView::by_key`]) evaluates it in place of
    /// the single defining mapping, pushing the key through the whole run
    /// at once.
    fn fused_for(&self, relation: &str) -> Option<Arc<CompiledRuleSet>> {
        let tv = self.catalog.rel_index.get(relation).copied()?;
        self.fused_chain(relation, tv).map(|c| Arc::clone(&c.crs))
    }
}

/// A rule set of clones of `rules`.
fn owned(rules: Vec<&Rule>) -> RuleSet {
    RuleSet::new(rules.into_iter().cloned().collect())
}

/// What the rule structure alone — no data, no caches — says about one
/// relation's resolution closure: its defining rule set, expanded
/// recursively through virtual relations down to storage. Which rule set
/// defines a relation is decided by the genealogy and the materialization
/// schema, so the record changes only when they do: it is walked once per
/// catalog state ([`VersionedEdb::resolution`]), cached in the
/// [`CompiledStore`], and every gate that asks about a closure reads it. A
/// rule cycle or a relation nothing defines gives the default record, which
/// is neither physical, replayable nor mint-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Resolution {
    /// The physical tables the resolution can possibly read — its static
    /// footprint. Computed over the rule *structure*, so it over-approximates
    /// any concrete evaluation's read set and is stable while the catalog
    /// is: what the snapshot store stamps for sound epoch invalidation.
    pub(crate) footprint: Arc<BTreeSet<String>>,
    /// The relation is a physical table (its own footprint).
    pub(crate) physical: bool,
    /// Every rule set of the unfused closure exists and is non-staged: a
    /// stale snapshot may be caught up ([`VersionedEdb::catch_up`]).
    pub(crate) replayable: bool,
    /// Every rule set of the closure exists and binds no skolem: no
    /// resolution of the relation — cold, fused or caught up — can mint.
    pub(crate) mint_free: bool,
    /// The SMOs the closure resolves through that restructure rows across
    /// relations — every kind but the
    /// [positional maps](inverda_bidel::semantics::DerivedSmo::is_positional_map).
    pub(crate) restructuring: Arc<BTreeSet<SmoId>>,
}

/// One memoized walk over resolution closures: every field of a
/// [`Resolution`] comes out of a single visit per relation, and a hop that
/// adds nothing of its own shares its input's sets — the closures of a
/// 170-version chain are each other's suffixes.
struct Walk<'e, 'a> {
    edb: &'e VersionedEdb<'a>,
    /// What this walk computed; `None` marks a visit in progress.
    memo: HashMap<String, Option<Arc<Resolution>>>,
    /// The walk met a rule cycle or a relation nothing defines. What it
    /// computed may then depend on where it started, so none of it is
    /// cached: a cached record is always what a fresh walk computes.
    unstable: bool,
}

impl<'e, 'a> Walk<'e, 'a> {
    fn visit(&mut self, relation: &str) -> Arc<Resolution> {
        match self.memo.get(relation) {
            Some(Some(done)) => return Arc::clone(done),
            // A rule cycle: the relation contributes nothing more to the
            // visit that re-entered it (its tables are collected by the
            // outer visit), and nothing reached through it is mint-free.
            Some(None) => {
                self.unstable = true;
                return Arc::default();
            }
            None => {}
        }
        if let Some(hit) = self.edb.compiled.resolution(relation) {
            return hit;
        }
        let done = if self.edb.storage.has_table(relation) {
            Resolution {
                footprint: Arc::new(BTreeSet::from([relation.to_string()])),
                physical: true,
                replayable: true,
                mint_free: true,
                ..Resolution::default()
            }
        } else if let Some((smo, rules)) = self.edb.resolving_mapping(relation) {
            self.memo.insert(relation.to_string(), None);
            self.through(smo, rules)
        } else {
            self.unstable = true;
            Resolution::default()
        };
        let done = Arc::new(done);
        self.memo
            .insert(relation.to_string(), Some(Arc::clone(&done)));
        done
    }

    /// The record of a virtual relation whose defining rule set is `rules`,
    /// of `smo`.
    fn through(&mut self, smo: SmoId, rules: &RuleSet) -> Resolution {
        // Heads of the same set (the `old`/`new` staging intermediates) are
        // derived in place — their inputs are this set's other body atoms.
        let heads: BTreeSet<&str> = rules
            .rules
            .iter()
            .map(|r| r.head.relation.as_str())
            .collect();
        let (mut staged, mut mints) = (false, false);
        let mut inputs = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for lit in rules.rules.iter().flat_map(|rule| &rule.body) {
            match lit {
                Literal::Skolem { .. } => mints = true,
                Literal::Pos(atom) | Literal::Neg(atom) => {
                    let rel = atom.relation.as_str();
                    if heads.contains(rel) {
                        staged = true;
                    } else if seen.insert(rel) {
                        inputs.push(self.visit(rel));
                    }
                }
                _ => {}
            }
        }
        let positional = self.edb.genealogy.smo(smo).derived.is_positional_map();
        Resolution {
            footprint: union(inputs.iter().map(|i| &i.footprint), None),
            physical: false,
            replayable: !staged && inputs.iter().all(|i| i.replayable),
            mint_free: !mints && inputs.iter().all(|i| i.mint_free),
            restructuring: union(
                inputs.iter().map(|i| &i.restructuring),
                (!positional).then_some(smo),
            ),
        }
    }
}

/// The union of `sets` and `own`. It shares the largest set when that one
/// covers the rest, as it does for a hop that adds nothing of its own.
fn union<'s, T: Ord + Clone + 's>(
    sets: impl Iterator<Item = &'s Arc<BTreeSet<T>>>,
    own: Option<T>,
) -> Arc<BTreeSet<T>> {
    let mut sets: Vec<_> = sets.collect();
    sets.sort_by_key(|set| std::cmp::Reverse(set.len()));
    let mut out = sets.first().map(|set| Arc::clone(set)).unwrap_or_default();
    for set in sets.iter().skip(1) {
        if !set.is_subset(&out) {
            Arc::make_mut(&mut out).extend(set.iter().cloned());
        }
    }
    if let Some(own) = own.filter(|own| !out.contains(own)) {
        Arc::make_mut(&mut out).insert(own);
    }
    out
}

impl EdbView for VersionedEdb<'_> {
    fn full(&self, relation: &str) -> inverda_datalog::Result<Arc<Relation>> {
        // Statement cache, physical tables, and warm snapshot-store entries
        // (byte-identical to what cold resolution would produce) — one
        // shared implementation with the query planner's probe.
        if let Some(hit) = self.peek_resolved(relation)? {
            return Ok(hit);
        }
        // A stale snapshot is patched, not replaced: here, where a cold
        // resolution would evaluate it whole, if its closure can mint. (A
        // mint-free one was tried at its first touch, just above; a second
        // try finds what the first one left.)
        if let Some(hit) = self.caught_up(relation) {
            return Ok(hit);
        }
        // Cold path: stamp the footprint, then resolve.
        let stamp = self.snapshots.map(|_| self.stamped_footprint(relation));
        let resolved = if let Some(tv) = self.catalog.rel_index.get(relation).copied() {
            self.resolve_virtual(relation, tv, stamp.as_ref())
        } else if let Some((smo, tgt_side)) = self.catalog.aux_index.get(relation).copied() {
            self.resolve_virtual_aux(relation, smo, tgt_side, stamp.as_ref())
        } else {
            return Err(DatalogError::UnboundRelation {
                relation: relation.to_string(),
            });
        };
        resolved.map_err(|e| match e {
            crate::CoreError::Datalog(d) => d,
            other => DatalogError::UnboundRelation {
                relation: format!("{relation} ({other})"),
            },
        })
    }

    fn by_key(&self, relation: &str, key: Key) -> inverda_datalog::Result<Option<Row>> {
        if let Some(hit) = self.cache.borrow().get(relation) {
            return Ok(hit.get(key).map(<[_]>::to_vec));
        }
        if let Some(hit) = self
            .key_cache
            .borrow()
            .get(relation)
            .and_then(|m| m.get(&key))
        {
            return Ok(hit.clone());
        }
        // Physical snapshots are O(1) now — take the full path so the epoch
        // is recorded and later lookups hit the statement cache.
        if self.storage.has_table(relation) {
            return Ok(self.physical_full(relation)?.get(key).map(<[_]>::to_vec));
        }
        // Warm path: serve the point lookup from a valid stored snapshot.
        if let Some(hit) = self.probe_store(relation) {
            return Ok(hit.get(key).map(<[_]>::to_vec));
        }
        let Some(tv) = self.catalog.rel_index.get(relation).copied() else {
            // Virtual aux tables resolve through their full state.
            if self.catalog.aux_index.contains_key(relation) {
                return Ok(self.full(relation)?.get(key).map(<[_]>::to_vec));
            }
            return Err(DatalogError::UnboundRelation {
                relation: relation.to_string(),
            });
        };
        let Some((smo, direction, rules)) = self.defining_rules(tv) else {
            return Err(DatalogError::UnboundRelation {
                relation: relation.to_string(),
            });
        };
        let crs = self.compiled_rules(smo, direction, rules)?;
        // Staged rule sets (the id-generating SMOs) consume their own
        // intermediate heads, which are not resolvable relations — fall back
        // to full resolution for them.
        if crs.staged() {
            return Ok(self.full(relation)?.get(key).map(<[_]>::to_vec));
        }
        // Push the key through the defining mapping — the whole fused run
        // of it, when the chain fuses (fused sets are never staged).
        let crs = self.fused_for(relation).unwrap_or(crs);
        let ev = Evaluator::new(self, self.ids);
        let row = ev.head_row_for_key(&crs, relation, key)?;
        self.key_cache
            .borrow_mut()
            .entry(relation.to_string())
            .or_default()
            .insert(key, row.clone());
        Ok(row)
    }

    fn contains(&self, relation: &str) -> bool {
        self.storage.has_table(relation) || self.catalog.rel_index.contains_key(relation)
    }
}

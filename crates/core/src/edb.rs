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
//! database-wide [`CompiledStore`]. Resolved relations, per-key rows, and
//! secondary join indexes are cached for the lifetime of the view (one
//! statement / one propagation step) — and, when the view is bound to the
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
//! whole ([`EdbView::full`]); key lookups and seeded probes then push their
//! binding down exactly as over a relation nobody ever resolved. A
//! mint-free closure has nothing to mint early, so it is caught up at its
//! first touch, point lookups included.

use crate::compiled::{CatalogIndex, CompiledStore, Direction, FusedChain};
use crate::snapshot::{SnapshotStore, StaleHeads, StoredHeads};
use crate::Result;
use inverda_catalog::{Genealogy, MaterializationSchema, SmoId, StorageCase, TableVersionId};
use inverda_datalog::delta::{propagate_vs_stored, Delta, DeltaMap};
use inverda_datalog::eval::{evaluate_compiled, EdbView, Evaluator, IdSource};
use inverda_datalog::simplify::{apply_empty, Derivation};
use inverda_datalog::{fusion, CompiledRuleSet, DatalogError, Literal, RuleSet};
use inverda_storage::{ColumnIndex, IndexCache, Key, Relation, Row, Storage, Value};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One relation's seeded-probe memo: `column → probe value → rows`. Two
/// levels so lookups probe with a **borrowed** value (no allocation on the
/// hit or miss path).
type ColumnRows = HashMap<usize, HashMap<Value, Vec<(Key, Row)>>>;

/// Physical table → storage epoch: a snapshot's footprint stamps.
type Stamps = BTreeMap<String, u64>;

/// What the rule structure says about catching a relation's stale snapshot
/// up (see [`VersionedEdb::replay`]).
#[derive(Clone, Copy, Default)]
struct Replay {
    /// Every rule set of the unfused resolution closure exists and is
    /// non-staged: a stale snapshot is worth keeping for a catch-up.
    keep: bool,
    /// None of them can mint an id either.
    mint_free: bool,
}

/// What one [`VersionedEdb::catch_up`] did to a rule set's heads.
struct CaughtUp {
    /// The stamps the heads were stale at,
    from: Stamps,
    /// the stamps they were brought up to,
    to: Stamps,
    /// and the head deltas applied in between.
    deltas: DeltaMap,
}

/// SMO kinds whose mappings may start or extend a fused γ-chain: the
/// column-level SMOs, whose rule sets are linear in a single data relation
/// of the adjacent version. SPLIT/MERGE, JOIN, and DECOMPOSE restructure
/// rows across relations (and the id-generating ones mint), so they
/// terminate a run and are resolved hop by hop.
const FUSABLE_KINDS: [&str; 4] = ["ADD COLUMN", "DROP COLUMN", "RENAME COLUMN", "RENAME TABLE"];

/// Read view over the whole versioned database under one materialization
/// schema. Caches resolved relations, key lookups, and join indexes for the
/// lifetime of the view (one statement / one propagation step); bound to a
/// [`SnapshotStore`], it additionally reuses and replenishes cross-statement
/// snapshots.
pub struct VersionedEdb<'a> {
    genealogy: &'a Genealogy,
    materialization: &'a MaterializationSchema,
    storage: &'a Storage,
    ids: &'a (dyn IdSource + Sync),
    compiled: &'a CompiledStore,
    /// Cross-statement snapshot store, when reuse is enabled.
    snapshots: Option<&'a SnapshotStore>,
    /// Name-keyed genealogy lookups, shared across statements.
    catalog: Arc<CatalogIndex>,
    /// Caches are mutex-guarded (not `RefCell`) so the view is `Sync` and
    /// one statement's view can be shared by parallel evaluation workers.
    cache: Mutex<BTreeMap<String, Arc<Relation>>>,
    /// Physical table → epoch of the snapshot this statement reads (first
    /// access wins, so footprint stamps agree with the data actually read).
    seen_epochs: Mutex<HashMap<String, u64>>,
    /// Two-level `rel → key → row` cache: lookups are by `&str`, so the hot
    /// path allocates nothing.
    key_cache: Mutex<HashMap<String, HashMap<Key, Option<Row>>>>,
    /// Per-relation memo of [`pushable_cold`](VersionedEdb::pushable_cold):
    /// the check walks the whole resolution closure, and a seeded probe
    /// re-asks it at every recursion level of an N-hop chain. Pushability
    /// only ever *improves* as this statement's caches warm (a mint-free
    /// closure stays mint-free), so a memoized verdict can be conservative
    /// but never wrong.
    push_cache: Mutex<HashMap<String, bool>>,
    /// Per-relation memo of [`replay`](VersionedEdb::replay): what the rule
    /// structure says about catching a stale snapshot up. Asked under the
    /// snapshot store's lock, so it is decided from the rules alone.
    replay_cache: Mutex<HashMap<String, Replay>>,
    /// `rel → column → probe value → rows` memo for seeded pushdown.
    /// Load-bearing, not just a nicety: the rules of one γ mapping (and
    /// every recursion level above) probe the same lower relation with the
    /// same binding, so without the memo an N-hop chain whose mappings have
    /// k rules fans out into k^N recursive probes.
    col_cache: Mutex<HashMap<String, ColumnRows>>,
    /// Secondary join indexes per `(rel, column)`, shared with every
    /// evaluator that probes through this view.
    index_cache: IndexCache,
}

impl<'a> VersionedEdb<'a> {
    /// Build a view for the given catalog state.
    pub fn new(
        genealogy: &'a Genealogy,
        materialization: &'a MaterializationSchema,
        storage: &'a Storage,
        ids: &'a (dyn IdSource + Sync),
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
            cache: Mutex::new(BTreeMap::new()),
            seen_epochs: Mutex::new(HashMap::new()),
            key_cache: Mutex::new(HashMap::new()),
            push_cache: Mutex::new(HashMap::new()),
            replay_cache: Mutex::new(HashMap::new()),
            col_cache: Mutex::new(HashMap::new()),
            index_cache: IndexCache::new(),
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

    /// The set of physical tables `relation`'s resolution can possibly read:
    /// the body relations of its defining rule set, expanded recursively
    /// through virtual relations down to storage. Computed over the rule
    /// *structure* (not the data), so it over-approximates any concrete
    /// evaluation's read set and is stable while the catalog is — exactly
    /// what the snapshot store needs for sound epoch invalidation.
    pub fn static_footprint(&self, relation: &str) -> BTreeSet<String> {
        // (The walk and its memo end with the statement: the set is ours.)
        let footprint = ClosureWalk::new(self, &BTreeSet::new())
            .closure(relation)
            .footprint;
        Arc::unwrap_or_clone(footprint)
    }

    /// Whether resolving `relation` right now could **evaluate id-minting
    /// rules cold**: true if the relation is neither physical, nor already
    /// resolved in this statement's cache, nor servable warm from the
    /// snapshot store, *and* some rule set in its resolution closure
    /// (defining rule sets expanded recursively through virtual relations,
    /// like [`static_footprint`](VersionedEdb::static_footprint)) binds a
    /// variable through a generator.
    ///
    /// Cold minting resolutions have side effects whose order matters — a
    /// width-1 evaluation triggers them lazily, in first-touch order — so
    /// the parallel preparation refuses to front-load them and falls back
    /// to the sequential path, which performs (and commits) the mints at
    /// their canonical position. Once committed, re-serving the relation
    /// warm or from cache is a pure read, so subsequent statements take the
    /// parallel path.
    fn resolution_may_mint_cold(&self, relation: &str, visited: &mut BTreeSet<String>) -> bool {
        if !visited.insert(relation.to_string()) {
            return false;
        }
        if self.storage.has_table(relation) || self.cache.lock().contains_key(relation) {
            return false;
        }
        if let Some(store) = self.snapshots {
            if store.peek_valid(relation, self.storage).is_some() {
                return false;
            }
        }
        let Some((_, rules)) = self.resolving_mapping(relation) else {
            return false;
        };
        let heads: BTreeSet<&str> = rules
            .rules
            .iter()
            .map(|r| r.head.relation.as_str())
            .collect();
        for rule in &rules.rules {
            for lit in &rule.body {
                match lit {
                    Literal::Skolem { .. } => return true,
                    Literal::Pos(atom) | Literal::Neg(atom) => {
                        if heads.contains(atom.relation.as_str()) {
                            continue;
                        }
                        if self.resolution_may_mint_cold(&atom.relation, visited) {
                            return true;
                        }
                    }
                    _ => {}
                }
            }
        }
        false
    }

    /// Footprint of `relation` stamped with the epochs this statement's
    /// snapshots correspond to: the first-read epoch where the table was
    /// already read, the current epoch otherwise. Stamps are taken *before*
    /// resolution, so a write racing the resolution leaves the stamp behind
    /// the restamped epoch and the entry is simply never served.
    fn stamped_footprint(&self, relation: &str) -> BTreeMap<String, u64> {
        let store = self.snapshots.expect("stamping requires a store");
        let footprint = store.footprint_of(relation, || self.static_footprint(relation));
        let seen = self.seen_epochs.lock();
        footprint
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
        let mut cache = self.cache.lock();
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
    /// planner then chooses between seeded pushdown and a full scan.
    pub fn peek_resolved(&self, relation: &str) -> inverda_datalog::Result<Option<Arc<Relation>>> {
        if let Some(hit) = self.cache.lock().get(relation) {
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
    /// up to date — no rule set of its unfused resolution closure is staged
    /// ([`replay`](VersionedEdb::replay)) and the change log still leads on
    /// from every stamp of its physical footprint — and is dropped
    /// otherwise, before the cold resolution that replaces it allocates its
    /// own. A kept line whose closure mints nothing is caught up right here,
    /// at its first touch, point lookups included: with no id to mint ahead
    /// of time, the catch-up is invisible but for its speed. One that can
    /// mint waits for [`full`](EdbView::full) — and so does every line while
    /// epoch-pinned readers are outstanding, when the store keeps it without
    /// asking.
    fn probe_store(&self, relation: &str) -> Option<Arc<Relation>> {
        let store = self.snapshots?;
        let mut kept = None;
        let hit = store.get(relation, self.storage, |stamps| {
            let replay = self.replay(relation);
            let keep = replay.keep
                && stamps
                    .iter()
                    .all(|(table, epoch)| self.storage.log_reaches(table, *epoch));
            kept = keep.then_some(replay);
            keep
        });
        if let Some(hit) = hit {
            self.cache
                .lock()
                .insert(relation.to_string(), Arc::clone(&hit));
            return Some(hit);
        }
        if kept.is_some_and(|replay| replay.mint_free) {
            return self.caught_up(relation);
        }
        None
    }

    /// What the rule structure alone says about catching a stale snapshot
    /// of `relation` up: whether every rule set of its unfused resolution
    /// closure exists and is non-staged, and whether none of them can mint.
    /// Decided without data, caches or the snapshot store — it is asked
    /// under the store's lock — and memoized per statement like
    /// [`pushable_cold`](VersionedEdb::pushable_cold). A rule cycle replays
    /// nothing.
    fn replay(&self, relation: &str) -> Replay {
        if let Some(&hit) = self.replay_cache.lock().get(relation) {
            return hit;
        }
        if self.storage.has_table(relation) {
            return Replay {
                keep: true,
                mint_free: true,
            };
        }
        // (Provisional while the closure is walked: a cycle reads it.)
        self.replay_cache
            .lock()
            .insert(relation.to_string(), Replay::default());
        let replay = match self.defining_compiled(relation) {
            Some(Ok(crs)) if !crs.staged() => crs.body_relations().into_iter().fold(
                Replay {
                    keep: true,
                    mint_free: !crs.mints_ids(),
                },
                |acc, input| {
                    let input = self.replay(input);
                    Replay {
                        keep: acc.keep && input.keep,
                        mint_free: acc.mint_free && input.mint_free,
                    }
                },
            ),
            _ => Replay::default(),
        };
        if let Some(memo) = self.replay_cache.lock().get_mut(relation) {
            *memo = replay;
        }
        replay
    }

    /// `relation` [caught up](VersionedEdb::catch_up) and pinned into the
    /// statement cache, or `None`.
    fn caught_up(&self, relation: &str) -> Option<Arc<Relation>> {
        self.catch_up(relation)?;
        self.cache.lock().get(relation).map(Arc::clone)
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
                let epoch = self.seen_epochs.lock().get(table).copied()?;
                to.insert(table.to_string(), epoch);
                Delta::from(self.storage.changes_between(table, stamp, epoch)?)
            } else {
                // Only a stale input has a delta to hand on, and
                // `stale_heads` refuses a valid one. One this statement
                // already holds was brought up to date without us, even if
                // a concurrent write has made its line stale again since.
                if self.cache.lock().contains_key(table) {
                    return None;
                }
                // A database without a store resolves a sole input whole
                // before this set mints anything: it is every rule's scan.
                // Next to other inputs it may only be probed — by key,
                // minting per key — so an input that can mint is caught up
                // here only alone.
                if inputs.len() > 1 && !self.replay(table).mint_free {
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
        let stored = StoredHeads { store, rels };
        if stored.outnumbered_by(&input) {
            return None;
        }
        let deltas = propagate_vs_stored(&crs, self, &input, self.ids, &stored).ok()?;
        // Let go of the snapshots: unshared, they are patched in place.
        drop(stored);
        let patched = store.catch_up(&seqs, &deltas, &to)?;
        let mut cache = self.cache.lock();
        for (head, rel) in patched {
            cache.insert(head.to_string(), rel);
        }
        Some(CaughtUp { from, to, deltas })
    }

    /// Whether a **cold** read of `relation` can be answered by column-seeded
    /// evaluation instead of materializing: defining rules exist, are not
    /// staged (staged sets consume their own intermediate heads, which are
    /// not resolvable relations), and nothing in the resolution closure
    /// could mint skolem ids cold (seeded evaluation explores only matching
    /// bindings, so letting it mint would assign ids in a different order
    /// than the canonical full resolution — see
    /// [`Evaluator::head_rows_by_column`]).
    pub fn pushable_cold(&self, relation: &str) -> bool {
        if let Some(&hit) = self.push_cache.lock().get(relation) {
            return hit;
        }
        let pushable = match self.defining_compiled(relation) {
            Some(Ok(crs)) => {
                !crs.staged() && !self.resolution_may_mint_cold(relation, &mut BTreeSet::new())
            }
            _ => false,
        };
        self.push_cache
            .lock()
            .insert(relation.to_string(), pushable);
        pushable
    }

    /// Serve a physical table: O(1) shared snapshot, with the epoch recorded
    /// for later footprint stamping.
    fn physical_full(&self, relation: &str) -> inverda_datalog::Result<Arc<Relation>> {
        let (shared, epoch) = self
            .storage
            .snapshot_with_epoch(relation)
            .map_err(DatalogError::Storage)?;
        self.seen_epochs
            .lock()
            .entry(relation.to_string())
            .or_insert(epoch);
        self.cache
            .lock()
            .insert(relation.to_string(), Arc::clone(&shared));
        Ok(shared)
    }

    /// Whether `tv`'s defining hop may participate in a fused run: its SMO
    /// is one of the column-level kinds and its rule set is skolem-free and
    /// non-staged. Returns the mapping restricted to the rules deriving
    /// `relation` (sound for non-staged sets, whose heads are independent).
    fn fusable_hop(&self, relation: &str, tv: TableVersionId) -> Option<RuleSet> {
        let (smo, _, rules) = self.defining_rules(tv)?;
        if !FUSABLE_KINDS.contains(&self.genealogy.smo(smo).derived.kind) {
            return None;
        }
        if !fusion::hop_fusable(rules) {
            return None;
        }
        let restricted: Vec<_> = rules.rules_for(relation).into_iter().cloned().collect();
        if restricted.is_empty() {
            return None;
        }
        Some(RuleSet::new(restricted))
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
    /// fusion is disabled, the defining hop cannot be fused, or the hop
    /// reads [resolved state](VersionedEdb::is_resolved_state) — callers
    /// then take the ordinary hop-by-hop path.
    fn fused_chain(&self, relation: &str, tv: TableVersionId) -> Option<Arc<FusedChain>> {
        if !fusion::enabled() {
            return None;
        }
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
            || self.cache.lock().contains_key(rel)
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
    fn build_fused_chain(&self, relation: &str, tv: TableVersionId) -> Option<Arc<FusedChain>> {
        let budget = fusion::FusionBudget::default();
        let mut assumed = BTreeSet::new();
        let mut fused = self.simplify_empty_aux(self.fusable_hop(relation, tv)?, &mut assumed);
        if fused.rules_for(relation).is_empty() {
            return None;
        }
        let mut hops = 1usize;
        let mut target = tv;
        let mut barriers: BTreeSet<String> = BTreeSet::new();
        loop {
            // Next intermediate: a body relation that is itself a virtual
            // table version and not yet declared a barrier.
            let next = fused
                .rules
                .iter()
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
                });
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
            let defs = self.simplify_empty_aux(defs, &mut assumed);
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
    /// the seeded-probe paths (`by_key` / `by_column`) evaluate it in place
    /// of the single defining mapping, pushing the binding through the
    /// whole run at once.
    fn fused_for(&self, relation: &str) -> Option<Arc<CompiledRuleSet>> {
        let tv = self.catalog.rel_index.get(relation).copied()?;
        self.fused_chain(relation, tv).map(|c| Arc::clone(&c.crs))
    }

    /// An already-materialized column index for `relation` — statement
    /// cache or snapshot store — **without building one**. The query
    /// planner's range path uses this to distinguish a free probe from one
    /// that would pay an O(n) index build.
    pub fn cached_index(&self, relation: &str, column: usize) -> Option<Arc<ColumnIndex>> {
        if let Some(hit) = self.index_cache.get(relation, column) {
            return Some(hit);
        }
        let store = self.snapshots?;
        let hit = if self.storage.has_table(relation) {
            let epoch = self.seen_epochs.lock().get(relation).copied()?;
            store.get_index_physical(relation, column, epoch)
        } else {
            let rel = self.cache.lock().get(relation).map(Arc::clone)?;
            store.get_index_virtual(relation, column, &rel)
        }?;
        self.index_cache.put(relation, column, Arc::clone(&hit));
        Some(hit)
    }
}

/// What the rule structure alone — no data, no caches — says about one
/// relation's resolution closure: its defining rule set, expanded
/// recursively through virtual relations down to storage.
#[derive(Clone)]
pub(crate) struct Closure {
    /// The physical tables the resolution can possibly read (the static
    /// footprint, see [`VersionedEdb::static_footprint`]).
    pub(crate) footprint: Arc<BTreeSet<String>>,
    /// The relation is a physical table (its own footprint).
    physical: bool,
    /// Physical, or virtual with defining rules such that no rule set in
    /// the closure can mint an id and every SMO of the walk's `flipped` set
    /// the closure resolves through is column-level ([`FUSABLE_KINDS`]).
    /// A rule cycle or a relation nothing defines is never exact.
    exact: bool,
}

impl Closure {
    /// Whether a snapshot of the relation taken before the `flipped` SMOs
    /// flipped is its resolution after (the argument is written on
    /// `Inverda::carry_snapshots`).
    pub(crate) fn carriable(&self) -> bool {
        self.exact && !self.physical
    }

    /// Whether no resolution of the relation can mint an id: it is
    /// physical, or its closure reaches storage through skolem-free rule
    /// sets alone. Asked of a walk over no flipped SMOs, where exactness
    /// means exactly that (`MATERIALIZE` planning's slice gate).
    pub(crate) fn mint_free(&self) -> bool {
        self.exact
    }
}

/// One memoized walk over resolution closures: footprint, mint-freedom and
/// exactness across `flipped` come out of a single visit per relation,
/// shared by every relation that resolves through it — the closures of a
/// 170-version chain are each other's suffixes.
pub(crate) struct ClosureWalk<'e, 'a> {
    edb: &'e VersionedEdb<'a>,
    /// SMOs whose materialization state the running `MATERIALIZE` flipped
    /// (empty for a plain footprint computation).
    flipped: &'e BTreeSet<SmoId>,
    /// `None` marks a relation whose visit is in progress.
    memo: HashMap<String, Option<Closure>>,
}

impl<'e, 'a> ClosureWalk<'e, 'a> {
    pub(crate) fn new(edb: &'e VersionedEdb<'a>, flipped: &'e BTreeSet<SmoId>) -> Self {
        ClosureWalk {
            edb,
            flipped,
            memo: HashMap::new(),
        }
    }

    pub(crate) fn closure(&mut self, relation: &str) -> Closure {
        let inexact = Closure {
            footprint: Arc::default(),
            physical: false,
            exact: false,
        };
        match self.memo.get(relation) {
            Some(Some(done)) => return done.clone(),
            // A rule cycle: the relation contributes nothing more to the
            // footprint of the visit that re-entered it (its tables are
            // collected by the outer visit), and nothing reached through a
            // cycle is carried.
            Some(None) => return inexact,
            None => {}
        }
        if self.edb.storage.has_table(relation) {
            let physical = Closure {
                footprint: Arc::new(BTreeSet::from([relation.to_string()])),
                physical: true,
                exact: true,
            };
            self.memo
                .insert(relation.to_string(), Some(physical.clone()));
            return physical;
        }
        let Some((smo, rules)) = self.edb.resolving_mapping(relation) else {
            return inexact;
        };
        self.memo.insert(relation.to_string(), None);
        let kind = self.edb.genealogy.smo(smo).derived.kind;
        let mut exact = !self.flipped.contains(&smo) || FUSABLE_KINDS.contains(&kind);
        // Heads of the same set (the `old`/`new` staging intermediates) are
        // derived in place — their inputs are this set's other body atoms.
        let heads: BTreeSet<&str> = rules
            .rules
            .iter()
            .map(|r| r.head.relation.as_str())
            .collect();
        let mut inputs: Vec<Arc<BTreeSet<String>>> = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for lit in rules.rules.iter().flat_map(|rule| &rule.body) {
            match lit {
                Literal::Skolem { .. } => exact = false,
                Literal::Pos(atom) | Literal::Neg(atom) => {
                    let rel = atom.relation.as_str();
                    if heads.contains(rel) || !seen.insert(rel) {
                        continue;
                    }
                    let input = self.closure(rel);
                    exact &= input.exact;
                    inputs.push(input.footprint);
                }
                _ => {}
            }
        }
        // A hop that adds no table of its own shares its input's set.
        inputs.sort_by_key(|set| std::cmp::Reverse(set.len()));
        let mut footprint = inputs.first().cloned().unwrap_or_default();
        for set in inputs.iter().skip(1) {
            if !set.is_subset(&footprint) {
                Arc::make_mut(&mut footprint).extend(set.iter().cloned());
            }
        }
        let done = Closure {
            footprint,
            physical: false,
            exact,
        };
        self.memo.insert(relation.to_string(), Some(done.clone()));
        done
    }
}

impl EdbView for VersionedEdb<'_> {
    /// Make the view shareable by parallel workers: refuse (`Ok(false)`)
    /// when any requested relation would have to **evaluate id-minting
    /// rules cold** (front-loading such a resolution — or worse, triggering
    /// it lazily from a worker — would mint ids at a different point than
    /// the width-1 path, which resolves lazily in first-touch order; warm
    /// snapshots and cached resolutions are pure reads and pass), otherwise
    /// resolve everything **now**, in the order given, and report any
    /// resolution error as `Ok(false)` so the sequential path produces the
    /// canonical outcome.
    fn prepare_parallel(&self, relations: &[&str]) -> inverda_datalog::Result<bool> {
        let mut visited = BTreeSet::new();
        for rel in relations {
            if self.resolution_may_mint_cold(rel, &mut visited) {
                return Ok(false);
            }
        }
        for rel in relations {
            if self.full(rel).is_err() {
                return Ok(false);
            }
        }
        Ok(true)
    }

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
        if let Some(hit) = self.cache.lock().get(relation) {
            return Ok(hit.get(key).cloned());
        }
        if let Some(hit) = self
            .key_cache
            .lock()
            .get(relation)
            .and_then(|m| m.get(&key))
        {
            return Ok(hit.clone());
        }
        // Physical snapshots are O(1) now — take the full path so the epoch
        // is recorded and later lookups hit the statement cache.
        if self.storage.has_table(relation) {
            return Ok(self.physical_full(relation)?.get(key).cloned());
        }
        // Warm path: serve the point lookup from a valid stored snapshot.
        if let Some(hit) = self.probe_store(relation) {
            return Ok(hit.get(key).cloned());
        }
        let Some(tv) = self.catalog.rel_index.get(relation).copied() else {
            // Virtual aux tables resolve through their full state.
            if self.catalog.aux_index.contains_key(relation) {
                return Ok(self.full(relation)?.get(key).cloned());
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
            return Ok(self.full(relation)?.get(key).cloned());
        }
        // Push the key through the defining mapping — the whole fused run
        // of it, when the chain fuses (fused sets are never staged).
        let crs = self.fused_for(relation).unwrap_or(crs);
        let mut ev = Evaluator::new(self, self.ids);
        let row = ev.head_row_for_key(&crs, relation, key)?;
        self.key_cache
            .lock()
            .entry(relation.to_string())
            .or_default()
            .insert(key, row.clone());
        Ok(row)
    }

    fn contains(&self, relation: &str) -> bool {
        self.storage.has_table(relation) || self.catalog.rel_index.contains_key(relation)
    }

    /// Column-equality rows, with **predicate pushdown through the γ
    /// mappings**: a relation that is already materialized (statement
    /// cache, physical table, warm snapshot) answers with an index probe
    /// over its snapshot; a cold virtual relation whose resolution is
    /// non-staged and provably mint-free pushes the binding into its
    /// defining rule set via column-seeded evaluation — whose depth-0
    /// candidate fetch calls `by_column` again one mapping closer to the
    /// data, so the predicate recurses down the whole chain touching only
    /// matching rows. Everything else (staged mappings, possibly-minting
    /// closures) materializes first, preserving the canonical resolution
    /// and minting order, then probes.
    fn by_column(
        &self,
        relation: &str,
        column: usize,
        value: &Value,
    ) -> inverda_datalog::Result<Vec<(Key, Row)>> {
        if let Some(hit) = self
            .col_cache
            .lock()
            .get(relation)
            .and_then(|m| m.get(&column))
            .and_then(|m| m.get(value))
        {
            return Ok(hit.clone());
        }
        let resolved = match self.peek_resolved(relation)? {
            Some(rel) => Some(rel),
            None if !self.pushable_cold(relation) => Some(self.full(relation)?),
            None => None,
        };
        let rows = if let Some(rel) = resolved {
            if column >= rel.schema().arity() {
                Vec::new()
            } else {
                self.index(relation, column)?.rows_for(&rel, value)
            }
        } else {
            // Seed through the fused run when the chain fuses: the probe
            // recurses into `by_column` of the chain's *terminal* relation
            // instead of the adjacent hop, skipping the intermediates.
            let crs = match self.fused_for(relation) {
                Some(fused) => fused,
                None => self
                    .defining_compiled(relation)
                    .expect("pushable implies defining rules")?,
            };
            let mut ev = Evaluator::new(self, self.ids);
            ev.head_rows_by_column(&crs, relation, column, value)?
        };
        self.col_cache
            .lock()
            .entry(relation.to_string())
            .or_default()
            .entry(column)
            .or_default()
            .insert(value.clone(), rows.clone());
        Ok(rows)
    }

    fn index(&self, relation: &str, column: usize) -> inverda_datalog::Result<Arc<ColumnIndex>> {
        if let Some(hit) = self.index_cache.get(relation, column) {
            return Ok(hit);
        }
        // Pin the statement's snapshot of the relation *first*: warm index
        // reuse and attachment are both guarded against exactly this
        // snapshot (pointer identity for virtual relations, the observed
        // epoch for physical tables), so an index can never describe a
        // different snapshot generation than the data this statement joins
        // over — even with a writer patching the store concurrently.
        let rel = self.full(relation)?;
        if let Some(store) = self.snapshots {
            let hit = if self.storage.has_table(relation) {
                self.seen_epochs
                    .lock()
                    .get(relation)
                    .and_then(|epoch| store.get_index_physical(relation, column, *epoch))
            } else {
                store.get_index_virtual(relation, column, &rel)
            };
            if let Some(hit) = hit {
                self.index_cache.put(relation, column, Arc::clone(&hit));
                return Ok(hit);
            }
        }
        let built = Arc::new(rel.build_column_index(column));
        self.index_cache.put(relation, column, Arc::clone(&built));
        if let Some(store) = self.snapshots {
            if self.storage.has_table(relation) {
                if let Some(epoch) = self.seen_epochs.lock().get(relation).copied() {
                    store.store_index_physical(relation, column, Arc::clone(&built), epoch);
                }
            } else {
                store.store_index_virtual(relation, column, Arc::clone(&built), &rel);
            }
        }
        Ok(built)
    }
}

//! Cross-statement cache of compiled SMO rule sets.
//!
//! Every SMO instance carries two rule sets (γ_tgt / γ_src) that are fixed
//! for the lifetime of the SMO. Compiling them (slot interning + schedule
//! precomputation, see `inverda-datalog::eval`) is not free: a 28-column
//! ADD COLUMN compiles in tens of microseconds a direction, and since a
//! column-level set evaluates as a row map, that compile is the larger
//! share of a new version's first cold read (EXPERIMENTS.md, "Column-level
//! hops as row maps"). It would also sit on the hot path of every
//! statement: one read on a three-hop virtual version resolves up to three
//! mappings. This store compiles each `(SMO,
//! direction)` pair once and hands out shared references. SMO ids are never
//! reused, so creating a schema version only ever *adds* keys and every
//! cached compilation stays valid; dropping one retires SMOs, and the
//! [`Inverda`] facade has the store [`forget`](CompiledStore::forget)
//! exactly those.
//!
//! The store also caches **fused γ-chains** ([`FusedChain`]): rule sets
//! composing a whole run of adjacent mappings, built by `VersionedEdb` via
//! `inverda_datalog::fusion`. A chain is keyed by its *source* table
//! version; the *target* version it resolves toward is recorded in the
//! entry — equivalent to `(source, target)` keying, because the target is a
//! function of the source, the materialization schema, and the part of the
//! genealogy between the source and the data. A new schema version starts
//! virtualized, so it changes none of the three for an existing source and
//! the chains are kept; a dropped one forgets the chains of the table
//! versions it retires (no surviving chain runs through them: they were
//! leaves); `MATERIALIZE` clears every chain, whose hop structure depends on
//! where the data lives, while the per-SMO compilations stay valid. A chain
//! additionally records the aux tables it assumed empty at build time;
//! users revalidate that assumption against live storage on every hit.
//!
//! Beside the rule sets the store keeps the [`CatalogIndex`]: the name-keyed
//! lookups over the genealogy that every statement needs, which used to be
//! rebuilt — every relation name and column list cloned — per statement
//! view, per drain and per maintenance pass. It follows the genealogy in
//! place: [`CompiledStore::extend_catalog`] on CREATE,
//! [`CompiledStore::forget`] on DROP.
//!
//! Last, the store caches one **resolution record** per relation
//! (`edb::Resolution`: footprint, physical, replayable, mint-free,
//! restructuring SMOs), walked by `VersionedEdb::resolution` on
//! first use. A record depends on the genealogy *and* on where the data
//! lives, so it sits here next to the fused chains rather than in the
//! genealogy-only index, and is dropped when they are:
//!
//! | cached | CREATE | DROP | MATERIALIZE | recovery |
//! |---|---|---|---|---|
//! | compilations | kept | retired SMOs' forgotten | kept | cleared |
//! | fused chains | kept | retired versions' forgotten | cleared | cleared |
//! | catalog index | extended | retired entries removed | kept | cleared |
//! | resolution records | kept | retired relations' forgotten | cleared at the swap | cleared |
//!
//! A branch fork shares all four ([`CompiledStore::fork`]); every pinned
//! catalog of the serving layer starts a fresh store. Debug builds assert
//! after every catalog change that each cached record equals a fresh walk.
//!
//! [`Inverda`]: crate::Inverda

use crate::edb::Resolution;
use inverda_catalog::{
    EvolutionOutcome, Genealogy, Retired, SmoId, SmoInstance, TableVersion, TableVersionId,
};
use inverda_datalog::{CompiledRuleSet, RuleSet};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Name-keyed lookups over the genealogy — a function of the genealogy
/// alone, so one instance serves every statement
/// ([`CompiledStore::catalog_index`]) and is kept equal to
/// `CatalogIndex::build(genealogy)` across DDL by adding and removing the
/// entries of exactly the table versions and SMOs the statement added or
/// retired (their names are never reused).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CatalogIndex {
    /// rel name → table version (for virtual resolution).
    pub(crate) rel_index: BTreeMap<String, TableVersionId>,
    /// aux rel name → (owning SMO, lives on target side). A non-physical
    /// aux table is part of the *derived* state of its side and resolves
    /// through the owning SMO's mapping.
    pub(crate) aux_index: BTreeMap<String, (SmoId, bool)>,
    /// rel name → column names (for derived relation schemas).
    pub(crate) head_columns: BTreeMap<String, Vec<String>>,
    /// rel name → generator, for relations whose rows persist generator
    /// assignments (the SMOs' observe hints): applying a delta to one must
    /// keep the skolem registry in sync, or a later occurrence of a
    /// replaced payload would reuse a repurposed id.
    pub(crate) hint_generators: BTreeMap<String, String>,
}

impl CatalogIndex {
    fn build(genealogy: &Genealogy) -> CatalogIndex {
        let mut index = CatalogIndex::default();
        for tv in genealogy.table_versions() {
            index.add_table(tv);
        }
        for smo in genealogy.smos() {
            index.add_smo(smo);
        }
        index
    }

    fn add_table(&mut self, tv: &TableVersion) {
        self.rel_index.insert(tv.rel.clone(), tv.id);
        self.head_columns.insert(tv.rel.clone(), tv.columns.clone());
    }

    fn add_smo(&mut self, smo: &SmoInstance) {
        for aux in &smo.derived.src_aux {
            self.aux_index.insert(aux.rel.clone(), (smo.id, false));
        }
        for aux in &smo.derived.tgt_aux {
            self.aux_index.insert(aux.rel.clone(), (smo.id, true));
        }
        for aux in smo.derived.all_aux() {
            self.head_columns
                .insert(aux.rel.clone(), aux.columns.clone());
        }
        for shared in &smo.derived.shared_aux {
            self.head_columns
                .insert(shared.new_name.clone(), shared.table.columns.clone());
        }
        for hint in &smo.derived.observe_hints {
            self.hint_generators
                .insert(hint.relation.clone(), hint.generator.clone());
        }
    }

    /// Remove what [`add_table`](CatalogIndex::add_table) and
    /// [`add_smo`](CatalogIndex::add_smo) entered for the retired table
    /// versions and SMOs of `genealogy` (already without them). Every key
    /// is a `tv<N>` / `smo<N>_…` name owned by one of them — except an
    /// observe hint on the SMO's *source* relation, which survives and may
    /// be hinted by its other adjacent SMOs too: there the newest remaining
    /// hint takes over, as in [`build`](CatalogIndex::build).
    fn remove(&mut self, retired: &Retired, genealogy: &Genealogy) {
        for tv in &retired.tables {
            self.rel_index.remove(&tv.rel);
            self.head_columns.remove(&tv.rel);
        }
        for smo in &retired.smos {
            for aux in smo.derived.all_aux() {
                self.aux_index.remove(&aux.rel);
                self.head_columns.remove(&aux.rel);
            }
            for shared in &smo.derived.shared_aux {
                self.head_columns.remove(&shared.new_name);
            }
            for hint in &smo.derived.observe_hints {
                self.hint_generators.remove(&hint.relation);
                let Some(tv) = self.rel_index.get(&hint.relation) else {
                    continue;
                };
                // Ascending ids: a table version's creator precedes its
                // consumers, which are listed in registration order.
                let adjacent = std::iter::once(genealogy.incoming(*tv))
                    .chain(genealogy.outgoing(*tv).iter().copied());
                for other in adjacent.flat_map(|id| &genealogy.smo(id).derived.observe_hints) {
                    if other.relation == hint.relation {
                        self.hint_generators
                            .insert(other.relation.clone(), other.generator.clone());
                    }
                }
            }
        }
    }
}

/// Which of an SMO's two rule sets is addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// γ_tgt: derives the target side from the source side.
    ToTgt,
    /// γ_src: derives the source side from the target side.
    ToSrc,
}

/// A fused γ-chain: one compiled rule set composing a run of adjacent
/// mappings, resolving `source` directly against `target`'s side of the
/// genealogy (plus any physical aux tables of the intermediate hops).
#[derive(Debug)]
pub struct FusedChain {
    /// The fused, compiled rule set (skolem-free and non-staged by
    /// construction).
    pub crs: Arc<CompiledRuleSet>,
    /// The table version this chain resolves (the cache key, recorded for
    /// diagnostics).
    pub source: TableVersionId,
    /// The table version the chain's terminal data atom belongs to — the
    /// far end of the fused run.
    pub target: TableVersionId,
    /// Number of γ mappings composed into `crs` (1 = no composition, the
    /// single defining hop with aux-emptiness simplification applied).
    pub hops: usize,
    /// Physical aux tables that were empty at build time and whose rules
    /// were simplified away under that assumption (Lemma 2). The chain is
    /// only valid while every one of them is still empty; users must
    /// revalidate before evaluating and invalidate on violation.
    pub assumed_empty: BTreeSet<String>,
}

/// Cache of compiled rule sets keyed by `(SMO instance, direction)`, plus
/// the fused-chain cache keyed by source table version and the resolution
/// records keyed by relation name.
#[derive(Debug, Default)]
pub struct CompiledStore {
    map: Mutex<HashMap<(SmoId, Direction), Arc<CompiledRuleSet>>>,
    fused: Mutex<HashMap<TableVersionId, Arc<FusedChain>>>,
    catalog: Mutex<Option<Arc<CatalogIndex>>>,
    resolutions: Mutex<HashMap<String, Arc<Resolution>>>,
}

impl CompiledStore {
    /// Empty store.
    pub fn new() -> Self {
        CompiledStore::default()
    }

    /// The compiled form of `rules`, compiling on first use. `rules` must be
    /// the rule set stored on `smo` for `direction` — the caller guarantees
    /// the association, the store only keys on it.
    pub fn get_or_compile(
        &self,
        smo: SmoId,
        direction: Direction,
        rules: &RuleSet,
    ) -> inverda_datalog::Result<Arc<CompiledRuleSet>> {
        if let Some(hit) = self.map.lock().get(&(smo, direction)) {
            return Ok(Arc::clone(hit));
        }
        let compiled = Arc::new(CompiledRuleSet::compile(rules)?);
        self.map
            .lock()
            .insert((smo, direction), Arc::clone(&compiled));
        Ok(compiled)
    }

    /// The [`CatalogIndex`] of `genealogy`, built on first use. `genealogy`
    /// must be the one this store serves: afterwards the index follows it
    /// through [`extend_catalog`](CompiledStore::extend_catalog) and
    /// [`forget`](CompiledStore::forget).
    pub fn catalog_index(&self, genealogy: &Genealogy) -> Arc<CatalogIndex> {
        let mut slot = self.catalog.lock();
        Arc::clone(slot.get_or_insert_with(|| Arc::new(CatalogIndex::build(genealogy))))
    }

    /// Enter the table versions and SMOs one `CREATE SCHEMA VERSION` added
    /// to `genealogy` into the cached index, in place (copy-on-write: a
    /// branch fork or a statement in flight may still share the `Arc`). A
    /// store that has not built its index yet has nothing to extend.
    pub fn extend_catalog(&self, genealogy: &Genealogy, outcome: &EvolutionOutcome) {
        let mut slot = self.catalog.lock();
        let Some(index) = slot.as_mut().map(Arc::make_mut) else {
            return;
        };
        for tv in &outcome.new_tables {
            index.add_table(genealogy.table_version(*tv));
        }
        for smo in &outcome.new_smos {
            index.add_smo(genealogy.smo(*smo));
        }
        debug_assert_eq!(*index, CatalogIndex::build(genealogy));
    }

    /// Forget what one `DROP SCHEMA VERSION` retired from `genealogy`: the
    /// compiled rule sets of its SMOs, the fused chains resolving its table
    /// versions, their catalog-index entries, and the resolution records of
    /// its relations. Everything else stays — no surviving chain, rule set
    /// or closure mentions a retired relation (a retired table version had
    /// no outgoing SMO left, and no remaining version resolves through a
    /// virtualized SMO toward its targets).
    pub fn forget(&self, retired: &Retired, genealogy: &Genealogy) {
        {
            let mut map = self.map.lock();
            for smo in &retired.smos {
                map.remove(&(smo.id, Direction::ToTgt));
                map.remove(&(smo.id, Direction::ToSrc));
            }
        }
        {
            let mut fused = self.fused.lock();
            for tv in &retired.tables {
                fused.remove(&tv.id);
            }
        }
        {
            let mut resolutions = self.resolutions.lock();
            for rel in retired.relations() {
                resolutions.remove(rel);
            }
        }
        if let Some(index) = self.catalog.lock().as_mut().map(Arc::make_mut) {
            index.remove(retired, genealogy);
            debug_assert_eq!(*index, CatalogIndex::build(genealogy));
        }
    }

    /// The cached fused chain resolving `source`, if any. The caller must
    /// revalidate `assumed_empty` before evaluating the chain.
    pub fn fused_get(&self, source: TableVersionId) -> Option<Arc<FusedChain>> {
        self.fused.lock().get(&source).map(Arc::clone)
    }

    /// Cache a fused chain under its source table version.
    pub fn fused_insert(&self, chain: FusedChain) -> Arc<FusedChain> {
        let shared = Arc::new(chain);
        self.fused.lock().insert(shared.source, Arc::clone(&shared));
        shared
    }

    /// Number of cached fused chains and the deepest hop run among them
    /// (diagnostics — lets tests assert fusion actually engaged).
    pub fn fused_stats(&self) -> (usize, usize) {
        let fused = self.fused.lock();
        let deepest = fused.values().map(|c| c.hops).max().unwrap_or(0);
        (fused.len(), deepest)
    }

    /// Drop one fused chain (its emptiness assumption was violated).
    pub fn fused_invalidate(&self, source: TableVersionId) {
        self.fused.lock().remove(&source);
    }

    /// The cached resolution record of `relation`, if any.
    pub(crate) fn resolution(&self, relation: &str) -> Option<Arc<Resolution>> {
        self.resolutions.lock().get(relation).map(Arc::clone)
    }

    /// Cache resolution records walked over this store's current catalog.
    pub(crate) fn cache_resolutions(
        &self,
        records: impl IntoIterator<Item = (String, Arc<Resolution>)>,
    ) {
        self.resolutions.lock().extend(records);
    }

    /// Every cached resolution record (the debug oracle's input).
    pub(crate) fn resolutions(&self) -> Vec<(String, Arc<Resolution>)> {
        let resolutions = self.resolutions.lock();
        resolutions
            .iter()
            .map(|(rel, done)| (rel.clone(), Arc::clone(done)))
            .collect()
    }

    /// Drop every fused chain and every resolution record but keep the
    /// per-SMO compilations (called at `MATERIALIZE`'s swap: moving the
    /// data changes which mapping defines each version — and therefore
    /// every chain's hop structure and every closure — while the SMO rule
    /// sets themselves are untouched).
    ///
    /// Invalidation scope is **this store**, i.e. one branch: every branch
    /// engine owns a private `CompiledStore` (see
    /// [`CompiledStore::fork`]), so a `MATERIALIZE` on one branch can
    /// never cold-start a sibling's fused chains.
    pub(crate) fn clear_placement(&self) {
        self.fused.lock().clear();
        self.resolutions.lock().clear();
    }

    /// An independent copy sharing every cached compilation, fused chain
    /// and resolution record by `Arc` — the warm start of a branch fork.
    /// Compiled rule sets are pure functions of the genealogy's rules
    /// (which the fork clones id-stably), records of the genealogy and the
    /// materialization (cloned too), and fused chains revalidate their
    /// emptiness assumptions against the *probing branch's* storage on
    /// every hit, so sharing at fork time is sound; afterwards each store
    /// invalidates independently (a branch-scoped `MATERIALIZE` clears only
    /// its own chains and records).
    pub fn fork(&self) -> CompiledStore {
        CompiledStore {
            map: Mutex::new(self.map.lock().clone()),
            fused: Mutex::new(self.fused.lock().clone()),
            catalog: Mutex::new(self.catalog.lock().clone()),
            resolutions: Mutex::new(self.resolutions.lock().clone()),
        }
    }

    /// Drop every cached compilation, every fused chain, every resolution
    /// record and the catalog index (recovery installs a whole new catalog
    /// state).
    pub fn clear(&self) {
        self.map.lock().clear();
        self.clear_placement();
        *self.catalog.lock() = None;
    }

    /// Number of cached compilations (diagnostics).
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Inverda;
    use inverda_bidel::{parse_script, Statement};
    use inverda_catalog::MaterializationSchema;

    /// Run a DDL script against `genealogy`, keeping `store` in step the way
    /// the engine does, and check the index against a fresh build after
    /// every statement (the store's own debug assertion does so too).
    fn run(genealogy: &mut Genealogy, store: &CompiledStore, script: &str) {
        let m = MaterializationSchema::initial();
        for stmt in parse_script(script).unwrap().statements {
            match stmt {
                Statement::CreateSchemaVersion { name, from, smos } => {
                    let outcome = genealogy
                        .create_schema_version(&name, from.as_deref(), &smos)
                        .unwrap();
                    store.extend_catalog(genealogy, &outcome);
                }
                Statement::DropSchemaVersion { name } => {
                    let retired = genealogy.drop_schema_version(&name, &m).unwrap();
                    store.forget(&retired, genealogy);
                }
                other => panic!("unexpected statement {other:?}"),
            }
            assert_eq!(
                *store.catalog_index(genealogy),
                CatalogIndex::build(genealogy)
            );
        }
    }

    #[test]
    fn the_index_follows_creates_and_drops_in_place() {
        let mut g = Genealogy::new();
        let store = CompiledStore::new();
        run(
            &mut g,
            &store,
            "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio);",
        );
        let first = store.catalog_index(&g);
        run(
            &mut g,
            &store,
            "CREATE SCHEMA VERSION Do! FROM TasKy WITH \
               SPLIT TABLE Task INTO Todo WITH prio = 1; \
               DROP COLUMN prio FROM Todo DEFAULT 1; \
             CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
               DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author; \
               RENAME COLUMN author IN Author TO name; \
             DROP SCHEMA VERSION Do!; \
             CREATE SCHEMA VERSION TasKy3 FROM TasKy2 WITH ADD COLUMN done AS 0 INTO Task; \
             DROP SCHEMA VERSION TasKy3; \
             DROP SCHEMA VERSION TasKy2;",
        );
        // Copy-on-write: whoever still held the old index kept it.
        assert_eq!(first.rel_index.len(), 1);
        assert_eq!(*store.catalog_index(&g), *first);
    }

    #[test]
    fn a_hint_on_a_shared_source_falls_back_to_the_remaining_smo() {
        // Both children hint their generator on the *parent's* table.
        let mut g = Genealogy::new();
        let store = CompiledStore::new();
        let history = "CREATE SCHEMA VERSION P WITH CREATE TABLE R(a, b); \
             CREATE SCHEMA VERSION A FROM P WITH DECOMPOSE TABLE R INTO S(a), T(b) ON a = b; \
             CREATE SCHEMA VERSION B FROM P WITH DECOMPOSE TABLE R INTO S(a), T(b) ON a = b;";
        run(&mut g, &store, history);
        let parent = g.table_version(g.resolve("P", "R").unwrap()).rel.clone();
        let hinted = |store: &CompiledStore, g: &Genealogy| {
            store.catalog_index(g).hint_generators.get(&parent).cloned()
        };
        let by_b = hinted(&store, &g).expect("hinted");
        run(&mut g, &store, "DROP SCHEMA VERSION B;");
        let by_a = hinted(&store, &g).expect("the older hint takes over");
        assert_ne!(by_a, by_b);
        run(&mut g, &store, "DROP SCHEMA VERSION A;");
        assert_eq!(hinted(&store, &g), None);
    }

    /// After every statement — CREATE, DROP, MATERIALIZE — and again after
    /// reads that fill the cache, every cached resolution record equals a
    /// fresh walk over the current catalog. TasKy2's FK-DECOMPOSE gives
    /// records that are not mint-free; the second script is the overlapping
    /// SPLIT.
    #[test]
    fn the_resolution_records_follow_creates_drops_and_materialize() {
        let tasky = [
            "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio);",
            "CREATE SCHEMA VERSION Do! FROM TasKy WITH \
               SPLIT TABLE Task INTO Todo WITH prio = 1; \
               DROP COLUMN prio FROM Todo DEFAULT 1;",
            "CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
               DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author; \
               RENAME COLUMN author IN Author TO name;",
            "MATERIALIZE 'TasKy2';",
            "CREATE SCHEMA VERSION TasKy3 FROM TasKy2 WITH ADD COLUMN done AS 0 INTO Task;",
            "MATERIALIZE 'Do!';",
            "DROP SCHEMA VERSION TasKy3;",
            "DROP SCHEMA VERSION TasKy2;",
            "MATERIALIZE 'TasKy';",
        ];
        let split = [
            "CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b);",
            "CREATE SCHEMA VERSION V2 FROM V1 WITH \
               SPLIT TABLE T INTO R WITH a < 5, S WITH a >= 3;",
            "MATERIALIZE 'V2';",
            "MATERIALIZE 'V1';",
            "DROP SCHEMA VERSION V2;",
        ];
        let stale = |db: &Inverda| db.stale_resolutions(&db.state.read());
        let mut minting = false;
        for script in [&tasky[..], &split[..]] {
            let db = Inverda::new_in_memory();
            for (i, statement) in script.iter().enumerate() {
                db.execute(statement).unwrap();
                assert_eq!(stale(&db), Vec::<String>::new(), "{statement}");
                if i == 0 {
                    let version = &db.versions()[0];
                    let table = &db.tables_of(version).unwrap()[0];
                    let width = db.columns_of(version, table).unwrap().len();
                    for a in 0..6i64 {
                        let row = [a.into(), format!("t{}", a % 3).into(), (a % 2).into()];
                        db.insert(version, table, row[..width].to_vec()).unwrap();
                    }
                }
                for version in db.versions() {
                    for table in db.tables_of(&version).unwrap() {
                        db.scan(&version, &table).unwrap();
                    }
                }
                assert_eq!(stale(&db), Vec::<String>::new(), "{statement}, read");
                minting |= db.compiled.resolutions().iter().any(|(_, r)| !r.mint_free);
            }
        }
        assert!(minting);
    }

    #[test]
    fn forget_drops_exactly_the_retired_compilations_and_chains() {
        let mut g = Genealogy::new();
        let store = CompiledStore::new();
        run(
            &mut g,
            &store,
            "CREATE SCHEMA VERSION V0 WITH CREATE TABLE T(a); \
             CREATE SCHEMA VERSION V1 FROM V0 WITH ADD COLUMN b AS a INTO T; \
             CREATE SCHEMA VERSION V2 FROM V1 WITH ADD COLUMN c AS a INTO T;",
        );
        let chain = |tv: TableVersionId| FusedChain {
            crs: Arc::new(CompiledRuleSet::compile(&RuleSet::new(vec![])).unwrap()),
            source: tv,
            target: tv,
            hops: 1,
            assumed_empty: BTreeSet::new(),
        };
        for version in ["V1", "V2"] {
            let tv = g.resolve(version, "T").unwrap();
            let smo = g.smo(g.incoming(tv));
            store
                .get_or_compile(smo.id, Direction::ToTgt, &smo.derived.to_tgt)
                .unwrap();
            store
                .get_or_compile(smo.id, Direction::ToSrc, &smo.derived.to_src)
                .unwrap();
            store.fused_insert(chain(tv));
        }
        assert_eq!((store.len(), store.fused_stats().0), (4, 2));
        let kept = g.resolve("V1", "T").unwrap();
        run(&mut g, &store, "DROP SCHEMA VERSION V2;");
        assert_eq!((store.len(), store.fused_stats().0), (2, 1));
        assert!(store.fused_get(kept).is_some());
    }
}

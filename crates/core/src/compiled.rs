//! Cross-statement cache of compiled SMO rule sets.
//!
//! Every SMO instance carries two rule sets (γ_tgt / γ_src) that are fixed
//! for the lifetime of the SMO. Compiling them (slot interning + schedule
//! precomputation, see `inverda-datalog::eval`) is cheap but happens on the
//! hot path of every statement: one read on a three-hop virtual version
//! resolves up to three mappings. This store compiles each `(SMO,
//! direction)` pair once and hands out shared references; the [`Inverda`]
//! facade clears it whenever the genealogy changes (schema version created
//! or dropped), which is the only event that can add or retire rule sets.
//!
//! The store also caches **fused γ-chains** ([`FusedChain`]): rule sets
//! composing a whole run of adjacent mappings, built by `VersionedEdb` via
//! `inverda_datalog::fusion`. A chain is keyed by its *source* table
//! version; the *target* version it resolves toward is recorded in the
//! entry — equivalent to `(source, target)` keying, because the target is a
//! function of the source, the genealogy, and the materialization schema,
//! and the cache is cleared whenever either changes (genealogy changes
//! clear everything; `MATERIALIZE` clears the fused chains, whose hop
//! structure depends on where the data lives, while the per-SMO
//! compilations stay valid). A chain additionally records the aux tables
//! it assumed empty at build time; users revalidate that assumption
//! against live storage on every hit.
//!
//! Beside the rule sets the store keeps the [`CatalogIndex`]: the name-keyed
//! lookups over the genealogy that every statement needs, which used to be
//! rebuilt — every relation name and column list cloned — per statement
//! view, per drain and per maintenance pass.
//!
//! [`Inverda`]: crate::Inverda

use inverda_catalog::{Genealogy, SmoId, TableVersionId};
use inverda_datalog::{CompiledRuleSet, RuleSet};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Name-keyed lookups over the genealogy — a function of the genealogy
/// alone, so one instance serves every statement until the next genealogy
/// change ([`CompiledStore::catalog_index`]).
#[derive(Debug, Default)]
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
            index.rel_index.insert(tv.rel.clone(), tv.id);
            index
                .head_columns
                .insert(tv.rel.clone(), tv.columns.clone());
        }
        for smo in genealogy.smos() {
            for aux in &smo.derived.src_aux {
                index.aux_index.insert(aux.rel.clone(), (smo.id, false));
            }
            for aux in &smo.derived.tgt_aux {
                index.aux_index.insert(aux.rel.clone(), (smo.id, true));
            }
            for aux in smo.derived.all_aux() {
                index
                    .head_columns
                    .insert(aux.rel.clone(), aux.columns.clone());
            }
            for shared in &smo.derived.shared_aux {
                index
                    .head_columns
                    .insert(shared.new_name.clone(), shared.table.columns.clone());
            }
            for hint in &smo.derived.observe_hints {
                index
                    .hint_generators
                    .insert(hint.relation.clone(), hint.generator.clone());
            }
        }
        index
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
/// the fused-chain cache keyed by source table version.
#[derive(Debug, Default)]
pub struct CompiledStore {
    map: Mutex<HashMap<(SmoId, Direction), Arc<CompiledRuleSet>>>,
    fused: Mutex<HashMap<TableVersionId, Arc<FusedChain>>>,
    catalog: Mutex<Option<Arc<CatalogIndex>>>,
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
    /// must be the one this store serves — like the compilations, the index
    /// is only dropped by [`clear`](CompiledStore::clear).
    pub fn catalog_index(&self, genealogy: &Genealogy) -> Arc<CatalogIndex> {
        let mut slot = self.catalog.lock();
        Arc::clone(slot.get_or_insert_with(|| Arc::new(CatalogIndex::build(genealogy))))
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

    /// Drop every fused chain but keep the per-SMO compilations (called on
    /// `MATERIALIZE`: moving the data changes which mapping defines each
    /// version — and therefore every chain's hop structure — while the
    /// SMO rule sets themselves are untouched).
    ///
    /// Invalidation scope is **this store**, i.e. one branch: every branch
    /// engine owns a private `CompiledStore` (see
    /// [`CompiledStore::fork`]), so a `MATERIALIZE` on one branch can
    /// never cold-start a sibling's fused chains.
    pub fn clear_fused(&self) {
        self.fused.lock().clear();
    }

    /// An independent copy sharing every cached compilation and fused
    /// chain by `Arc` — the warm start of a branch fork. Compiled rule
    /// sets are pure functions of the genealogy's rules (which the fork
    /// clones id-stably), and fused chains revalidate their emptiness
    /// assumptions against the *probing branch's* storage on every hit, so
    /// sharing at fork time is sound; afterwards each store invalidates
    /// independently (a branch-scoped `MATERIALIZE` clears only its own
    /// chains).
    pub fn fork(&self) -> CompiledStore {
        CompiledStore {
            map: Mutex::new(self.map.lock().clone()),
            fused: Mutex::new(self.fused.lock().clone()),
            catalog: Mutex::new(self.catalog.lock().clone()),
        }
    }

    /// Drop every cached compilation, every fused chain and the catalog
    /// index (called on genealogy changes).
    pub fn clear(&self) {
        self.map.lock().clear();
        self.fused.lock().clear();
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

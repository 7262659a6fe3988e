//! The Database Migration Operation: `MATERIALIZE '…'` (Section 7).
//!
//! A single statement lets the DBA relocate the physical data representation
//! along the schema genealogy. InVerDa computes the new materialization
//! schema, validates it against conditions (55)/(56), computes the complete
//! new physical state (data tables of the new physical table schema `P`,
//! auxiliary tables of every SMO whose materialization state flips) from the
//! *current* state via the γ mappings, then swaps the physical tables in one
//! step. Thanks to bidirectionality every schema version exposes exactly the
//! same logical state before and after — only the propagation distances
//! change. "Not a single line of code is required from the developer."
//!
//! Planning computes what it keeps and no more. The tables entering `P` are
//! resolved through the current mappings; each flipped SMO then evaluates
//! only the slice of its rule set toward the data's new side that derives
//! the aux tables of that side and the shared `@new` heads — nothing at all
//! for a forward ADD COLUMN, whose target side has no aux table. The whole
//! set runs only where a rule outside the slice could mint
//! (`Inverda::flip_heads`, where the minting and error arguments are
//! written).
//!
//! The engine takes that guarantee at its word: resolved snapshots are
//! **carried** across the swap instead of dropped (see
//! `Inverda::carry_snapshots` below for exactly which, and why), so the
//! versions that were warm before a migration are warm after it. Planning
//! warms nothing as a side effect: an intermediate version that no read and
//! no slice resolved before the move may be cold after it. One
//! reachable state is known to break the guarantee — an overlapping SPLIT,
//! DESIGN.md "The auxiliary-table purge", known deviation — which is why
//! nothing is carried across a flipped SPLIT / MERGE / DECOMPOSE / JOIN.

use crate::compiled::Direction;
use crate::database::{Inverda, State};
use crate::edb::VersionedEdb;
use crate::error::CoreError;
use crate::snapshot::{Carried, SnapshotStore};
use crate::Result;
use inverda_catalog::{Genealogy, MaterializationSchema, SmoId, SmoInstance};
use inverda_datalog::eval::{evaluate_compiled, EdbView};
use inverda_datalog::{CompiledRuleSet, Literal, RuleSet};
use inverda_storage::Relation;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

impl Inverda {
    /// Execute a MATERIALIZE statement. Each target is either a schema
    /// version name (`'TasKy2'` — materialize all its table versions) or a
    /// version-qualified table version (`'TasKy2.Task'`).
    pub fn materialize(&self, targets: &[String]) -> Result<()> {
        let _guard = self.write_lock.lock();
        let mut state = self.state.write();

        // Resolve targets to table versions.
        let mut tvs = Vec::new();
        for target in targets {
            match target.split_once('.') {
                Some((version, table)) if !version.is_empty() && !table.is_empty() => {
                    tvs.push(state.genealogy.resolve(version, table)?);
                }
                None if !target.is_empty() => {
                    let v = state.genealogy.version(target)?;
                    tvs.extend(v.tables.values().copied());
                }
                _ => {
                    return Err(CoreError::BadMaterializeTarget {
                        target: target.clone(),
                    });
                }
            }
        }
        let new_m = MaterializationSchema::for_table_versions(&state.genealogy, &tvs)?;
        let result = self.apply_materialization(&mut state, new_m);
        self.log_registry_residue(&state)?;
        result
    }

    /// Materialize an explicit materialization schema — the paper's
    /// migration command can address *intermediate* table versions of the
    /// evolution history ("InVerDa can also materialize intermediate stages",
    /// Section 8.3); this entry point takes the SMO set directly.
    pub fn materialize_exact(&self, new_m: MaterializationSchema) -> Result<()> {
        let _guard = self.write_lock.lock();
        let mut state = self.state.write();
        new_m.validate(&state.genealogy)?;
        let result = self.apply_materialization(&mut state, new_m);
        self.log_registry_residue(&state)?;
        result
    }

    /// Durability wrapper around the migration procedure. A committed
    /// migration is logged as a `Materialize` record carrying only the
    /// journal residue that *preceded* it plus the pre-migration key
    /// sequence: replay re-runs the procedure live, re-performing the
    /// planning-time mints and registry re-seeding in their original
    /// order, so the procedure's own journal is discarded. A *failed*
    /// migration may still have perturbed the registry mid-planning
    /// (purge/observe re-seeding precedes the failure point); that
    /// perturbation is exactly what the in-memory instance keeps, so it is
    /// logged as a `RegistryOnly` record.
    fn apply_materialization(
        &self,
        state: &mut parking_lot::RwLockWriteGuard<'_, crate::database::State>,
        new_m: MaterializationSchema,
    ) -> Result<()> {
        if new_m == state.materialization {
            return Ok(());
        }
        let durable = self.durability.is_some();
        let (pending, key_seq_before) = if durable {
            (
                self.ids.lock().take_journal(),
                self.storage.sequences().current_key(),
            )
        } else {
            (Vec::new(), 0)
        };
        let smos: Vec<u32> = new_m.smos().map(|s| s.0).collect();
        let result = self.apply_materialization_inner(state, new_m);
        if durable {
            match &result {
                Ok(()) => {
                    let _ = self.ids.lock().take_journal();
                    self.wal_append(
                        state,
                        crate::durability::Record {
                            reg_ops: pending,
                            key_seq: key_seq_before,
                            body: crate::durability::RecordBody::Materialize(smos),
                        },
                    )?;
                }
                Err(_) => {
                    let mut reg_ops = pending;
                    reg_ops.extend(self.ids.lock().take_journal());
                    if !reg_ops.is_empty() {
                        let key_seq = self.storage.sequences().current_key();
                        self.wal_append(
                            state,
                            crate::durability::Record {
                                reg_ops,
                                key_seq,
                                body: crate::durability::RecordBody::RegistryOnly,
                            },
                        )?;
                    }
                }
            }
        }
        result
    }

    fn apply_materialization_inner(
        &self,
        state: &mut parking_lot::RwLockWriteGuard<'_, crate::database::State>,
        new_m: MaterializationSchema,
    ) -> Result<()> {
        // ---- Plan the new physical state under the *current* mappings.
        let mut creates: Vec<Arc<Relation>> = Vec::new();
        let mut replaces: Vec<Arc<Relation>> = Vec::new();
        let mut drops: Vec<String> = Vec::new();
        // How many leading `drops` are table versions leaving `P` (the rest
        // are aux tables), and the SMOs whose materialization state flips.
        let leaving;
        let mut flipped: BTreeSet<SmoId> = BTreeSet::new();
        {
            let g = &state.genealogy;
            let cur = &state.materialization;
            let ids = self.id_source();
            // Planning reads the *current* state: warm snapshots are valid
            // until the swap below, and what planning resolves on top of
            // them — the tables entering `P`, whatever the flipped SMOs'
            // slices read — is carried across it like everything else.
            let edb = self.edb(state, &ids);

            let old_p: BTreeSet<_> = cur.physical_tables(g).into_iter().collect();
            let new_p: BTreeSet<_> = new_m.physical_tables(g).into_iter().collect();

            // Data tables entering / leaving P. A table entering P *is* the
            // snapshot planning resolved — shared, not copied.
            for tv in new_p.difference(&old_p) {
                creates.push(edb.full(&g.table_version(*tv).rel)?);
            }
            for tv in old_p.difference(&new_p) {
                drops.push(g.table_version(*tv).rel.clone());
            }
            leaving = drops.len();

            // Auxiliary tables of SMOs whose state flips.
            for (smo, will) in flips(g, cur, &new_m) {
                flipped.insert(smo.id);
                let (mut heads, _) = self.flip_heads(&edb, smo, will)?;
                let (new_aux, old_aux) = if will {
                    (&smo.derived.tgt_aux, &smo.derived.src_aux)
                } else {
                    (&smo.derived.src_aux, &smo.derived.tgt_aux)
                };
                for aux in new_aux {
                    let contents = heads.remove(&aux.rel).unwrap_or_else(|| {
                        Relation::new(
                            inverda_storage::TableSchema::new(aux.rel.clone(), aux.columns.clone())
                                .expect("valid aux schema"),
                        )
                    });
                    creates.push(Arc::new(contents));
                }
                for aux in old_aux {
                    if self.storage.has_table(&aux.rel) {
                        drops.push(aux.rel.clone());
                    }
                }
                for shared in &smo.derived.shared_aux {
                    if let Some(contents) = heads.remove(&shared.new_name) {
                        replaces.push(Arc::new(contents.renamed(shared.table.rel.clone())));
                    }
                }
                self.reseed_registry(&edb, smo);
            }
        }

        // ---- Execute the swap: all of it or none of it. Every resolved
        // snapshot is valid up to this instant; the table versions leaving
        // `P` join them as the resolutions of the relations they become.
        let store = self.snapshot_store();
        let mut candidates = store.map_or_else(Vec::new, |s| s.valid_virtual(&self.storage));
        let dropped = self.storage.swap_tables(creates, replaces, &drops)?;
        state.materialization = new_m;
        // Every fused γ-chain and resolution record is retired here, before
        // the carry reads records under the new split: both follow the
        // storage cases. The per-SMO compilations stay valid: MATERIALIZE
        // does not touch the rule sets themselves. Both stores are
        // branch-scoped: `self.snapshots` and `self.compiled` belong to
        // this engine alone (branch forks get independent copies, see
        // `Inverda::fork_detached`), so a MATERIALIZE here cannot
        // cold-start a sibling branch's caches.
        self.compiled.clear_placement();
        if let Some(store) = store {
            candidates.extend(
                dropped
                    .into_iter()
                    .take(leaving)
                    .map(|rel| (rel.name().to_string(), rel)),
            );
            self.carry_snapshots(store, state, &flipped, candidates);
        }
        self.debug_assert_resolutions(state);
        Ok(())
    }

    /// Planning's evaluation for one SMO whose state flips to `will`
    /// (`true`: materialized): the heads it keeps — the aux tables of the
    /// side the data moves to and the shared `@new` heads — by name, as the
    /// SMO's rule set toward that side derives them from the current state
    /// `edb` reads; a head the set derives nothing for is absent. The flag
    /// says whether the whole set was evaluated.
    ///
    /// Only the [slice](RuleSet::slice) deriving those heads is evaluated —
    /// nothing at all when it is empty, as for a forward ADD COLUMN, whose
    /// target side has no aux table — **unless a rule left out could
    /// mint**: it binds a skolem, or it reads an input (a relation the set
    /// does not derive) whose [resolution](crate::edb::Resolution) is not
    /// `mint_free`. Then the whole set is evaluated.
    ///
    /// *Minting.* Every rule left out mints nothing and reads only heads of
    /// the set and inputs no resolution of which mints — cold, fused or
    /// caught up — so every input that can mint is read by kept rules only.
    /// The slice keeps their order, hence the whole set's mints and their
    /// order: the registry dump and the key sequence come out the same.
    ///
    /// *Errors.* The rules left out derive the set's data heads — the table
    /// versions on the side the data moves to — and intermediates only they
    /// read. Each of those table versions enters `P` or lies between the
    /// old `P` and one that does (conditions 55/56), so the `creates` step
    /// of planning has already resolved it, before any SMO's flip: from
    /// these inputs through these rules, hop by hop or fused (fusion
    /// inlines every literal, assignments included), or from a snapshot,
    /// which by the store's invariant is what that resolution derives. Had
    /// a rule left out failed on this state, the statement would have
    /// failed there, with nothing swapped; so leaving it out hides no
    /// error.
    fn flip_heads(
        &self,
        edb: &VersionedEdb<'_>,
        smo: &SmoInstance,
        will: bool,
    ) -> Result<(BTreeMap<String, Relation>, bool)> {
        let (direction, rules, kept) = toward(smo, will);
        let slice = rules.slice(kept.iter().copied());
        let sliced: BTreeSet<&str> = slice
            .rules
            .iter()
            .map(|r| r.head.relation.as_str())
            .collect();
        let heads: BTreeSet<&str> = rules
            .rules
            .iter()
            .map(|r| r.head.relation.as_str())
            .collect();
        let whole = rules
            .rules
            .iter()
            .filter(|rule| !sliced.contains(rule.head.relation.as_str()))
            .flat_map(|rule| &rule.body)
            .any(|lit| match lit {
                Literal::Skolem { .. } => true,
                Literal::Pos(atom) | Literal::Neg(atom) => {
                    let rel = atom.relation.as_str();
                    !heads.contains(rel) && !edb.resolution(rel).mint_free
                }
                _ => false,
            });
        let crs = if whole || slice.len() == rules.len() {
            self.compiled.get_or_compile(smo.id, direction, rules)?
        } else if slice.is_empty() {
            return Ok((BTreeMap::new(), false));
        } else {
            Arc::new(CompiledRuleSet::compile(&slice)?)
        };
        let mut out = evaluate_compiled(&crs, edb, &self.id_source(), edb.head_columns())?;
        out.retain(|head, _| kept.contains(head.as_str()));
        Ok((out, whole))
    }

    /// Re-seed the skolem registry from the relocated state after `smo`'s
    /// flip was planned: stale assignments are purged so payloads absent
    /// from the new physical tables mint fresh ids rather than colliding
    /// with repurposed ones.
    fn reseed_registry(&self, edb: &VersionedEdb<'_>, smo: &SmoInstance) {
        for hint in &smo.derived.observe_hints {
            if let Ok(rel) = edb.full(&hint.relation) {
                let mut reg = self.ids.lock();
                reg.purge_generator(&hint.generator);
                for (key, row) in rel.iter() {
                    reg.observe(&hint.generator, row, key.0);
                }
            }
        }
    }

    /// Replace the snapshot store's contents with the `candidates` that
    /// survive the swap that just happened — **carry, then re-stamp**. A
    /// migration changes no relation's contents (conditions 26/27; the
    /// module docs) but every footprint: which tables a resolution reads
    /// follows the physical/virtual split. So a candidate — a snapshot that
    /// was valid the instant before the swap, or the final contents of a
    /// table version that left `P` — is re-installed under its footprint in
    /// the new split, stamped with the post-swap epochs, iff it is still
    /// virtual and
    ///
    /// * its resolution closure **cannot mint**: planning re-seeds the
    ///   skolem registry (`purge_generator` / `observe`), so what a minting
    ///   resolution would produce now is not what it produced before; and
    /// * **every SMO in that closure whose materialization state flipped is
    ///   column-level** (ADD / DROP / RENAME COLUMN, RENAME TABLE).
    ///
    /// Why that suffices, by induction over the closure from storage
    /// outward: a physical input is a table the swap left alone (an aux
    /// table is read by its own SMO's rule sets only, and only flipped SMOs
    /// have theirs created, replaced or dropped), or a table version that
    /// entered `P` holding exactly its pre-swap resolution. A hop through
    /// an SMO that did not flip keeps its direction — conditions (55)/(56)
    /// leave a table version whose adjacent SMOs kept their state one
    /// storage case — hence its rule set, and by induction its inputs, so
    /// it derives what it derived. A hop through a flipped column-level SMO
    /// reads the far side of a mapping whose round trip is exact by
    /// construction (γ_src ∘ γ_tgt = id with the aux tables the planner
    /// just computed). Anything resolving through a flipped SPLIT / MERGE /
    /// DECOMPOSE / JOIN is dropped: those round trips are not exact for
    /// every reachable state (the overlapping-SPLIT deviation pinned in
    /// `tests/roundtrip_laws.rs`), and a cold resolution must win. Widen
    /// the list kind by kind, with `snapshot_reuse_props` green — never per
    /// instance.
    ///
    /// All verdicts are structural — the store is not consulted, so one
    /// carried entry never vouches for another — and read each candidate's
    /// [`Resolution`](crate::edb::Resolution) under the new split: not
    /// `physical`, `mint_free`, and no `restructuring` SMO flipped. The
    /// statement holds the writer lock and the state write lock: nothing
    /// moves between the verdicts, the stamps and the install.
    fn carry_snapshots(
        &self,
        store: &SnapshotStore,
        state: &State,
        flipped: &BTreeSet<SmoId>,
        candidates: Vec<Carried>,
    ) {
        let ids = self.id_source();
        let edb = VersionedEdb::new(
            &state.genealogy,
            &state.materialization,
            &self.storage,
            &ids,
            &self.compiled,
        );
        let survivors = candidates
            .into_iter()
            .filter_map(|candidate| {
                let (relation, _) = &candidate;
                let resolution = edb.resolution(relation);
                let carriable = !resolution.physical
                    && resolution.mint_free
                    && resolution.restructuring.is_disjoint(flipped);
                carriable.then(|| (candidate, Arc::clone(&resolution.footprint)))
            })
            .collect();
        store.reinstall(survivors, &self.storage);
    }
}

/// The rule set toward the side a flipping SMO's data moves to (`will`:
/// materialized, the target side) and the heads planning keeps from it:
/// that side's aux tables and the shared `@new` heads.
fn toward(smo: &SmoInstance, will: bool) -> (Direction, &RuleSet, BTreeSet<&str>) {
    let derived = &smo.derived;
    let (direction, rules, new_aux) = if will {
        (Direction::ToTgt, &derived.to_tgt, &derived.tgt_aux)
    } else {
        (Direction::ToSrc, &derived.to_src, &derived.src_aux)
    };
    let kept = new_aux
        .iter()
        .map(|aux| aux.rel.as_str())
        .chain(derived.shared_aux.iter().map(|s| s.new_name.as_str()))
        .collect();
    (direction, rules, kept)
}

/// The data-moving SMOs whose materialization state differs between `cur`
/// and `new_m`, in genealogy order, each with its new state (`true`:
/// materialized) — the order planning visits them in.
fn flips<'g>(
    g: &'g Genealogy,
    cur: &MaterializationSchema,
    new_m: &MaterializationSchema,
) -> Vec<(&'g SmoInstance, bool)> {
    g.smos()
        .filter(|s| s.moves_data())
        .map(|s| (s, new_m.is_materialized(g, s.id)))
        .filter(|&(s, will)| cur.is_materialized(g, s.id) != will)
        .collect()
}

/// The Wikimedia history and its Akan-shaped load, shared with the
/// workloads crate (which depends on this one, so it cannot be a
/// dev-dependency) for the planning oracle below.
#[cfg(test)]
#[path = "../../workloads/src/wikimedia/history.rs"]
mod wikimedia;

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
        .unwrap();
        db
    }

    /// All versions' visible states as a comparable string.
    fn snapshot(db: &Inverda) -> String {
        let mut out = String::new();
        for (v, t) in [
            ("TasKy", "Task"),
            ("Do!", "Todo"),
            ("TasKy2", "Task"),
            ("TasKy2", "Author"),
        ] {
            out.push_str(&format!("{v}.{t}:\n{}", db.scan(v, t).unwrap()));
        }
        out
    }

    #[test]
    fn materialize_tasky2_preserves_all_versions() {
        let db = tasky_full();
        let before = snapshot(&db);
        db.execute("MATERIALIZE 'TasKy2';").unwrap();
        assert_eq!(db.storage_case("TasKy2", "Task").unwrap(), "local");
        assert_eq!(db.storage_case("TasKy", "Task").unwrap(), "forward");
        assert_eq!(snapshot(&db), before);
        // And back to the initial representation.
        db.execute("MATERIALIZE 'TasKy';").unwrap();
        assert_eq!(db.storage_case("TasKy", "Task").unwrap(), "local");
        assert_eq!(snapshot(&db), before);
    }

    #[test]
    fn materialize_do_keeps_non_matching_tasks() {
        let db = tasky_full();
        let before = snapshot(&db);
        db.execute("MATERIALIZE 'Do!';").unwrap();
        assert_eq!(db.storage_case("Do!", "Todo").unwrap(), "local");
        // The prio>1 tasks survive in T' auxiliaries.
        assert_eq!(snapshot(&db), before);
        assert_eq!(db.count("TasKy", "Task").unwrap(), 4);
    }

    #[test]
    fn writes_work_the_same_after_migration() {
        let db = tasky_full();
        db.execute("MATERIALIZE 'TasKy2';").unwrap();
        // Write through the now-remote TasKy version.
        let k = db
            .insert("TasKy", "Task", vec!["Eve".into(), "New".into(), 1.into()])
            .unwrap();
        assert!(db.scan("Do!", "Todo").unwrap().contains_key(k));
        assert!(db.scan("TasKy2", "Task").unwrap().contains_key(k));
        // Author Eve was created in the physical Author table.
        let authors = db.scan("TasKy2", "Author").unwrap();
        assert!(authors.iter().any(|(_, row)| row[0] == Value::text("Eve")));
        // Delete through Do! and verify everywhere.
        db.delete("Do!", "Todo", k).unwrap();
        assert!(db.get("TasKy", "Task", k).unwrap().is_none());
        assert!(db.get("TasKy2", "Task", k).unwrap().is_none());
    }

    #[test]
    fn migrate_to_each_valid_materialization_and_back() {
        // Table 2: five valid materialization schemas; each must preserve
        // the visible state of every version.
        let db = tasky_full();
        let before = snapshot(&db);
        for target in ["TasKy", "Do!", "TasKy", "TasKy2", "TasKy"] {
            db.materialize(&[target.to_string()]).unwrap();
            assert_eq!(snapshot(&db), before, "after MATERIALIZE '{target}'");
        }
    }

    #[test]
    fn materialize_single_table_version() {
        let db = tasky_full();
        db.execute("MATERIALIZE 'TasKy2.Task', 'TasKy2.Author';")
            .unwrap();
        assert_eq!(db.storage_case("TasKy2", "Task").unwrap(), "local");
        assert_eq!(db.storage_case("TasKy2", "Author").unwrap(), "local");
    }

    #[test]
    fn malformed_targets_are_rejected_before_name_resolution() {
        let db = tasky_full();
        for target in ["", ".Task", "TasKy2.", "."] {
            let err = db.materialize(&[target.to_string()]).unwrap_err();
            assert!(
                matches!(&err, CoreError::BadMaterializeTarget { target: t } if t == target),
                "{target:?}: {err:?}"
            );
        }
        let err = db.execute("MATERIALIZE '';").unwrap_err();
        assert!(matches!(err, CoreError::BadMaterializeTarget { .. }));
        // A well-formed target naming nothing is still a catalog error.
        let err = db.materialize(&["Nope".to_string()]).unwrap_err();
        assert!(matches!(err, CoreError::Catalog(_)), "{err:?}");
        assert_eq!(db.storage_case("TasKy", "Task").unwrap(), "local");
    }

    #[test]
    fn separated_twin_survives_materialization_of_split() {
        // Build a two-arm split with overlapping conditions, separate the
        // twins, then flip the materialization back and forth.
        let db = Inverda::new();
        db.execute(
            "CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b); \
             CREATE SCHEMA VERSION V2 FROM V1 WITH \
               SPLIT TABLE T INTO R WITH a < 5, S WITH a >= 3;",
        )
        .unwrap();
        let k = db.insert("V1", "T", vec![4.into(), "twin".into()]).unwrap();
        // Both partitions see the tuple (overlap).
        assert!(db.scan("V2", "R").unwrap().contains_key(k));
        assert!(db.scan("V2", "S").unwrap().contains_key(k));
        // Separate the twins by updating S only.
        db.update("V2", "S", k, vec![4.into(), "separated".into()])
            .unwrap();
        assert_eq!(
            db.get("V2", "R", k).unwrap().unwrap()[1],
            Value::text("twin")
        );
        assert_eq!(
            db.get("V2", "S", k).unwrap().unwrap()[1],
            Value::text("separated")
        );
        // T shows the primus inter pares (R).
        assert_eq!(
            db.get("V1", "T", k).unwrap().unwrap()[1],
            Value::text("twin")
        );
        // Flip materialization: twins must stay separated.
        db.execute("MATERIALIZE 'V2';").unwrap();
        assert_eq!(
            db.get("V2", "S", k).unwrap().unwrap()[1],
            Value::text("separated")
        );
        db.execute("MATERIALIZE 'V1';").unwrap();
        assert_eq!(
            db.get("V2", "S", k).unwrap().unwrap()[1],
            Value::text("separated")
        );
        assert_eq!(
            db.get("V2", "R", k).unwrap().unwrap()[1],
            Value::text("twin")
        );
    }

    /// The materialization schema `MATERIALIZE 'version'` moves to.
    fn storing(db: &Inverda, version: &str) -> MaterializationSchema {
        let state = db.state.read();
        let g = &state.genealogy;
        let tvs: Vec<_> = g
            .version(version)
            .unwrap()
            .tables
            .values()
            .copied()
            .collect();
        MaterializationSchema::for_table_versions(g, &tvs).unwrap()
    }

    /// Every other valid materialization schema of `db`, each followed by
    /// the one `db` is at: every flip, both ways.
    fn there_and_back(db: &Inverda) -> Vec<MaterializationSchema> {
        let state = db.state.read();
        let home = &state.materialization;
        MaterializationSchema::enumerate_valid(&state.genealogy)
            .into_iter()
            .filter(|m| m != home)
            .flat_map(|m| [m, home.clone()])
            .collect()
    }

    /// **Planning ≡ whole-set evaluation.** Two twins from `build` plan
    /// each of `moves` as `apply_materialization_inner` does — the tables
    /// entering `P`, then every flipped SMO in order, re-seeding the
    /// registry after each — one through [`Inverda::flip_heads`], the other
    /// by evaluating the SMO's stored whole rule set and keeping the same
    /// heads. The kept heads, the registry dump and the key sequence must
    /// agree after every SMO; then both twins make the move. Returns each
    /// flip: its SMO kind, its new state and whether it took the whole-set
    /// path.
    fn planning_equals_whole_set(
        build: impl Fn() -> Inverda,
        moves: impl FnOnce(&Inverda) -> Vec<MaterializationSchema>,
    ) -> Vec<(&'static str, bool, bool)> {
        let (sliced, whole) = (build(), build());
        let same = |what: &str| {
            let dump = sliced.ids.lock().dump();
            assert_eq!(dump, whole.ids.lock().dump(), "{what}");
            let key = sliced.storage.sequences().current_key();
            assert_eq!(key, whole.storage.sequences().current_key(), "{what}");
        };
        let mut flipped = Vec::new();
        for new_m in moves(&sliced) {
            {
                let (a, b) = (sliced.state.read(), whole.state.read());
                let (ids_a, ids_b) = (sliced.id_source(), whole.id_source());
                let (edb_a, edb_b) = (sliced.edb(&a, &ids_a), whole.edb(&b, &ids_b));
                let g = &a.genealogy;
                let old_p = a.materialization.physical_tables(g);
                for tv in new_m.physical_tables(g) {
                    if !old_p.contains(&tv) {
                        let rel = &g.table_version(tv).rel;
                        assert_eq!(edb_a.full(rel).unwrap(), edb_b.full(rel).unwrap());
                    }
                }
                for (smo, will) in flips(g, &a.materialization, &new_m) {
                    let what = format!("{} {:?} → {new_m:?}", smo.derived.kind, smo.id);
                    let (heads, took_whole) = sliced.flip_heads(&edb_a, smo, will).unwrap();
                    let (direction, rules, kept) = toward(smo, will);
                    let crs = whole
                        .compiled
                        .get_or_compile(smo.id, direction, rules)
                        .unwrap();
                    let mut all =
                        evaluate_compiled(&crs, &edb_b, &ids_b, edb_b.head_columns()).unwrap();
                    all.retain(|head, _| kept.contains(head.as_str()));
                    assert_eq!(heads, all, "{what}");
                    same(&what);
                    sliced.reseed_registry(&edb_a, smo);
                    whole.reseed_registry(&edb_b, smo);
                    same(&what);
                    flipped.push((smo.derived.kind, will, took_whole));
                }
            }
            sliced.materialize_exact(new_m.clone()).unwrap();
            whole.materialize_exact(new_m).unwrap();
            same("after the move");
        }
        flipped
    }

    #[test]
    fn planning_equals_whole_set_on_tasky() {
        let flipped = planning_equals_whole_set(tasky_full, there_and_back);
        let whole = |kind: &str, will: bool| -> Vec<bool> {
            flipped
                .iter()
                .filter(|f| f.0 == kind && f.1 == will)
                .map(|f| f.2)
                .collect()
        };
        // Toward `TasKy2`, the FK-DECOMPOSE derives no aux table, but its
        // data rules mint `Author` ids: the whole set, on both moves there.
        assert_eq!(whole("DECOMPOSE", true), [true, true], "{flipped:?}");
        // Back, its source-side id table comes from a skolem-free slice
        // over physical inputs; the rules left out mint nothing either.
        assert_eq!(whole("DECOMPOSE", false), [false, false], "{flipped:?}");
        // The RENAME above it reads `TasKy2.Author` through the minting
        // DECOMPOSE while that is virtual: whole set there too.
        assert!(whole("RENAME COLUMN", true).contains(&true), "{flipped:?}");
        assert!(!whole("SPLIT", true).contains(&true), "{flipped:?}");
    }

    #[test]
    fn planning_equals_whole_set_on_a_split_and_a_column_chain() {
        let split = || {
            let db = Inverda::new();
            db.execute(
                "CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b); \
                 CREATE SCHEMA VERSION V2 FROM V1 WITH \
                   SPLIT TABLE T INTO R WITH a < 5, S WITH a >= 3;",
            )
            .unwrap();
            for a in 0..8i64 {
                db.insert("V1", "T", vec![a.into(), "b".into()]).unwrap();
            }
            db
        };
        let chain = || {
            let db = Inverda::new();
            db.execute(
                "CREATE SCHEMA VERSION G0 WITH CREATE TABLE T0(a, b, c); \
                 CREATE SCHEMA VERSION G1 FROM G0 WITH ADD COLUMN x1 AS 0 INTO T0; \
                 CREATE SCHEMA VERSION G2 FROM G1 WITH RENAME COLUMN x1 IN T0 TO x1r2; \
                 CREATE SCHEMA VERSION G3 FROM G2 WITH RENAME TABLE T0 INTO T3; \
                 CREATE SCHEMA VERSION G4 FROM G3 WITH ADD COLUMN x4 AS 0 INTO T3; \
                 CREATE SCHEMA VERSION G5 FROM G4 WITH RENAME COLUMN x4 IN T3 TO x4r5;",
            )
            .unwrap();
            for i in 0..20i64 {
                let row = vec![i.into(), format!("b{}", i % 3).into(), "c".into()];
                db.insert("G0", "T0", row).unwrap();
            }
            db
        };
        for flipped in [
            planning_equals_whole_set(split, there_and_back),
            planning_equals_whole_set(chain, there_and_back),
        ] {
            assert!(!flipped.is_empty());
            assert!(flipped.iter().all(|f| !f.2), "{flipped:?}");
        }
    }

    #[test]
    fn planning_equals_whole_set_on_a_wikimedia_round_trip() {
        let data = wikimedia::version_name(wikimedia::LOAD_VERSION);
        let head = wikimedia::version_name(171);
        let build = || {
            let db = Inverda::new();
            for script in wikimedia::history_scripts() {
                db.execute(&script).unwrap();
            }
            db.execute(&format!("MATERIALIZE '{data}';")).unwrap();
            wikimedia::load_akan(&db, wikimedia::LOAD_VERSION, 0.002);
            db
        };
        let flipped =
            planning_equals_whole_set(build, |db| vec![storing(db, &head), storing(db, &data)]);
        // 50 of the 62 SMOs between the two versions move data; each
        // flips once each way.
        assert_eq!(flipped.iter().filter(|f| f.1).count(), 50);
        assert_eq!(flipped.len(), 100);
        assert!(flipped.iter().all(|f| !f.2), "{flipped:?}");
    }

    /// An error in a data rule surfaces where the tables entering `P` are
    /// resolved, before any flipped SMO is planned, and nothing is swapped.
    #[test]
    fn a_failing_materialize_fails_before_the_flips_and_swaps_nothing() {
        let db = Inverda::new();
        db.execute(
            "CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b); \
             CREATE SCHEMA VERSION V2 FROM V1 WITH ADD COLUMN c AS 1 / a INTO T;",
        )
        .unwrap();
        for a in [2i64, 0, 1] {
            db.insert("V1", "T", vec![a.into(), "b".into()]).unwrap();
        }
        let tables = db.storage.table_names();
        let contents: Vec<_> = tables
            .iter()
            .map(|t| db.storage.snapshot(t).unwrap())
            .collect();
        let key = db.storage.sequences().current_key();
        let err = db.execute("MATERIALIZE 'V2';").unwrap_err();
        assert_eq!(
            format!("{err:?}"),
            r#"Datalog(Storage(Expression { message: "division by zero" }))"#
        );
        assert_eq!(db.storage_case("V1", "T").unwrap(), "local");
        assert_eq!(db.storage.table_names(), tables);
        for (table, before) in tables.iter().zip(&contents) {
            assert_eq!(&db.storage.snapshot(table).unwrap(), before, "{table}");
        }
        assert_eq!(db.storage.sequences().current_key(), key);
        assert_eq!(db.count("V1", "T").unwrap(), 3);
    }
}

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
//! The engine takes that guarantee at its word: resolved snapshots are
//! **carried** across the swap instead of dropped (see
//! `Inverda::carry_snapshots` below for exactly which, and why), so the
//! versions that were warm before a migration are warm after it. One
//! reachable state is known to break the guarantee — an overlapping SPLIT,
//! DESIGN.md "The auxiliary-table purge", known deviation — which is why
//! nothing is carried across a flipped SPLIT / MERGE / DECOMPOSE / JOIN.

use crate::compiled::Direction;
use crate::database::{Inverda, State};
use crate::edb::{ClosureWalk, VersionedEdb};
use crate::error::CoreError;
use crate::snapshot::{Carried, SnapshotStore};
use crate::Result;
use inverda_catalog::{MaterializationSchema, SmoId};
use inverda_datalog::eval::{evaluate_compiled, EdbView};
use inverda_storage::Relation;
use std::collections::BTreeSet;
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
                self.ids.0.lock().take_journal(),
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
                    let _ = self.ids.0.lock().take_journal();
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
                    reg_ops.extend(self.ids.0.lock().take_journal());
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
            // them is carried across it like everything else.
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
            for smo in g.smos().filter(|s| s.moves_data()) {
                let was = cur.is_materialized(g, smo.id);
                let will = new_m.is_materialized(g, smo.id);
                if was == will {
                    continue;
                }
                flipped.insert(smo.id);
                let (direction, rules) = if will {
                    (Direction::ToTgt, &smo.derived.to_tgt)
                } else {
                    (Direction::ToSrc, &smo.derived.to_src)
                };
                let crs = self.compiled.get_or_compile(smo.id, direction, rules)?;
                let mut heads = evaluate_compiled(&crs, &edb, &ids, edb.head_columns())?;
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
                // Re-seed the skolem registry from the relocated state:
                // stale assignments are purged so payloads absent from the
                // new physical tables mint fresh ids rather than colliding
                // with repurposed ones.
                for hint in &smo.derived.observe_hints {
                    if let Ok(rel) = edb.full(&hint.relation) {
                        let mut reg = self.ids.0.lock();
                        reg.purge_generator(&hint.generator);
                        for (key, row) in rel.iter() {
                            reg.observe(&hint.generator, row, key.0);
                        }
                    }
                }
            }
        }

        // ---- Execute the swap: all of it or none of it. Every resolved
        // snapshot is valid up to this instant; the table versions leaving
        // `P` join them as the resolutions of the relations they become.
        let store = self.snapshot_store();
        let mut candidates = store.map_or_else(Vec::new, |s| s.valid_virtual(&self.storage));
        let dropped = self.storage.swap_tables(creates, replaces, &drops)?;
        state.materialization = new_m;
        if let Some(store) = store {
            candidates.extend(dropped.into_iter().take(leaving).map(Carried::unindexed));
            self.carry_snapshots(store, state, &flipped, candidates);
        }
        // Every fused γ-chain is retired: its hop structure follows the
        // storage cases. The per-SMO compilations stay valid: MATERIALIZE
        // does not touch the rule sets themselves. Both stores are
        // branch-scoped: `self.snapshots` and `self.compiled` belong to
        // this engine alone (branch forks get independent copies, see
        // `Inverda::fork_detached`), so a MATERIALIZE here cannot
        // cold-start a sibling branch's caches.
        self.compiled.clear_fused();
        Ok(())
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
    /// carried entry never vouches for another — and come out of one
    /// memoized [`ClosureWalk`]. The statement holds the writer lock and
    /// the state write lock: nothing moves between the verdicts, the
    /// stamps and the install.
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
        let mut walk = ClosureWalk::new(&edb, flipped);
        let survivors = candidates
            .into_iter()
            .filter_map(|candidate| {
                let closure = walk.closure(&candidate.relation);
                closure
                    .carriable()
                    .then_some((candidate, closure.footprint))
            })
            .collect();
        store.reinstall(survivors, &self.storage);
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
}

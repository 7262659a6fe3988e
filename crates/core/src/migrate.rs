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

use crate::compiled::Direction;
use crate::database::Inverda;
use crate::error::CoreError;
use crate::Result;
use inverda_catalog::MaterializationSchema;
use inverda_datalog::eval::{evaluate_compiled, EdbView};
use inverda_storage::Relation;

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
                Some((version, table)) => {
                    tvs.push(state.genealogy.resolve(version, table)?);
                }
                None => {
                    let v = state.genealogy.version(target)?;
                    tvs.extend(v.tables.values().copied());
                }
            }
            if target.is_empty() {
                return Err(CoreError::BadMaterializeTarget {
                    target: target.clone(),
                });
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
        let mut creates: Vec<Relation> = Vec::new();
        let mut replaces: Vec<Relation> = Vec::new();
        let mut drops: Vec<String> = Vec::new();
        {
            let g = &state.genealogy;
            let cur = &state.materialization;
            let ids = self.id_source();
            // Planning reads the *current* state: warm snapshots are valid
            // until the swap below (which clears the store).
            let edb = self.edb(state, &ids);

            let old_p: std::collections::BTreeSet<_> = cur.physical_tables(g).into_iter().collect();
            let new_p: std::collections::BTreeSet<_> =
                new_m.physical_tables(g).into_iter().collect();

            // Data tables entering / leaving P.
            for tv in new_p.difference(&old_p) {
                let t = g.table_version(*tv);
                let rel = edb.full(&t.rel).map_err(CoreError::from)?;
                creates.push((*rel).clone());
            }
            for tv in old_p.difference(&new_p) {
                drops.push(g.table_version(*tv).rel.clone());
            }

            // Auxiliary tables of SMOs whose state flips.
            for smo in g.smos().filter(|s| s.moves_data()) {
                let was = cur.is_materialized(g, smo.id);
                let will = new_m.is_materialized(g, smo.id);
                if was == will {
                    continue;
                }
                let (direction, rules) = if will {
                    (Direction::ToTgt, &smo.derived.to_tgt)
                } else {
                    (Direction::ToSrc, &smo.derived.to_src)
                };
                let crs = self
                    .compiled
                    .get_or_compile(smo.id, direction, rules)
                    .map_err(CoreError::from)?;
                let heads = evaluate_compiled(&crs, &edb, &ids, edb.head_columns())
                    .map_err(CoreError::from)?;
                let (new_aux, old_aux) = if will {
                    (&smo.derived.tgt_aux, &smo.derived.src_aux)
                } else {
                    (&smo.derived.src_aux, &smo.derived.tgt_aux)
                };
                for aux in new_aux {
                    let contents = heads.get(&aux.rel).cloned().unwrap_or_else(|| {
                        Relation::new(
                            inverda_storage::TableSchema::new(aux.rel.clone(), aux.columns.clone())
                                .expect("valid aux schema"),
                        )
                    });
                    creates.push(contents);
                }
                for aux in old_aux {
                    drops.push(aux.rel.clone());
                }
                for shared in &smo.derived.shared_aux {
                    if let Some(contents) = heads.get(&shared.new_name) {
                        let mut renamed = contents.clone();
                        renamed = renamed.renamed(shared.table.rel.clone());
                        replaces.push(renamed);
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

        // ---- Execute the swap.
        for rel in creates {
            self.storage.create_table_with(rel)?;
        }
        for rel in replaces {
            self.storage.replace_table(rel)?;
        }
        for rel in drops {
            if self.storage.has_table(&rel) {
                self.storage.drop_table(&rel)?;
            }
        }
        state.materialization = new_m;
        // The physical/virtual split changed: every defining rule set and
        // static footprint may differ, so resolved snapshots are retired
        // wholesale (unlike CREATE / DROP SCHEMA VERSION, which leave the
        // split alone and invalidate only what they add or retire), and
        // so is every fused γ-chain — its hop structure follows the
        // storage cases. The per-SMO compilations stay valid: MATERIALIZE
        // does not touch the rule sets themselves. Both invalidations are
        // branch-scoped: `self.snapshots` and `self.compiled` belong to
        // this engine alone (branch forks get independent copies, see
        // `Inverda::fork_detached`), so a MATERIALIZE here cannot
        // cold-start a sibling branch's caches.
        self.snapshots.clear();
        self.compiled.clear_fused();
        Ok(())
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

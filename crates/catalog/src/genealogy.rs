//! The genealogy hypergraph: table versions, SMO instances, schema versions.

use crate::error::CatalogError;
use crate::materialization::MaterializationSchema;
use crate::Result;
use inverda_bidel::semantics::ObserveHint;
use inverda_bidel::{derive_smo, DerivedSmo, SharedAux, Smo, TableRef};
use inverda_datalog::simplify::{rename_generators, rename_relations};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a table version (a vertex of the hypergraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableVersionId(pub u32);

impl fmt::Display for TableVersionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tv{}", self.0)
    }
}

/// Identifier of an SMO instance (a hyperedge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SmoId(pub u32);

impl fmt::Display for SmoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "smo{}", self.0)
    }
}

/// A table version: one vertex of the genealogy.
#[derive(Debug, Clone)]
pub struct TableVersion {
    /// Identifier.
    pub id: TableVersionId,
    /// User-visible table name within the schema version(s) exposing it.
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Globally unique relation name (`tv<N>`), used as the physical table
    /// name and as the relation name inside instantiated rule sets.
    pub rel: String,
    /// The (single) incoming SMO that created this table version.
    pub created_by: SmoId,
}

/// An SMO instance: one hyperedge, with its instantiated semantics.
#[derive(Debug, Clone)]
pub struct SmoInstance {
    /// Identifier.
    pub id: SmoId,
    /// The parsed SMO.
    pub smo: Smo,
    /// Source table versions.
    pub sources: Vec<TableVersionId>,
    /// Target table versions.
    pub targets: Vec<TableVersionId>,
    /// Semantics with globally unique relation / generator names.
    pub derived: DerivedSmo,
    /// The schema version whose evolution introduced this SMO.
    pub introduced_in: String,
}

impl SmoInstance {
    /// Whether materializing this SMO moves data (CREATE/DROP TABLE do not).
    pub fn moves_data(&self) -> bool {
        self.derived.moves_data
    }
}

/// A schema version: a named subset of table versions.
#[derive(Debug, Clone)]
pub struct SchemaVersion {
    /// Version name (e.g. `TasKy2`).
    pub name: String,
    /// The version this one was evolved from.
    pub parent: Option<String>,
    /// Table name → table version.
    pub tables: BTreeMap<String, TableVersionId>,
    /// SMO instances of the evolution that created this version, in order.
    pub evolution: Vec<SmoId>,
}

/// The genealogy of schema versions (Figure 4).
#[derive(Debug, Clone, Default)]
pub struct Genealogy {
    table_versions: BTreeMap<TableVersionId, TableVersion>,
    smos: BTreeMap<SmoId, SmoInstance>,
    versions: BTreeMap<String, SchemaVersion>,
    /// Outgoing SMO instances per table version.
    out_edges: BTreeMap<TableVersionId, Vec<SmoId>>,
    next_tv: u32,
    next_smo: u32,
}

/// The result of registering one evolution: the new SMO instances, in order.
#[derive(Debug, Clone)]
pub struct EvolutionOutcome {
    /// New schema version name.
    pub version: String,
    /// Newly registered SMO instances.
    pub new_smos: Vec<SmoId>,
    /// Newly created table versions.
    pub new_tables: Vec<TableVersionId>,
}

/// What dropping one schema version retired from the genealogy, by value:
/// the engine drops their physical data and aux tables and forgets exactly
/// these in its caches. Newest first, the order they were retired in.
#[derive(Debug, Default)]
pub struct Retired {
    /// Table versions no remaining schema version can reach.
    pub tables: Vec<TableVersion>,
    /// SMO instances all of whose targets are retired.
    pub smos: Vec<SmoInstance>,
}

impl Retired {
    /// Names of every relation the retired set owned: the table versions'
    /// `tv<N>` and the SMOs' aux tables on either side — whichever of them
    /// are physical tables, and whatever was cached under them.
    pub fn relations(&self) -> impl Iterator<Item = &str> {
        let tables = self.tables.iter().map(|tv| tv.rel.as_str());
        let aux = self
            .smos
            .iter()
            .flat_map(|smo| smo.derived.all_aux().map(|aux| aux.rel.as_str()));
        tables.chain(aux)
    }
}

impl Genealogy {
    /// Empty genealogy.
    pub fn new() -> Self {
        Genealogy::default()
    }

    /// Look up a table version.
    pub fn table_version(&self, id: TableVersionId) -> &TableVersion {
        &self.table_versions[&id]
    }

    /// Look up an SMO instance.
    pub fn smo(&self, id: SmoId) -> &SmoInstance {
        &self.smos[&id]
    }

    /// All SMO instances, ascending by id.
    pub fn smos(&self) -> impl Iterator<Item = &SmoInstance> {
        self.smos.values()
    }

    /// All table versions, ascending by id.
    pub fn table_versions(&self) -> impl Iterator<Item = &TableVersion> {
        self.table_versions.values()
    }

    /// A schema version by name.
    pub fn version(&self, name: &str) -> Result<&SchemaVersion> {
        self.versions
            .get(name)
            .ok_or_else(|| CatalogError::UnknownVersion {
                version: name.to_string(),
            })
    }

    /// All schema version names (sorted).
    pub fn version_names(&self) -> Vec<&str> {
        self.versions.keys().map(String::as_str).collect()
    }

    /// Whether a schema version exists.
    pub fn has_version(&self, name: &str) -> bool {
        self.versions.contains_key(name)
    }

    /// The table version backing `version.table`.
    pub fn resolve(&self, version: &str, table: &str) -> Result<TableVersionId> {
        let v = self.version(version)?;
        v.tables
            .get(table)
            .copied()
            .ok_or_else(|| CatalogError::UnknownTable {
                version: version.to_string(),
                table: table.to_string(),
            })
    }

    /// Outgoing SMO instances of a table version.
    pub fn outgoing(&self, id: TableVersionId) -> &[SmoId] {
        self.out_edges.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The incoming SMO of a table version.
    pub fn incoming(&self, id: TableVersionId) -> SmoId {
        self.table_versions[&id].created_by
    }

    /// Register a new schema version evolved from `from` with `smos`.
    ///
    /// This is the catalog side of the paper's **Database Evolution
    /// Operation**: each SMO's semantics is derived from the current table
    /// schemas, its relations are renamed to globally unique names, and the
    /// new version's table set is computed. Complexity is `O(N + M)` in the
    /// number of SMOs `N` and untouched table versions `M` — delta code is
    /// local to each SMO (Section 8.1).
    ///
    /// All-or-nothing: when an SMO of the evolution fails, the SMOs and
    /// table versions registered before it are unregistered again and the
    /// id counters rewound, so a failed statement leaves the genealogy
    /// exactly as it found it and the next one mints the ids it would have.
    pub fn create_schema_version(
        &mut self,
        name: &str,
        from: Option<&str>,
        smos: &[Smo],
    ) -> Result<EvolutionOutcome> {
        let (tv_mark, smo_mark) = (self.next_tv, self.next_smo);
        let outcome = self.register_evolution(name, from, smos);
        if outcome.is_err() {
            // Everything at or past the marks is this evolution's.
            for inst in self.smos.split_off(&SmoId(smo_mark)).into_values() {
                self.unlink(&inst);
            }
            self.table_versions.split_off(&TableVersionId(tv_mark));
            (self.next_tv, self.next_smo) = (tv_mark, smo_mark);
        }
        outcome
    }

    /// Remove `inst` from the outgoing edges of its sources.
    fn unlink(&mut self, inst: &SmoInstance) {
        for src in &inst.sources {
            if let Some(edges) = self.out_edges.get_mut(src) {
                edges.retain(|id| *id != inst.id);
                if edges.is_empty() {
                    self.out_edges.remove(src);
                }
            }
        }
    }

    fn register_evolution(
        &mut self,
        name: &str,
        from: Option<&str>,
        smos: &[Smo],
    ) -> Result<EvolutionOutcome> {
        if self.versions.contains_key(name) {
            return Err(CatalogError::VersionExists {
                version: name.to_string(),
            });
        }
        // Working table map: starts as the parent's tables.
        let mut tables: BTreeMap<String, TableVersionId> = match from {
            Some(parent) => self.version(parent)?.tables.clone(),
            None => BTreeMap::new(),
        };
        let mut new_smos = Vec::new();
        let mut new_tables = Vec::new();

        for smo in smos {
            // Source schemas visible to this SMO.
            let src_schemas: BTreeMap<String, Vec<String>> = tables
                .iter()
                .map(|(n, id)| (n.clone(), self.table_versions[id].columns.clone()))
                .collect();
            let derived = derive_smo(smo, &src_schemas)?;

            let smo_id = SmoId(self.next_smo);
            self.next_smo += 1;

            // Resolve sources and build the global rename map.
            let mut rel_map: BTreeMap<String, String> = BTreeMap::new();
            let mut gen_map: BTreeMap<String, String> = BTreeMap::new();
            let mut source_ids = Vec::new();
            for src in &derived.src_data {
                let tv_id = *tables
                    .get(&src.name)
                    .ok_or_else(|| CatalogError::UnknownTable {
                        version: name.to_string(),
                        table: src.name.clone(),
                    })?;
                rel_map.insert(src.rel.clone(), self.table_versions[&tv_id].rel.clone());
                source_ids.push(tv_id);
            }
            // Allocate target table versions.
            let mut target_ids = Vec::new();
            let mut renamed_tgts = Vec::new();
            for tgt in &derived.tgt_data {
                let tv_id = TableVersionId(self.next_tv);
                self.next_tv += 1;
                let rel = tv_id.to_string();
                rel_map.insert(tgt.rel.clone(), rel.clone());
                self.table_versions.insert(
                    tv_id,
                    TableVersion {
                        id: tv_id,
                        name: tgt.name.clone(),
                        columns: tgt.columns.clone(),
                        rel,
                        created_by: smo_id,
                    },
                );
                target_ids.push(tv_id);
                new_tables.push(tv_id);
                renamed_tgts.push(tv_id);
            }
            // Rename aux tables and generators.
            let aux_name = |tag: &str| {
                // Distinct punctuation must stay distinct: `R-` (lost twins)
                // and `R*` (condition violators) are different tables.
                let mut sanitized = String::with_capacity(tag.len() + 6);
                for c in tag.chars() {
                    match c {
                        '-' => sanitized.push_str("_minus"),
                        '+' => sanitized.push_str("_plus"),
                        '*' => sanitized.push_str("_star"),
                        '\'' => sanitized.push_str("_prime"),
                        c if c.is_alphanumeric() => sanitized.push(c),
                        _ => sanitized.push('_'),
                    }
                }
                format!("{smo_id}_aux_{sanitized}")
            };
            let fix_aux = |t: &TableRef, rel_map: &mut BTreeMap<String, String>| -> TableRef {
                let global = aux_name(t.rel.trim_start_matches("aux#"));
                rel_map.insert(t.rel.clone(), global.clone());
                TableRef {
                    name: t.name.clone(),
                    rel: global,
                    columns: t.columns.clone(),
                }
            };
            let src_aux: Vec<TableRef> = derived
                .src_aux
                .iter()
                .map(|t| fix_aux(t, &mut rel_map))
                .collect();
            let tgt_aux: Vec<TableRef> = derived
                .tgt_aux
                .iter()
                .map(|t| fix_aux(t, &mut rel_map))
                .collect();
            let shared_aux: Vec<SharedAux> = derived
                .shared_aux
                .iter()
                .map(|s| {
                    let table = fix_aux(&s.table, &mut rel_map);
                    let new_name = format!("{}@new", table.rel);
                    rel_map.insert(s.new_name.clone(), new_name.clone());
                    SharedAux {
                        old_name: table.rel.clone(),
                        new_name,
                        table,
                    }
                })
                .collect();
            for g in &derived.generators {
                gen_map.insert(
                    g.clone(),
                    format!(
                        "{smo_id}_gen_{}",
                        g.trim_start_matches("gen#").replace('#', "_")
                    ),
                );
            }

            // Apply renames to the rule sets and hints.
            let to_tgt = rename_generators(&rename_relations(&derived.to_tgt, &rel_map), &gen_map);
            let to_src = rename_generators(&rename_relations(&derived.to_src, &rel_map), &gen_map);
            let observe_hints: Vec<ObserveHint> = derived
                .observe_hints
                .iter()
                .map(|h| ObserveHint {
                    generator: gen_map
                        .get(&h.generator)
                        .cloned()
                        .unwrap_or_else(|| h.generator.clone()),
                    relation: rel_map
                        .get(&h.relation)
                        .cloned()
                        .unwrap_or_else(|| h.relation.clone()),
                })
                .collect();
            let generators: Vec<String> = derived
                .generators
                .iter()
                .map(|g| gen_map[g].clone())
                .collect();
            let src_data: Vec<TableRef> = derived
                .src_data
                .iter()
                .map(|t| TableRef {
                    name: t.name.clone(),
                    rel: rel_map[&t.rel].clone(),
                    columns: t.columns.clone(),
                })
                .collect();
            let tgt_data: Vec<TableRef> = derived
                .tgt_data
                .iter()
                .map(|t| TableRef {
                    name: t.name.clone(),
                    rel: rel_map[&t.rel].clone(),
                    columns: t.columns.clone(),
                })
                .collect();
            let payload_keyed_aux: Vec<String> = derived
                .payload_keyed_aux
                .iter()
                .map(|rel| rel_map.get(rel).cloned().unwrap_or_else(|| rel.clone()))
                .collect();
            let derived_global = DerivedSmo {
                kind: derived.kind,
                src_data,
                tgt_data,
                src_aux,
                tgt_aux,
                shared_aux,
                to_tgt,
                to_src,
                generators,
                observe_hints,
                payload_keyed_aux,
                moves_data: derived.moves_data,
            };

            // Update the working table map: consumed sources disappear,
            // targets appear under their user names.
            for (src_name, tv_id) in derived_global
                .src_data
                .iter()
                .map(|t| (t.name.clone(), ()))
                .zip(source_ids.iter())
                .map(|((n, ()), id)| (n, *id))
            {
                let _ = tv_id;
                tables.remove(&src_name);
            }
            for (tgt, tv_id) in derived_global.tgt_data.iter().zip(renamed_tgts.iter()) {
                if tables.contains_key(&tgt.name) {
                    return Err(CatalogError::TableExists {
                        version: name.to_string(),
                        table: tgt.name.clone(),
                    });
                }
                tables.insert(tgt.name.clone(), *tv_id);
            }

            // Register the edge.
            for src_id in &source_ids {
                self.out_edges.entry(*src_id).or_default().push(smo_id);
            }
            self.smos.insert(
                smo_id,
                SmoInstance {
                    id: smo_id,
                    smo: smo.clone(),
                    sources: source_ids,
                    targets: target_ids,
                    derived: derived_global,
                    introduced_in: name.to_string(),
                },
            );
            new_smos.push(smo_id);
        }

        self.versions.insert(
            name.to_string(),
            SchemaVersion {
                name: name.to_string(),
                parent: from.map(String::from),
                tables,
                evolution: new_smos.clone(),
            },
        );
        Ok(EvolutionOutcome {
            version: name.to_string(),
            new_smos,
            new_tables,
        })
    }

    /// Drop a schema version from the catalog and retire what it orphans:
    /// "the respective SMOs are only removed in case they are no longer part
    /// of an evolution that connects two remaining schema versions".
    ///
    /// Only a version nothing was evolved from can be dropped, so the table
    /// versions it alone can reach are the targets of its own evolution
    /// (everything else it exposes is inherited from — and still exposed by
    /// — its parent), and only SMOs of that evolution can leave them. The
    /// collection therefore reaches its fixpoint in one pass over the
    /// evolution, newest SMO first: a table version no remaining version
    /// references and with no outgoing SMO goes; an SMO all of whose targets
    /// are gone goes, with its outgoing-edge entries, which frees the hop
    /// before it (a leaf built by `SPLIT; DROP COLUMN` retires both). The
    /// id counters are **not** rewound: `tv<N>` / `smo<N>` names are never
    /// reused, and replaying the same DDL history mints the same ids.
    ///
    /// A version whose evolution is materialized under `m` holds the data:
    /// retiring those SMOs would delete it, so the drop is refused with
    /// [`CatalogError::VersionHoldsData`] and nothing changes.
    pub fn drop_schema_version(
        &mut self,
        name: &str,
        m: &MaterializationSchema,
    ) -> Result<Retired> {
        let version = self.version(name)?;
        // A version that other versions were evolved from must stay while
        // they exist (its SMOs connect them).
        let dependents: Vec<&str> = self
            .versions
            .values()
            .filter(|v| v.parent.as_deref() == Some(name))
            .map(|v| v.name.as_str())
            .collect();
        if !dependents.is_empty() {
            return Err(CatalogError::VersionInUse {
                version: name.to_string(),
                reason: format!(
                    "versions evolved from it still exist: {}",
                    dependents.join(", ")
                ),
            });
        }
        if let Some(smo) = version
            .evolution
            .iter()
            .find(|smo| self.smo(**smo).moves_data() && m.is_materialized(self, **smo))
        {
            return Err(CatalogError::VersionHoldsData {
                version: name.to_string(),
                smo: *smo,
            });
        }
        let version = self.versions.remove(name).expect("looked up above");
        let mut retired = Retired::default();
        for smo_id in version.evolution.iter().rev() {
            let targets = self.smos[smo_id].targets.clone();
            for tv in &targets {
                if self.outgoing(*tv).is_empty() {
                    retired.tables.extend(self.table_versions.remove(tv));
                }
            }
            if targets
                .iter()
                .all(|tv| !self.table_versions.contains_key(tv))
            {
                let inst = self.smos.remove(smo_id).expect("listed in the evolution");
                self.unlink(&inst);
                retired.smos.push(inst);
            }
        }
        Ok(retired)
    }

    /// All SMO instance ids, ascending.
    pub fn smo_ids(&self) -> Vec<SmoId> {
        self.smos.keys().copied().collect()
    }

    /// Count of table versions.
    pub fn table_version_count(&self) -> usize {
        self.table_versions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inverda_bidel::parse_script;
    use inverda_bidel::Statement;

    /// Build the paper's TasKy genealogy (Figure 4).
    pub(crate) fn tasky_genealogy() -> Genealogy {
        let mut g = Genealogy::new();
        let script = parse_script(
            "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio); \
             CREATE SCHEMA VERSION Do! FROM TasKy WITH \
               SPLIT TABLE Task INTO Todo WITH prio = 1; \
               DROP COLUMN prio FROM Todo DEFAULT 1; \
             CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
               DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author; \
               RENAME COLUMN author IN Author TO name;",
        )
        .unwrap();
        for stmt in script.statements {
            match stmt {
                Statement::CreateSchemaVersion { name, from, smos } => {
                    g.create_schema_version(&name, from.as_deref(), &smos)
                        .unwrap();
                }
                other => panic!("unexpected statement {other:?}"),
            }
        }
        g
    }

    #[test]
    fn tasky_genealogy_structure_matches_figure_4() {
        let g = tasky_genealogy();
        assert_eq!(g.version_names(), vec!["Do!", "TasKy", "TasKy2"]);
        // TasKy: 1 table; Do!: 1 table; TasKy2: 2 tables.
        assert_eq!(g.version("TasKy").unwrap().tables.len(), 1);
        assert_eq!(g.version("Do!").unwrap().tables.len(), 1);
        assert_eq!(g.version("TasKy2").unwrap().tables.len(), 2);
        // 5 SMO instances: CREATE, SPLIT, DROP COLUMN, DECOMPOSE, RENAME.
        assert_eq!(g.smo_ids().len(), 5);
        // Task-0 has two outgoing SMOs (SPLIT and DECOMPOSE).
        let task0 = g.resolve("TasKy", "Task").unwrap();
        assert_eq!(g.outgoing(task0).len(), 2);
        // Do!'s Todo is the target of the DROP COLUMN, chained after SPLIT.
        let todo = g.resolve("Do!", "Todo").unwrap();
        let drop_col = g.smo(g.incoming(todo));
        assert_eq!(drop_col.derived.kind, "DROP COLUMN");
        let split_target = drop_col.sources[0];
        assert_eq!(g.smo(g.incoming(split_target)).derived.kind, "SPLIT");
    }

    #[test]
    fn rule_sets_use_globally_unique_relations() {
        let g = tasky_genealogy();
        for smo in g.smos() {
            for rule in smo
                .derived
                .to_tgt
                .rules
                .iter()
                .chain(smo.derived.to_src.rules.iter())
            {
                let text = rule.to_string();
                assert!(
                    !text.contains("src#") && !text.contains("tgt#") && !text.contains("aux#"),
                    "unrenamed relation in {text}"
                );
            }
        }
    }

    #[test]
    fn versions_share_unevolved_table_versions() {
        let mut g = tasky_genealogy();
        // Evolve TasKy2 once more, touching only `Task`.
        let script = parse_script(
            "CREATE SCHEMA VERSION TasKy3 FROM TasKy2 WITH \
             ADD COLUMN done AS 0 INTO Task;",
        )
        .unwrap();
        let Statement::CreateSchemaVersion { name, from, smos } = &script.statements[0] else {
            panic!()
        };
        g.create_schema_version(name, from.as_deref(), smos)
            .unwrap();
        // Author is shared between TasKy2 and TasKy3.
        assert_eq!(
            g.resolve("TasKy2", "Author").unwrap(),
            g.resolve("TasKy3", "Author").unwrap()
        );
        assert_ne!(
            g.resolve("TasKy2", "Task").unwrap(),
            g.resolve("TasKy3", "Task").unwrap()
        );
    }

    #[test]
    fn duplicate_version_and_unknown_table_errors() {
        let mut g = tasky_genealogy();
        assert!(matches!(
            g.create_schema_version("TasKy", None, &[]),
            Err(CatalogError::VersionExists { .. })
        ));
        let script =
            parse_script("CREATE SCHEMA VERSION X FROM TasKy WITH DROP TABLE NoSuch;").unwrap();
        let Statement::CreateSchemaVersion { name, from, smos } = &script.statements[0] else {
            panic!()
        };
        assert!(g
            .create_schema_version(name, from.as_deref(), smos)
            .is_err());
    }

    /// Apply every `CREATE SCHEMA VERSION` of `script`.
    fn evolve(g: &mut Genealogy, script: &str) -> Result<()> {
        for stmt in parse_script(script).unwrap().statements {
            let Statement::CreateSchemaVersion { name, from, smos } = stmt else {
                panic!("unexpected statement {stmt:?}")
            };
            g.create_schema_version(&name, from.as_deref(), &smos)?;
        }
        Ok(())
    }

    fn virtualized() -> MaterializationSchema {
        MaterializationSchema::initial()
    }

    /// `(table versions, SMOs, table versions with outgoing edges)`.
    fn sizes(g: &Genealogy) -> (usize, usize, usize) {
        (
            g.table_version_count(),
            g.smo_ids().len(),
            g.out_edges.len(),
        )
    }

    #[test]
    fn drop_version_respects_dependencies() {
        let mut g = tasky_genealogy();
        // TasKy has children Do! and TasKy2 -> cannot drop.
        assert!(matches!(
            g.drop_schema_version("TasKy", &virtualized()),
            Err(CatalogError::VersionInUse { .. })
        ));
        // Do! is a leaf -> droppable; its Todo table version is retired.
        let todo = g.resolve("Do!", "Todo").unwrap();
        let retired = g.drop_schema_version("Do!", &virtualized()).unwrap();
        assert!(retired.tables.iter().any(|tv| tv.id == todo));
        assert!(!g.has_version("Do!"));
        assert!(g.drop_schema_version("Do!", &virtualized()).is_err());
    }

    #[test]
    fn drop_retires_both_hops_of_a_two_hop_leaf() {
        let mut g = tasky_genealogy();
        let task0 = g.resolve("TasKy", "Task").unwrap();
        let before = sizes(&g);
        let retired = g.drop_schema_version("Do!", &virtualized()).unwrap();
        // SPLIT and DROP COLUMN, with the table version between them and
        // the leaf's own: the DROP COLUMN goes first and frees the SPLIT.
        let kinds: Vec<&str> = retired.smos.iter().map(|s| s.derived.kind).collect();
        assert_eq!(kinds, ["DROP COLUMN", "SPLIT"]);
        assert_eq!(retired.tables.len(), 2);
        assert_eq!(
            sizes(&g),
            (before.0 - 2, before.1 - 2, before.2 - 1),
            "only the split's target had an outgoing edge of its own"
        );
        // The parent's other child keeps its edge; nothing dangles.
        let outgoing: Vec<&str> = g
            .outgoing(task0)
            .iter()
            .map(|id| g.smo(*id).derived.kind)
            .collect();
        assert_eq!(outgoing, ["DECOMPOSE"]);
        for smo in g.smos() {
            for tv in smo.sources.iter().chain(&smo.targets) {
                g.table_version(*tv);
            }
        }
        // Relation names of the retired set: two table versions plus the
        // aux tables of both SMOs.
        let names: Vec<&str> = retired.relations().collect();
        assert!(
            names.len() > 2
                && names
                    .iter()
                    .all(|n| n.starts_with("tv") || n.contains("_aux_"))
        );
    }

    #[test]
    fn drop_keeps_a_table_the_leaf_shares_with_its_parent() {
        let mut g = tasky_genealogy();
        evolve(
            &mut g,
            "CREATE SCHEMA VERSION TasKy3 FROM TasKy2 WITH ADD COLUMN done AS 0 INTO Task;",
        )
        .unwrap();
        let author = g.resolve("TasKy3", "Author").unwrap();
        let task3 = g.resolve("TasKy3", "Task").unwrap();
        let before = sizes(&g);
        let retired = g.drop_schema_version("TasKy3", &virtualized()).unwrap();
        assert_eq!(retired.tables.len(), 1);
        assert_eq!(retired.tables[0].id, task3);
        assert_eq!(retired.smos.len(), 1);
        assert_eq!(sizes(&g), (before.0 - 1, before.1 - 1, before.2 - 1));
        assert_eq!(g.resolve("TasKy2", "Author").unwrap(), author);
        assert!(g.outgoing(g.resolve("TasKy2", "Task").unwrap()).is_empty());
    }

    #[test]
    fn drop_retires_a_drop_table_smo_and_a_root_version() {
        let mut g = tasky_genealogy();
        let before = sizes(&g);
        // DROP TABLE has no target: it goes with the version that
        // introduced it, and never while that version exists.
        evolve(
            &mut g,
            "CREATE SCHEMA VERSION Slim FROM TasKy2 WITH DROP TABLE Author; \
             CREATE SCHEMA VERSION Solo WITH CREATE TABLE Z(a);",
        )
        .unwrap();
        let author = g.resolve("TasKy2", "Author").unwrap();
        assert_eq!(g.outgoing(author).len(), 1);
        let retired = g.drop_schema_version("Slim", &virtualized()).unwrap();
        assert!(retired.tables.is_empty());
        assert_eq!(retired.smos[0].derived.kind, "DROP TABLE");
        assert!(g.outgoing(author).is_empty());
        // A root nobody evolved from retires its CREATE TABLE and table.
        let retired = g.drop_schema_version("Solo", &virtualized()).unwrap();
        assert_eq!((retired.tables.len(), retired.smos.len()), (1, 1));
        assert_eq!(sizes(&g), before);
    }

    #[test]
    fn drop_refuses_the_version_that_holds_the_data() {
        let mut g = tasky_genealogy();
        let todo = g.resolve("Do!", "Todo").unwrap();
        let at_do = MaterializationSchema::for_table_versions(&g, &[todo]).unwrap();
        let before = sizes(&g);
        assert!(matches!(
            g.drop_schema_version("Do!", &at_do),
            Err(CatalogError::VersionHoldsData { .. })
        ));
        assert!(g.has_version("Do!"));
        assert_eq!(sizes(&g), before);
        // The other leaf holds nothing and goes.
        g.drop_schema_version("TasKy2", &at_do).unwrap();
    }

    #[test]
    fn ids_are_never_reused_after_a_drop() {
        let mut g = tasky_genealogy();
        let (next_tv, next_smo) = (g.next_tv, g.next_smo);
        g.drop_schema_version("Do!", &virtualized()).unwrap();
        assert_eq!((g.next_tv, g.next_smo), (next_tv, next_smo));
        evolve(
            &mut g,
            "CREATE SCHEMA VERSION Do2 FROM TasKy WITH ADD COLUMN x AS 0 INTO Task;",
        )
        .unwrap();
        let tv = g.resolve("Do2", "Task").unwrap();
        assert_eq!(tv, TableVersionId(next_tv));
        assert_eq!(g.incoming(tv), SmoId(next_smo));
    }

    #[test]
    fn a_failed_create_leaves_no_trace() {
        let mut g = tasky_genealogy();
        let mut twin = tasky_genealogy();
        let before = (sizes(&g), g.next_tv, g.next_smo);
        // The first two SMOs register (one of them chained on the other's
        // target), the third fails.
        let failed = evolve(
            &mut g,
            "CREATE SCHEMA VERSION Bad FROM TasKy WITH \
               ADD COLUMN extra AS 0 INTO Task; \
               RENAME COLUMN extra IN Task TO more; \
               DROP TABLE NoSuch;",
        );
        assert!(failed.is_err());
        assert!(!g.has_version("Bad"));
        assert_eq!((sizes(&g), g.next_tv, g.next_smo), before);
        let task0 = g.resolve("TasKy", "Task").unwrap();
        assert_eq!(g.outgoing(task0).len(), 2);
        // The next CREATE mints the ids it would have minted anyway.
        let next = "CREATE SCHEMA VERSION Good FROM TasKy WITH ADD COLUMN extra AS 0 INTO Task;";
        evolve(&mut g, next).unwrap();
        evolve(&mut twin, next).unwrap();
        assert_eq!(g.resolve("Good", "Task"), twin.resolve("Good", "Task"));
        assert_eq!(g.smo_ids(), twin.smo_ids());
        let rels = |g: &Genealogy| -> Vec<String> {
            g.smos()
                .flat_map(|s| s.derived.all_aux().map(|a| a.rel.clone()))
                .collect()
        };
        assert_eq!(rels(&g), rels(&twin));
    }
}

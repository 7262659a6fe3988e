//! The [`Inverda`] database facade.

use crate::compiled::CompiledStore;
use crate::durability::{
    Checkpoint, Durability, DurabilityMode, DurabilityOptions, Record, RecordBody,
};
use crate::edb::VersionedEdb;
use crate::snapshot::{SnapshotStats, SnapshotStore};
use crate::Result;
use inverda_bidel::{parse_script, Smo, Statement};
use inverda_catalog::{Genealogy, MaterializationSchema, StorageCase};
use inverda_datalog::eval::IdSource;
use inverda_datalog::SkolemRegistry;
use inverda_storage::{Key, Relation, Row, Storage, TableSchema, Value};
use parking_lot::{Mutex, RwLock};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How logical writes are propagated to physical storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritePath {
    /// Mechanically derived update-propagation rules — minimal writes
    /// (the paper's generated triggers; Section 6).
    #[default]
    Delta,
    /// Reference implementation: recompute both full side states per SMO
    /// hop and diff. Exact but `O(data)` per write; the oracle of the
    /// equivalence tests.
    Recompute,
}

/// Mutable catalog state guarded by the database's lock.
pub struct State {
    /// The genealogy hypergraph.
    pub genealogy: Genealogy,
    /// Current materialization schema.
    pub materialization: MaterializationSchema,
    /// Current write path.
    pub write_path: WritePath,
    /// Every successful genealogy DDL statement, in execution order, as
    /// canonical BiDEL text — the replayable definition of the genealogy
    /// that checkpoints persist (recorded whether or not durability is on).
    pub ddl_history: Vec<String>,
}

/// Per-call [`IdSource`] adapter binding the registry to the key sequence.
/// Fresh identifiers are minted from the storage engine's global key
/// sequence so generated ids never collide with tuple identifiers — the
/// id-generating SMOs key rows by them (Appendix B.3, Rules 149/152).
pub struct IdMinter<'a> {
    registry: &'a Mutex<SkolemRegistry>,
    sequences: &'a inverda_storage::SequenceSet,
}

impl IdSource for IdMinter<'_> {
    fn generate(&self, generator: &str, args: &[Value]) -> u64 {
        self.registry
            .lock()
            .get_or_create_with(generator, args, || self.sequences.next_key().0)
    }

    fn peek(&self, generator: &str, args: &[Value]) -> Option<u64> {
        self.registry.lock().peek(generator, args)
    }
}

/// Outcome of executing a BiDEL script.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionOutcome {
    /// Names of schema versions created.
    pub created_versions: Vec<String>,
    /// Names of schema versions dropped.
    pub dropped_versions: Vec<String>,
    /// Number of MATERIALIZE statements executed.
    pub migrations: usize,
}

/// An InVerDa database: one data set, many co-existing schema versions.
pub struct Inverda {
    pub(crate) storage: Storage,
    pub(crate) state: RwLock<State>,
    pub(crate) ids: Mutex<SkolemRegistry>,
    /// Serializes logical writes and migrations.
    pub(crate) write_lock: Mutex<()>,
    /// Compiled SMO rule sets, fused chains and the catalog index, reused
    /// across statements; a DDL statement changes exactly the entries of
    /// what it adds or retires.
    pub(crate) compiled: CompiledStore,
    /// Cross-statement resolved-relation snapshots, delta-maintained by the
    /// write path and invalidated by physical-table epochs.
    pub(crate) snapshots: SnapshotStore,
    /// Whether reads/writes use the snapshot store (ablation control).
    snapshot_reuse: AtomicBool,
    /// Write-ahead log + checkpoint machinery; `None` for a purely
    /// in-memory database (see [`crate::durability`]).
    pub(crate) durability: Option<Durability>,
}

impl Default for Inverda {
    fn default() -> Self {
        Inverda::new()
    }
}

impl Inverda {
    /// The id source bound to this database's key sequence.
    pub(crate) fn id_source(&self) -> IdMinter<'_> {
        IdMinter {
            registry: &self.ids,
            sequences: self.storage.sequences(),
        }
    }

    /// The snapshot store, when reuse is enabled.
    pub(crate) fn snapshot_store(&self) -> Option<&SnapshotStore> {
        if self.snapshot_reuse.load(Ordering::Relaxed) {
            Some(&self.snapshots)
        } else {
            None
        }
    }

    /// A versioned read view over the current catalog state, bound to the
    /// snapshot store when reuse is enabled.
    pub(crate) fn edb<'a>(&'a self, state: &'a State, ids: &'a IdMinter<'a>) -> VersionedEdb<'a> {
        let edb = VersionedEdb::new(
            &state.genealogy,
            &state.materialization,
            &self.storage,
            ids,
            &self.compiled,
        );
        match self.snapshot_store() {
            Some(store) => edb.with_store(store),
            None => edb,
        }
    }

    /// The relations whose cached resolution record differs from a fresh
    /// walk over the catalog `state` and storage are at now — none, unless
    /// the compiled store missed a catalog change.
    pub(crate) fn stale_resolutions(&self, state: &State) -> Vec<String> {
        let (ids, fresh) = (self.id_source(), CompiledStore::new());
        let edb = VersionedEdb::new(
            &state.genealogy,
            &state.materialization,
            &self.storage,
            &ids,
            &fresh,
        );
        self.compiled
            .resolutions()
            .into_iter()
            .filter(|(relation, record)| edb.resolution(relation) != *record)
            .map(|(relation, _)| relation)
            .collect()
    }

    /// Debug builds assert after every catalog change — CREATE, DROP,
    /// MATERIALIZE and recovery — that no cached resolution record is
    /// stale, as `CompiledStore::extend_catalog` does for its index.
    pub(crate) fn debug_assert_resolutions(&self, state: &State) {
        debug_assert_eq!(self.stale_resolutions(state), Vec::<String>::new());
    }

    /// Fresh, empty, purely in-memory database. [`Inverda::open_in`] opens
    /// a durable one.
    pub fn new() -> Self {
        let storage = Storage::new();
        let snapshots = SnapshotStore::new();
        // The store's footprint stamps live in this storage's epoch
        // namespace; binding refuses cross-branch probes (see
        // `SnapshotStore::bind_owner`).
        snapshots.bind_owner(storage.branch_tag());
        Inverda {
            storage,
            state: RwLock::new(State {
                genealogy: Genealogy::new(),
                materialization: MaterializationSchema::initial(),
                write_path: WritePath::default(),
                ddl_history: Vec::new(),
            }),
            ids: Mutex::new(SkolemRegistry::new()),
            write_lock: Mutex::new(()),
            compiled: CompiledStore::new(),
            snapshots,
            snapshot_reuse: AtomicBool::new(true),
            durability: None,
        }
    }

    /// [`Inverda::new`] under the name that says it touches no disk.
    pub fn new_in_memory() -> Self {
        Inverda::new()
    }

    /// An independent in-memory fork of the current committed state — the
    /// O(metadata) branch primitive. Tables are shared copy-on-write at
    /// their current epochs ([`Storage::fork`]), the snapshot store and
    /// compiled-rule caches fork warm (entries `Arc`-shared, then fully
    /// isolated), the skolem registry and key-sequence floor are cloned,
    /// and the genealogy / materialization / DDL history are copied.
    /// Taken under the write lock, so no batch is in flight. The fork is
    /// always purely in-memory (branch-layer durability logs *logical*
    /// ops; see [`crate::branch`]) and starts with registry journaling
    /// off.
    pub fn fork_detached(&self) -> Inverda {
        let _guard = self.write_lock.lock();
        let state = self.state.read();
        let storage = self.storage.fork();
        let snapshots = self.snapshots.fork(storage.branch_tag());
        let registry = {
            let mut reg = self.ids.lock().clone();
            reg.set_journaling(false);
            reg
        };
        Inverda {
            snapshots,
            state: RwLock::new(State {
                genealogy: state.genealogy.clone(),
                materialization: state.materialization.clone(),
                write_path: state.write_path,
                ddl_history: state.ddl_history.clone(),
            }),
            ids: Mutex::new(registry),
            write_lock: Mutex::new(()),
            compiled: self.compiled.fork(),
            snapshot_reuse: AtomicBool::new(self.snapshot_reuse.load(Ordering::Relaxed)),
            durability: None,
            storage,
        }
    }

    /// Open (or create) a durable database at `path` with default options
    /// (per-commit fsync): load the latest checkpoint, replay the log
    /// tail, truncate any torn suffix — the recovered instance behaves
    /// exactly like one that never crashed, skolem minting order included.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Inverda::open_in(path, DurabilityOptions::default())
    }

    /// [`Inverda::open`] with explicit [`DurabilityOptions`]. Opening with
    /// [`DurabilityMode::Off`] yields a plain in-memory database (nothing
    /// at `path` is read or written).
    pub fn open_in(path: impl AsRef<Path>, options: DurabilityOptions) -> Result<Self> {
        if options.mode == DurabilityMode::Off {
            return Ok(Inverda::new_in_memory());
        }
        crate::durability::recovery::open(path.as_ref(), options)
    }

    /// Snapshot the full durable state atomically and rotate the log to a
    /// fresh generation. No-op on an in-memory database.
    pub fn checkpoint(&self) -> Result<()> {
        let _guard = self.write_lock.lock();
        let state = self.state.read();
        self.checkpoint_locked(&state)
    }

    /// Checkpoint while the caller already holds the write lock and a
    /// state guard (also the auto-checkpoint hook inside
    /// [`wal_append`](Inverda::wal_append)).
    pub(crate) fn checkpoint_locked(&self, state: &State) -> Result<()> {
        let Some(durability) = &self.durability else {
            return Ok(());
        };
        // The registry snapshot subsumes any not-yet-logged journal ops
        // (read-path mints since the last record); drop them so they are
        // not replayed — harmlessly but pointlessly — on top of the
        // checkpoint they are already part of.
        let registry = {
            let mut reg = self.ids.lock();
            let _ = reg.take_journal();
            reg.clone()
        };
        let tables: Vec<Relation> = self
            .storage
            .table_names()
            .into_iter()
            .filter_map(|name| self.storage.snapshot(&name).ok())
            .map(|rel| (*rel).clone())
            .collect();
        durability
            .rotate(|generation| Checkpoint {
                generation,
                ddl_history: state.ddl_history.clone(),
                materialization: state.materialization.smos().map(|s| s.0).collect(),
                key_seq: self.storage.sequences().current_key(),
                registry,
                tables,
            })
            .map_err(crate::error::CoreError::Storage)
    }

    /// Append one record to the WAL (draining nothing itself — the caller
    /// owns the journal-drain ordering) and run the auto-checkpoint when
    /// its threshold fires. No-op on an in-memory database.
    pub(crate) fn wal_append(&self, state: &State, record: Record) -> Result<()> {
        let Some(durability) = &self.durability else {
            return Ok(());
        };
        if durability
            .append(&record)
            .map_err(crate::error::CoreError::Storage)?
        {
            self.checkpoint_locked(state)?;
        }
        Ok(())
    }

    /// Flush any skolem-registry journal residue as a `RegistryOnly`
    /// record — called at the end of every public mutating entry point so
    /// each user-visible operation leaves at most one record, and mints a
    /// failed statement performed through its read path survive a crash
    /// exactly as they survive in memory.
    pub(crate) fn log_registry_residue(&self, state: &State) -> Result<()> {
        if self.durability.is_none() {
            return Ok(());
        }
        let reg_ops = self.ids.lock().take_journal();
        if reg_ops.is_empty() {
            return Ok(());
        }
        let key_seq = self.storage.sequences().current_key();
        self.wal_append(
            state,
            Record {
                reg_ops,
                key_seq,
                body: RecordBody::RegistryOnly,
            },
        )
    }

    /// Force unsynced WAL appends to disk (group commit). No-op on an
    /// in-memory database.
    pub fn flush(&self) -> Result<()> {
        match &self.durability {
            Some(d) => d.flush().map_err(crate::error::CoreError::Storage),
            None => Ok(()),
        }
    }

    /// Current WAL file length in bytes, `None` when in-memory. Fault
    /// injection uses this to pick truncation points and to assert that
    /// rejected statements leave the log untouched.
    pub fn wal_len(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.wal_len())
    }

    /// The durable directory backing this database, `None` when in-memory.
    pub fn durable_dir(&self) -> Option<PathBuf> {
        self.durability.as_ref().map(|d| d.dir().to_path_buf())
    }

    /// Execute a BiDEL script: `CREATE SCHEMA VERSION … WITH …;`,
    /// `DROP SCHEMA VERSION …;`, `MATERIALIZE '…';`.
    pub fn execute(&self, script: &str) -> Result<ExecutionOutcome> {
        let script = parse_script(script)?;
        let mut outcome = ExecutionOutcome::default();
        for stmt in script.statements {
            match stmt {
                Statement::CreateSchemaVersion { name, from, smos } => {
                    self.create_schema_version(&name, from.as_deref(), &smos)?;
                    outcome.created_versions.push(name);
                }
                Statement::DropSchemaVersion { name } => {
                    self.drop_schema_version(&name)?;
                    outcome.dropped_versions.push(name);
                }
                Statement::Materialize { targets } => {
                    self.materialize(&targets)?;
                    outcome.migrations += 1;
                }
            }
        }
        Ok(outcome)
    }

    /// The paper's **Database Evolution Operation**: register the SMOs in
    /// the catalog and generate delta code. The new version is immediately
    /// readable and writable; no data moves.
    pub fn create_schema_version(
        &self,
        name: &str,
        from: Option<&str>,
        smos: &[Smo],
    ) -> Result<()> {
        let _guard = self.write_lock.lock();
        let mut state = self.state.write();
        let text = Statement::CreateSchemaVersion {
            name: name.to_string(),
            from: from.map(str::to_string),
            smos: smos.to_vec(),
        }
        .to_string();
        let result = self.create_schema_version_locked(&mut state, name, from, smos);
        self.record_ddl(&mut state, text, &result)?;
        result
    }

    /// Register the evolution and create its physical tables. **Nothing
    /// cached is invalidated**, because nothing cached can have changed:
    ///
    /// * a new version only *adds* table versions, SMOs and aux tables,
    ///   under names (`tv<N>`, `smo<N>_aux_…`) minted from counters that
    ///   never hand out a name twice, so no cache key is reused — and a
    ///   CREATE that fails part-way is rolled back inside the genealogy,
    ///   counters included, before the engine has seen any of it;
    /// * an existing table version's storage case is decided by its
    ///   incoming SMO and by which of its outgoing SMOs is *materialized*
    ///   (`MaterializationSchema::storage_of`); the new SMOs start
    ///   virtualized (CREATE TABLE has no source, DROP TABLE never
    ///   materializes), so every existing relation keeps its defining rule
    ///   set — hence its compiled form, its fused chain and the static
    ///   footprint computed over those rules — and no existing rule set
    ///   mentions a new relation;
    /// * the new physical tables get fresh storage epochs and are in no
    ///   existing footprint, so every stamped snapshot stays exactly as
    ///   valid as it was.
    ///
    /// The catalog index is the one cache keyed by the *whole* genealogy;
    /// it is extended by the new entries instead of rebuilt. Writes pick
    /// up the new SMOs' aux tables through the genealogy's outgoing edges,
    /// which they walk live.
    fn create_schema_version_locked(
        &self,
        state: &mut State,
        name: &str,
        from: Option<&str>,
        smos: &[Smo],
    ) -> Result<()> {
        let outcome = state.genealogy.create_schema_version(name, from, smos)?;
        self.compiled.extend_catalog(&state.genealogy, &outcome);
        // Physical side effects: data tables for CREATE TABLE targets,
        // auxiliary tables for the initially-virtualized new SMOs.
        for smo_id in &outcome.new_smos {
            let inst = state.genealogy.smo(*smo_id);
            if inst.derived.kind == "CREATE TABLE" {
                for tv_id in &inst.targets {
                    let tv = state.genealogy.table_version(*tv_id);
                    self.storage
                        .create_table(TableSchema::new(tv.rel.clone(), tv.columns.clone())?)?;
                }
            }
            if inst.moves_data() {
                // New SMOs start virtualized: source-side aux + shared aux.
                for aux in inst
                    .derived
                    .src_aux
                    .iter()
                    .chain(inst.derived.shared_aux.iter().map(|s| &s.table))
                {
                    self.storage
                        .create_table(TableSchema::new(aux.rel.clone(), aux.columns.clone())?)?;
                }
            }
        }
        self.debug_assert_resolutions(state);
        Ok(())
    }

    /// On success, append the DDL statement to the replayable history and
    /// log it (with any skolem journal residue of this entry point); on
    /// failure, flush the residue alone so the crash-recovered registry
    /// matches the in-memory one.
    fn record_ddl(&self, state: &mut State, text: String, result: &Result<()>) -> Result<()> {
        match result {
            Ok(()) => {
                state.ddl_history.push(text.clone());
                if self.durability.is_none() {
                    return Ok(());
                }
                let reg_ops = self.ids.lock().take_journal();
                let key_seq = self.storage.sequences().current_key();
                self.wal_append(
                    state,
                    Record {
                        reg_ops,
                        key_seq,
                        body: RecordBody::Ddl(text),
                    },
                )
            }
            Err(_) => self.log_registry_residue(state),
        }
    }

    /// Drop a schema version. Data shared with other versions is kept; the
    /// table versions and SMOs only the dropped version could reach are
    /// retired, and their physical tables deleted. A version that holds the
    /// materialized data is refused
    /// ([`VersionHoldsData`](inverda_catalog::CatalogError::VersionHoldsData)):
    /// `MATERIALIZE` another version first.
    pub fn drop_schema_version(&self, name: &str) -> Result<()> {
        let _guard = self.write_lock.lock();
        let mut state = self.state.write();
        let text = Statement::DropSchemaVersion {
            name: name.to_string(),
        }
        .to_string();
        let result = self.drop_schema_version_locked(&mut state, name);
        self.record_ddl(&mut state, text, &result)?;
        result
    }

    /// Retire what the version orphans, then forget exactly that. The
    /// retired SMOs are virtualized (the genealogy refuses the drop
    /// otherwise) and their targets are gone, so no remaining relation
    /// resolves through them or reads their aux tables: every compiled
    /// rule set, fused chain, footprint and snapshot that is not the
    /// retired set's own is as valid as before.
    fn drop_schema_version_locked(&self, state: &mut State, name: &str) -> Result<()> {
        let retired = state
            .genealogy
            .drop_schema_version(name, &state.materialization)?;
        // A root version's own data tables, and the source-side and shared
        // aux tables of the virtualized SMOs.
        for rel in retired.relations() {
            if self.storage.has_table(rel) {
                self.storage.drop_table(rel)?;
            }
        }
        self.compiled.forget(&retired, &state.genealogy);
        self.snapshots.forget(&retired);
        self.debug_assert_resolutions(state);
        Ok(())
    }

    /// Names of all schema versions.
    pub fn versions(&self) -> Vec<String> {
        self.state
            .read()
            .genealogy
            .version_names()
            .into_iter()
            .map(String::from)
            .collect()
    }

    /// Table names of a schema version.
    pub fn tables_of(&self, version: &str) -> Result<Vec<String>> {
        let state = self.state.read();
        Ok(state
            .genealogy
            .version(version)?
            .tables
            .keys()
            .cloned()
            .collect())
    }

    /// Column names of `version.table`.
    pub fn columns_of(&self, version: &str, table: &str) -> Result<Vec<String>> {
        let state = self.state.read();
        let tv = state.genealogy.resolve(version, table)?;
        Ok(state.genealogy.table_version(tv).columns.clone())
    }

    /// Start building a read query against `version.table` — the logical
    /// query layer with index-backed selection, projection and limit over
    /// the resolved version (see [`crate::query`]). Name resolution and column
    /// validation happen when a terminal method executes the query.
    pub fn query(&self, version: &str, table: &str) -> crate::query::Query<'_> {
        crate::query::Query::new(self, version, table)
    }

    /// Read the full state of `version.table` — every schema version acts
    /// like a full-fledged single-schema database, wherever the data lives.
    /// A thin wrapper over the query layer's unrestricted plan, which hands
    /// back the resolved snapshot without copying.
    pub fn scan(&self, version: &str, table: &str) -> Result<Arc<Relation>> {
        self.query(version, table).collect_shared()
    }

    /// Point lookup by tuple identifier — the query layer's key-seek path,
    /// which pushes the key through the defining mappings instead of
    /// materializing the relation.
    pub fn get(&self, version: &str, table: &str, key: Key) -> Result<Option<Row>> {
        self.query(version, table).with_key(key).row()
    }

    /// Number of rows visible in `version.table`, via the query layer: a
    /// warm count is O(1) off the snapshot store and a cold count never
    /// clones rows.
    pub fn count(&self, version: &str, table: &str) -> Result<usize> {
        self.query(version, table).count()
    }

    /// Whether `version.table` has any visible row (O(1) warm; never clones
    /// rows).
    pub fn exists(&self, version: &str, table: &str) -> Result<bool> {
        self.query(version, table).exists()
    }

    /// Switch the write-propagation implementation (equivalence tests run
    /// the recompute oracle through it).
    pub fn set_write_path(&self, path: WritePath) {
        self.state.write().write_path = path;
    }

    /// The current write path.
    pub fn write_path(&self) -> WritePath {
        self.state.read().write_path
    }

    /// Enable or disable cross-statement snapshot reuse. Disabled is the
    /// reference mode the differential suites hold the engine to: no
    /// cross-statement snapshots and no fused chains — every read resolves
    /// cold, hop by hop. Disabling drops all cached snapshots so re-enabling
    /// starts cold.
    pub fn set_snapshot_reuse(&self, enabled: bool) {
        self.snapshot_reuse.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.snapshots.clear();
        }
    }

    /// Whether cross-statement snapshot reuse is enabled.
    pub fn snapshot_reuse(&self) -> bool {
        self.snapshot_reuse.load(Ordering::Relaxed)
    }

    /// Snapshot-store hit/miss/maintenance counters (diagnostics).
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.snapshots.stats()
    }

    /// Display form of the current materialization schema.
    pub fn materialization_display(&self) -> String {
        self.state.read().materialization.to_string()
    }

    /// The current materialization schema.
    pub fn materialization(&self) -> MaterializationSchema {
        self.state.read().materialization.clone()
    }

    /// Physical data tables (`version-independent` relation names) currently
    /// stored, with row counts — diagnostics for the physical table schema.
    pub fn physical_tables(&self) -> Vec<(String, usize)> {
        self.storage
            .table_names()
            .into_iter()
            .map(|name| {
                let rows = self.storage.row_count(&name).unwrap_or(0);
                (name, rows)
            })
            .collect()
    }

    /// Debug dump of the skolem registry (diagnostics).
    pub fn debug_registry(&self) -> String {
        self.ids.lock().dump()
    }

    /// Clone of the current skolem registry — test oracles re-deriving
    /// virtual state from the physical tables need the committed generator
    /// assignments (after an update purge of a physical `ID` memo,
    /// repeatable reads rest on the registry).
    pub fn registry_snapshot(&self) -> SkolemRegistry {
        self.ids.lock().clone()
    }

    /// Audit the snapshot store: re-resolve every valid virtual entry cold
    /// (against a throwaway copy of the skolem registry) and report any
    /// whose stored contents differ, and any column index — of an entry or
    /// of a physical table — that differs from a rebuild over the rows it
    /// sits with (diagnostics).
    pub fn snapshot_store_audit(&self) -> Vec<String> {
        use inverda_datalog::eval::EdbView;
        let state = self.state.read();
        // A throwaway copy: audits must not perturb the skolem state.
        let reg = std::cell::RefCell::new(self.ids.lock().clone());
        let edb = VersionedEdb::new(
            &state.genealogy,
            &state.materialization,
            &self.storage,
            &reg,
            &self.compiled,
        );
        let mut out = Vec::new();
        let entries = self.snapshots.valid_virtual(&self.storage);
        let tables = self.storage.snapshot_all().into_iter();
        let tables = tables.map(|(name, (rel, _))| (name, rel));
        for (name, rel) in tables.chain(entries.iter().cloned()) {
            for column in 0..rel.schema().arity() {
                if rel
                    .built_index(column)
                    .is_some_and(|index| *index != rel.build_column_index(column))
                {
                    out.push(format!(
                        "{name}: index over column {column} differs from its rows"
                    ));
                }
            }
        }
        for (name, stored) in entries {
            match edb.full(&name) {
                Ok(cold) => {
                    if *cold != *stored {
                        out.push(format!("{name}: stored:\n{stored}cold:\n{cold}"));
                    }
                }
                Err(e) => out.push(format!("{name}: cold resolve error {e:?}")),
            }
        }
        out
    }

    /// Current value of the global key sequence (diagnostics).
    pub fn debug_key_seq(&self) -> u64 {
        self.storage.sequences().current_key()
    }

    /// Number of cached fused γ-chains and the deepest fused hop run
    /// (diagnostics — lets tests assert that chain fusion engaged).
    pub fn fused_chain_stats(&self) -> (usize, usize) {
        self.compiled.fused_stats()
    }

    /// Shared snapshot of one physical table, `None` if it does not exist
    /// (diagnostics and test oracles — e.g. re-deriving a virtual version
    /// with the naive reference interpreter from the physical state).
    pub fn physical_snapshot(&self, table: &str) -> Option<Arc<Relation>> {
        self.storage.snapshot(table).ok()
    }

    /// Display form of one physical table's contents (diagnostics).
    pub fn debug_physical(&self, table: &str) -> String {
        self.storage
            .snapshot(table)
            .map(|rel| rel.to_string())
            .unwrap_or_else(|e| format!("<{e}>"))
    }

    /// The physical table schema `P` as user-visible names.
    pub fn physical_table_versions(&self) -> Vec<String> {
        let state = self.state.read();
        state
            .materialization
            .physical_tables(&state.genealogy)
            .into_iter()
            .map(|tv| {
                let t = state.genealogy.table_version(tv);
                format!("{} [{}]", t.name, t.rel)
            })
            .collect()
    }

    /// Resolve `version.table` to its storage case (diagnostics / tests).
    pub fn storage_case(&self, version: &str, table: &str) -> Result<&'static str> {
        let state = self.state.read();
        let tv = state.genealogy.resolve(version, table)?;
        Ok(
            match state.materialization.storage_of(&state.genealogy, tv) {
                StorageCase::Local => "local",
                StorageCase::Forward(_) => "forward",
                StorageCase::Backward(_) => "backward",
            },
        )
    }

    /// Run a closure against the genealogy (for tooling that needs the
    /// catalog structure, e.g. enumerating valid materialization schemas).
    pub fn with_genealogy<T>(&self, f: impl FnOnce(&Genealogy) -> T) -> T {
        f(&self.state.read().genealogy)
    }

    /// Seed the skolem registry with known `generator(payload) → id`
    /// assignments (bulk loads with externally assigned identifiers). The
    /// seeds are committed state: on a durable database they are logged
    /// (hence the write lock and the fallible signature).
    pub fn observe_ids(&self, generator: &str, assignments: &[(Vec<Value>, u64)]) -> Result<()> {
        let _guard = self.write_lock.lock();
        {
            let mut reg = self.ids.lock();
            for (args, id) in assignments {
                reg.observe(generator, args, *id);
            }
        }
        let state = self.state.read();
        self.log_registry_residue(&state)
    }
}

impl Drop for Inverda {
    fn drop(&mut self) {
        let Some(durability) = &self.durability else {
            return;
        };
        // Push any group-committed tail to disk; a failure here is the
        // crash this subsystem exists to tolerate, so it is not propagated.
        let _ = durability.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasky_db() -> Inverda {
        let db = Inverda::new();
        db.execute("CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio);")
            .unwrap();
        db
    }

    #[test]
    fn create_initial_version_with_table() {
        let db = tasky_db();
        assert_eq!(db.versions(), vec!["TasKy"]);
        assert_eq!(db.tables_of("TasKy").unwrap(), vec!["Task"]);
        assert_eq!(
            db.columns_of("TasKy", "Task").unwrap(),
            vec!["author", "task", "prio"]
        );
        assert_eq!(db.count("TasKy", "Task").unwrap(), 0);
        assert_eq!(db.storage_case("TasKy", "Task").unwrap(), "local");
    }

    #[test]
    fn evolution_exposes_new_version_immediately() {
        let db = tasky_db();
        db.execute(
            "CREATE SCHEMA VERSION Do! FROM TasKy WITH \
             SPLIT TABLE Task INTO Todo WITH prio = 1; \
             DROP COLUMN prio FROM Todo DEFAULT 1;",
        )
        .unwrap();
        assert_eq!(db.tables_of("Do!").unwrap(), vec!["Todo"]);
        assert_eq!(
            db.columns_of("Do!", "Todo").unwrap(),
            vec!["author", "task"]
        );
        assert_eq!(db.count("Do!", "Todo").unwrap(), 0);
        assert_eq!(db.storage_case("Do!", "Todo").unwrap(), "backward");
    }

    #[test]
    fn unknown_names_error() {
        let db = tasky_db();
        assert!(db.scan("Nope", "Task").is_err());
        assert!(db.scan("TasKy", "Nope").is_err());
        assert!(db
            .execute("CREATE SCHEMA VERSION TasKy WITH CREATE TABLE X(a);")
            .is_err());
    }

    /// Creating, using and dropping a version leaves nothing behind: not in
    /// the genealogy, not in storage, not in either store. (It used to
    /// leave a table version, an SMO and its aux table per cycle, walked by
    /// every later statement.)
    #[test]
    fn create_use_drop_cycles_leave_state_bounded() {
        let build = || {
            let db = tasky_db();
            db.execute(
                "CREATE SCHEMA VERSION Do! FROM TasKy WITH \
                 SPLIT TABLE Task INTO Todo WITH prio = 1; \
                 DROP COLUMN prio FROM Todo DEFAULT 1;",
            )
            .unwrap();
            for i in 0..20i64 {
                let row = vec![
                    Value::text("ann"),
                    Value::text(format!("t{i}")),
                    (i % 3).into(),
                ];
                db.insert("TasKy", "Task", row).unwrap();
            }
            db
        };
        let db = build();
        let sizes = |db: &Inverda| {
            let state = db.state.read();
            (
                state.genealogy.table_version_count(),
                state.genealogy.smo_ids().len(),
                db.physical_tables().len(),
                db.compiled.len(),
                db.compiled.fused_stats().0,
                db.snapshots.len(),
                db.compiled.resolutions().len(),
            )
        };
        let cycle = |db: &Inverda| {
            db.execute(
                "CREATE SCHEMA VERSION X FROM Do! WITH \
                 ADD COLUMN note AS 0 INTO Todo; RENAME COLUMN note IN Todo TO memo;",
            )
            .unwrap();
            let row = vec![Value::text("ben"), Value::text("x"), 7.into()];
            let key = db.insert("X", "Todo", row).unwrap();
            assert_eq!(
                db.count("X", "Todo").unwrap(),
                db.count("Do!", "Todo").unwrap()
            );
            assert!(db.get("TasKy", "Task", key).unwrap().is_some());
            db.delete("X", "Todo", key).unwrap();
            db.execute("DROP SCHEMA VERSION X;").unwrap();
        };
        // One cycle first: it compiles and resolves what stays for good.
        cycle(&db);
        let start = sizes(&db);
        for _ in 0..100 {
            cycle(&db);
        }
        assert_eq!(sizes(&db), start);
        assert!(db.snapshot_store_audit().is_empty());
        // A MATERIALIZE there and back leaves no more resolution records
        // than it leaves on a database that never churned.
        let fresh = build();
        cycle(&fresh);
        for db in [&db, &fresh] {
            db.execute("MATERIALIZE 'Do!'; MATERIALIZE 'TasKy';")
                .unwrap();
        }
        let records = |db: &Inverda| db.compiled.resolutions().len();
        assert!(records(&db) > 0);
        assert!(records(&db) <= records(&fresh));
    }
}

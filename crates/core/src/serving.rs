//! The concurrent serving layer: MVCC snapshot reads over a pipelined,
//! group-committing write queue.
//!
//! [`Inverda`] is already safe to share, but every statement contends on the
//! same locks and every reader observes the moving head. This module layers
//! the paper's *co-existing schema versions serving concurrent applications*
//! on top:
//!
//! * **Readers** ([`Reader::pin`] / [`ServingInverda::pin`]) take an
//!   **epoch-pinned** [`PinnedView`] of the latest published epoch. One rule
//!   decides what that holds: *whatever a published epoch can serve, it
//!   holds* — an `Arc` copy of every table (O(tables) pointer clones via
//!   [`Storage::snapshot_all`]), the committed skolem registry and key
//!   sequence, and a fork of the snapshot store
//!   ([`SnapshotStore::fork`](crate::snapshot::SnapshotStore::fork)), taken
//!   before the registry and the key sequence so that every id a forked
//!   entry holds is one the registry assigns. A pin copies the table map
//!   and forks that fork again. All subsequent reads run entirely
//!   against pin-private state — they never take the writer lock and never
//!   block (or are blocked by) the commit pipeline. Reads on the pin are
//!   byte-identical to a single-session database stopped at that epoch,
//!   including skolem minting order (fresh read-path mints go to a
//!   pin-private scratch registry seeded with the pinned key sequence).
//! * **Writers** ([`Client`]) submit statements into a single admission
//!   queue drained by one **commit pipeline** thread. Each drained batch is
//!   executed statement-at-a-time (each request keeps its own atomicity),
//!   assigned dense commit epochs `1..`, and published; on a database
//!   opened in [`DurabilityMode::Group`] the pipeline installs a WAL
//!   group-size override so the fsync happens **once per drained group** —
//!   the group window becomes cross-session batching instead of per-record
//!   counting — and replies are released only after that group fsync, so an
//!   acknowledged write is crash-durable.
//!
//! Every epoch the pipeline publishes, and every pin taken from it, holds an
//! `Arc` of every table and of every snapshot in the store, so the next
//! write changes all of those copy-on-write. That stays O(change), not
//! O(rows): a `Relation` keeps its rows in shared chunks, and a write copies
//! the chunk pointers and only the chunks it touches (`relation.rs`,
//! "Structural sharing") — a served write costs a write plus an fsync, with
//! or without a pin outstanding.
//!
//! The linearizable commit order is the pipeline's drain order; the oracle
//! in `tests/serving_props.rs` replays it single-threaded and asserts every
//! concurrent read byte-identical to the sequential state at its pinned
//! epoch.

use crate::compiled::CompiledStore;
use crate::database::ExecutionOutcome;
use crate::durability::DurabilityMode;
use crate::snapshot::SnapshotStore;
use crate::write::LogicalWrite;
use crate::{CoreError, Inverda, Result};
use inverda_catalog::{Genealogy, MaterializationSchema};
use inverda_datalog::eval::{EdbView, IdSource};
use inverda_datalog::SkolemRegistry;
use inverda_storage::{Key, Relation, Row, Storage, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Requests drained per pipeline iteration (and records per group fsync).
const GROUP_CAP: usize = 64;

/// Pin-private id source: committed assignments come from the pinned
/// registry; fresh read-path mints go to a scratch overlay and draw from
/// the pinned storage's key sequence — exactly what a single-session
/// database stopped at the pinned epoch would mint, in the same order.
struct PinIds {
    storage: Arc<Storage>,
    registry: Arc<SkolemRegistry>,
    scratch: Mutex<SkolemRegistry>,
}

impl IdSource for PinIds {
    fn generate(&self, generator: &str, args: &[Value]) -> u64 {
        if let Some(id) = self.registry.peek(generator, args) {
            return id;
        }
        let mut scratch = self.scratch.lock();
        if let Some(id) = scratch.peek(generator, args) {
            return id;
        }
        let id = self.storage.sequences().next_key().0;
        scratch.observe(generator, args, id);
        id
    }

    fn peek(&self, generator: &str, args: &[Value]) -> Option<u64> {
        self.registry
            .peek(generator, args)
            .or_else(|| self.scratch.lock().peek(generator, args))
    }
}

/// An epoch-consistent read view over every schema version, detached from
/// the live database: reads here never block writers and are never
/// invalidated by them. Obtained from [`Inverda::pin`] (current state) or
/// [`Reader::pin`] (latest published serving epoch).
pub struct PinnedView {
    genealogy: Arc<Genealogy>,
    materialization: Arc<MaterializationSchema>,
    storage: Arc<Storage>,
    store: SnapshotStore,
    compiled: Arc<CompiledStore>,
    ids: PinIds,
    epoch: u64,
    key_seq: u64,
}

impl PinnedView {
    /// A view of the state `p` holds.
    fn build(p: Published) -> PinnedView {
        let storage = Arc::new(Storage::from_pinned(p.tables, p.key_seq, p.branch_tag));
        PinnedView {
            genealogy: p.genealogy,
            materialization: p.materialization,
            ids: PinIds {
                storage: Arc::clone(&storage),
                registry: p.registry,
                scratch: Mutex::new(SkolemRegistry::new()),
            },
            storage,
            store: p.store,
            compiled: p.compiled,
            epoch: p.epoch,
            key_seq: p.key_seq,
        }
    }

    fn edb(&self) -> crate::edb::VersionedEdb<'_> {
        crate::edb::VersionedEdb::new(
            &self.genealogy,
            &self.materialization,
            &self.storage,
            &self.ids,
            &self.compiled,
        )
        .with_store(&self.store)
    }

    fn rel_of(&self, version: &str, table: &str) -> Result<String> {
        let tv = self.genealogy.resolve(version, table)?;
        Ok(self.genealogy.table_version(tv).rel.clone())
    }

    /// The serving commit epoch this view is pinned at (0 for a pin taken
    /// directly from an [`Inverda`] outside a serving pipeline).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The committed key-sequence value at the pinned epoch.
    pub fn key_seq(&self) -> u64 {
        self.key_seq
    }

    /// Debug dump of the **committed** skolem registry at the pinned epoch
    /// (scratch mints of this pin's own reads are not included).
    pub fn registry_dump(&self) -> String {
        self.ids.registry.dump()
    }

    /// Counters of this view's private snapshot store: what its own reads
    /// hit, missed and resolved (diagnostics).
    pub fn snapshot_stats(&self) -> crate::snapshot::SnapshotStats {
        self.store.stats()
    }

    /// Names of all schema versions at the pinned epoch.
    pub fn versions(&self) -> Vec<String> {
        self.genealogy
            .version_names()
            .into_iter()
            .map(String::from)
            .collect()
    }

    /// Table names of a schema version at the pinned epoch.
    pub fn tables_of(&self, version: &str) -> Result<Vec<String>> {
        Ok(self
            .genealogy
            .version(version)?
            .tables
            .keys()
            .cloned()
            .collect())
    }

    /// Read the full state of `version.table` at the pinned epoch.
    pub fn scan(&self, version: &str, table: &str) -> Result<Arc<Relation>> {
        let rel = self.rel_of(version, table)?;
        self.edb().full(&rel).map_err(CoreError::from)
    }

    /// Number of rows visible in `version.table` at the pinned epoch.
    pub fn count(&self, version: &str, table: &str) -> Result<usize> {
        Ok(self.scan(version, table)?.len())
    }

    /// Point lookup by tuple identifier at the pinned epoch.
    pub fn get(&self, version: &str, table: &str, key: Key) -> Result<Option<Row>> {
        let rel = self.rel_of(version, table)?;
        self.edb().by_key(&rel, key).map_err(CoreError::from)
    }
}

impl Inverda {
    /// Pin the current committed state into a [`PinnedView`]: an
    /// epoch-consistent snapshot of every table, the skolem registry, and
    /// the key sequence, taken under the writer lock so no batch is in
    /// flight. Reads on the view never touch the live database again.
    ///
    /// Inside a serving pipeline prefer [`Reader::pin`], which pins the
    /// latest *published* epoch without taking the writer lock.
    pub fn pin(&self) -> PinnedView {
        let _guard = self.write_lock.lock();
        let state = self.state.read();
        // The store first: reads run beside the writer lock and can mint,
        // so only a fork taken before the registry clone and the key
        // sequence read is sure to hold no id the pin does not know.
        let branch_tag = self.storage.branch_tag();
        let store = self.snapshots.fork(branch_tag);
        let registry = Arc::new(self.ids.lock().clone());
        PinnedView::build(Published {
            epoch: 0,
            tables: self.storage.snapshot_all(),
            key_seq: self.storage.sequences().current_key(),
            genealogy: Arc::new(state.genealogy.clone()),
            materialization: Arc::new(state.materialization.clone()),
            registry,
            compiled: Arc::new(CompiledStore::new()),
            store,
            branch_tag,
        })
    }
}

/// One write-side request for the commit pipeline.
#[derive(Debug, Clone)]
pub enum ServingOp {
    /// A batch of logical writes against one `version.table`, applied as a
    /// single atomic [`Inverda::apply_many`].
    Apply {
        /// Schema version name.
        version: String,
        /// Table name within the version.
        table: String,
        /// The logical writes, applied in order within one propagation
        /// round.
        writes: Vec<LogicalWrite>,
    },
    /// A BiDEL script (DDL / MATERIALIZE) via [`Inverda::execute`].
    Execute(String),
    /// Snapshot the durable state and rotate the log
    /// ([`Inverda::checkpoint`]).
    Checkpoint,
}

/// What a successfully committed [`ServingOp`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingOutcome {
    /// Minted identifiers per write (`None` for updates/deletes).
    Applied(Vec<Option<Key>>),
    /// Script outcome.
    Executed(ExecutionOutcome),
    /// Checkpoint completed.
    Checkpointed,
}

/// The pipeline's acknowledgement of one request, sent after the request's
/// group became durable (group mode) or immediately after commit otherwise.
#[derive(Debug, Clone)]
pub struct ServingReply {
    /// The dense commit epoch assigned to this request (failed requests
    /// consume an epoch too — they can consume keys and registry state, so
    /// the oracle must replay them).
    pub epoch: u64,
    /// WAL length in bytes right after this request's record landed
    /// (`None` in-memory). Fault injection uses this as a truncation
    /// boundary.
    pub wal_len: Option<u64>,
    /// The statement outcome.
    pub outcome: Result<ServingOutcome>,
}

struct Request {
    op: ServingOp,
    reply: mpsc::Sender<ServingReply>,
}

/// What the admission queue carries: a request, or `None`, which asks the
/// pipeline to stop once everything admitted before it is done.
type Admission = Option<Request>;

/// Everything a [`PinnedView`] needs, captured at one commit epoch. The
/// pipeline publishes a fresh `Published` after every operation; readers
/// grab the `Arc` and take a copy of their own ([`Published::fork`]).
struct Published {
    epoch: u64,
    tables: BTreeMap<String, (Arc<Relation>, u64)>,
    key_seq: u64,
    genealogy: Arc<Genealogy>,
    materialization: Arc<MaterializationSchema>,
    registry: Arc<SkolemRegistry>,
    /// Compiled rule sets shared by every pin of this catalog generation
    /// (swapped for a fresh store whenever an `Execute` changes the
    /// catalog; SMO ids are never reused, and fused-chain revalidation
    /// checks each pin's own storage).
    compiled: Arc<CompiledStore>,
    /// The snapshot store as it stood at this epoch, forked before the
    /// registry and the key sequence were captured (see the module docs).
    store: SnapshotStore,
    /// The origin storage's epoch namespace. A pinned storage reproduces
    /// the origin's epochs, so it stamps in the same one, and the store
    /// fork stays bound to it.
    branch_tag: u64,
}

impl Published {
    /// A pin's copy: the same tables and catalog, its own store fork.
    fn fork(&self) -> Published {
        Published {
            epoch: self.epoch,
            tables: self.tables.clone(),
            key_seq: self.key_seq,
            genealogy: Arc::clone(&self.genealogy),
            materialization: Arc::clone(&self.materialization),
            registry: Arc::clone(&self.registry),
            compiled: Arc::clone(&self.compiled),
            store: self.store.fork(self.branch_tag),
            branch_tag: self.branch_tag,
        }
    }
}

/// Shared state between the façade, its readers, and the pipeline thread.
struct Shared {
    db: Arc<Inverda>,
    published: RwLock<Arc<Published>>,
    /// Highest epoch ever published (monotonicity diagnostics).
    max_epoch: AtomicU64,
}

/// A cheap, cloneable handle for taking epoch-pinned reads on the latest
/// published commit epoch. Safe to move into reader threads.
#[derive(Clone)]
pub struct Reader {
    shared: Arc<Shared>,
}

impl Reader {
    /// Pin the latest published epoch. Never takes the writer lock; the
    /// pipeline is never blocked by this call.
    pub fn pin(&self) -> PinnedView {
        let p = Arc::clone(&self.shared.published.read());
        PinnedView::build(p.fork())
    }

    /// The latest published commit epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.published.read().epoch
    }
}

/// A cheap, cloneable write-side handle: submits requests into the
/// admission queue and blocks for the pipeline's acknowledgement. Safe to
/// move into writer threads.
#[derive(Clone)]
pub struct Client {
    sender: mpsc::Sender<Admission>,
}

impl Client {
    /// Submit one request and wait for its committed (and, in group mode,
    /// durable) acknowledgement. A request the pipeline never admits,
    /// because it has been [shut down](ServingInverda::shutdown), is
    /// answered with [`CoreError::ShutDown`] at epoch 0.
    pub fn submit(&self, op: ServingOp) -> ServingReply {
        let (tx, rx) = mpsc::channel();
        // A refused request drops its reply sender, so `recv` fails.
        let _ = self.sender.send(Some(Request { op, reply: tx }));
        rx.recv().unwrap_or(ServingReply {
            epoch: 0,
            wal_len: None,
            outcome: Err(CoreError::ShutDown),
        })
    }

    /// [`ServingOp::Apply`] convenience.
    pub fn apply_many(
        &self,
        version: &str,
        table: &str,
        writes: Vec<LogicalWrite>,
    ) -> ServingReply {
        self.submit(ServingOp::Apply {
            version: version.to_string(),
            table: table.to_string(),
            writes,
        })
    }

    /// Insert one row; convenience over [`Client::apply_many`].
    pub fn insert(&self, version: &str, table: &str, row: Row) -> ServingReply {
        self.apply_many(version, table, vec![LogicalWrite::Insert(row)])
    }

    /// [`ServingOp::Execute`] convenience.
    pub fn execute(&self, script: &str) -> ServingReply {
        self.submit(ServingOp::Execute(script.to_string()))
    }

    /// [`ServingOp::Checkpoint`] convenience.
    pub fn checkpoint(&self) -> ServingReply {
        self.submit(ServingOp::Checkpoint)
    }
}

/// The serving façade: one [`Inverda`], any number of epoch-pinned readers,
/// one commit pipeline draining a single admission queue. See the module
/// docs.
pub struct ServingInverda {
    shared: Arc<Shared>,
    sender: mpsc::Sender<Admission>,
    pipeline: Mutex<Option<JoinHandle<()>>>,
}

impl ServingInverda {
    /// Serve an existing shared database. Captures the current state as
    /// published epoch 0 and starts the pipeline thread; under group-mode
    /// durability the WAL's per-record group counting is overridden so
    /// fsync runs once per drained group.
    pub fn new(db: Arc<Inverda>) -> ServingInverda {
        if let Some(d) = &db.durability {
            if d.mode() == DurabilityMode::Group {
                d.set_group_override(u64::MAX);
            }
        }
        // The store before the registry: see `PipelineCatalog::publish`.
        let store = db.snapshots.fork(db.storage.branch_tag());
        let catalog = PipelineCatalog::capture(&db);
        let published = catalog.publish(&db, 0, store);
        let shared = Arc::new(Shared {
            db,
            published: RwLock::new(Arc::new(published)),
            max_epoch: AtomicU64::new(0),
        });
        let (tx, rx) = mpsc::channel();
        let pipeline_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("inverda-serving".to_string())
            .spawn(move || run_pipeline(pipeline_shared, catalog, rx))
            .expect("spawn serving pipeline");
        ServingInverda {
            shared,
            sender: tx,
            pipeline: Mutex::new(Some(handle)),
        }
    }

    /// [`ServingInverda::new`] over a freshly owned database.
    pub fn over(db: Inverda) -> ServingInverda {
        ServingInverda::new(Arc::new(db))
    }

    /// A read-side handle (cloneable, thread-safe).
    pub fn reader(&self) -> Reader {
        Reader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A write-side handle (cloneable, thread-safe). After
    /// [`shutdown`](ServingInverda::shutdown) its requests are refused
    /// ([`Client::submit`]).
    pub fn client(&self) -> Client {
        Client {
            sender: self.sender.clone(),
        }
    }

    /// Pin the latest published epoch (shorthand for `reader().pin()`).
    pub fn pin(&self) -> PinnedView {
        self.reader().pin()
    }

    /// The latest published commit epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.published.read().epoch
    }

    /// The underlying database (diagnostics, audits; direct statements on
    /// it bypass the pipeline's epoch accounting).
    pub fn db(&self) -> &Arc<Inverda> {
        &self.shared.db
    }

    /// Submit through a one-shot client. See [`Client::apply_many`].
    pub fn apply_many(
        &self,
        version: &str,
        table: &str,
        writes: Vec<LogicalWrite>,
    ) -> ServingReply {
        self.client().apply_many(version, table, writes)
    }

    /// Submit through a one-shot client. See [`Client::execute`].
    pub fn execute(&self, script: &str) -> ServingReply {
        self.client().execute(script)
    }

    /// Submit through a one-shot client. See [`Client::checkpoint`].
    pub fn checkpoint(&self) -> ServingReply {
        self.client().checkpoint()
    }

    /// Drain and stop the pipeline, then wait for it to exit. Requests
    /// admitted before the call are still committed and acknowledged; later
    /// ones are refused, whatever [`Client`]s are still outstanding.
    pub fn shutdown(&self) {
        let _ = self.sender.send(None);
        if let Some(handle) = self.pipeline.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServingInverda {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The pipeline's locally tracked catalog-generation state, re-captured
/// only when it can have changed (an `Execute` for the catalog, a registry
/// revision bump for the registry) so per-op publishing stays O(tables).
struct PipelineCatalog {
    genealogy: Arc<Genealogy>,
    materialization: Arc<MaterializationSchema>,
    registry: Arc<SkolemRegistry>,
    revision: u64,
    compiled: Arc<CompiledStore>,
}

impl PipelineCatalog {
    fn capture(db: &Inverda) -> PipelineCatalog {
        let state = db.state.read();
        let reg = db.ids.lock();
        PipelineCatalog {
            genealogy: Arc::new(state.genealogy.clone()),
            materialization: Arc::new(state.materialization.clone()),
            revision: reg.revision(),
            registry: Arc::new(reg.clone()),
            compiled: Arc::new(CompiledStore::new()),
        }
    }

    fn refresh_catalog(&mut self, db: &Inverda) {
        let state = db.state.read();
        self.genealogy = Arc::new(state.genealogy.clone());
        self.materialization = Arc::new(state.materialization.clone());
        self.compiled = Arc::new(CompiledStore::new());
    }

    fn refresh_registry(&mut self, db: &Inverda) {
        let reg = db.ids.lock();
        if reg.revision() != self.revision {
            self.revision = reg.revision();
            self.registry = Arc::new(reg.clone());
        }
    }

    /// The epoch to publish: this catalog, `db`'s tables and key sequence,
    /// and `store`, a fork of `db`'s snapshot store taken before the
    /// registry was captured, so every id a forked entry holds is in the
    /// published registry and below the key sequence read here.
    fn publish(&self, db: &Inverda, epoch: u64, store: SnapshotStore) -> Published {
        Published {
            epoch,
            tables: db.storage.snapshot_all(),
            key_seq: db.storage.sequences().current_key(),
            genealogy: Arc::clone(&self.genealogy),
            materialization: Arc::clone(&self.materialization),
            registry: Arc::clone(&self.registry),
            compiled: Arc::clone(&self.compiled),
            store,
            branch_tag: db.storage.branch_tag(),
        }
    }
}

/// The commit pipeline: drain the admission queue in groups, execute each
/// request as its own statement, publish after every commit, fsync once per
/// group, acknowledge after the fsync.
fn run_pipeline(shared: Arc<Shared>, mut catalog: PipelineCatalog, rx: mpsc::Receiver<Admission>) {
    let db = &shared.db;
    let group_mode = db
        .durability
        .as_ref()
        .is_some_and(|d| d.mode() == DurabilityMode::Group);
    let mut epoch = shared.published.read().epoch;
    let mut stopping = false;
    while !stopping {
        let Ok(Some(first)) = rx.recv() else {
            break;
        };
        let mut batch = vec![first];
        while batch.len() < GROUP_CAP {
            match rx.try_recv() {
                Ok(Some(req)) => batch.push(req),
                Ok(None) => {
                    stopping = true;
                    break;
                }
                Err(_) => break,
            }
        }
        let mut pending = Vec::with_capacity(batch.len());
        for Request { op, reply } in batch {
            epoch += 1;
            let catalog_op = matches!(op, ServingOp::Execute(_));
            let outcome = match op {
                ServingOp::Apply {
                    version,
                    table,
                    writes,
                } => db
                    .apply_many(&version, &table, writes)
                    .map(ServingOutcome::Applied),
                ServingOp::Execute(script) => db.execute(&script).map(ServingOutcome::Executed),
                ServingOp::Checkpoint => db.checkpoint().map(|()| ServingOutcome::Checkpointed),
            };
            let store = db.snapshots.fork(db.storage.branch_tag());
            // A failed script can still have committed a statement prefix,
            // so the catalog is re-captured on every Execute.
            if catalog_op {
                catalog.refresh_catalog(db);
            }
            catalog.refresh_registry(db);
            let wal_len = db.wal_len();
            let published = catalog.publish(db, epoch, store);
            *shared.published.write() = Arc::new(published);
            shared.max_epoch.fetch_max(epoch, Ordering::Relaxed);
            pending.push((
                reply,
                ServingReply {
                    epoch,
                    wal_len,
                    outcome,
                },
            ));
        }
        // Group commit: one fsync per drained group, then release every
        // acknowledgement — an acknowledged request is durable.
        if group_mode {
            let _ = db.flush();
        }
        for (reply, ack) in pending {
            let _ = reply.send(ack);
        }
    }
    if group_mode {
        let _ = db.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inverda_storage::Value;

    fn tasky_serving() -> ServingInverda {
        let db = Inverda::new();
        db.execute("CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio);")
            .unwrap();
        ServingInverda::over(db)
    }

    fn row(author: &str, task: &str, prio: i64) -> Row {
        vec![Value::text(author), Value::text(task), Value::Int(prio)]
    }

    /// `shutdown` (and so `Drop`) returns while a `Client` is still alive,
    /// and that client's later requests are refused, not left hanging.
    /// Run under a watchdog: a hang fails the test instead of the suite.
    #[test]
    fn shutdown_returns_with_a_client_outstanding() {
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let serving = tasky_serving();
            let client = serving.client();
            let admitted = client.insert("TasKy", "Task", row("ann", "write", 1));
            assert_eq!(admitted.epoch, 1);
            serving.shutdown();
            let refused = client.insert("TasKy", "Task", row("bob", "review", 2));
            assert!(matches!(refused.outcome, Err(CoreError::ShutDown)));
            assert!(serving
                .execute("DROP SCHEMA VERSION TasKy;")
                .outcome
                .is_err());
            drop(serving);
            assert_eq!(client.checkpoint().epoch, 0);
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("shutdown hung (or failed) with a client outstanding");
    }

    #[test]
    fn pinned_reads_do_not_see_later_commits() {
        let serving = tasky_serving();
        let client = serving.client();
        client.insert("TasKy", "Task", row("ann", "write", 1));
        let pin = serving.pin();
        assert_eq!(pin.epoch(), 1);
        assert_eq!(pin.count("TasKy", "Task").unwrap(), 1);
        client.insert("TasKy", "Task", row("bob", "review", 2));
        // The pin keeps serving epoch 1; a fresh pin sees epoch 2.
        assert_eq!(pin.count("TasKy", "Task").unwrap(), 1);
        let pin2 = serving.pin();
        assert_eq!(pin2.epoch(), 2);
        assert_eq!(pin2.count("TasKy", "Task").unwrap(), 2);
    }

    #[test]
    fn pinned_reads_survive_ddl_and_match_prior_state() {
        let serving = tasky_serving();
        let client = serving.client();
        client.insert("TasKy", "Task", row("ann", "write", 1));
        client.insert("TasKy", "Task", row("bob", "relax", 2));
        let pin = serving.pin();
        let before = pin.scan("TasKy", "Task").unwrap();
        let reply = client.execute(
            "CREATE SCHEMA VERSION Do! FROM TasKy WITH \
             SPLIT TABLE Task INTO Todo WITH prio = 1; \
             DROP COLUMN prio FROM Todo DEFAULT 1;",
        );
        assert!(reply.outcome.is_ok());
        // The pin predates the DDL: same versions, same bytes.
        assert_eq!(pin.versions(), vec!["TasKy".to_string()]);
        assert_eq!(
            pin.scan("TasKy", "Task").unwrap().to_string(),
            before.to_string()
        );
        // A fresh pin sees the new version.
        let pin2 = serving.pin();
        assert_eq!(pin2.count("Do!", "Todo").unwrap(), 1);
    }

    #[test]
    fn failed_requests_consume_epochs() {
        let serving = tasky_serving();
        let client = serving.client();
        let bad = client.apply_many(
            "TasKy",
            "Task",
            vec![LogicalWrite::Insert(vec![Value::Int(1)])],
        );
        assert!(bad.outcome.is_err());
        assert_eq!(bad.epoch, 1);
        let good = client.insert("TasKy", "Task", row("ann", "write", 1));
        assert!(good.outcome.is_ok());
        assert_eq!(good.epoch, 2);
        assert_eq!(serving.epoch(), 2);
    }

    #[test]
    fn core_level_pin_is_isolated() {
        let db = Arc::new(Inverda::new());
        db.execute("CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio);")
            .unwrap();
        db.insert("TasKy", "Task", row("ann", "write", 1)).unwrap();
        let pin = db.pin();
        db.insert("TasKy", "Task", row("bob", "review", 2)).unwrap();
        assert_eq!(pin.count("TasKy", "Task").unwrap(), 1);
        assert_eq!(db.count("TasKy", "Task").unwrap(), 2);
        assert_eq!(pin.epoch(), 0);
    }
}

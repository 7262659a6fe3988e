//! Cross-statement snapshot store: resolved virtual relations, kept alive
//! and **delta-maintained** across statements.
//!
//! Without it, every statement would build a fresh [`VersionedEdb`] and
//! re-resolve each virtual relation from scratch, and per-write cost would
//! be dominated by O(data) view expansion. The store lifts that state out
//! of the statement:
//!
//! * **Entries** are keyed by relation name and hold the resolved
//!   `Arc<Relation>` snapshot of a virtual relation (physical tables are
//!   served straight from [`Storage`]). A snapshot carries its own column
//!   indexes ([`Relation::index`]): built by whoever probes it first, patched
//!   with its rows, and kept wherever the snapshot goes.
//! * **Validity** is decided by the entry's *footprint*: the set of physical
//!   tables the relation's defining mappings can read (computed statically
//!   over the rule sets, so it is a superset of any data-dependent read set
//!   and stable under patching; it is part of the relation's resolution
//!   record, which the [`CompiledStore`] caches per catalog state, not this
//!   store), each stamped with the [`Storage`] epoch
//!   observed when the snapshot was taken. An entry is served only while
//!   every footprint table still shows its stamped epoch; epochs are never
//!   reused, so staleness detection is exact even across table re-creation.
//! * **Maintenance**: the write path does not throw resolved state away. As
//!   [`drain`] pushes a logical delta toward physical storage it records the
//!   exact per-relation head deltas it already computed; after the batch
//!   commits, [`SnapshotStore::commit`] applies those deltas to the cached
//!   snapshots copy-on-write (which patches their indexes too) and
//!   restamps their footprints — O(delta) instead of O(data). Hops whose
//!   defining mapping can mint ids are maintained **against the stored
//!   snapshot**, which stands in for the old state so that only the new
//!   state is ever evaluated (minting exactly what a post-write cold read
//!   would mint, in the same order): a non-staged minting mapping (FK
//!   DECOMPOSE) by **delta-vs-stored** — probe the changed tuples,
//!   re-derive the candidate rows, read every old row out of the snapshot;
//!   still O(delta) — and a staged one (DECOMPOSE ON condition, the JOIN
//!   variants) by **recompute-vs-stored**, a full evaluation of the new
//!   state diffed against the snapshot ([`SnapshotStats::recomputes`]
//!   counts those). Relations whose footprint intersects an aux-table
//!   purge fall back to targeted invalidation; relations whose footprint
//!   the write did not touch stay valid as they are.
//! * **Read-time catch-up**: a write maintains the snapshots *on its own
//!   path* to the data. A version off that path — a sibling of the written
//!   one — goes stale: its footprint tables moved on and nobody computed its
//!   delta. Such an entry is not thrown away either. While the storage
//!   change log ([`Storage::changes_between`]) still leads from its stamps
//!   to the present and no rule set in its resolution closure is staged, it
//!   stays in the store, unserved, until a statement reads the relation;
//!   that statement patches it with delta-vs-stored over the logged changes
//!   (`SnapshotStore::catch_up`, driven by `VersionedEdb::catch_up`;
//!   [`SnapshotStats::caught_up`]) instead of resolving it cold — hop by
//!   hop outward from the data, each hop's head deltas the next one's input.
//!   A closure that mints nothing is caught up at its first touch, point
//!   lookups included; one that can mint only when read in full. Whether a
//!   stale entry stays or goes is decided once, by the probing read
//!   ([`SnapshotStore::get`]'s `keep_stale`).
//!
//! What a DDL statement does to the store follows from what it can change
//! (the argument is written out at `Inverda::create_schema_version`):
//! `CREATE SCHEMA VERSION` touches nothing — relation names are never
//! reused and a new, virtualized SMO alters no existing relation's defining
//! rule set or static footprint; `DROP SCHEMA VERSION`
//! [`forget`](SnapshotStore::forget)s the entries of the relations it
//! retires; `MATERIALIZE` moves the physical/virtual split
//! under every footprint but changes no relation's *contents*, so it
//! **carries** the store across its swap: the entries valid before it
//! (`SnapshotStore::valid_virtual`) and the table versions
//! leaving the physical schema are put back
//! (`SnapshotStore::reinstall`) under their new footprints and
//! the post-swap epochs — those whose resolution is mint-free and crosses no
//! flipped SMO other than a column-level one; the decision and its argument
//! live with the statement, in `migrate.rs`. Only recovery, which installs a
//! whole new state, still [`clear`](SnapshotStore::clear)s wholesale.
//!
//! ## Published epochs hold their own fork (the serving layer's contract)
//!
//! The store keeps **one** entry per relation: superseding it (a
//! commit-time patch, a read-time catch-up, a fresh `store_entry`, an
//! epoch-stale eviction) replaces it, and a correctness invalidation
//! (aux-purge hit, unpatchable delta, targeted
//! [`invalidate`](SnapshotStore::invalidate)) removes it. A reader that must
//! keep serving an older state does not ask the live store to keep it;
//! it holds it. [`fork`](SnapshotStore::fork) hands out a private store of
//! `Arc`-shared entries, fully isolated afterwards, and every serving epoch
//! the commit pipeline publishes carries such a fork, taken before the
//! registry and the key sequence it publishes, so every id a forked entry
//! holds is one the published registry already assigns. A pin forks the
//! published fork: it starts warm at its own epochs, its cold resolutions
//! never reach the live store, and the live store's later patches copy the
//! entries it shares, chunk by touched chunk (`relation.rs`, "Structural
//! sharing"), exactly as the live tables do.
//!
//! The warm/cold equivalence discipline (a warm read must be byte-identical
//! to cold resolution, including skolem id minting) is enforced by the
//! property tests in `tests/snapshot_reuse_props.rs`.
//!
//! [`VersionedEdb`]: crate::edb::VersionedEdb
//! [`CompiledStore`]: crate::compiled::CompiledStore
//! [`drain`]: crate::Inverda
//! [`Storage`]: inverda_storage::Storage

use inverda_catalog::Retired;
use inverda_datalog::delta::{Delta, DeltaMap};
use inverda_datalog::eval::EdbView;
use inverda_datalog::DatalogError;
use inverda_storage::{Relation, Storage};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One cached snapshot (see the module docs).
#[derive(Clone)]
struct Entry {
    /// The resolved contents, with their indexes.
    rel: Arc<Relation>,
    /// Physical table → storage epoch observed at resolution time.
    footprint: BTreeMap<String, u64>,
    /// Position in the store's install order (`Inner::installed` when this
    /// entry was stored or patched): how a read-time catch-up tells that
    /// the entry it read has not been replaced since.
    seq: u64,
}

impl Entry {
    fn is_valid(&self, storage: &Storage) -> bool {
        self.footprint
            .iter()
            .all(|(table, epoch)| storage.epoch_of(table) == *epoch)
    }
}

#[derive(Clone, Default)]
struct Inner {
    /// Relation → its one cached snapshot.
    entries: HashMap<String, Arc<Entry>>,
    /// Entries installed so far (stored or patched).
    installed: u64,
}

impl Inner {
    fn valid(&self, relation: &str, storage: &Storage) -> Option<&Arc<Entry>> {
        self.entries
            .get(relation)
            .filter(|entry| entry.is_valid(storage))
    }

    /// Install `entry` as `relation`'s snapshot, replacing any other.
    fn install(&mut self, relation: &str, mut entry: Entry) {
        self.installed += 1;
        entry.seq = self.installed;
        self.entries.insert(relation.to_string(), Arc::new(entry));
    }

    /// Patch the entry of `relation` by `delta` into a new one whose
    /// footprint is stamped by `epoch_of`. An entry a fork still shares is
    /// copied first; the copy takes its snapshot's chunk pointers and copies
    /// only the row chunks the delta touches (and the indexes a holder of
    /// the old snapshot still shares). `false` — and the entry gone,
    /// a correctness invalidation — if there is none or the delta does not
    /// apply.
    fn patch(&mut self, relation: &str, delta: &Delta, epoch_of: impl Fn(&str) -> u64) -> bool {
        let Some(old) = self.entries.remove(relation) else {
            return false;
        };
        let mut entry = Arc::try_unwrap(old).unwrap_or_else(|shared| (*shared).clone());
        let rel = Arc::make_mut(&mut entry.rel);
        for key in delta.deletes.keys() {
            if !delta.inserts.contains_key(key) {
                rel.delete_if_present(*key);
            }
        }
        for (key, row) in &delta.inserts {
            if rel.upsert(*key, row.clone()).is_err() {
                return false;
            }
        }
        for (table, epoch) in entry.footprint.iter_mut() {
            *epoch = epoch_of(table);
        }
        self.install(relation, entry);
        true
    }
}

/// Hit/miss/maintenance counters (diagnostics and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Warm reads served from a valid entry.
    pub hits: u64,
    /// Reads that found no valid entry. What followed is a read-time
    /// catch-up ([`caught_up`](SnapshotStats::caught_up)), a key-seeded
    /// lookup or a cold resolution.
    pub misses: u64,
    /// Entries updated in place by exact write deltas.
    pub patches: u64,
    /// Entries dropped by commit-time invalidation.
    pub invalidations: u64,
    /// Maintenance steps that evaluated a departed side's whole new state
    /// and diffed it against the stored snapshots (recompute-vs-stored)
    /// instead of propagating the write's delta.
    pub recomputes: u64,
    /// Entries a `MATERIALIZE` carried across its physical/virtual swap
    /// (re-installed under the new footprints instead of dropped).
    pub carried: u64,
    /// Stale entries a read brought up to date from the storage change log
    /// (read-time catch-up) instead of re-resolving them cold, one per head
    /// patched — a two-hop catch-up counts the heads of both hops.
    pub caught_up: u64,
}

/// A resolved snapshot on its way across a `MATERIALIZE` swap: the relation
/// it resolves and its contents (with their indexes). Taken out of the store
/// before the swap ([`SnapshotStore::valid_virtual`]) and put back after it
/// ([`SnapshotStore::reinstall`]).
pub(crate) type Carried = (String, Arc<Relation>);

/// Cross-statement store of resolved relation snapshots. Owned by
/// [`Inverda`](crate::Inverda); see the module docs.
#[derive(Default)]
pub struct SnapshotStore {
    inner: Mutex<Inner>,
    /// The [`Storage::branch_tag`] this store's footprint stamps belong
    /// to; 0 = unbound (serve any storage — standalone stores in tests).
    /// Epoch numbers are only comparable within one branch's epoch
    /// namespace: two branches forked from a common prefix resume the same
    /// epoch counter, so after divergence an entry stamped on one branch
    /// could *falsely* validate against the other branch's storage. A
    /// bound store refuses to serve a storage with a different tag.
    owner_tag: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    patches: AtomicU64,
    invalidations: AtomicU64,
    recomputes: AtomicU64,
    carried: AtomicU64,
    caught_up: AtomicU64,
}

impl SnapshotStore {
    /// Empty store.
    pub fn new() -> Self {
        SnapshotStore::default()
    }

    /// Bind this store to one storage's epoch namespace (see the
    /// `owner_tag` field docs). Serve paths then treat a storage with a
    /// different [`Storage::branch_tag`] as a guaranteed miss.
    pub fn bind_owner(&self, branch_tag: u64) {
        self.owner_tag.store(branch_tag, Ordering::Relaxed);
    }

    /// Whether `storage` belongs to the epoch namespace this store stamps
    /// in — the cross-branch footprint-validation guard.
    fn serves(&self, storage: &Storage) -> bool {
        let owner = self.owner_tag.load(Ordering::Relaxed);
        owner == 0 || owner == storage.branch_tag()
    }

    /// The cached snapshot of a virtual relation, if its whole footprint is
    /// at exactly the probing storage's epochs. When the entry is stale,
    /// `keep_stale` — handed its stamps, and called under the store lock,
    /// so it must not call back into the store — decides whether it stays
    /// for a reader to catch up (`SnapshotStore::catch_up`) or is dropped
    /// now, before the cold resolution that replaces it allocates its own.
    /// Every call counts exactly one hit or one miss.
    pub fn get(
        &self,
        relation: &str,
        storage: &Storage,
        keep_stale: impl FnOnce(&BTreeMap<String, u64>) -> bool,
    ) -> Option<Arc<Relation>> {
        if !self.serves(storage) {
            // A foreign branch's storage: its epochs live in a different
            // namespace, so an exact stamp match would be coincidence, not
            // validity. Count a miss and touch nothing.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.valid(relation, storage) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(&entry.rel));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let keep = inner
            .entries
            .get(relation)
            .is_some_and(|stale| keep_stale(&stale.footprint));
        if !keep {
            inner.entries.remove(relation);
        }
        None
    }

    /// Store a freshly resolved virtual snapshot with its stamped footprint,
    /// replacing the relation's entry.
    pub fn store_entry(
        &self,
        relation: &str,
        rel: Arc<Relation>,
        footprint: BTreeMap<String, u64>,
    ) {
        self.inner.lock().install(
            relation,
            Entry {
                rel,
                footprint,
                seq: 0,
            },
        );
    }

    /// The stored snapshot of a virtual relation if its entry is valid
    /// right now — with **no** counter updates and no stale-entry eviction.
    /// Used by reverse maintenance (which probes entries mid-write, before
    /// the batch commits) and by the fused-chain barrier test
    /// (`VersionedEdb::is_resolved_state`): neither may perturb the hit/miss
    /// statistics or evict state a later read would have served.
    pub fn peek_valid(&self, relation: &str, storage: &Storage) -> Option<Arc<Relation>> {
        if !self.serves(storage) {
            return None;
        }
        let inner = self.inner.lock();
        inner
            .valid(relation, storage)
            .map(|entry| Arc::clone(&entry.rel))
    }

    /// Which of `rels` have an entry that is valid *right now* — captured by
    /// the write path (for the relations its plan patches) immediately
    /// before applying a batch, so commit-time patching can tell
    /// pre-write-valid entries (patchable) from already-stale ones.
    pub fn valid_rels<'r>(
        &self,
        storage: &Storage,
        rels: impl IntoIterator<Item = &'r String>,
    ) -> BTreeSet<String> {
        if !self.serves(storage) {
            return BTreeSet::new();
        }
        let inner = self.inner.lock();
        rels.into_iter()
            .filter(|rel| inner.valid(rel, storage).is_some())
            .cloned()
            .collect()
    }

    /// Apply the maintenance plan a completed write produced: patch entries
    /// that have an exact delta and were valid before the write (refreshing
    /// their footprint epochs from post-write storage), and drop entries the
    /// plan invalidates or whose footprint intersects an aux purge. Entries
    /// the plan does not mention are left alone: untouched footprints stay
    /// valid, and a sibling version's now-stale snapshot waits for its next
    /// reader to catch it up (`SnapshotStore::catch_up`) or drop it.
    pub fn commit(
        &self,
        maint: &SnapshotMaintenance,
        valid_before: &BTreeSet<String>,
        storage: &Storage,
    ) {
        let mut inner = self.inner.lock();
        for rel in &maint.invalidate {
            if inner.entries.remove(rel).is_some() {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
        for (rel, delta) in &maint.patches {
            let Some(entry) = inner.entries.get(rel) else {
                continue;
            };
            // A purge hit or a pre-write-stale entry is wrong or
            // unpatchable: dropped.
            let purged = entry.footprint.keys().any(|t| maint.purged.contains(t));
            if !valid_before.contains(rel) || purged {
                inner.entries.remove(rel);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // An unpatchable delta drops the entry too.
            if inner.patch(rel, delta, |table| storage.epoch_of(table)) {
                self.patches.fetch_add(1, Ordering::Relaxed);
            } else {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The snapshots of one rule set's heads for a reader about to catch
    /// them up: `None` unless `relation`'s entry holds a snapshot that is
    /// stale against `storage` (a valid one is read, not caught up); with
    /// it, each of the `siblings` whose entry holds a snapshot under the
    /// very same stamps (derived by the same evaluation, or maintained
    /// together ever since). A sibling at other stamps, or with none — a
    /// fused resolution stores only the head it was asked for — is left as
    /// it is. No counter moves; a foreign branch's storage gets `None`, as
    /// [`get`](SnapshotStore::get) serves it nothing.
    pub(crate) fn stale_heads<'r>(
        &self,
        relation: &'r str,
        siblings: impl IntoIterator<Item = &'r str>,
        storage: &Storage,
    ) -> Option<StaleHeads<'r>> {
        if !self.serves(storage) {
            return None;
        }
        let inner = self.inner.lock();
        let entry = inner.entries.get(relation)?;
        if entry.is_valid(storage) {
            return None;
        }
        let mut stale = StaleHeads {
            stamps: entry.footprint.clone(),
            rels: BTreeMap::from([(relation, Arc::clone(&entry.rel))]),
            seqs: vec![(relation, entry.seq)],
        };
        for head in siblings.into_iter().filter(|head| *head != relation) {
            let Some(entry) = inner.entries.get(head) else {
                continue;
            };
            if entry.footprint == stale.stamps {
                stale.rels.insert(head, Arc::clone(&entry.rel));
                stale.seqs.push((head, entry.seq));
            }
        }
        Some(stale)
    }

    /// Read-time catch-up, the install: patch the entries `seqs` names
    /// (from [`stale_heads`](SnapshotStore::stale_heads)) by their `deltas`
    /// — none recorded means unchanged — and stamp them `stamps`, the
    /// epochs of the state the deltas lead to. Snapshots are patched (with
    /// their indexes) in place when nobody else holds them, exactly as
    /// [`commit`](SnapshotStore::commit) does. Returns the new snapshots —
    /// or `None`, for the caller to resolve cold: nothing is touched if any
    /// of the entries has been replaced since it was read (a racing writer
    /// or reader got there first).
    pub(crate) fn catch_up<'r>(
        &self,
        seqs: &[(&'r str, u64)],
        deltas: &DeltaMap,
        stamps: &BTreeMap<String, u64>,
    ) -> Option<Vec<(&'r str, Arc<Relation>)>> {
        let mut inner = self.inner.lock();
        let unreplaced = seqs
            .iter()
            .all(|(head, seq)| inner.entries.get(*head).is_some_and(|e| e.seq == *seq));
        if !unreplaced {
            return None;
        }
        let no_change = Delta::new();
        let mut out = Vec::with_capacity(seqs.len());
        for &(head, _) in seqs {
            let delta = deltas.get(head).unwrap_or(&no_change);
            // (A delta that does not fit its snapshot drops it; the heads
            // patched before it are right on their own, and the cold
            // resolution that follows replaces them all.)
            if !inner.patch(head, delta, |table| stamps[table]) {
                return None;
            }
            self.caught_up.fetch_add(1, Ordering::Relaxed);
            out.push((head, Arc::clone(&inner.entries[head].rel)));
        }
        Some(out)
    }

    /// Drop the entry of one relation (targeted correctness invalidation).
    pub fn invalidate(&self, relation: &str) {
        if self.inner.lock().entries.remove(relation).is_some() {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop the entries of the relations a `DROP SCHEMA VERSION` retired:
    /// its table versions and the aux tables of its SMOs. No surviving entry
    /// reads one of them — they were reachable through the dropped version
    /// only — so everything else stays warm.
    pub fn forget(&self, retired: &Retired) {
        let mut inner = self.inner.lock();
        for rel in retired.relations() {
            inner.entries.remove(rel);
        }
    }

    /// Every virtual snapshot that is valid against `storage` right now —
    /// what a `MATERIALIZE` may carry across its swap,
    /// and what the store audit re-resolves. Nothing is removed and no
    /// counter moves.
    pub(crate) fn valid_virtual(&self, storage: &Storage) -> Vec<Carried> {
        if !self.serves(storage) {
            return Vec::new();
        }
        let inner = self.inner.lock();
        inner
            .entries
            .iter()
            .filter(|(_, entry)| entry.is_valid(storage))
            .map(|(name, entry)| (name.clone(), Arc::clone(&entry.rel)))
            .collect()
    }

    /// Replace the store's whole contents with `survivors`, each under its
    /// new static footprint stamped with `storage`'s current epochs. The
    /// caller holds the writer lock, so nothing moves between the stamps
    /// and the install.
    pub(crate) fn reinstall(
        &self,
        survivors: Vec<(Carried, Arc<BTreeSet<String>>)>,
        storage: &Storage,
    ) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        self.carried
            .fetch_add(survivors.len() as u64, Ordering::Relaxed);
        for ((relation, rel), footprint) in survivors {
            let entry = Entry {
                rel,
                footprint: footprint
                    .iter()
                    .map(|table| (table.clone(), storage.epoch_of(table)))
                    .collect(),
                seq: 0,
            };
            inner.install(&relation, entry);
        }
    }

    /// Drop every entry (recovery installed a new state, or reuse was
    /// switched off).
    pub fn clear(&self) {
        self.inner.lock().entries.clear();
    }

    /// Number of live entries (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True iff no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (diagnostics and tests).
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            recomputes: self.recomputes.load(Ordering::Relaxed),
            carried: self.carried.load(Ordering::Relaxed),
            caught_up: self.caught_up.load(Ordering::Relaxed),
        }
    }

    /// Count one recompute-vs-stored maintenance step (see
    /// [`SnapshotStats::recomputes`]).
    pub(crate) fn note_recompute(&self) {
        self.recomputes.fetch_add(1, Ordering::Relaxed);
    }

    /// A private copy of this store bound to `owner_tag`: it shares the
    /// entries (`Arc`) at fork time but is fully isolated afterwards — its
    /// own resolutions (a pin's may mint scratch skolem ids deterministic
    /// only for that pin's own read history) never flow back, and later
    /// maintenance here never touches it. It starts with zero counters.
    ///
    /// A **branch** passes its storage's fresh tag: the branch storage
    /// reproduces the fork-point epochs exactly, so every warm entry stays
    /// servable, and after divergence neither side's entries can be
    /// mistaken for the other's. A **published epoch** or a **pin** passes
    /// the origin's tag, which its pinned storage inherits.
    pub fn fork(&self, owner_tag: u64) -> SnapshotStore {
        let store = SnapshotStore {
            inner: Mutex::new(self.inner.lock().clone()),
            ..SnapshotStore::default()
        };
        store.bind_owner(owner_tag);
        store
    }
}

/// What [`SnapshotStore::stale_heads`] hands a reader: the snapshots of one
/// rule set's heads as last derived, the stamps they share, and the install
/// positions that identify exactly these entries.
pub(crate) struct StaleHeads<'r> {
    pub(crate) stamps: BTreeMap<String, u64>,
    pub(crate) rels: BTreeMap<&'r str, Arc<Relation>>,
    pub(crate) seqs: Vec<(&'r str, u64)>,
}

/// Deltas up to this many rows are never *bulk* (see
/// [`StoredHeads::outnumbered_by`]): on a table that small either way costs
/// microseconds, and a statement-sized write then takes the same path on a
/// ten-row database as on a ten-million-row one. Past it, a delta is bulk
/// once it has more rows than the snapshots it maintains — the measured
/// crossover on the TasKy2 FK DECOMPOSE at 10 000 tasks (10 200 stored
/// rows): delta-vs-stored 5 / 16 / 31 / 75 ms at 1 500 / 4 100 / 8 200 /
/// 16 400 delta rows, recompute-vs-stored 20 / 28 / 32 / 33 ms
/// (EXPERIMENTS.md, "O(delta) maintenance through minting hops").
const STATEMENT_ROWS: usize = 32;

/// The stored snapshots of one rule set's heads, served to
/// [`propagate_vs_stored`](inverda_datalog::delta::propagate_vs_stored) as
/// the heads' old state straight out of the snapshot store: rows and
/// payload-column probes from the stored `Arc`s, whose indexes stay with
/// them in the store.
pub(crate) struct StoredHeads<'a> {
    pub(crate) rels: BTreeMap<&'a str, Arc<Relation>>,
}

impl StoredHeads<'_> {
    /// The bulk rule: whether `input` changes more rows than these
    /// snapshots hold (and than a statement does) — where one evaluation of
    /// the new state beats probing and replaying per changed tuple.
    pub(crate) fn outnumbered_by(&self, input: &DeltaMap) -> bool {
        let delta_rows: usize = input.values().map(Delta::len).sum();
        let stored_rows: usize = self.rels.values().map(|rel| rel.len()).sum();
        delta_rows > STATEMENT_ROWS && delta_rows > stored_rows
    }
}

impl EdbView for StoredHeads<'_> {
    fn full(&self, relation: &str) -> inverda_datalog::Result<Arc<Relation>> {
        self.rels
            .get(relation)
            .cloned()
            .ok_or_else(|| DatalogError::UnboundRelation {
                relation: relation.to_string(),
            })
    }

    fn contains(&self, relation: &str) -> bool {
        self.rels.contains_key(relation)
    }
}

/// The maintenance plan one logical write accumulates while draining: which
/// relations have exact deltas to patch with, which must be invalidated
/// (recompute-path hops), and which physical aux tables were purged.
#[derive(Debug, Default)]
pub struct SnapshotMaintenance {
    /// Relation → exact delta, composed in application order (the same
    /// [`Delta::merge`] composition the drain applies physically).
    pub patches: DeltaMap,
    /// Relations whose deltas came from a recompute-path hop.
    pub invalidate: BTreeSet<String>,
    /// Physical aux tables purged by this write.
    pub purged: BTreeSet<String>,
}

impl SnapshotMaintenance {
    /// Empty plan.
    pub fn new() -> Self {
        SnapshotMaintenance::default()
    }

    /// Record an exact delta for `relation`; invalidation, once recorded,
    /// wins over patching. An **empty** delta is meaningful: it certifies
    /// the relation is unchanged by this write, so its entry's footprint
    /// epochs can be refreshed instead of going stale.
    pub fn record_patch(&mut self, relation: &str, delta: Delta) {
        if self.invalidate.contains(relation) {
            return;
        }
        match self.patches.get_mut(relation) {
            Some(existing) => existing.merge(&delta),
            None => {
                self.patches.insert(relation.to_string(), delta);
            }
        }
    }

    /// Mark `relation` for invalidation (its delta is not patchable).
    pub fn record_invalidate(&mut self, relation: &str) {
        self.patches.remove(relation);
        self.invalidate.insert(relation.to_string());
    }

    /// Record that `table`'s rows were purged outside delta propagation.
    pub fn record_purge(&mut self, table: &str) {
        self.purged.insert(table.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inverda_storage::{Key, TableSchema, Value, WriteBatch};

    fn storage_with(name: &str) -> Storage {
        let s = Storage::new();
        s.create_table(TableSchema::new(name, ["a"]).unwrap())
            .unwrap();
        s
    }

    fn rel_with(name: &str, rows: &[(u64, i64)]) -> Arc<Relation> {
        let mut r = Relation::with_columns(name, ["a"]);
        for (k, v) in rows {
            r.insert(Key(*k), vec![Value::Int(*v)]).unwrap();
        }
        Arc::new(r)
    }

    fn bump(storage: &Storage, table: &str, key: u64, v: i64) {
        let mut b = WriteBatch::new();
        b.upsert(table, Key(key), vec![Value::Int(v)]);
        storage.apply(&b).unwrap();
    }

    #[test]
    fn entries_serve_until_footprint_epoch_moves() {
        let storage = storage_with("T");
        let store = SnapshotStore::new();
        let fp = BTreeMap::from([("T".to_string(), storage.epoch_of("T"))]);
        store.store_entry("V", rel_with("V", &[(1, 10)]), fp);
        assert!(store.get("V", &storage, |_| false).is_some());
        assert_eq!(store.stats().hits, 1);
        bump(&storage, "T", 7, 7);
        assert!(store.get("V", &storage, |_| false).is_none());
        assert!(store.is_empty(), "stale entry must be dropped");
    }

    #[test]
    fn commit_patches_valid_entries_and_refreshes_epochs() {
        let storage = storage_with("T");
        let store = SnapshotStore::new();
        let fp = BTreeMap::from([("T".to_string(), storage.epoch_of("T"))]);
        store.store_entry("V", rel_with("V", &[(1, 10), (2, 20)]), fp);

        let valid = store.valid_rels(&storage, [&"V".to_string()]);
        assert!(valid.contains("V"));
        bump(&storage, "T", 3, 30); // the physical half of the write
        let mut maint = SnapshotMaintenance::new();
        let mut d = Delta::insert(Key(3), vec![Value::Int(30)]);
        d.deletes.insert(Key(1), vec![Value::Int(10)]);
        maint.record_patch("V", d);
        store.commit(&maint, &valid, &storage);

        let rel = store
            .get("V", &storage, |_| false)
            .expect("patched entry is warm");
        assert_eq!(rel.len(), 2);
        assert!(rel.get(Key(1)).is_none());
        assert_eq!(rel.get(Key(3)), Some(&vec![Value::Int(30)]));
        assert_eq!(store.stats().patches, 1);
    }

    #[test]
    fn commit_drops_invalidated_and_purge_hit_entries() {
        let storage = storage_with("T");
        storage
            .create_table(TableSchema::new("Aux", ["a"]).unwrap())
            .unwrap();
        let store = SnapshotStore::new();
        let e = |t: &str| storage.epoch_of(t);
        store.store_entry(
            "V",
            rel_with("V", &[(1, 10)]),
            BTreeMap::from([("T".to_string(), e("T"))]),
        );
        store.store_entry(
            "W",
            rel_with("W", &[(1, 10)]),
            BTreeMap::from([("T".to_string(), e("T")), ("Aux".to_string(), e("Aux"))]),
        );
        let valid = store.valid_rels(&storage, [&"V".to_string(), &"W".to_string()]);
        let mut maint = SnapshotMaintenance::new();
        maint.record_invalidate("V");
        maint.record_patch("V", Delta::insert(Key(9), vec![Value::Int(9)]));
        maint.record_patch("W", Delta::insert(Key(9), vec![Value::Int(9)]));
        maint.record_purge("Aux");
        store.commit(&maint, &valid, &storage);
        assert!(
            store.get("V", &storage, |_| false).is_none(),
            "invalidation wins"
        );
        assert!(
            store.get("W", &storage, |_| false).is_none(),
            "purge in footprint forces invalidation"
        );
        assert_eq!(store.stats().invalidations, 2);
    }

    #[test]
    fn indexes_follow_their_snapshot() {
        let storage = storage_with("T");
        let store = SnapshotStore::new();
        let fp = BTreeMap::from([("T".to_string(), storage.epoch_of("T"))]);
        let snap = rel_with("V", &[(1, 10), (2, 10)]);
        store.store_entry("V", Arc::clone(&snap), fp);
        let served = store.get("V", &storage, |_| false).expect("warm");
        assert_eq!(served.index(0).keys_for(&Value::Int(10)), &[Key(1), Key(2)]);

        // A patch keeps the stored snapshot's index in sync, and leaves the
        // index of the snapshot a statement still holds as it was.
        let valid = store.valid_rels(&storage, [&"V".to_string()]);
        bump(&storage, "T", 9, 9);
        let mut maint = SnapshotMaintenance::new();
        maint.record_patch(
            "V",
            Delta::update(Key(2), vec![Value::Int(10)], vec![Value::Int(33)]),
        );
        store.commit(&maint, &valid, &storage);
        assert_eq!(snap.index(0).keys_for(&Value::Int(10)), &[Key(1), Key(2)]);
        let patched = store
            .get("V", &storage, |_| false)
            .expect("patched entry is warm");
        let idx = patched.built_index(0).expect("kept with its snapshot");
        assert_eq!(idx.keys_for(&Value::Int(10)), &[Key(1)]);
        assert_eq!(idx.keys_for(&Value::Int(33)), &[Key(2)]);
    }

    /// A physical table's index lives with the table: a statement that read
    /// the table at one epoch keeps that epoch's index, and the table's next
    /// version carries it on, patched by the write.
    #[test]
    fn physical_index_entries_guard_on_epoch() {
        let storage = storage_with("T");
        bump(&storage, "T", 1, 10);
        let (snap, epoch) = storage.snapshot_with_epoch("T").unwrap();
        let idx = snap.index(0);
        bump(&storage, "T", 2, 10);
        assert_ne!(storage.epoch_of("T"), epoch);
        assert!(Arc::ptr_eq(&idx, &snap.index(0)));
        assert_eq!(idx.keys_for(&Value::Int(10)), &[Key(1)]);
        let now = storage.snapshot("T").unwrap();
        let kept = now.built_index(0).expect("kept through the write");
        assert_eq!(kept.keys_for(&Value::Int(10)), &[Key(1), Key(2)]);
    }

    /// Chunks of `new` that `old` does not share, counted from outside
    /// `inverda-storage`, which has no accessor for them: a shared chunk
    /// hands both relations the same row addresses, and the rows of one
    /// chunk sit one `(Key, Row)` apart, so every maximal run of adjacent
    /// unshared rows is one chunk a copy-on-write made.
    fn copied_chunks(new: &Relation, old: &Relation) -> usize {
        let stride = std::mem::size_of::<(Key, inverda_storage::Row)>();
        let mut runs = 0;
        let mut last_copied: Option<usize> = None;
        for (key, row) in new.iter() {
            if old.get(key).is_some_and(|o| std::ptr::eq(o, row)) {
                last_copied = None;
                continue;
            }
            let at = row as *const _ as usize;
            if last_copied.is_none_or(|prev| at != prev + stride) {
                runs += 1;
            }
            last_copied = Some(at);
        }
        runs
    }

    /// What a pin reads: the storage's tables at their current epochs.
    fn pinned_view(storage: &Storage) -> Storage {
        Storage::from_pinned(
            storage.snapshot_all(),
            storage.sequences().current_key(),
            storage.branch_tag(),
        )
    }

    #[test]
    fn a_patch_under_a_pin_copies_only_the_touched_chunk() {
        let storage = storage_with("T");
        let store = SnapshotStore::new();
        let rows: Vec<(u64, i64)> = (0..2000).map(|k| (k, k as i64)).collect();
        let fp = BTreeMap::from([("T".to_string(), storage.epoch_of("T"))]);
        store.store_entry("V", rel_with("V", &rows), fp);

        // A pin holds a fork of the store over its own pinned storage.
        let pinned = pinned_view(&storage);
        let fork = store.fork(0);
        let valid = store.valid_rels(&storage, [&"V".to_string()]);
        bump(&storage, "T", 7, 7);
        let mut maint = SnapshotMaintenance::new();
        maint.record_patch(
            "V",
            Delta::update(Key(1000), vec![Value::Int(1000)], vec![Value::Int(-1)]),
        );
        store.commit(&maint, &valid, &storage);
        assert_eq!(store.len(), 1, "one entry per relation");

        let held = fork.get("V", &pinned, |_| false).expect("serves the pin");
        let current = store.get("V", &storage, |_| false).expect("patched");
        assert_eq!(held.get(Key(1000)), Some(&vec![Value::Int(1000)]));
        assert_eq!(current.get(Key(1000)), Some(&vec![Value::Int(-1)]));
        assert_eq!(copied_chunks(&current, &held), 1);
        // What the count would read for a deep copy.
        assert!(copied_chunks(&rel_with("V", &rows), &held) > 10);
    }

    #[test]
    fn fork_is_isolated_from_live_store() {
        let storage = storage_with("T");
        let store = SnapshotStore::new();
        store.store_entry(
            "V",
            rel_with("V", &[(1, 10)]),
            BTreeMap::from([("T".to_string(), storage.epoch_of("T"))]),
        );
        let pinned = pinned_view(&storage);
        let fork = store.fork(0);
        bump(&storage, "T", 7, 7);
        store.store_entry(
            "V",
            rel_with("V", &[(1, 10), (7, 7)]),
            BTreeMap::from([("T".to_string(), storage.epoch_of("T"))]),
        );
        // The fork serves the pin's epochs even after the live store
        // replaced its entry and then dropped everything.
        store.clear();
        let rel = fork
            .get("V", &pinned, |_| false)
            .expect("fork serves pinned epoch");
        assert_eq!(rel.len(), 1);
        // And writes into the fork never reach the live store.
        fork.store_entry(
            "W",
            rel_with("W", &[(2, 2)]),
            BTreeMap::from([("T".to_string(), pinned.epoch_of("T"))]),
        );
        assert!(store.is_empty());
    }

    /// A statement's reads run before its write lands, so what they
    /// resolve is stamped with the epochs a reader pinned one statement
    /// earlier reads at — but may hold skolem ids minted since. The fork
    /// that reader holds was taken with the rest of its state, so it holds
    /// none of it.
    #[test]
    fn fork_takes_nothing_installed_after_it() {
        let storage = storage_with("T");
        let store = SnapshotStore::new();
        let stamps = || BTreeMap::from([("T".to_string(), storage.epoch_of("T"))]);
        store.store_entry("V", rel_with("V", &[(1, 10)]), stamps());
        let fork = store.fork(0);
        store.store_entry("W", rel_with("W", &[(2, 20)]), stamps());
        assert!(fork.get("V", &storage, |_| false).is_some());
        assert!(
            fork.get("W", &storage, |_| false).is_none(),
            "installed after the fork"
        );
        assert!(store.fork(0).get("W", &storage, |_| false).is_some());
    }

    #[test]
    fn bound_store_refuses_foreign_branch_storage() {
        let storage = storage_with("T");
        let store = SnapshotStore::new();
        store.bind_owner(storage.branch_tag());
        store.store_entry(
            "V",
            rel_with("V", &[(1, 10)]),
            BTreeMap::from([("T".to_string(), storage.epoch_of("T"))]),
        );
        assert!(store.get("V", &storage, |_| false).is_some());

        // A fork reproduces the same epochs under a different tag — the
        // exact stamps match, but the store must refuse to serve it.
        let foreign = storage.fork();
        assert_eq!(foreign.epoch_of("T"), storage.epoch_of("T"));
        assert!(store.peek_valid("V", &foreign).is_none());
        assert!(store.valid_rels(&foreign, [&"V".to_string()]).is_empty());
        let misses_before = store.stats().misses;
        assert!(store.get("V", &foreign, |_| false).is_none());
        assert_eq!(store.stats().misses, misses_before + 1);
        // The refusal must not evict the entry the owner still wants.
        assert!(store.get("V", &storage, |_| false).is_some());

        // A branch fork of the store serves the branch storage warm.
        let branch_store = store.fork(foreign.branch_tag());
        assert!(branch_store.get("V", &foreign, |_| false).is_some());
        assert!(branch_store.get("V", &storage, |_| false).is_none());

        // A pin fork keeps the owner binding, serving a tag-inheriting
        // pinned view.
        let pin_fork = store.fork(storage.branch_tag());
        assert!(pin_fork
            .get("V", &pinned_view(&storage), |_| false)
            .is_some());
    }

    #[test]
    fn clear_empties_everything() {
        let storage = storage_with("T");
        let store = SnapshotStore::new();
        store.store_entry(
            "V",
            rel_with("V", &[(1, 1)]),
            BTreeMap::from([("T".to_string(), storage.epoch_of("T"))]),
        );
        store.clear();
        assert!(store.is_empty());
    }
}

//! Skolem id-generating functions (`idT(B)` in Appendix B.3/B.4/B.6).
//!
//! The paper: "On every call, the function idT(B) returns a new unique
//! identifier for the payload data B in table T. In our implementation, this
//! is merely a regular SQL sequence and the mapping rules ensure that an
//! already generated identifier is reused for the same data."
//!
//! Two layers live here:
//!
//! * [`SkolemRegistry`] — the durable memo `(generator, argument tuple) → id`
//!   so that equal payloads always receive the same identifier, within one
//!   rule evaluation (set semantics would otherwise be violated) and across
//!   evaluations (repeatable reads on generated identifiers). The memo is a
//!   two-level map (`generator → args → id`) so the hit path probes with
//!   **borrowed** keys and allocates only on insert.
//! * [`ReservationArena`] — the *reserve* half of the engine's two-phase
//!   **reserve-then-commit** minting discipline (DESIGN.md "Deterministic
//!   minting & reservation commit"). During evaluation, the first occurrence
//!   of a `(generator, args)` pair receives a **placeholder** id from a
//!   scope-disjoint range far above any real identifier; placeholders are
//!   perfectly usable as join keys and head keys *within* the evaluation
//!   (the memoized pair always yields the same placeholder). A sequential
//!   commit epilogue then assigns final ids in reservation order — which
//!   every engine (naive, compiled sequential, compiled parallel merge)
//!   produces identically — and a [`PlaceholderPatch`] rewrites the
//!   placeholders out of the emitted fragments. That is what lets id-minting
//!   rule sets fan out across worker threads without making id assignment
//!   depend on thread scheduling.

use inverda_storage::codec::{Codec, Reader};
use inverda_storage::{StorageError, Value};
use std::collections::BTreeMap;

/// One registry mutation, as journaled for the write-ahead log.
///
/// Registry state is database state (PR 4): recovery must reproduce the
/// memo *and* the per-generator counters exactly, so every mutating
/// [`SkolemRegistry`] method appends its effect here when journaling is on.
/// Replaying a `RegOp` with [`SkolemRegistry::apply_op`] reproduces the
/// original mutation without re-minting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegOp {
    /// `get_or_create_with` minted `id` (from the engine key sequence) for
    /// the pair — memo only, counters untouched.
    Mint {
        /// Generator name.
        generator: String,
        /// Argument tuple.
        args: Vec<Value>,
        /// The minted identifier.
        id: u64,
    },
    /// `observe` / `get_or_create` recorded `id` for the pair — memo insert
    /// plus counter fetch-max.
    Observe {
        /// Generator name.
        generator: String,
        /// Argument tuple.
        args: Vec<Value>,
        /// The observed identifier.
        id: u64,
    },
    /// `unobserve` forgot the pair's assignment.
    Unobserve {
        /// Generator name.
        generator: String,
        /// Argument tuple.
        args: Vec<Value>,
    },
    /// `purge_generator` forgot every assignment of the generator.
    Purge {
        /// Generator name.
        generator: String,
    },
}

const REGOP_MINT: u8 = 0;
const REGOP_OBSERVE: u8 = 1;
const REGOP_UNOBSERVE: u8 = 2;
const REGOP_PURGE: u8 = 3;

impl Codec for RegOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RegOp::Mint {
                generator,
                args,
                id,
            } => {
                out.push(REGOP_MINT);
                generator.encode(out);
                args.encode(out);
                id.encode(out);
            }
            RegOp::Observe {
                generator,
                args,
                id,
            } => {
                out.push(REGOP_OBSERVE);
                generator.encode(out);
                args.encode(out);
                id.encode(out);
            }
            RegOp::Unobserve { generator, args } => {
                out.push(REGOP_UNOBSERVE);
                generator.encode(out);
                args.encode(out);
            }
            RegOp::Purge { generator } => {
                out.push(REGOP_PURGE);
                generator.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> inverda_storage::Result<Self> {
        let tag = r.u8()?;
        let generator = r.string()?;
        match tag {
            REGOP_MINT => Ok(RegOp::Mint {
                generator,
                args: Vec::<Value>::decode(r)?,
                id: r.u64()?,
            }),
            REGOP_OBSERVE => Ok(RegOp::Observe {
                generator,
                args: Vec::<Value>::decode(r)?,
                id: r.u64()?,
            }),
            REGOP_UNOBSERVE => Ok(RegOp::Unobserve {
                generator,
                args: Vec::<Value>::decode(r)?,
            }),
            REGOP_PURGE => Ok(RegOp::Purge { generator }),
            t => Err(StorageError::codec(format!("invalid RegOp tag {t}"))),
        }
    }
}

/// Payload-level difference between two [`SkolemRegistry`] instances, as
/// reported by [`SkolemRegistry::divergence`]. Entries are in the
/// registries' own deterministic (BTreeMap) order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RegistryDivergence {
    /// `(generator, args, id)` memoized only in the left registry.
    pub only_left: Vec<(String, Vec<Value>, u64)>,
    /// `(generator, args, id)` memoized only in the right registry.
    pub only_right: Vec<(String, Vec<Value>, u64)>,
    /// `(generator, args, left_id, right_id)` memoized on both sides with
    /// differing ids.
    pub remapped: Vec<(String, Vec<Value>, u64, u64)>,
}

impl RegistryDivergence {
    /// True iff the registries agree on every memoized assignment.
    pub fn is_empty(&self) -> bool {
        self.only_left.is_empty() && self.only_right.is_empty() && self.remapped.is_empty()
    }
}

/// Memoized id-generating sequences.
#[derive(Debug, Default, Clone)]
pub struct SkolemRegistry {
    /// `generator → args → id`. Two levels so lookups probe with `&str` /
    /// `&[Value]` and the hot hit path allocates nothing.
    memo: BTreeMap<String, BTreeMap<Vec<Value>, u64>>,
    counters: BTreeMap<String, u64>,
    /// When `Some`, every mutation is appended here for the WAL (enabled by
    /// the durability layer; `None` costs nothing on the in-memory path).
    journal: Option<Vec<RegOp>>,
    /// Bumped on every state mutation (mint, observe, unobserve, purge,
    /// replay). A cheap change probe: the serving layer's commit pipeline
    /// re-clones the registry for its published snapshot only when the
    /// revision moved. Not persisted; a decoded registry restarts at 0.
    revision: u64,
}

impl SkolemRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        SkolemRegistry::default()
    }

    /// The id for `(generator, args)`, minting a fresh one on first call.
    pub fn get_or_create(&mut self, generator: &str, args: &[Value]) -> u64 {
        if let Some(id) = self.peek(generator, args) {
            return id;
        }
        let counter = self.counters.entry(generator.to_string()).or_insert(0);
        *counter += 1;
        let id = *counter;
        self.revision += 1;
        self.memo
            .entry(generator.to_string())
            .or_default()
            .insert(args.to_vec(), id);
        // Journaled as Observe: replaying `insert + counter fetch-max` on a
        // state where the pair was absent lands on exactly this outcome.
        self.journal_push(|| RegOp::Observe {
            generator: generator.to_string(),
            args: args.to_vec(),
            id,
        });
        id
    }

    /// The id for `(generator, args)`, minting via `mint` on first call.
    ///
    /// Generated identifiers enter the same keyspace as the InVerDa tuple
    /// identifier `p` (e.g. Appendix B.3's Rules 149/152 key source rows by
    /// the generated `t`), so the engine mints them from the global key
    /// sequence rather than per-generator counters.
    pub fn get_or_create_with(
        &mut self,
        generator: &str,
        args: &[Value],
        mint: impl FnOnce() -> u64,
    ) -> u64 {
        if let Some(id) = self.peek(generator, args) {
            return id;
        }
        let id = mint();
        self.revision += 1;
        self.memo
            .entry(generator.to_string())
            .or_default()
            .insert(args.to_vec(), id);
        self.journal_push(|| RegOp::Mint {
            generator: generator.to_string(),
            args: args.to_vec(),
            id,
        });
        id
    }

    /// Record an externally assigned id (e.g. read back from a persisted
    /// `ID` auxiliary table after a migration or data load) so future mints
    /// neither collide with nor contradict it.
    pub fn observe(&mut self, generator: &str, args: &[Value], id: u64) {
        self.revision += 1;
        self.memo
            .entry(generator.to_string())
            .or_default()
            .insert(args.to_vec(), id);
        let counter = self.counters.entry(generator.to_string()).or_insert(0);
        if *counter < id {
            *counter = id;
        }
        self.journal_push(|| RegOp::Observe {
            generator: generator.to_string(),
            args: args.to_vec(),
            id,
        });
    }

    /// Forget the assignment for `(generator, args)` — used when the
    /// physical row carrying the id changes payload or is deleted, so a
    /// later occurrence of the old payload mints a fresh id instead of
    /// colliding with the repurposed one.
    pub fn unobserve(&mut self, generator: &str, args: &[Value]) {
        self.revision += 1;
        if let Some(inner) = self.memo.get_mut(generator) {
            inner.remove(args);
        }
        self.journal_push(|| RegOp::Unobserve {
            generator: generator.to_string(),
            args: args.to_vec(),
        });
    }

    /// Forget every assignment of a generator (migration re-seeds from the
    /// relocated tables afterwards).
    pub fn purge_generator(&mut self, generator: &str) {
        self.revision += 1;
        self.memo.remove(generator);
        self.journal_push(|| RegOp::Purge {
            generator: generator.to_string(),
        });
    }

    /// The memoized id, if any, without minting. Probes with borrowed keys —
    /// no allocation on either hit or miss.
    pub fn peek(&self, generator: &str, args: &[Value]) -> Option<u64> {
        self.memo.get(generator)?.get(args).copied()
    }

    /// Debug dump of every memoized assignment (diagnostics).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (generator, inner) in &self.memo {
            for (args, id) in inner {
                let cells: Vec<String> = args.iter().map(|v| v.to_string()).collect();
                out.push_str(&format!("{generator}({}) -> {id}\n", cells.join(", ")));
            }
        }
        out
    }

    /// Per-assignment difference against `other` (the branch layer's
    /// genealogy-divergence report). Assignments are compared by payload
    /// `(generator, args)`: a payload memoized on only one side lands in
    /// `only_left` / `only_right`; a payload both sides memoized but bound
    /// to *different* ids lands in `remapped` — the expected shape when two
    /// branches independently minted the same skolem payload, and the case
    /// merge resolves by keeping the destination's id (payload-keyed
    /// identity, never re-minting).
    pub fn divergence(&self, other: &SkolemRegistry) -> RegistryDivergence {
        let mut out = RegistryDivergence::default();
        for (generator, inner) in &self.memo {
            let other_inner = other.memo.get(generator);
            for (args, id) in inner {
                match other_inner.and_then(|m| m.get(args)) {
                    None => out.only_left.push((generator.clone(), args.clone(), *id)),
                    Some(other_id) if other_id != id => {
                        out.remapped
                            .push((generator.clone(), args.clone(), *id, *other_id));
                    }
                    Some(_) => {}
                }
            }
        }
        for (generator, inner) in &other.memo {
            let self_inner = self.memo.get(generator);
            for (args, id) in inner {
                if self_inner.and_then(|m| m.get(args)).is_none() {
                    out.only_right.push((generator.clone(), args.clone(), *id));
                }
            }
        }
        out
    }

    /// Number of memoized assignments (diagnostics).
    pub fn len(&self) -> usize {
        self.memo.values().map(BTreeMap::len).sum()
    }

    /// True iff nothing has been generated or observed.
    pub fn is_empty(&self) -> bool {
        self.memo.values().all(BTreeMap::is_empty)
    }

    fn journal_push(&mut self, op: impl FnOnce() -> RegOp) {
        if let Some(journal) = &mut self.journal {
            journal.push(op());
        }
    }

    /// Turn mutation journaling on or off. Turning it on starts an empty
    /// journal; turning it off discards any pending entries.
    pub fn set_journaling(&mut self, on: bool) {
        self.journal = if on { Some(Vec::new()) } else { None };
    }

    /// Drain the pending journal entries (empty when journaling is off).
    /// Journaling stays in whatever state it was.
    pub fn take_journal(&mut self) -> Vec<RegOp> {
        match &mut self.journal {
            Some(journal) => std::mem::take(journal),
            None => Vec::new(),
        }
    }

    /// The mutation revision: bumped by every state-changing call since
    /// construction (decode restarts at 0). Equal revisions on the same
    /// instance mean no mutation happened in between.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Replay one journaled mutation. Does **not** journal the replay — the
    /// op came from the log and must not be re-recorded.
    pub fn apply_op(&mut self, op: &RegOp) {
        self.revision += 1;
        match op {
            RegOp::Mint {
                generator,
                args,
                id,
            } => {
                self.memo
                    .entry(generator.clone())
                    .or_default()
                    .insert(args.clone(), *id);
            }
            RegOp::Observe {
                generator,
                args,
                id,
            } => {
                self.memo
                    .entry(generator.clone())
                    .or_default()
                    .insert(args.clone(), *id);
                let counter = self.counters.entry(generator.clone()).or_insert(0);
                if *counter < *id {
                    *counter = *id;
                }
            }
            RegOp::Unobserve { generator, args } => {
                if let Some(inner) = self.memo.get_mut(generator) {
                    inner.remove(args);
                }
            }
            RegOp::Purge { generator } => {
                self.memo.remove(generator);
            }
        }
    }
}

impl Codec for SkolemRegistry {
    // Persisted state is the memo and the counters; the journal is a
    // runtime artifact and decodes as "off".
    fn encode(&self, out: &mut Vec<u8>) {
        self.memo.encode(out);
        self.counters.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> inverda_storage::Result<Self> {
        Ok(SkolemRegistry {
            memo: BTreeMap::decode(r)?,
            counters: BTreeMap::decode(r)?,
            journal: None,
            revision: 0,
        })
    }
}

// ---------------------------------------------------------------------------
// Reservations: the reserve half of reserve-then-commit minting
// ---------------------------------------------------------------------------

/// Width of each placeholder scope (indices are asserted to stay below it).
const SCOPE_SPAN: u64 = 1 << 60;

/// Placeholder scope of worker-local (per evaluation chunk) reservations.
/// Chunk placeholders are translated into the owning evaluation's scope when
/// the chunk's fragment is merged, in chunk order.
pub const SCOPE_CHUNK: u64 = 5 << 60;

/// Placeholder scope of one full rule-set evaluation (the reservations
/// committed by [`evaluate_compiled`](crate::eval::evaluate_compiled)'s /
/// [`naive::evaluate`](crate::naive::evaluate)'s commit epilogue).
pub const SCOPE_EVAL: u64 = 6 << 60;

/// Whether an id value is a placeholder of *some* reservation scope. Real
/// identifiers come from the storage key sequence (or per-generator
/// counters) and live far below `SCOPE_CHUNK`; every scope stays below
/// `i64::MAX`, so placeholders survive the `Value::Int` round trip.
///
/// **Engine constraint:** user payload integers in `[SCOPE_CHUNK, 2⁶³)`
/// (≥ 5.7 · 10¹⁸) would alias active placeholders during a minting
/// evaluation — [`PlaceholderPatch`] only rewrites ids its arena actually
/// reserved (`base + index < base + len`), so the window is the handful of
/// live reservations, but inside that window an aliased payload would
/// unify (and be patched) as if it were the reservation. Keys and
/// generated ids can never reach the range (the key sequence is
/// monotonic from 0); payloads are expected to stay below it too.
pub fn is_placeholder(id: u64) -> bool {
    id >= SCOPE_CHUNK
}

/// An ordered set of first-occurrence `(generator, args)` reservations, each
/// standing in for a not-yet-minted id as `scope_base + index`.
///
/// Reservation argument tuples may themselves contain placeholders of the
/// same arena (a generator arg bound by an *earlier* skolem literal): commit
/// and translation resolve those through the already-assigned prefix, which
/// is always sufficient because an argument value existed strictly before
/// the reservation that uses it.
#[derive(Debug)]
pub struct ReservationArena {
    base: u64,
    entries: Vec<(String, Vec<Value>)>,
    /// `generator → args → entry index` (borrowed-key probes, like the
    /// registry memo).
    index: BTreeMap<String, BTreeMap<Vec<Value>, usize>>,
}

impl ReservationArena {
    /// Empty arena handing out placeholders from `scope_base`.
    pub fn new(scope_base: u64) -> Self {
        ReservationArena {
            base: scope_base,
            entries: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// The placeholder already reserved for `(generator, args)`, if any.
    pub fn peek(&self, generator: &str, args: &[Value]) -> Option<u64> {
        self.index
            .get(generator)?
            .get(args)
            .map(|idx| self.base + *idx as u64)
    }

    /// The placeholder for `(generator, args)`, reserving a fresh one on
    /// first call.
    pub fn reserve(&mut self, generator: &str, args: &[Value]) -> u64 {
        if let Some(id) = self.peek(generator, args) {
            return id;
        }
        let idx = self.entries.len();
        assert!((idx as u64) < SCOPE_SPAN, "placeholder scope exhausted");
        self.entries.push((generator.to_string(), args.to_vec()));
        self.index
            .entry(generator.to_string())
            .or_default()
            .insert(args.to_vec(), idx);
        self.base + idx as u64
    }

    /// Number of reservations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing was reserved.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Assign final ids in reservation order via `mint` and return the
    /// patch mapping this arena's placeholders to them. Each reservation's
    /// argument tuple is resolved through the already-assigned prefix
    /// before minting, so the durable memo never records placeholder args.
    pub fn commit(self, mut mint: impl FnMut(&str, &[Value]) -> u64) -> PlaceholderPatch {
        let mut patch = PlaceholderPatch::new(self.base, self.entries.len());
        for (generator, mut args) in self.entries {
            patch.resolve_row(&mut args);
            let id = mint(&generator, &args);
            patch.push(id);
        }
        patch
    }
}

/// The commit half: maps one scope's placeholders (`base + i`) to their
/// assigned final values. Values of other scopes — and real ids — pass
/// through untouched, which is what lets a chunk-scope patch run over rows
/// that also carry evaluation-scope placeholders.
#[derive(Debug)]
pub struct PlaceholderPatch {
    base: u64,
    finals: Vec<u64>,
}

impl PlaceholderPatch {
    /// Empty patch over a scope.
    pub fn new(base: u64, capacity: usize) -> Self {
        PlaceholderPatch {
            base,
            finals: Vec::with_capacity(capacity),
        }
    }

    /// Append the assignment for the next reservation index.
    pub fn push(&mut self, id: u64) {
        self.finals.push(id);
    }

    /// True iff the patch maps nothing (nothing was reserved).
    pub fn is_empty(&self) -> bool {
        self.finals.is_empty()
    }

    /// Whether `id` is one of this patch's placeholders (i.e.
    /// [`resolve_id`](PlaceholderPatch::resolve_id) would rewrite it).
    pub fn maps_id(&self, id: u64) -> bool {
        id >= self.base && ((id - self.base) as usize) < self.finals.len()
    }

    /// Resolve one id: a placeholder of this scope becomes its assigned
    /// value, everything else passes through.
    pub fn resolve_id(&self, id: u64) -> u64 {
        if id >= self.base {
            if let Some(assigned) = self.finals.get((id - self.base) as usize) {
                return *assigned;
            }
        }
        id
    }

    /// Resolve a value in place (only integer values can carry ids).
    pub fn resolve_value(&self, value: &mut Value) {
        if let Value::Int(i) = value {
            if *i >= 0 {
                let resolved = self.resolve_id(*i as u64);
                if resolved != *i as u64 {
                    *value = Value::Int(resolved as i64);
                }
            }
        }
    }

    /// Resolve every value of a row in place.
    pub fn resolve_row(&self, row: &mut [Value]) {
        for value in row {
            self.resolve_value(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_args_same_id() {
        let mut r = SkolemRegistry::new();
        let a = r.get_or_create("id_Author", &[Value::text("Ann")]);
        let b = r.get_or_create("id_Author", &[Value::text("Ann")]);
        let c = r.get_or_create("id_Author", &[Value::text("Ben")]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generators_are_independent() {
        let mut r = SkolemRegistry::new();
        let a = r.get_or_create("id_A", &[Value::Int(1)]);
        let b = r.get_or_create("id_B", &[Value::Int(1)]);
        assert_eq!(a, 1);
        assert_eq!(b, 1);
    }

    #[test]
    fn observe_prevents_collisions() {
        let mut r = SkolemRegistry::new();
        r.observe("id_T", &[Value::text("x")], 10);
        assert_eq!(r.peek("id_T", &[Value::text("x")]), Some(10));
        let fresh = r.get_or_create("id_T", &[Value::text("y")]);
        assert!(fresh > 10);
        // Re-query of observed payload returns the observed id.
        assert_eq!(r.get_or_create("id_T", &[Value::text("x")]), 10);
    }

    #[test]
    fn len_counts_assignments() {
        let mut r = SkolemRegistry::new();
        assert!(r.is_empty());
        r.get_or_create("g", &[Value::Int(1)]);
        r.get_or_create("g", &[Value::Int(1)]);
        r.get_or_create("g", &[Value::Int(2)]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn unobserve_and_purge() {
        let mut r = SkolemRegistry::new();
        r.observe("g", &[Value::Int(1)], 5);
        r.observe("h", &[Value::Int(1)], 6);
        r.unobserve("g", &[Value::Int(1)]);
        assert_eq!(r.peek("g", &[Value::Int(1)]), None);
        r.purge_generator("h");
        assert_eq!(r.peek("h", &[Value::Int(1)]), None);
        assert!(r.is_empty());
    }

    #[test]
    fn journal_replay_reproduces_every_mutation() {
        let mut live = SkolemRegistry::new();
        live.set_journaling(true);
        live.get_or_create("g", &[Value::text("a")]);
        live.get_or_create_with("h", &[Value::Int(1)], || 77);
        live.observe("g", &[Value::text("b")], 40);
        live.unobserve("g", &[Value::text("a")]);
        live.get_or_create("g", &[Value::text("c")]); // counter continues at 41
        live.purge_generator("h");
        let ops = live.take_journal();
        assert_eq!(ops.len(), 6);
        assert!(live.take_journal().is_empty(), "journal drained");

        let mut replayed = SkolemRegistry::new();
        for op in &ops {
            replayed.apply_op(op);
        }
        assert_eq!(replayed.dump(), live.dump());
        // Counters too: the next mint must agree.
        assert_eq!(
            replayed.get_or_create("g", &[Value::text("d")]),
            live.get_or_create("g", &[Value::text("d")])
        );
    }

    #[test]
    fn journaling_off_costs_and_records_nothing() {
        let mut r = SkolemRegistry::new();
        r.get_or_create("g", &[Value::Int(1)]);
        assert!(r.take_journal().is_empty());
        r.set_journaling(true);
        r.get_or_create("g", &[Value::Int(1)]); // memo hit: no mutation
        assert!(r.take_journal().is_empty());
        r.set_journaling(false);
        r.get_or_create("g", &[Value::Int(2)]);
        assert!(r.take_journal().is_empty());
    }

    #[test]
    fn registry_codec_roundtrip_drops_journal() {
        let mut r = SkolemRegistry::new();
        r.set_journaling(true);
        r.get_or_create("g", &[Value::text("x"), Value::Null]);
        r.observe("h", &[Value::Float(1.5)], 9);
        let back = SkolemRegistry::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(back.dump(), r.dump());
        assert!(back.journal.is_none());
        // Counter state survives: next mints agree.
        let mut a = back.clone();
        let mut b = r.clone();
        assert_eq!(
            a.get_or_create("h", &[Value::Int(0)]),
            b.get_or_create("h", &[Value::Int(0)])
        );
        assert!(SkolemRegistry::from_bytes(&r.to_bytes()[1..]).is_err());
    }

    #[test]
    fn arena_dedups_and_numbers_in_order() {
        let mut a = ReservationArena::new(SCOPE_EVAL);
        let p0 = a.reserve("g", &[Value::text("x")]);
        let p1 = a.reserve("g", &[Value::text("y")]);
        let again = a.reserve("g", &[Value::text("x")]);
        assert_eq!(p0, SCOPE_EVAL);
        assert_eq!(p1, SCOPE_EVAL + 1);
        assert_eq!(p0, again);
        assert!(is_placeholder(p0) && is_placeholder(p1));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn commit_assigns_in_reservation_order_and_patches_args() {
        let mut a = ReservationArena::new(SCOPE_EVAL);
        let p0 = a.reserve("g", &[Value::text("x")]);
        // Second reservation's args reference the first placeholder.
        let _p1 = a.reserve("h", &[Value::Int(p0 as i64)]);
        let mut minted: Vec<(String, Vec<Value>)> = Vec::new();
        let mut next = 100u64;
        let patch = a.commit(|generator, args| {
            minted.push((generator.to_string(), args.to_vec()));
            next += 1;
            next
        });
        assert_eq!(minted.len(), 2);
        // The arg placeholder was resolved through the prefix before minting.
        assert_eq!(minted[1].1, vec![Value::Int(101)]);
        assert_eq!(patch.resolve_id(p0), 101);
        assert_eq!(patch.resolve_id(SCOPE_EVAL + 1), 102);
        // Out-of-scope ids pass through.
        assert_eq!(patch.resolve_id(7), 7);
        assert_eq!(patch.resolve_id(SCOPE_CHUNK), SCOPE_CHUNK);
    }

    #[test]
    fn scopes_are_disjoint_and_fit_i64() {
        const {
            assert!(SCOPE_CHUNK + SCOPE_SPAN <= SCOPE_EVAL);
            assert!(SCOPE_EVAL + SCOPE_SPAN - 1 <= i64::MAX as u64);
        }
        assert!(!is_placeholder(SCOPE_CHUNK - 1));
    }
}

//! Compiled, staged, non-recursive rule evaluation — the hot path of every
//! read on a virtual schema version, every write-propagation hop, and every
//! migration.
//!
//! Evaluation follows the paper's reading of a rule set: rules are processed
//! in order; each rule's body is matched against the EDB *plus* all heads
//! derived by earlier rules (which realizes the `old`/`new` staging of the
//! id-generating SMOs). Derived heads shadow EDB relations of the same name.
//!
//! Unlike the naive reference interpreter ([`crate::naive`]), this engine
//! **compiles** each rule once before evaluating it:
//!
//! * rule variables are interned into numeric **slots**, so a set of bindings
//!   is a flat [`Frame`] (`Vec<Option<Value>>`) mutated in place with a
//!   backtracking trail instead of a `BTreeMap` cloned at every join depth;
//! * safe evaluation orders (base, key-seeded, and one per probe literal for
//!   the delta engine) are **scheduled at compile time** over slot bitsets;
//! * positive and negated atoms whose key term is unbound probe an on-demand
//!   **secondary join index** ([`ColumnIndex`]) on the first bound payload
//!   column instead of scanning the relation — O(1) per probe after a single
//!   O(n) build, cached per evaluation (and across statements by the
//!   `VersionedEdb` in `inverda-core`);
//! * the per-(head, key) memo is a two-level map keyed by `&str` then `Key`,
//!   so lookups allocate nothing.
//!
//! The compiled engine explores joins in **exactly** the same order as the
//! naive interpreter (same scheduling preferences and tie-breaks, and index
//! probes enumerate matches in key order like a scan would), so the two
//! engines derive identical relations *and* mint identical skolem ids. The
//! differential property tests in `tests/compiled_vs_naive.rs` hold them to
//! that.
//!
//! Two entry points:
//!
//! * [`evaluate`] / [`evaluate_compiled`] — full bottom-up evaluation;
//! * [`Evaluator::head_row_for_key`] — key-seeded evaluation used by the
//!   delta engine and by lazy view expansion: computes the single row a head
//!   relation derives for one key, pushing the key binding into body atoms
//!   (the engine-side analogue of a DBMS optimizer pushing a key predicate
//!   into a generated view).
//!
//! Full evaluation additionally **fans out** on the shared pool
//! ([`crate::parallel`]) when the configured width exceeds 1, over a view
//! that passed [`EdbView::prepare_parallel`]:
//!
//! * [`CompiledRuleSet::parallel_safe`] sets (non-staged, mint-free) run
//!   independent rules in parallel and split each rule's depth-0 scan into
//!   key-range chunks, with a sequential epilogue merging fragments in rule
//!   order then chunk order;
//! * staged and/or id-minting sets evaluate rules strictly in order but
//!   still chunk each rule's depth-0 scan; skolem generators hand out
//!   **reservation placeholders** from per-worker arenas, which the merge
//!   renumbers in rule-then-chunk order and a sequential commit epilogue
//!   exchanges for real ids in exactly the order a width-1 run would have
//!   minted them (see [`crate::skolem`] and DESIGN.md "Deterministic
//!   minting & reservation commit").
//!
//! Either way, worker threads perform no observable side effects, so
//! results — including skolem id assignment and error precedence — are
//! byte-identical at any width (DESIGN.md "Parallel evaluation &
//! deterministic merge").

use crate::ast::{Literal, Rule, RuleSet, Term};
use crate::delta::Delta;
use crate::error::DatalogError;
use crate::skolem::{self, PlaceholderPatch, ReservationArena, SkolemRegistry};
use crate::Result;
use inverda_storage::{
    ColumnIndex, IndexCache, Key, Relation, Row, RowContext, TableSchema, Value,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// EDB access
// ---------------------------------------------------------------------------

/// Read access to the extensional database during evaluation.
///
/// Implementations may serve relations lazily — the InVerDa core resolves
/// *virtual* table versions through SMO mappings on demand, so a key lookup
/// on a virtual relation need not materialize the whole relation. Relations
/// are returned as `Arc` so repeated `full` calls stay cheap.
///
/// Views are `Sync`: the parallel evaluation paths share one view across
/// worker threads, so interior caches must be lock-guarded (they all go
/// through the mutex-based [`IndexCache`] / lock-guarded maps). Laziness is
/// the one thing that is *not* thread-transparent — a lazy resolution can
/// mint skolem ids — which is what [`EdbView::prepare_parallel`] gates.
pub trait EdbView: Sync {
    /// Full state of the relation.
    fn full(&self, relation: &str) -> Result<Arc<Relation>>;

    /// Make the view safe to share with parallel evaluation workers for
    /// the given relations: materialize any lazy state whose resolution has
    /// side effects (id minting) **now, sequentially**, so worker threads
    /// only ever perform pure reads.
    ///
    /// Returns `Ok(false)` if that cannot be guaranteed — the caller must
    /// then stay on the sequential path (which is always correct).
    /// Implementations must *never* error for conditions the sequential
    /// path would handle differently: report such relations via `Ok(false)`
    /// and let sequential evaluation produce the canonical outcome. The
    /// default implementation declares the view pure (true for plain
    /// map-backed views such as [`MapEdb`]).
    fn prepare_parallel(&self, relations: &[&str]) -> Result<bool> {
        let _ = relations;
        Ok(true)
    }

    /// The row stored under `key`, if any.
    fn by_key(&self, relation: &str, key: Key) -> Result<Option<Row>> {
        Ok(self.full(relation)?.get(key).cloned())
    }

    /// Whether the relation is served by this view.
    fn contains(&self, relation: &str) -> bool;

    /// The write overlay this view serves `relation` under, if it holds the
    /// relation as *base snapshot plus row changes* rather than as one
    /// materialized state ([`PatchedEdb`](crate::delta::PatchedEdb)). The
    /// sequential join then reads the pair directly — rows by key through
    /// the changes, index probes through [`index`](EdbView::index) — so a
    /// handful of changed rows never forces [`full`](EdbView::full) to clone
    /// and patch the whole relation.
    fn overlay(&self, relation: &str) -> Result<Option<(Arc<Relation>, &Delta)>> {
        let _ = relation;
        Ok(None)
    }

    /// A secondary join index over one payload column of the relation's
    /// current state. The default builds it on the spot; caching
    /// implementations (`MapEdb` here, `VersionedEdb` in `inverda-core`)
    /// build each `(relation, column)` index once per snapshot.
    fn index(&self, relation: &str, column: usize) -> Result<Arc<ColumnIndex>> {
        Ok(Arc::new(self.full(relation)?.build_column_index(column)))
    }

    /// The rows whose payload column `column` equals `value` (the same
    /// numeric-folding [`Value`] equality an index probe or a scan uses),
    /// in ascending key order. A `column` beyond the relation's arity
    /// matches nothing.
    ///
    /// This is the depth-0 candidate fetch of **column-seeded evaluation**
    /// ([`Evaluator::head_rows_by_column`]). The default materializes the
    /// relation and probes its index; a lazy view (`VersionedEdb` in
    /// `inverda-core`) overrides it to push the binding through the
    /// relation's defining mapping instead — which is what lets an equality
    /// predicate recurse down a whole mapping chain touching only matching
    /// rows.
    fn by_column(&self, relation: &str, column: usize, value: &Value) -> Result<Vec<(Key, Row)>> {
        let rel = self.full(relation)?;
        if column >= rel.schema().arity() {
            return Ok(Vec::new());
        }
        Ok(self.index(relation, column)?.rows_for(&rel, value))
    }
}

/// A source of memoized skolem identifiers usable behind a shared reference
/// (rule evaluation happens on read paths too, which may mint fresh ids for
/// new payloads).
///
/// Sources are `Sync`: evaluation fans out onto worker threads which must
/// at least be able to [`peek`](IdSource::peek) already-assigned ids.
/// Reservation-backed sources ([`ReservingIds`]) defer actual minting to a
/// sequential commit epilogue, so `generate` from a worker never touches
/// shared minting state.
pub trait IdSource: Sync {
    /// The id for `(generator, args)`, minted (or reserved) on first use.
    fn generate(&self, generator: &str, args: &[Value]) -> u64;

    /// The id already assigned — or reserved — for `(generator, args)`,
    /// with no minting side effect.
    fn peek(&self, generator: &str, args: &[Value]) -> Option<u64>;
}

impl IdSource for Mutex<SkolemRegistry> {
    fn generate(&self, generator: &str, args: &[Value]) -> u64 {
        self.lock().get_or_create(generator, args)
    }

    fn peek(&self, generator: &str, args: &[Value]) -> Option<u64> {
        self.lock().peek(generator, args)
    }
}

/// The [`IdSource`] handed to the chunk workers of **mint-free** parallel
/// evaluations. Those are gated to rule sets that cannot mint
/// ([`CompiledRuleSet::parallel_safe`]), so any call is an engine bug.
/// Minting evaluations use [`ReservingIds`] instead. Use the shared
/// [`NO_MINT_IDS`] instance.
pub struct NoMintIds;

/// The canonical [`NoMintIds`] instance.
pub static NO_MINT_IDS: NoMintIds = NoMintIds;

impl IdSource for NoMintIds {
    fn generate(&self, generator: &str, _args: &[Value]) -> u64 {
        unreachable!("parallel paths are gated to mint-free rule sets (generator {generator})")
    }

    fn peek(&self, _generator: &str, _args: &[Value]) -> Option<u64> {
        None
    }
}

/// The reserve half of the engine's two-phase minting (see
/// [`crate::skolem`]): `generate` first peeks the parent source (the
/// durable registry, or an enclosing reservation scope) and only then
/// reserves a scope-local placeholder. `commit` / [`absorb`] replay the
/// reservations against the parent in reservation order — the sequential
/// epilogue that makes id assignment independent of how evaluation work was
/// split across threads.
///
/// [`absorb`]: ReservingIds::absorb
pub struct ReservingIds<'a> {
    parent: &'a dyn IdSource,
    arena: Mutex<ReservationArena>,
}

impl<'a> ReservingIds<'a> {
    /// A fresh reservation scope over `parent`, drawing placeholders from
    /// `scope_base` ([`skolem::SCOPE_CHUNK`] or [`skolem::SCOPE_EVAL`] —
    /// nested scopes must use distinct bases so a placeholder peeked from
    /// the parent is never mistaken for a local one).
    pub fn new(parent: &'a dyn IdSource, scope_base: u64) -> Self {
        ReservingIds {
            parent,
            arena: Mutex::new(ReservationArena::new(scope_base)),
        }
    }

    /// Consume the scope, returning the raw arena (parallel chunk workers
    /// ship their arena back to the merge epilogue this way).
    pub fn into_arena(self) -> ReservationArena {
        self.arena.into_inner()
    }

    /// Fold a worker-local arena into this scope **in the worker's
    /// reservation order**, translating placeholder references inside
    /// argument tuples through the assignments made so far. Returns the
    /// patch mapping the local placeholders to this scope's values (which
    /// may themselves be placeholders of this scope, or committed ids the
    /// parent already knew). This *is* an arena commit — just one whose
    /// "mint" reserves at the enclosing scope instead of minting for real.
    pub fn absorb(&self, local: ReservationArena) -> PlaceholderPatch {
        local.commit(|generator, args| self.generate(generator, args))
    }

    /// Commit every reservation against the parent source in reservation
    /// order, returning the patch mapping this scope's placeholders to the
    /// final ids. Argument tuples are resolved through the already-committed
    /// prefix first, so the durable memo records real ids only.
    pub fn commit(self) -> PlaceholderPatch {
        let parent = self.parent;
        self.arena
            .into_inner()
            .commit(|generator, args| parent.generate(generator, args))
    }
}

impl IdSource for ReservingIds<'_> {
    fn generate(&self, generator: &str, args: &[Value]) -> u64 {
        if let Some(id) = self.parent.peek(generator, args) {
            return id;
        }
        self.arena.lock().reserve(generator, args)
    }

    fn peek(&self, generator: &str, args: &[Value]) -> Option<u64> {
        self.parent
            .peek(generator, args)
            .or_else(|| self.arena.lock().peek(generator, args))
    }
}

/// Rewrite a committed patch through a derived relation: placeholder keys
/// and payload values become their assigned ids. Key collisions that only
/// materialize under final ids (a minted id equal to an existing key with a
/// different payload) surface here as the same [`DatalogError::KeyConflict`]
/// an eager-minting emit would have raised — both engines share this
/// function, so they fail identically.
pub fn patch_relation(rel: Relation, patch: &PlaceholderPatch) -> Result<Relation> {
    if patch.is_empty() {
        return Ok(rel);
    }
    // Most heads of a minting evaluation carry no placeholder at all (only
    // the generator-keyed ones do) — detect that with a scan of integer
    // comparisons and hand the relation back untouched instead of
    // deep-copying every row.
    let untouched = rel.iter().all(|(key, row)| {
        !patch.maps_id(key.0)
            && row
                .iter()
                .all(|v| !matches!(v, Value::Int(i) if *i >= 0 && patch.maps_id(*i as u64)))
    });
    if untouched {
        return Ok(rel);
    }
    let mut out = Relation::new(rel.schema().clone());
    for (key, row) in rel.iter() {
        let key = Key(patch.resolve_id(key.0));
        let mut row = row.clone();
        patch.resolve_row(&mut row);
        match out.get(key) {
            Some(existing) if *existing == row => {}
            Some(_) => {
                return Err(DatalogError::KeyConflict {
                    relation: rel.name().to_string(),
                    key: key.0,
                })
            }
            None => out.upsert(key, row).map_err(DatalogError::from)?,
        }
    }
    Ok(out)
}

/// A plain map-backed EDB with a per-snapshot join-index cache.
#[derive(Debug, Default)]
pub struct MapEdb {
    rels: BTreeMap<String, Arc<Relation>>,
    indexes: IndexCache,
}

impl Clone for MapEdb {
    fn clone(&self) -> Self {
        MapEdb {
            rels: self.rels.clone(),
            indexes: IndexCache::new(),
        }
    }
}

impl MapEdb {
    /// Empty EDB.
    pub fn new() -> Self {
        MapEdb::default()
    }

    /// Insert a relation under its own name.
    pub fn add(&mut self, rel: Relation) -> &mut Self {
        self.indexes.invalidate(rel.name());
        self.rels.insert(rel.name().to_string(), Arc::new(rel));
        self
    }

    /// Insert a shared relation under the given name.
    pub fn add_shared(&mut self, name: impl Into<String>, rel: Arc<Relation>) -> &mut Self {
        let name = name.into();
        self.indexes.invalidate(&name);
        self.rels.insert(name, rel);
        self
    }
}

impl EdbView for MapEdb {
    fn full(&self, relation: &str) -> Result<Arc<Relation>> {
        self.rels
            .get(relation)
            .cloned()
            .ok_or_else(|| DatalogError::UnboundRelation {
                relation: relation.to_string(),
            })
    }

    fn by_key(&self, relation: &str, key: Key) -> Result<Option<Row>> {
        match self.rels.get(relation) {
            Some(rel) => Ok(rel.get(key).cloned()),
            None => Err(DatalogError::UnboundRelation {
                relation: relation.to_string(),
            }),
        }
    }

    fn contains(&self, relation: &str) -> bool {
        self.rels.contains_key(relation)
    }

    fn index(&self, relation: &str, column: usize) -> Result<Arc<ColumnIndex>> {
        self.indexes.get_or_build(relation, column, || {
            Ok(self.full(relation)?.build_column_index(column))
        })
    }
}

/// Convert a key to its binding value.
pub fn key_value(key: Key) -> Value {
    Value::Int(key.0 as i64)
}

/// Convert a binding value back to a key.
pub fn value_key(relation: &str, v: &Value) -> Result<Key> {
    match v {
        Value::Int(i) if *i >= 0 => Ok(Key(*i as u64)),
        other => Err(DatalogError::BadKey {
            relation: relation.to_string(),
            value: other.to_string(),
        }),
    }
}

// ---------------------------------------------------------------------------
// Compiled rule representation
// ---------------------------------------------------------------------------

/// A binding frame: one `Option<Value>` per interned rule variable.
pub type Frame = Vec<Option<Value>>;

/// A compiled term: variables are slot numbers into the rule's [`Frame`].
#[derive(Debug, Clone, PartialEq)]
pub enum CTerm {
    /// A variable, as a frame slot.
    Var(usize),
    /// A constant value.
    Const(Value),
    /// The anonymous variable `_`.
    Anon,
}

impl CTerm {
    /// The value this term resolves to under `frame`, if fully resolved.
    fn resolved<'a>(&'a self, frame: &'a [Option<Value>]) -> Option<&'a Value> {
        match self {
            CTerm::Const(c) => Some(c),
            CTerm::Var(s) => frame[*s].as_ref(),
            CTerm::Anon => None,
        }
    }
}

/// A compiled atom `q(t0, t1, …, tn)`; `t0` is the key position.
#[derive(Debug, Clone, PartialEq)]
pub struct CAtom {
    /// Relation name.
    pub relation: String,
    /// Terms; index 0 is the key position.
    pub terms: Vec<CTerm>,
}

impl CAtom {
    /// The first payload column whose term resolves under `frame`, as
    /// `(column, value)` — the probe column for an index lookup.
    fn bound_payload<'a>(&'a self, frame: &'a Frame) -> Option<(usize, &'a Value)> {
        self.terms[1..]
            .iter()
            .enumerate()
            .find_map(|(col, t)| t.resolved(frame).map(|v| (col, v)))
    }
}

/// A compiled body literal. Condition and assignment expressions keep their
/// column-name ASTs but carry a precomputed name→slot table so evaluation
/// does no string building.
#[derive(Debug, Clone)]
enum CLit {
    Pos(CAtom),
    Neg(CAtom),
    Cond {
        expr: inverda_storage::Expr,
        cols: Vec<(String, usize)>,
    },
    Assign {
        slot: usize,
        expr: inverda_storage::Expr,
        cols: Vec<(String, usize)>,
    },
    Skolem {
        slot: usize,
        generator: String,
        args: Vec<CTerm>,
    },
}

/// One rule, compiled: slot-interned terms plus precomputed safe evaluation
/// orders for every way the engine enters the rule.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Head atom (first term is the derived key).
    pub head: CAtom,
    body: Vec<CLit>,
    /// Number of interned variables (= frame width).
    pub n_vars: usize,
    /// Slot → variable name (diagnostics).
    pub var_names: Vec<String>,
    /// Evaluation order with nothing pre-bound.
    pub(crate) base_order: Vec<usize>,
    /// Evaluation order with the head key variable pre-bound (key-seeded
    /// evaluation); `None` when the head key is not a pushable variable.
    keyed_order: Option<Vec<usize>>,
    /// Per body literal: evaluation order with that literal skipped and its
    /// variables pre-bound (delta-engine probing). `None` for non-atoms.
    probe_orders: Vec<Option<Vec<usize>>>,
    /// Evaluation order with every head variable pre-bound — the
    /// "is this very tuple derivable" check of delta-vs-stored maintenance.
    head_seed_order: Vec<usize>,
    /// Slot of the key variable of the depth-0 scan, if `base_order` opens
    /// with a positive atom keyed by an (unbound) variable (see
    /// [`has_keyed_scan`](CompiledRule::has_keyed_scan)).
    scan_key_slot: Option<usize>,
    /// Slot of the head key variable, if it is a variable.
    pub head_key_slot: Option<usize>,
    /// Whether the head key variable occurs in some positive body atom, so
    /// seeding it restricts evaluation.
    pub seedable: bool,
    /// Display form of the source rule (for errors).
    display: String,
}

impl CompiledRule {
    /// Whether `base_order` opens with a positive atom whose key term is an
    /// (unbound) variable: every firing is then owned by one key of that
    /// depth-0 scan, and the rule can be re-run for a chosen set of them.
    pub(crate) fn has_keyed_scan(&self) -> bool {
        self.scan_key_slot.is_some()
    }
}

/// A rule set compiled for evaluation. Built once per rule set via
/// [`CompiledRuleSet::compile`] and reused across statements (the engine
/// caches compiled sets per SMO and invalidates on catalog changes).
#[derive(Debug, Clone)]
pub struct CompiledRuleSet {
    /// Compiled rules, in evaluation order.
    pub rules: Vec<CompiledRule>,
    /// Head name → indices of rules deriving it.
    head_index: BTreeMap<String, Vec<usize>>,
    /// Whether some rule consumes a head derived by the set itself
    /// (`old`/`new` staging of the id-generating SMOs).
    staged: bool,
}

impl CompiledRuleSet {
    /// Compile a rule set. Fails with [`DatalogError::UnsafeRule`] if some
    /// rule's body cannot be scheduled (same error the naive interpreter
    /// reports at evaluation time).
    pub fn compile(rules: &RuleSet) -> Result<CompiledRuleSet> {
        let compiled: Vec<CompiledRule> = rules
            .rules
            .iter()
            .map(compile_rule)
            .collect::<Result<_>>()?;
        let mut head_index: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, rule) in compiled.iter().enumerate() {
            head_index
                .entry(rule.head.relation.clone())
                .or_default()
                .push(i);
        }
        let staged = compiled.iter().any(|r| {
            r.body.iter().any(|lit| match lit {
                CLit::Pos(a) | CLit::Neg(a) => head_index.contains_key(&a.relation),
                _ => false,
            })
        });
        Ok(CompiledRuleSet {
            rules: compiled,
            head_index,
            staged,
        })
    }

    /// Whether the set consumes its own heads (`old`/`new` staging).
    pub fn staged(&self) -> bool {
        self.staged
    }

    /// Whether any rule binds a variable through a skolem generator —
    /// evaluating such a set can mint fresh ids, i.e. it has side effects
    /// beyond its derived heads.
    pub fn mints_ids(&self) -> bool {
        self.rules
            .iter()
            .any(|r| r.body.iter().any(|lit| matches!(lit, CLit::Skolem { .. })))
    }

    /// Whether the set is eligible for the **independent-rule** fan-out:
    /// rules must be **independent** (no rule consumes a head
    /// of the set — the staged `old`/`new` SMOs evaluate strictly in rule
    /// order) and **pure** (no skolem generators). Staged and minting sets
    /// are *also* evaluated in parallel, but through the ordered per-rule
    /// fan-out with reservation arenas (see [`evaluate_compiled`]), which
    /// preserves staging and the deterministic minting order.
    pub fn parallel_safe(&self) -> bool {
        !self.staged && !self.mints_ids()
    }

    /// Names of every **external** relation the rule bodies read, in the
    /// order the scheduled sequential evaluation would first touch them
    /// (rule order, then scheduled-literal order). Heads of the set itself
    /// (the staged `old`/`new` intermediates) are derived in place and
    /// excluded. This is what a view must prepare before the set is
    /// evaluated on worker threads.
    pub fn body_relations(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for rule in &self.rules {
            for &lit in &rule.base_order {
                if let CLit::Pos(a) | CLit::Neg(a) = &rule.body[lit] {
                    if self.head_index.contains_key(&a.relation) {
                        continue;
                    }
                    if seen.insert(a.relation.as_str()) {
                        out.push(a.relation.as_str());
                    }
                }
            }
        }
        out
    }

    /// Names of the heads the set derives, in name order.
    pub fn head_names(&self) -> impl Iterator<Item = &str> {
        self.head_index.keys().map(String::as_str)
    }

    /// Indices of the rules deriving `head`.
    pub fn rules_for(&self, head: &str) -> &[usize] {
        self.head_index.get(head).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Relation names of positive/negative atoms of one rule's body, with
    /// literal indices — the probe points of the delta engine.
    pub fn body_atoms(&self, rule: usize) -> impl Iterator<Item = (usize, &CAtom, bool)> {
        self.rules[rule]
            .body
            .iter()
            .enumerate()
            .filter_map(|(i, lit)| match lit {
                CLit::Pos(a) => Some((i, a, true)),
                CLit::Neg(a) => Some((i, a, false)),
                _ => None,
            })
    }
}

/// Slot bitset used by compile-time scheduling.
#[derive(Clone)]
struct SlotSet(Vec<u64>);

impl SlotSet {
    fn new(n: usize) -> SlotSet {
        SlotSet(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, slot: usize) {
        self.0[slot / 64] |= 1 << (slot % 64);
    }

    fn contains(&self, slot: usize) -> bool {
        self.0[slot / 64] & (1 << (slot % 64)) != 0
    }

    fn contains_all(&self, slots: &[usize]) -> bool {
        slots.iter().all(|s| self.contains(*s))
    }
}

/// Key-term shape of a positive atom, for scheduling.
enum KeyKind {
    Const,
    Var(usize),
    Anon,
}

/// Scheduling metadata for one body literal.
struct LitMeta {
    /// Slots that must be bound before the literal is schedulable as a
    /// filter (empty for positive atoms, which are always schedulable).
    requires: Vec<usize>,
    /// Slots bound once the literal is scheduled.
    binds: Vec<usize>,
    /// `Some` for positive atoms.
    pos_key: Option<KeyKind>,
    /// Whether the literal is a filter (anything but a positive atom).
    filter: bool,
}

fn compile_rule(rule: &Rule) -> Result<CompiledRule> {
    // Intern variables (first-occurrence order over head then body).
    let var_names = rule.variables();
    let n_vars = var_names.len();
    let slot_of: HashMap<&str, usize> = var_names
        .iter()
        .enumerate()
        .map(|(i, v)| (v.as_str(), i))
        .collect();
    let cterm = |t: &Term| match t {
        Term::Var(v) => CTerm::Var(slot_of[v.as_str()]),
        Term::Const(c) => CTerm::Const(c.clone()),
        Term::Anon => CTerm::Anon,
    };
    let catom = |a: &crate::ast::Atom| CAtom {
        relation: a.relation.clone(),
        terms: a.terms.iter().map(cterm).collect(),
    };
    let expr_cols = |e: &inverda_storage::Expr| -> Vec<(String, usize)> {
        e.referenced_columns()
            .into_iter()
            .map(|c| {
                let slot = slot_of[c.as_str()];
                (c, slot)
            })
            .collect()
    };

    let mut body = Vec::with_capacity(rule.body.len());
    let mut meta = Vec::with_capacity(rule.body.len());
    for lit in &rule.body {
        let var_slots =
            |vars: &[String]| -> Vec<usize> { vars.iter().map(|v| slot_of[v.as_str()]).collect() };
        match lit {
            Literal::Pos(a) => {
                let atom = catom(a);
                let key = match &atom.terms[0] {
                    CTerm::Const(_) => KeyKind::Const,
                    CTerm::Var(s) => KeyKind::Var(*s),
                    CTerm::Anon => KeyKind::Anon,
                };
                meta.push(LitMeta {
                    requires: Vec::new(),
                    binds: var_slots(&lit.variables()),
                    pos_key: Some(key),
                    filter: false,
                });
                body.push(CLit::Pos(atom));
            }
            Literal::Neg(a) => {
                let slots = var_slots(&lit.variables());
                meta.push(LitMeta {
                    requires: slots.clone(),
                    binds: slots,
                    pos_key: None,
                    filter: true,
                });
                body.push(CLit::Neg(catom(a)));
            }
            Literal::Cond(e) => {
                let cols = expr_cols(e);
                let slots: Vec<usize> = cols.iter().map(|(_, s)| *s).collect();
                meta.push(LitMeta {
                    requires: slots.clone(),
                    binds: slots,
                    pos_key: None,
                    filter: true,
                });
                body.push(CLit::Cond {
                    expr: e.clone(),
                    cols,
                });
            }
            Literal::Assign { var, expr } => {
                let cols = expr_cols(expr);
                let requires: Vec<usize> = cols.iter().map(|(_, s)| *s).collect();
                let mut binds = requires.clone();
                binds.push(slot_of[var.as_str()]);
                meta.push(LitMeta {
                    requires,
                    binds,
                    pos_key: None,
                    filter: true,
                });
                body.push(CLit::Assign {
                    slot: slot_of[var.as_str()],
                    expr: expr.clone(),
                    cols,
                });
            }
            Literal::Skolem {
                var,
                generator,
                args,
            } => {
                let requires: Vec<usize> = args
                    .iter()
                    .filter_map(|t| t.as_var())
                    .map(|v| slot_of[v])
                    .collect();
                let mut binds = requires.clone();
                binds.push(slot_of[var.as_str()]);
                meta.push(LitMeta {
                    requires,
                    binds,
                    pos_key: None,
                    filter: true,
                });
                body.push(CLit::Skolem {
                    slot: slot_of[var.as_str()],
                    generator: generator.clone(),
                    args: args.iter().map(cterm).collect(),
                });
            }
        }
    }

    let display = rule.to_string();
    let empty = SlotSet::new(n_vars);
    let base_order = schedule_slots(&meta, None, &empty, &display)?;

    let head_key_slot = match rule.head.key_term() {
        Term::Var(v) => Some(slot_of[v.as_str()]),
        _ => None,
    };
    let seedable = head_key_slot.is_some()
        && meta.iter().zip(&body).any(|(m, lit)| {
            matches!(lit, CLit::Pos(_)) && m.binds.contains(&head_key_slot.expect("checked"))
        });
    let keyed_order = match head_key_slot {
        Some(slot) => {
            let mut seed = SlotSet::new(n_vars);
            seed.insert(slot);
            schedule_slots(&meta, None, &seed, &display).ok()
        }
        None => None,
    };
    let head_seed_order = {
        let mut seed = SlotSet::new(n_vars);
        for v in rule.head.terms.iter().filter_map(Term::as_var) {
            seed.insert(slot_of[v]);
        }
        // Schedulable whenever `base_order` is: more slots bound up front
        // only ever makes more filters ready.
        schedule_slots(&meta, None, &seed, &display)?
    };
    let scan_key_slot = base_order.first().and_then(|&li| match &body[li] {
        CLit::Pos(atom) => match atom.terms[0] {
            CTerm::Var(slot) => Some(slot),
            _ => None,
        },
        _ => None,
    });
    let probe_orders: Vec<Option<Vec<usize>>> = meta
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if !matches!(&body[i], CLit::Pos(_) | CLit::Neg(_)) {
                return None;
            }
            let mut seed = SlotSet::new(n_vars);
            for s in &m.binds {
                seed.insert(*s);
            }
            schedule_slots(&meta, Some(i), &seed, &display).ok()
        })
        .collect();

    Ok(CompiledRule {
        head: catom(&rule.head),
        body,
        n_vars,
        var_names,
        base_order,
        keyed_order,
        probe_orders,
        head_seed_order,
        scan_key_slot,
        head_key_slot,
        seedable,
        display,
    })
}

/// Compile-time scheduling over slot bitsets. Mirrors the naive
/// interpreter's `schedule` exactly — same preferences (ready filters first,
/// then positive atoms with a bound key term, then any positive atom) and
/// same first-position tie-breaks — so both engines explore joins in the
/// same order.
fn schedule_slots(
    meta: &[LitMeta],
    skip: Option<usize>,
    seed: &SlotSet,
    display: &str,
) -> Result<Vec<usize>> {
    let mut bound = seed.clone();
    let mut remaining: Vec<usize> = (0..meta.len()).filter(|i| Some(*i) != skip).collect();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let ready_filter = remaining
            .iter()
            .position(|&i| meta[i].filter && bound.contains_all(&meta[i].requires));
        if let Some(pos) = ready_filter {
            let i = remaining.remove(pos);
            for s in &meta[i].binds {
                bound.insert(*s);
            }
            order.push(i);
            continue;
        }
        let keyed = remaining.iter().position(|&i| match &meta[i].pos_key {
            Some(KeyKind::Const) => true,
            Some(KeyKind::Var(s)) => bound.contains(*s),
            Some(KeyKind::Anon) | None => false,
        });
        let any_pos = keyed.or_else(|| remaining.iter().position(|&i| meta[i].pos_key.is_some()));
        match any_pos {
            Some(pos) => {
                let i = remaining.remove(pos);
                for s in &meta[i].binds {
                    bound.insert(*s);
                }
                order.push(i);
            }
            None => {
                return Err(DatalogError::UnsafeRule {
                    rule: display.to_string(),
                })
            }
        }
    }
    Ok(order)
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// Evaluate a rule set bottom-up against an EDB. Compiles the rules first;
/// use [`evaluate_compiled`] to reuse a compiled set across calls.
///
/// Returns the derived relations keyed by head name. `head_columns` supplies
/// column names for derived relations; heads without an entry get synthetic
/// positional names (`c0`, `c1`, …).
pub fn evaluate(
    rules: &RuleSet,
    edb: &dyn EdbView,
    ids: &dyn IdSource,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<BTreeMap<String, Relation>> {
    evaluate_compiled(&CompiledRuleSet::compile(rules)?, edb, ids, head_columns)
}

/// Evaluate a pre-compiled rule set bottom-up against an EDB.
///
/// When the configured width ([`crate::parallel::threads`]) exceeds 1,
/// evaluation fans out over the shared thread pool and re-assembles the
/// fragments in a deterministic sequential epilogue (rule order, then chunk
/// order), so the derived relations, the tuple insertion order, any
/// key-conflict error, and the skolem registry state are byte-identical to
/// a `threads = 1` run:
///
/// * [`CompiledRuleSet::parallel_safe`] sets (non-staged, mint-free) fan
///   out independent rules *and* chunk each rule's depth-0 scan;
/// * staged and/or id-minting sets evaluate rules strictly in order but
///   still chunk each rule's depth-0 scan, with skolem calls going through
///   a **reserve-then-commit** cycle ([`ReservingIds`]): workers hand out
///   scope-local placeholder ids, the merge epilogue renumbers them in
///   rule-then-chunk order (exactly the sequential reservation order), and
///   a final commit mints real ids in that order and patches them through
///   the derived relations.
pub fn evaluate_compiled(
    crs: &CompiledRuleSet,
    edb: &dyn EdbView,
    ids: &dyn IdSource,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<BTreeMap<String, Relation>> {
    if crs.parallel_safe() {
        // Chunk-parallel at width ≥ 2 over a view that can be shared with
        // workers; `None` falls through to the sequential frame machine.
        if let Some(out) = try_evaluate_parallel(crs, edb, head_columns)? {
            return Ok(out);
        }
        let mut ev = Evaluator::new(edb, ids);
        for rule in &crs.rules {
            ev.ensure_head(&rule.head.relation, rule.head.terms.len() - 1, head_columns);
            let tuples = ev.rule_head_tuples(rule, &rule.base_order, None)?;
            for (key, row) in tuples {
                ev.emit(&rule.head.relation, key, row)?;
            }
        }
        return Ok(ev.into_derived());
    }
    // Staged and/or minting: evaluate rules strictly in order behind a
    // reservation scope; commit reservations (in reservation order — the
    // same at every width) and patch the final ids through the output.
    let reserving = ReservingIds::new(ids, skolem::SCOPE_EVAL);
    let derived = evaluate_ordered(crs, edb, &reserving, head_columns)?;
    let patch = reserving.commit();
    if patch.is_empty() {
        return Ok(derived);
    }
    derived
        .into_iter()
        .map(|(name, rel)| patch_relation(rel, &patch).map(|rel| (name, rel)))
        .collect()
}

/// Rule-order-preserving evaluation of a staged and/or minting set, with an
/// optional per-rule chunked fan-out of each rule's depth-0 scan. Skolem
/// calls reserve placeholders: directly on `reserving` when a rule runs
/// inline, via a worker-local chunk arena (translated into `reserving` at
/// merge time, in chunk order) when it fans out — either way the scope's
/// reservation order equals the sequential exploration order exactly.
fn evaluate_ordered(
    crs: &CompiledRuleSet,
    edb: &dyn EdbView,
    reserving: &ReservingIds<'_>,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<BTreeMap<String, Relation>> {
    let width = crate::parallel::threads();
    let par = width >= 2 && edb.prepare_parallel(&crs.body_relations())?;
    let mut ev = Evaluator::new(edb, reserving);
    for rule in &crs.rules {
        ev.ensure_head(&rule.head.relation, rule.head.terms.len() - 1, head_columns);
        // Planning failures (unbound relation, arity mismatch) fall back to
        // the inline join, which raises the canonical sequential error.
        let plan = if par {
            ev.plan_chunk_scan(rule).unwrap_or(None)
        } else {
            None
        };
        let ranges = plan
            .as_ref()
            .map(|(_, _, keys)| crate::parallel::chunk_ranges(keys.len(), width))
            .unwrap_or_default();
        if ranges.len() < 2 {
            let tuples = ev.rule_head_tuples(rule, &rule.base_order, None)?;
            for (key, row) in tuples {
                ev.emit(&rule.head.relation, key, row)?;
            }
            continue;
        }
        let (lit, rel, keys) = plan.expect("ranges imply a plan");
        // Workers share the EDB plus a read-only snapshot of the heads
        // derived so far (staged rules read earlier heads); each gets its
        // own reservation arena so placeholder numbering never depends on
        // scheduling.
        let derived = ev.derived.clone();
        type Fragment = (Vec<(Key, Row)>, ReservationArena);
        let results: Vec<Result<Fragment>> = crate::parallel::map_indexed(ranges.len(), |ci| {
            let chunk_ids = ReservingIds::new(reserving, skolem::SCOPE_CHUNK);
            let wev = Evaluator::with_derived(edb, &chunk_ids, derived.clone());
            let (start, end) = ranges[ci];
            let tuples = wev.chunk_head_tuples(rule, lit, &rel, &keys[start..end])?;
            Ok((tuples, chunk_ids.into_arena()))
        });
        // The workers are done with the snapshot; release it so the merge's
        // emits don't see a second strong reference on the heads (which
        // would force `Arc::make_mut` to deep-copy each one once per rule).
        drop(derived);
        // Surface the rule's first chunk *error* (in chunk order) before
        // emitting anything: the width-1 path computes the whole rule's
        // tuples before its first emit, so a join error anywhere in the
        // rule must take precedence over an emit-time KeyConflict of an
        // earlier fragment.
        let fragments: Vec<Fragment> = results.into_iter().collect::<Result<_>>()?;
        // Merge in chunk order: absorb each chunk's reservations into the
        // evaluation scope and rewrite its fragment through the resulting
        // translation before emitting.
        for (tuples, arena) in fragments {
            let translation = reserving.absorb(arena);
            for (key, mut row) in tuples {
                let key = Key(translation.resolve_id(key.0));
                translation.resolve_row(&mut row);
                ev.emit(&rule.head.relation, key, row)?;
            }
        }
    }
    Ok(ev.into_derived())
}

/// One unit of parallel evaluation work.
enum ParTask {
    /// Evaluate the whole rule on one worker (depth-0 literal not
    /// chunkable, or planning hit an error the sequential join must
    /// reproduce in canonical order).
    Whole(usize),
    /// Evaluate one contiguous chunk of the rule's depth-0 candidate keys.
    Chunk {
        rule: usize,
        lit: usize,
        rel: Arc<Relation>,
        keys: Arc<Vec<Key>>,
        range: (usize, usize),
    },
}

impl ParTask {
    fn rule(&self) -> usize {
        match self {
            ParTask::Whole(rule) | ParTask::Chunk { rule, .. } => *rule,
        }
    }
}

/// The parallel fast path of [`evaluate_compiled`]; `None` means "stay
/// sequential" (width 1, unsafe rule set, or a view that cannot be shared).
fn try_evaluate_parallel(
    crs: &CompiledRuleSet,
    edb: &dyn EdbView,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<Option<BTreeMap<String, Relation>>> {
    let width = crate::parallel::threads();
    if width < 2 || !crs.parallel_safe() {
        return Ok(None);
    }
    if !edb.prepare_parallel(&crs.body_relations())? {
        return Ok(None);
    }

    // ---- Plan: one task per rule, or per chunk of the rule's depth-0
    // scan. Planning failures (unbound relation, arity mismatch) fall back
    // to a Whole task so the worker's sequential join raises the exact
    // error a `threads = 1` run would, at the same canonical position.
    let mut tasks: Vec<ParTask> = Vec::new();
    for ri in 0..crs.rules.len() {
        match plan_rule_chunks(crs, edb, ri, width).unwrap_or(None) {
            Some(chunks) => tasks.extend(chunks),
            None => tasks.push(ParTask::Whole(ri)),
        }
    }

    // ---- Fan out. Workers are pure: they share the prepared view, mint
    // nothing (`NO_MINT_IDS`), and each produces an ordered fragment of one
    // rule's head tuples.
    let results: Vec<Result<Vec<(Key, Row)>>> = crate::parallel::map_indexed(tasks.len(), |ti| {
        let ev = Evaluator::new(edb, &NO_MINT_IDS);
        match &tasks[ti] {
            ParTask::Whole(ri) => {
                let rule = &crs.rules[*ri];
                ev.rule_head_tuples(rule, &rule.base_order, None)
            }
            ParTask::Chunk {
                rule,
                lit,
                rel,
                keys,
                range,
            } => ev.chunk_head_tuples(&crs.rules[*rule], *lit, rel, &keys[range.0..range.1]),
        }
    });

    // ---- Deterministic epilogue: merge fragments and emit head tuples in
    // rule order then chunk order — exactly the sequential insertion order,
    // so key-conflict detection and error precedence are reproduced. Each
    // rule's fragment errors are drained (in task order) before any of its
    // fragments is emitted: the sequential engine computes a whole rule's
    // tuples before its first emit, so a join error anywhere in a rule
    // precedes an emit-time KeyConflict of that rule's earlier fragments.
    let mut ev = Evaluator::new(edb, &NO_MINT_IDS);
    let mut results = results.into_iter();
    let mut ti = 0;
    for (ri, rule) in crs.rules.iter().enumerate() {
        ev.ensure_head(&rule.head.relation, rule.head.terms.len() - 1, head_columns);
        let mut fragments: Vec<Vec<(Key, Row)>> = Vec::new();
        while ti < tasks.len() && tasks[ti].rule() == ri {
            fragments.push(results.next().expect("one result per task")?);
            ti += 1;
        }
        for tuples in fragments {
            for (key, row) in tuples {
                ev.emit(&rule.head.relation, key, row)?;
            }
        }
    }
    Ok(Some(ev.into_derived()))
}

/// Chunk one rule's depth-0 scan: only a positive atom whose key term is
/// unbound at depth 0 enumerates multiple candidates worth splitting.
/// `Ok(None)` / `Err` mean "evaluate the rule as one sequential task".
fn plan_rule_chunks(
    crs: &CompiledRuleSet,
    edb: &dyn EdbView,
    ri: usize,
    width: usize,
) -> Result<Option<Vec<ParTask>>> {
    // A throwaway evaluator with no derived heads resolves exactly like the
    // raw view (this path plans before any rule ran).
    let ev = Evaluator::new(edb, &NO_MINT_IDS);
    let Some((lit, rel, keys)) = ev.plan_chunk_scan(&crs.rules[ri])? else {
        return Ok(None);
    };
    let chunks = crate::parallel::chunk_ranges(keys.len(), width)
        .into_iter()
        .map(|range| ParTask::Chunk {
            rule: ri,
            lit,
            rel: Arc::clone(&rel),
            keys: Arc::clone(&keys),
            range,
        })
        .collect();
    Ok(Some(chunks))
}

/// The compiled evaluation engine. Holds derived heads (which shadow the
/// EDB), per-evaluation join indexes for derived heads, and an
/// allocation-free memo for key-seeded head evaluation.
pub struct Evaluator<'a> {
    edb: &'a dyn EdbView,
    ids: &'a dyn IdSource,
    /// Fully evaluated heads (full evaluation mode). Shared so the join can
    /// iterate a head while the evaluator hands out further references.
    pub derived: BTreeMap<String, Arc<Relation>>,
    /// `head → key → row` memo; outer lookups are by `&str` (no allocation).
    by_key_memo: HashMap<String, HashMap<Key, Option<Row>>>,
    /// Join indexes over *derived* heads, patched incrementally as heads
    /// grow (heads are append-only: a conflicting emit is an error).
    /// (EDB relations are indexed and cached by the [`EdbView`] itself.)
    derived_indexes: IndexCache,
    /// Skolem literals only [`peek`](IdSource::peek): arguments without an
    /// assigned id end the branch instead of reserving one (see
    /// [`Evaluator::peeking`]).
    peek_only: bool,
}

/// A relation as the sequential join reads it: one materialized state, or a
/// base snapshot under a view's write overlay ([`EdbView::overlay`]) that is
/// never materialized.
enum RelView<'e> {
    Whole(Arc<Relation>),
    Patched(Arc<Relation>, &'e Delta),
}

impl RelView<'_> {
    fn arity(&self) -> usize {
        match self {
            RelView::Whole(rel) | RelView::Patched(rel, _) => rel.schema().arity(),
        }
    }

    fn get(&self, key: Key) -> Option<&Row> {
        match self {
            RelView::Whole(rel) => rel.get(key),
            RelView::Patched(base, delta) => match delta.inserts.get(&key) {
                Some(row) => Some(row),
                None if delta.deletes.contains_key(&key) => None,
                None => base.get(key),
            },
        }
    }

    /// Visit rows in ascending key order (the order a scan of the
    /// materialized state would take) until `f` breaks.
    fn try_for_each(&self, mut f: impl FnMut(Key, &Row) -> Result<ControlFlow<()>>) -> Result<()> {
        match self {
            RelView::Whole(rel) => {
                for (key, row) in rel.iter() {
                    if f(key, row)?.is_break() {
                        break;
                    }
                }
            }
            RelView::Patched(base, delta) => {
                // Merge the surviving base rows with the inserted ones.
                let mut inserts = delta.inserts.iter().peekable();
                for (key, row) in base.iter() {
                    while let Some((k, r)) = inserts.next_if(|(k, _)| **k < key) {
                        if f(*k, r)?.is_break() {
                            return Ok(());
                        }
                    }
                    let kept =
                        !delta.inserts.contains_key(&key) && !delta.deletes.contains_key(&key);
                    if kept && f(key, row)?.is_break() {
                        return Ok(());
                    }
                }
                for (k, r) in inserts {
                    if f(*k, r)?.is_break() {
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

impl<'a> Evaluator<'a> {
    /// New evaluator over an EDB.
    pub fn new(edb: &'a dyn EdbView, ids: &'a dyn IdSource) -> Self {
        Evaluator {
            edb,
            ids,
            derived: BTreeMap::new(),
            by_key_memo: HashMap::new(),
            derived_indexes: IndexCache::new(),
            peek_only: false,
        }
    }

    /// An evaluator that never mints or reserves: a skolem literal whose
    /// arguments have no assigned id yet simply matches nothing. Exact for
    /// checking derivations that *already existed* — their generator
    /// arguments were memoized when they were first derived — which is what
    /// the delete side of delta-vs-stored maintenance asks
    /// ([`crate::delta::propagate_vs_stored`]).
    pub(crate) fn peeking(edb: &'a dyn EdbView, ids: &'a dyn IdSource) -> Self {
        Evaluator {
            peek_only: true,
            ..Evaluator::new(edb, ids)
        }
    }

    /// Evaluator pre-seeded with already-derived heads — the read-only
    /// snapshot a parallel chunk worker of a *staged* rule set evaluates
    /// against (earlier rules' heads shadow the EDB exactly as they do for
    /// the merging evaluator; the worker itself never emits).
    fn with_derived(
        edb: &'a dyn EdbView,
        ids: &'a dyn IdSource,
        derived: BTreeMap<String, Arc<Relation>>,
    ) -> Self {
        Evaluator {
            edb,
            ids,
            derived,
            by_key_memo: HashMap::new(),
            derived_indexes: IndexCache::new(),
            peek_only: false,
        }
    }

    /// Plan the chunked fan-out of one rule's depth-0 scan: only a positive
    /// atom whose key term is unbound at depth 0 enumerates multiple
    /// candidates worth splitting. Candidates mirror the sequential
    /// enumeration exactly — index probe on the first bound payload column,
    /// else a full scan, both in ascending key order — and resolve through
    /// this evaluator, so derived heads (staged sets) chunk just like EDB
    /// relations. `Ok(None)` / `Err` mean "evaluate the rule inline".
    #[allow(clippy::type_complexity)]
    fn plan_chunk_scan(
        &self,
        rule: &CompiledRule,
    ) -> Result<Option<(usize, Arc<Relation>, Arc<Vec<Key>>)>> {
        let Some(&first) = rule.base_order.first() else {
            return Ok(None);
        };
        let CLit::Pos(atom) = &rule.body[first] else {
            return Ok(None);
        };
        let empty: Frame = vec![None; rule.n_vars];
        if atom.terms[0].resolved(&empty).is_some() {
            // Key-bound depth 0 is a single point lookup — nothing to chunk.
            return Ok(None);
        }
        let rel = self.relation_full(&atom.relation)?;
        check_arity(atom, rel.schema().arity() + 1)?;
        let keys: Vec<Key> = match atom.bound_payload(&empty) {
            Some((col, value)) => {
                let value = value.clone();
                self.index_for(&atom.relation, col)?
                    .keys_for(&value)
                    .to_vec()
            }
            None => rel.keys().collect(),
        };
        Ok(Some((first, rel, Arc::new(keys))))
    }

    /// Evaluate one contiguous chunk of a rule's depth-0 candidates,
    /// returning the head tuples in candidate order (the fragment a merge
    /// epilogue emits in chunk order).
    fn chunk_head_tuples(
        &self,
        rule: &CompiledRule,
        lit: usize,
        rel: &Relation,
        keys: &[Key],
    ) -> Result<Vec<(Key, Row)>> {
        let CLit::Pos(atom) = &rule.body[lit] else {
            unreachable!("chunk tasks are planned on positive atoms only")
        };
        let mut frame: Frame = vec![None; rule.n_vars];
        let mut trail = Vec::with_capacity(rule.n_vars);
        let mut out = Vec::new();
        // `select_rows` walks dense ascending chunks by one in-order merge
        // instead of per-key tree probes; visit order (and thus tuple and
        // error order) is identical to the per-key loop it replaced.
        let mut first_err: Option<DatalogError> = None;
        rel.select_rows(keys, |key, row| {
            if first_err.is_some() {
                return;
            }
            let mark = trail.len();
            if unify_atom(atom, key, row, &mut frame, &mut trail) {
                let joined = self.join(
                    rule,
                    &rule.base_order,
                    1,
                    &mut frame,
                    &mut trail,
                    &mut |frame| {
                        out.push(head_tuple(rule, frame)?);
                        Ok(())
                    },
                );
                if let Err(e) = joined {
                    first_err = Some(e);
                }
            }
            undo(&mut frame, &mut trail, mark);
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Consume the evaluator, unwrapping the derived heads.
    fn into_derived(self) -> BTreeMap<String, Relation> {
        self.derived
            .into_iter()
            .map(|(name, rel)| {
                let rel = Arc::try_unwrap(rel).unwrap_or_else(|shared| (*shared).clone());
                (name, rel)
            })
            .collect()
    }

    fn ensure_head(
        &mut self,
        head: &str,
        arity: usize,
        head_columns: &BTreeMap<String, Vec<String>>,
    ) {
        if !self.derived.contains_key(head) {
            let columns: Vec<String> = match head_columns.get(head) {
                Some(cols) => cols.clone(),
                None => (0..arity).map(|i| format!("c{i}")).collect(),
            };
            let schema = TableSchema::new(head.to_string(), columns).expect("unique columns");
            self.derived
                .insert(head.to_string(), Arc::new(Relation::new(schema)));
        }
    }

    /// Add a derived head tuple, detecting key conflicts.
    fn emit(&mut self, head: &str, key: Key, row: Row) -> Result<()> {
        let rel = self
            .derived
            .get_mut(head)
            .expect("head relation pre-created");
        match rel.get(key) {
            Some(existing) if *existing == row => Ok(()),
            Some(_) => Err(DatalogError::KeyConflict {
                relation: head.to_string(),
                key: key.0,
            }),
            None => {
                // A head only ever *grows* (conflicting emits error out
                // above), so cached indexes are patched for the appended
                // row instead of being dropped and rebuilt at O(n).
                self.derived_indexes.patch_row(head, key, None, Some(&row));
                Arc::make_mut(rel)
                    .upsert(key, row)
                    .map_err(DatalogError::from)?;
                Ok(())
            }
        }
    }

    /// Resolve a relation for matching: derived heads shadow the EDB.
    fn relation_full(&self, name: &str) -> Result<Arc<Relation>> {
        if let Some(rel) = self.derived.get(name) {
            return Ok(Arc::clone(rel));
        }
        self.edb.full(name)
    }

    /// [`relation_full`](Evaluator::relation_full) for the sequential
    /// join, which can read an overlaid relation without materializing it.
    fn relation_view(&self, name: &str) -> Result<RelView<'a>> {
        if let Some(rel) = self.derived.get(name) {
            return Ok(RelView::Whole(Arc::clone(rel)));
        }
        Ok(match self.edb.overlay(name)? {
            Some((base, delta)) => RelView::Patched(base, delta),
            None => RelView::Whole(self.edb.full(name)?),
        })
    }

    fn relation_by_key(&self, name: &str, key: Key) -> Result<Option<Row>> {
        if let Some(rel) = self.derived.get(name) {
            return Ok(rel.get(key).cloned());
        }
        self.edb.by_key(name, key)
    }

    /// The join index for `(relation, column)`: served from the EDB's cache
    /// for EDB relations, from the evaluator-local cache for derived heads.
    fn index_for(&self, relation: &str, column: usize) -> Result<Arc<ColumnIndex>> {
        if let Some(rel) = self.derived.get(relation) {
            return self
                .derived_indexes
                .get_or_build(relation, column, || Ok(rel.build_column_index(column)));
        }
        self.edb.index(relation, column)
    }

    /// All head tuples the rule derives, with `seed` pre-bound (callers pass
    /// the precomputed order matching the seed shape).
    pub(crate) fn rule_head_tuples(
        &self,
        rule: &CompiledRule,
        order: &[usize],
        seed: Option<&Frame>,
    ) -> Result<Vec<(Key, Row)>> {
        let mut frame = match seed {
            Some(f) => f.clone(),
            None => vec![None; rule.n_vars],
        };
        let mut trail = Vec::with_capacity(rule.n_vars);
        let mut out = Vec::new();
        self.join(rule, order, 0, &mut frame, &mut trail, &mut |frame| {
            out.push(head_tuple(rule, frame)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Depth-first join over the scheduled body literals. Bindings live in
    /// `frame`; slots bound while matching an atom are recorded on `trail`
    /// and undone on backtrack, so no per-depth clone happens.
    fn join(
        &self,
        rule: &CompiledRule,
        order: &[usize],
        depth: usize,
        frame: &mut Frame,
        trail: &mut Vec<usize>,
        on_match: &mut dyn FnMut(&Frame) -> Result<()>,
    ) -> Result<()> {
        if depth == order.len() {
            return on_match(frame);
        }
        match &rule.body[order[depth]] {
            CLit::Pos(atom) => {
                // Key-bound fast path: a single point lookup.
                if let Some(kv) = atom.terms[0].resolved(frame) {
                    // A non-key value (e.g. NULL from an ω fk) matches nothing.
                    let Ok(key) = value_key(&atom.relation, kv) else {
                        return Ok(());
                    };
                    if let Some(row) = self.relation_by_key(&atom.relation, key)? {
                        check_arity(atom, row.len() + 1)?;
                        let mark = trail.len();
                        if unify_atom(atom, key, &row, frame, trail) {
                            self.join(rule, order, depth + 1, frame, trail, on_match)?;
                        }
                        undo(frame, trail, mark);
                    }
                    return Ok(());
                }
                let rel = self.relation_view(&atom.relation)?;
                check_arity(atom, rel.arity() + 1)?;
                // Index path: probe the first bound payload column.
                if let Some((col, value)) = atom.bound_payload(frame) {
                    let value = value.clone();
                    let index = self.index_for(&atom.relation, col)?;
                    for &key in index.keys_for(&value) {
                        let Some(row) = rel.get(key) else { continue };
                        let mark = trail.len();
                        if unify_atom(atom, key, row, frame, trail) {
                            self.join(rule, order, depth + 1, frame, trail, on_match)?;
                        }
                        undo(frame, trail, mark);
                    }
                    return Ok(());
                }
                // No bound column at all: full scan.
                rel.try_for_each(|key, row| {
                    let mark = trail.len();
                    if unify_atom(atom, key, row, frame, trail) {
                        self.join(rule, order, depth + 1, frame, trail, on_match)?;
                    }
                    undo(frame, trail, mark);
                    Ok(ControlFlow::Continue(()))
                })
            }
            CLit::Neg(atom) => {
                if !self.atom_has_match(atom, frame, trail)? {
                    self.join(rule, order, depth + 1, frame, trail, on_match)?;
                }
                Ok(())
            }
            CLit::Cond { expr, cols } => {
                let ctx = FrameCtx { cols, frame };
                if expr.matches(&ctx).map_err(DatalogError::from)? {
                    self.join(rule, order, depth + 1, frame, trail, on_match)?;
                }
                Ok(())
            }
            CLit::Assign { slot, expr, cols } => {
                let v = {
                    let ctx = FrameCtx { cols, frame };
                    expr.eval(&ctx).map_err(DatalogError::from)?
                };
                self.bind_and_continue(rule, order, depth, *slot, v, frame, trail, on_match)
            }
            CLit::Skolem {
                slot,
                generator,
                args,
            } => {
                let mut vals = Vec::with_capacity(args.len());
                for t in args {
                    match t.resolved(frame) {
                        Some(v) => vals.push(v.clone()),
                        None => {
                            return Err(DatalogError::UnsafeRule {
                                rule: rule.display.clone(),
                            })
                        }
                    }
                }
                let id = if self.peek_only {
                    match self.ids.peek(generator, &vals) {
                        Some(id) => id,
                        None => return Ok(()),
                    }
                } else {
                    self.ids.generate(generator, &vals)
                };
                let v = Value::Int(id as i64);
                self.bind_and_continue(rule, order, depth, *slot, v, frame, trail, on_match)
            }
        }
    }

    /// Assignment semantics shared by `Assign` and `Skolem`: acts as an
    /// equality check when the slot is already bound.
    #[allow(clippy::too_many_arguments)]
    fn bind_and_continue(
        &self,
        rule: &CompiledRule,
        order: &[usize],
        depth: usize,
        slot: usize,
        value: Value,
        frame: &mut Frame,
        trail: &mut Vec<usize>,
        on_match: &mut dyn FnMut(&Frame) -> Result<()>,
    ) -> Result<()> {
        match &frame[slot] {
            Some(bound) if *bound == value => {
                self.join(rule, order, depth + 1, frame, trail, on_match)
            }
            Some(_) => Ok(()), // equality check failed
            None => {
                frame[slot] = Some(value);
                let result = self.join(rule, order, depth + 1, frame, trail, on_match);
                frame[slot] = None;
                result
            }
        }
    }

    /// Whether any tuple matches the atom under the frame (for negation).
    fn atom_has_match(
        &self,
        atom: &CAtom,
        frame: &mut Frame,
        trail: &mut Vec<usize>,
    ) -> Result<bool> {
        if let Some(kv) = atom.terms[0].resolved(frame) {
            let Ok(key) = value_key(&atom.relation, kv) else {
                return Ok(false);
            };
            return Ok(match self.relation_by_key(&atom.relation, key)? {
                Some(row) => {
                    let mark = trail.len();
                    let matched = unify_atom(atom, key, &row, frame, trail);
                    undo(frame, trail, mark);
                    matched
                }
                None => false,
            });
        }
        let rel = self.relation_view(&atom.relation)?;
        check_arity(atom, rel.arity() + 1)?;
        if let Some((col, value)) = atom.bound_payload(frame) {
            let value = value.clone();
            let index = self.index_for(&atom.relation, col)?;
            for &key in index.keys_for(&value) {
                let Some(row) = rel.get(key) else { continue };
                let mark = trail.len();
                let matched = unify_atom(atom, key, row, frame, trail);
                undo(frame, trail, mark);
                if matched {
                    return Ok(true);
                }
            }
            return Ok(false);
        }
        let mut found = false;
        rel.try_for_each(|key, row| {
            let mark = trail.len();
            found = unify_atom(atom, key, row, frame, trail);
            undo(frame, trail, mark);
            Ok(if found {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        })?;
        Ok(found)
    }

    /// Key-seeded evaluation: the row `head` derives for `key` under the
    /// compiled rule set, or `None`. Memoized per (head, key) without
    /// allocating on lookups.
    ///
    /// Falls back to full evaluation of a rule when the key binding cannot
    /// be pushed into its body (e.g. the key is produced by a skolem
    /// function — the id-generating SMOs).
    pub fn head_row_for_key(
        &mut self,
        crs: &CompiledRuleSet,
        head: &str,
        key: Key,
    ) -> Result<Option<Row>> {
        if let Some(memo) = self.by_key_memo.get(head).and_then(|m| m.get(&key)) {
            return Ok(memo.clone());
        }
        // If the head was already fully derived, serve from it.
        if let Some(rel) = self.derived.get(head) {
            let row = rel.get(key).cloned();
            self.memoize(head, key, row.clone());
            return Ok(row);
        }
        let mut found: Option<Row> = None;
        for &idx in crs.rules_for(head) {
            let rule = &crs.rules[idx];
            let tuples = match (&rule.keyed_order, rule.head_key_slot) {
                (Some(order), Some(slot)) if rule.seedable => {
                    let mut seed: Frame = vec![None; rule.n_vars];
                    seed[slot] = Some(key_value(key));
                    self.rule_head_tuples(rule, order, Some(&seed))?
                }
                _ => {
                    // Key not pushable: evaluate the rule fully and filter.
                    self.rule_head_tuples(rule, &rule.base_order, None)?
                }
            };
            for (k, row) in tuples {
                if k != key {
                    continue;
                }
                match &found {
                    Some(existing) if *existing == row => {}
                    Some(_) => {
                        return Err(DatalogError::KeyConflict {
                            relation: head.to_string(),
                            key: key.0,
                        })
                    }
                    None => found = Some(row),
                }
            }
        }
        self.memoize(head, key, found.clone());
        Ok(found)
    }

    fn memoize(&mut self, head: &str, key: Key, row: Option<Row>) {
        self.by_key_memo
            .entry(head.to_string())
            .or_default()
            .insert(key, row);
    }

    /// **Column-seeded evaluation** — the generalization of
    /// [`head_row_for_key`](Evaluator::head_row_for_key) from key seeds to
    /// arbitrary bound payload columns: every tuple `head` derives whose
    /// payload column `column` equals `value` (numeric-folding equality),
    /// returned in ascending key order.
    ///
    /// Cross-rule key conflicts are detected **among the explored tuples**:
    /// two rules deriving different rows for one key both matching the seed
    /// raise the canonical [`DatalogError::KeyConflict`]. A conflict whose
    /// other tuple does *not* match the seed is outside the explored space
    /// and goes undetected — a full evaluation of the same state would
    /// error. Such states violate the mappings' functional-head invariant
    /// (the engine's write path never produces them since the FK-DECOMPOSE
    /// twin-separation fix); callers needing the canonical error behavior
    /// on arbitrary states must resolve fully.
    ///
    /// Per rule, the binding is pushed into the body: the first positive
    /// atom (in scheduled order) carrying the seeded head variable becomes
    /// the probe literal, its candidates come from [`EdbView::by_column`]
    /// — which a lazy view can answer by pushing the binding one defining
    /// mapping further down — and the rest of the body joins under the
    /// literal's precompiled probe order. Rules whose seeded column is not
    /// a pushable variable (constant heads, columns bound by assignment)
    /// evaluate fully and are filtered, so the result never contains a
    /// tuple violating the predicate and never misses one.
    ///
    /// Determinism contract: seeded evaluation is sequential at every
    /// `INVERDA_THREADS` width and explores only matching bindings, so its
    /// result is a pure function of the EDB. That selectivity is also why
    /// **minting rule sets are the caller's responsibility**: a skolem
    /// generator reached during the seeded join mints (or reserves, under a
    /// [`ReservingIds`] scope) in seeded exploration order, which differs
    /// from a full evaluation's canonical order — the InVerDa core routes
    /// only mint-free, non-staged resolutions here and falls back to full
    /// resolution otherwise (staged sets consume their own intermediate
    /// heads, which are not resolvable relations).
    pub fn head_rows_by_column(
        &mut self,
        crs: &CompiledRuleSet,
        head: &str,
        column: usize,
        value: &Value,
    ) -> Result<Vec<(Key, Row)>> {
        // Already fully derived: probe the head itself.
        if let Some(rel) = self.derived.get(head) {
            if column >= rel.schema().arity() {
                return Ok(Vec::new());
            }
            let rel = Arc::clone(rel);
            return Ok(self.index_for(head, column)?.rows_for(&rel, value));
        }
        let mut out: BTreeMap<Key, Row> = BTreeMap::new();
        for &idx in crs.rules_for(head) {
            let rule = &crs.rules[idx];
            for (key, row) in self.rule_tuples_for_column(rule, column, value)? {
                // Enforce the seed uniformly — pushed rules already satisfy
                // it, fallback-evaluated rules are filtered here.
                if row.get(column).is_none_or(|v| v != value) {
                    continue;
                }
                match out.get(&key) {
                    Some(existing) if *existing == row => {}
                    Some(_) => {
                        return Err(DatalogError::KeyConflict {
                            relation: head.to_string(),
                            key: key.0,
                        })
                    }
                    None => {
                        out.insert(key, row);
                    }
                }
            }
        }
        Ok(out.into_iter().collect())
    }

    /// One rule's contribution to [`head_rows_by_column`]: pushed through a
    /// probe literal when the seeded column is a pushable head variable,
    /// full evaluation otherwise (the caller filters either way).
    ///
    /// [`head_rows_by_column`]: Evaluator::head_rows_by_column
    fn rule_tuples_for_column(
        &self,
        rule: &CompiledRule,
        column: usize,
        value: &Value,
    ) -> Result<Vec<(Key, Row)>> {
        let slot = match rule.head.terms.get(column + 1) {
            // A constant head cell that cannot equal the seed: no tuple of
            // this rule survives the filter, so skip its evaluation.
            Some(CTerm::Const(c)) if c != value => return Ok(Vec::new()),
            Some(CTerm::Var(s)) => Some(*s),
            // Constant-equal, anonymous (errors at head_tuple like a full
            // evaluation would), or out-of-arity heads: evaluate fully.
            _ => None,
        };
        if let Some(slot) = slot {
            // The probe literal: first positive atom (in scheduled order)
            // binding the seeded variable in a payload position, with a
            // precompiled probe order for the rest of the body.
            for &li in &rule.base_order {
                let CLit::Pos(atom) = &rule.body[li] else {
                    continue;
                };
                let Some(col) = atom.terms[1..]
                    .iter()
                    .position(|t| matches!(t, CTerm::Var(s) if *s == slot))
                else {
                    continue;
                };
                let Some(order) = rule.probe_orders[li].as_ref() else {
                    continue;
                };
                let candidates = self.relation_by_column(&atom.relation, col, value)?;
                let mut out = Vec::new();
                for (key, row) in &candidates {
                    let Some(mut frame) = seed_frame(rule, atom, *key, row) else {
                        continue;
                    };
                    let mut trail = Vec::with_capacity(rule.n_vars);
                    self.join(rule, order, 0, &mut frame, &mut trail, &mut |frame| {
                        out.push(head_tuple(rule, frame)?);
                        Ok(())
                    })?;
                }
                return Ok(out);
            }
        }
        self.rule_head_tuples(rule, &rule.base_order, None)
    }

    /// Rows of `name` whose payload column equals `value`: derived heads
    /// shadow the EDB (probed through the evaluator-local index cache), the
    /// EDB answers via [`EdbView::by_column`] (lazily pushable).
    fn relation_by_column(
        &self,
        name: &str,
        column: usize,
        value: &Value,
    ) -> Result<Vec<(Key, Row)>> {
        if let Some(rel) = self.derived.get(name) {
            if column >= rel.schema().arity() {
                return Ok(Vec::new());
            }
            let rel = Arc::clone(rel);
            let index =
                self.derived_indexes
                    .get_or_build::<DatalogError>(name, column, || {
                        Ok(rel.build_column_index(column))
                    })?;
            return Ok(index.rows_for(&rel, value));
        }
        self.edb.by_column(name, column, value)
    }

    /// Delta-engine probe: bind one body atom to a concrete `(key, row)`
    /// tuple, evaluate the rest of the rule, and collect the head keys of
    /// every satisfying frame into `out`. Returns `Ok(())` without effect if
    /// the tuple cannot match the literal's pattern.
    pub fn probe_head_keys(
        &self,
        crs: &CompiledRuleSet,
        rule_idx: usize,
        lit_idx: usize,
        key: Key,
        row: &Row,
        out: &mut BTreeSet<Key>,
    ) -> Result<()> {
        let rule = &crs.rules[rule_idx];
        let Some(order) = rule.probe_orders[lit_idx].as_ref() else {
            return Err(DatalogError::UnsafeRule {
                rule: rule.display.clone(),
            });
        };
        let atom = match &rule.body[lit_idx] {
            CLit::Pos(a) | CLit::Neg(a) => a,
            _ => unreachable!("probe_orders is Some only for atoms"),
        };
        let Some(seed) = seed_frame(rule, atom, key, row) else {
            return Ok(());
        };
        let mut frame = seed;
        let mut trail = Vec::with_capacity(rule.n_vars);
        self.join(rule, order, 0, &mut frame, &mut trail, &mut |frame| {
            if let Some(head_key) = head_key_from_frame(rule, frame) {
                out.insert(head_key);
            }
            Ok(())
        })
    }

    /// The keys of `rule`'s depth-0 scan that are consistent with body atom
    /// `lit_idx` bound to `(key, row)` — every (even partial) firing of a
    /// full evaluation that uses this tuple at this literal sits under one
    /// of them. Only the scan atom is matched against the tuple's bindings
    /// (a point lookup or index probe when they share a variable), so the
    /// result over-approximates. Only for rules with a
    /// [keyed scan](CompiledRule::has_keyed_scan).
    pub(crate) fn probe_scan_keys(
        &self,
        rule: &CompiledRule,
        lit_idx: usize,
        key: Key,
        row: &Row,
        out: &mut BTreeSet<Key>,
    ) -> Result<()> {
        let slot = rule.scan_key_slot.expect("rule opens with a keyed scan");
        let scan = &rule.base_order[..1];
        let (CLit::Pos(atom) | CLit::Neg(atom)) = &rule.body[lit_idx] else {
            unreachable!("probed literals are atoms")
        };
        let Some(mut frame) = seed_frame(rule, atom, key, row) else {
            return Ok(());
        };
        if scan[0] == lit_idx {
            out.insert(key);
            return Ok(());
        }
        let mut trail = Vec::with_capacity(rule.n_vars);
        self.join(rule, scan, 0, &mut frame, &mut trail, &mut |frame| {
            let scan_key = frame[slot].as_ref().and_then(|v| value_key("", v).ok());
            out.extend(scan_key);
            Ok(())
        })
    }

    /// The head tuples of every firing of `rule` whose depth-0 scan is at
    /// one of `keys`, in the order a full evaluation of the rule meets them
    /// (ascending scan key, then join order) — so skolem literals reserve in
    /// exactly the full evaluation's relative order. Only for rules with a
    /// [keyed scan](CompiledRule::has_keyed_scan).
    pub(crate) fn scan_key_head_tuples(
        &self,
        rule: &CompiledRule,
        keys: &BTreeSet<Key>,
    ) -> Result<Vec<(Key, Row)>> {
        let CLit::Pos(atom) = &rule.body[rule.base_order[0]] else {
            unreachable!("rule opens with a keyed scan")
        };
        let mut frame: Frame = vec![None; rule.n_vars];
        let mut trail = Vec::with_capacity(rule.n_vars);
        let mut out = Vec::new();
        for &key in keys {
            let Some(row) = self.relation_by_key(&atom.relation, key)? else {
                continue;
            };
            check_arity(atom, row.len() + 1)?;
            let mark = trail.len();
            if unify_atom(atom, key, &row, &mut frame, &mut trail) {
                let order = &rule.base_order;
                self.join(rule, order, 1, &mut frame, &mut trail, &mut |frame| {
                    out.push(head_tuple(rule, frame)?);
                    Ok(())
                })?;
            }
            undo(&mut frame, &mut trail, mark);
        }
        Ok(out)
    }

    /// Whether some rule of `crs` derives exactly the tuple `head(key, row)`:
    /// every head variable is seeded, so the body is only searched for one
    /// witness binding of the remaining variables.
    pub(crate) fn derives_head_tuple(
        &self,
        crs: &CompiledRuleSet,
        head: &str,
        key: Key,
        row: &Row,
    ) -> Result<bool> {
        for &idx in crs.rules_for(head) {
            let rule = &crs.rules[idx];
            let Some(mut frame) = seed_frame(rule, &rule.head, key, row) else {
                continue;
            };
            let mut trail = Vec::with_capacity(rule.n_vars);
            let mut found = false;
            let order = &rule.head_seed_order;
            self.join(rule, order, 0, &mut frame, &mut trail, &mut |_| {
                found = true;
                Ok(())
            })?;
            if found {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Row context over a frame, using a rule-compile-time name→slot table.
struct FrameCtx<'a> {
    cols: &'a [(String, usize)],
    frame: &'a [Option<Value>],
}

impl RowContext for FrameCtx<'_> {
    fn value_of(&self, column: &str) -> Option<Value> {
        self.cols
            .iter()
            .find(|(name, _)| name == column)
            .and_then(|(_, slot)| self.frame[*slot].clone())
    }
}

/// Build the head tuple from a complete frame.
fn head_tuple(rule: &CompiledRule, frame: &[Option<Value>]) -> Result<(Key, Row)> {
    let head = &rule.head;
    let mut values = Vec::with_capacity(head.terms.len());
    for t in &head.terms {
        match t {
            CTerm::Var(s) => match &frame[*s] {
                Some(v) => values.push(v.clone()),
                None => {
                    return Err(DatalogError::UnsafeRule {
                        rule: rule.display.clone(),
                    })
                }
            },
            CTerm::Const(c) => values.push(c.clone()),
            CTerm::Anon => {
                return Err(DatalogError::UnsafeRule {
                    rule: rule.display.clone(),
                })
            }
        }
    }
    let key = value_key(&head.relation, &values[0])?;
    Ok((key, values[1..].to_vec()))
}

/// The head key under a (complete-enough) frame, if determinable.
fn head_key_from_frame(rule: &CompiledRule, frame: &Frame) -> Option<Key> {
    match &rule.head.terms[0] {
        CTerm::Var(s) => frame[*s]
            .as_ref()
            .and_then(|v| value_key(&rule.head.relation, v).ok()),
        CTerm::Const(c) => value_key(&rule.head.relation, c).ok(),
        CTerm::Anon => None,
    }
}

/// Unify an atom pattern with a concrete `(key, row)` into a fresh seed
/// frame. Returns `None` if constants differ or duplicate variables clash.
fn seed_frame(rule: &CompiledRule, atom: &CAtom, key: Key, row: &Row) -> Option<Frame> {
    if atom.terms.len() != row.len() + 1 {
        return None;
    }
    let mut frame: Frame = vec![None; rule.n_vars];
    let kv = key_value(key);
    let mut trail = Vec::new();
    let all = std::iter::once(&kv).chain(row.iter());
    for (term, value) in atom.terms.iter().zip(all) {
        if !unify_term(term, value, &mut frame, &mut trail) {
            return None;
        }
    }
    Some(frame)
}

/// What binding body atom `lit_idx` of `rule` to `(key, row)` fixes of the
/// head tuple: one cell per head term (key first), `None` where the literal
/// leaves it open. `None` overall if the tuple cannot match the literal.
pub(crate) fn head_cells_bound_by(
    rule: &CompiledRule,
    lit_idx: usize,
    key: Key,
    row: &Row,
) -> Option<Vec<Option<Value>>> {
    let (CLit::Pos(atom) | CLit::Neg(atom)) = &rule.body[lit_idx] else {
        return None;
    };
    let frame = seed_frame(rule, atom, key, row)?;
    Some(
        rule.head
            .terms
            .iter()
            .map(|t| t.resolved(&frame).cloned())
            .collect(),
    )
}

/// Try to extend the frame so the atom matches `(key, row)`; newly bound
/// slots are pushed on `trail`.
fn unify_atom(
    atom: &CAtom,
    key: Key,
    row: &[Value],
    frame: &mut [Option<Value>],
    trail: &mut Vec<usize>,
) -> bool {
    let kv = key_value(key);
    if !unify_term(&atom.terms[0], &kv, frame, trail) {
        return false;
    }
    for (t, v) in atom.terms[1..].iter().zip(row.iter()) {
        if !unify_term(t, v, frame, trail) {
            return false;
        }
    }
    true
}

fn unify_term(
    term: &CTerm,
    value: &Value,
    frame: &mut [Option<Value>],
    trail: &mut Vec<usize>,
) -> bool {
    match term {
        CTerm::Anon => true,
        CTerm::Const(c) => c == value,
        CTerm::Var(s) => match &frame[*s] {
            Some(bound) => bound == value,
            None => {
                frame[*s] = Some(value.clone());
                trail.push(*s);
                true
            }
        },
    }
}

/// Undo trail entries past `mark`.
fn undo(frame: &mut [Option<Value>], trail: &mut Vec<usize>, mark: usize) {
    for slot in trail.drain(mark..) {
        frame[slot] = None;
    }
}

fn check_arity(atom: &CAtom, relation_arity: usize) -> Result<()> {
    if atom.terms.len() != relation_arity {
        return Err(DatalogError::ArityMismatch {
            relation: atom.relation.clone(),
            atom_arity: atom.terms.len(),
            relation_arity,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Rule};
    use inverda_storage::Expr;

    fn ids() -> Mutex<SkolemRegistry> {
        Mutex::new(SkolemRegistry::new())
    }

    fn edb_task() -> MapEdb {
        // The paper's TasKy table: Task(author, task, prio).
        let mut t = Relation::with_columns("T", ["author", "task", "prio"]);
        t.insert(
            Key(1),
            vec!["Ann".into(), "Organize party".into(), 3.into()],
        )
        .unwrap();
        t.insert(
            Key(2),
            vec!["Ben".into(), "Learn for exam".into(), 2.into()],
        )
        .unwrap();
        t.insert(Key(3), vec!["Ann".into(), "Write paper".into(), 1.into()])
            .unwrap();
        t.insert(Key(4), vec!["Ben".into(), "Clean room".into(), 1.into()])
            .unwrap();
        let mut edb = MapEdb::new();
        edb.add(t);
        edb
    }

    fn split_rules() -> RuleSet {
        // Simplified SPLIT (clean state): R = σ_{prio=1}(T), S = σ_{prio>=2}(T),
        // T' = rest (empty here since conditions cover everything).
        let vars = ["p", "author", "task", "prio"];
        RuleSet::new(vec![
            Rule::new(
                Atom::vars("R", &vars),
                vec![
                    Literal::Pos(Atom::vars("T", &vars)),
                    Literal::Cond(Expr::col("prio").eq(Expr::lit(1))),
                ],
            ),
            Rule::new(
                Atom::vars("S", &vars),
                vec![
                    Literal::Pos(Atom::vars("T", &vars)),
                    Literal::Cond(Expr::col("prio").ge(Expr::lit(2))),
                ],
            ),
            Rule::new(
                Atom::vars("T2", &vars),
                vec![
                    Literal::Pos(Atom::vars("T", &vars)),
                    Literal::Cond(
                        Expr::col("prio")
                            .eq(Expr::lit(1))
                            .negate()
                            .and(Expr::col("prio").ge(Expr::lit(2)).negate()),
                    ),
                ],
            ),
        ])
    }

    #[test]
    fn split_selects_partitions() {
        let edb = edb_task();
        let sk = ids();
        let out = evaluate(&split_rules(), &edb, &sk, &BTreeMap::new()).unwrap();
        assert_eq!(out["R"].len(), 2);
        assert_eq!(out["S"].len(), 2);
        assert_eq!(out["T2"].len(), 0);
        assert!(out["R"].contains_key(Key(3)));
        assert!(out["R"].contains_key(Key(4)));
    }

    #[test]
    fn union_with_negation_reconstructs_source() {
        // γsrc of SPLIT (rules 18-20 shape): T ← R; T ← S, ¬R(p,_); T ← T'.
        let vars = ["p", "a"];
        let rules = RuleSet::new(vec![
            Rule::new(
                Atom::vars("T", &vars),
                vec![Literal::Pos(Atom::vars("R", &vars))],
            ),
            Rule::new(
                Atom::vars("T", &vars),
                vec![
                    Literal::Pos(Atom::vars("S", &vars)),
                    Literal::Neg(Atom::new("R", vec![Term::var("p"), Term::Anon])),
                ],
            ),
            Rule::new(
                Atom::vars("T", &vars),
                vec![Literal::Pos(Atom::vars("Tp", &vars))],
            ),
        ]);
        let mut r = Relation::with_columns("R", ["a"]);
        r.insert(Key(1), vec![Value::Int(10)]).unwrap();
        r.insert(Key(2), vec![Value::Int(20)]).unwrap();
        let mut s = Relation::with_columns("S", ["a"]);
        // Twin of key 1 (same value) and an S-only tuple.
        s.insert(Key(1), vec![Value::Int(10)]).unwrap();
        s.insert(Key(5), vec![Value::Int(50)]).unwrap();
        let mut tp = Relation::with_columns("Tp", ["a"]);
        tp.insert(Key(9), vec![Value::Int(90)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(r).add(s).add(tp);
        let sk = ids();
        let out = evaluate(&rules, &edb, &sk, &BTreeMap::new()).unwrap();
        let t = &out["T"];
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(Key(1)), Some(&vec![Value::Int(10)]));
        assert_eq!(t.get(Key(5)), Some(&vec![Value::Int(50)]));
        assert_eq!(t.get(Key(9)), Some(&vec![Value::Int(90)]));
    }

    #[test]
    fn key_conflict_detected() {
        // Two rules derive different payloads for the same key.
        let rules = RuleSet::new(vec![
            Rule::new(
                Atom::vars("H", &["p", "a"]),
                vec![Literal::Pos(Atom::vars("X", &["p", "a"]))],
            ),
            Rule::new(
                Atom::vars("H", &["p", "b"]),
                vec![Literal::Pos(Atom::vars("Y", &["p", "b"]))],
            ),
        ]);
        let mut x = Relation::with_columns("X", ["a"]);
        x.insert(Key(1), vec![Value::Int(1)]).unwrap();
        let mut y = Relation::with_columns("Y", ["b"]);
        y.insert(Key(1), vec![Value::Int(2)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(x).add(y);
        let sk = ids();
        let err = evaluate(&rules, &edb, &sk, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, DatalogError::KeyConflict { .. }));
    }

    #[test]
    fn assignment_computes_new_column() {
        // ADD COLUMN shape: R'(p, a, b) ← R(p, a), b = a * 2.
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("Rp", &["p", "a", "b"]),
            vec![
                Literal::Pos(Atom::vars("R", &["p", "a"])),
                Literal::Assign {
                    var: "b".into(),
                    expr: inverda_storage::Expr::Binary(
                        Box::new(Expr::col("a")),
                        inverda_storage::BinaryOp::Mul,
                        Box::new(Expr::lit(2)),
                    ),
                },
            ],
        )]);
        let mut r = Relation::with_columns("R", ["a"]);
        r.insert(Key(1), vec![Value::Int(21)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(r);
        let sk = ids();
        let out = evaluate(&rules, &edb, &sk, &BTreeMap::new()).unwrap();
        assert_eq!(
            out["Rp"].get(Key(1)),
            Some(&vec![Value::Int(21), Value::Int(42)])
        );
    }

    #[test]
    fn skolem_assignment_generates_stable_ids() {
        // FK-decompose shape: Author(t, name) ← T(p, name), t = id(name).
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("Author", &["t", "name"]),
            vec![
                Literal::Pos(Atom::vars("T", &["p", "name"])),
                Literal::Skolem {
                    var: "t".into(),
                    generator: "id_Author".into(),
                    args: vec![Term::var("name")],
                },
            ],
        )]);
        let mut t = Relation::with_columns("T", ["name"]);
        t.insert(Key(1), vec!["Ann".into()]).unwrap();
        t.insert(Key(2), vec!["Ben".into()]).unwrap();
        t.insert(Key(3), vec!["Ann".into()]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(t);
        let sk = ids();
        let out = evaluate(&rules, &edb, &sk, &BTreeMap::new()).unwrap();
        // Two distinct authors -> two rows (duplicate "Ann" collapses by id).
        assert_eq!(out["Author"].len(), 2);
    }

    #[test]
    fn staged_heads_visible_to_later_rules() {
        // Second rule reads the head of the first.
        let rules = RuleSet::new(vec![
            Rule::new(
                Atom::vars("A", &["p", "x"]),
                vec![Literal::Pos(Atom::vars("In", &["p", "x"]))],
            ),
            Rule::new(
                Atom::vars("B", &["p", "x"]),
                vec![
                    Literal::Pos(Atom::vars("A", &["p", "x"])),
                    Literal::Cond(Expr::col("x").gt(Expr::lit(1))),
                ],
            ),
        ]);
        let mut input = Relation::with_columns("In", ["x"]);
        input.insert(Key(1), vec![Value::Int(1)]).unwrap();
        input.insert(Key(2), vec![Value::Int(5)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(input);
        let sk = ids();
        let crs = CompiledRuleSet::compile(&rules).unwrap();
        assert!(crs.staged());
        let out = evaluate_compiled(&crs, &edb, &sk, &BTreeMap::new()).unwrap();
        assert_eq!(out["B"].len(), 1);
        assert!(out["B"].contains_key(Key(2)));
    }

    #[test]
    fn missing_relation_is_reported() {
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("H", &["p"]),
            vec![Literal::Pos(Atom::vars("Ghost", &["p"]))],
        )]);
        let edb = MapEdb::new();
        let sk = ids();
        let err = evaluate(&rules, &edb, &sk, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, DatalogError::UnboundRelation { .. }));
    }

    #[test]
    fn head_row_for_key_matches_full_eval() {
        let edb = edb_task();
        let rules = split_rules();
        let sk = ids();
        let full = evaluate(&rules, &edb, &sk, &BTreeMap::new()).unwrap();
        let sk2 = ids();
        let crs = CompiledRuleSet::compile(&rules).unwrap();
        let mut ev = Evaluator::new(&edb, &sk2);
        for key in [Key(1), Key(2), Key(3), Key(4), Key(99)] {
            let seeded = ev.head_row_for_key(&crs, "R", key).unwrap();
            assert_eq!(seeded.as_ref(), full["R"].get(key), "key {key:?}");
        }
    }

    #[test]
    fn null_key_binding_matches_nothing() {
        // Joining through an ω (NULL) foreign key finds no partner rather
        // than erroring (FK-decompose Rule 147 with a NULL fk).
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("H", &["p", "t"]),
            vec![
                Literal::Pos(Atom::vars("S", &["p", "t"])),
                Literal::Pos(Atom::new("T", vec![Term::var("t"), Term::Anon])),
            ],
        )]);
        let mut s = Relation::with_columns("S", ["t"]);
        s.insert(Key(1), vec![Value::Null]).unwrap();
        let mut t = Relation::with_columns("T", ["b"]);
        t.insert(Key(7), vec![Value::Int(1)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(s).add(t);
        let sk = ids();
        let out = evaluate(&rules, &edb, &sk, &BTreeMap::new()).unwrap();
        assert!(out["H"].is_empty());
    }

    #[test]
    fn compile_rejects_unsafe_rules() {
        // Negation over a variable never bound positively.
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("H", &["p"]),
            vec![Literal::Neg(Atom::vars("X", &["p"]))],
        )]);
        assert!(matches!(
            CompiledRuleSet::compile(&rules),
            Err(DatalogError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn duplicate_variable_in_atom_requires_equal_values() {
        // H(p, a) ← X(p, a, a): both payload cells must be equal.
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("H", &["p", "a"]),
            vec![Literal::Pos(Atom::vars("X", &["p", "a", "a"]))],
        )]);
        let mut x = Relation::with_columns("X", ["c1", "c2"]);
        x.insert(Key(1), vec![Value::Int(7), Value::Int(7)])
            .unwrap();
        x.insert(Key(2), vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        let mut edb = MapEdb::new();
        edb.add(x);
        let sk = ids();
        let out = evaluate(&rules, &edb, &sk, &BTreeMap::new()).unwrap();
        assert_eq!(out["H"].len(), 1);
        assert!(out["H"].contains_key(Key(1)));
    }

    #[test]
    fn unbound_join_uses_secondary_index() {
        // A join with no bound key term goes through the column-index path;
        // results must equal the naive engine's on a join with multiple
        // matches per value.
        let mut a = Relation::with_columns("A", ["n"]);
        let mut b = Relation::with_columns("B", ["n"]);
        for i in 0..40u64 {
            a.insert(Key(i), vec![Value::Int((i % 7) as i64)]).unwrap();
            b.insert(Key(100 + i), vec![Value::Int((i % 5) as i64)])
                .unwrap();
        }
        let mut edb = MapEdb::new();
        edb.add(a).add(b);
        // H(q, n) ← B(q, n), A(_, n): every B row with a partner in A.
        let rules_fn = RuleSet::new(vec![Rule::new(
            Atom::vars("H", &["q", "n"]),
            vec![
                Literal::Pos(Atom::vars("B", &["q", "n"])),
                Literal::Pos(Atom::new("A", vec![Term::Anon, Term::var("n")])),
            ],
        )]);
        let sk = ids();
        let compiled = evaluate(&rules_fn, &edb, &sk, &BTreeMap::new()).unwrap();
        let sk2 = ids();
        let naive = crate::naive::evaluate(&rules_fn, &edb, &sk2, &BTreeMap::new()).unwrap();
        assert_eq!(compiled, naive);
        // Every B row with n ∈ 0..5 ∩ values of A (0..7) matches.
        assert_eq!(compiled["H"].len(), 40);
    }

    #[test]
    fn negation_with_unbound_key_uses_index() {
        // H(p, n) ← A(p, n), ¬B(_, n): negation probed by payload column.
        let mut a = Relation::with_columns("A", ["n"]);
        a.insert(Key(1), vec![Value::Int(1)]).unwrap();
        a.insert(Key(2), vec![Value::Int(2)]).unwrap();
        let mut b = Relation::with_columns("B", ["n"]);
        b.insert(Key(9), vec![Value::Int(2)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(a).add(b);
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("H", &["p", "n"]),
            vec![
                Literal::Pos(Atom::vars("A", &["p", "n"])),
                Literal::Neg(Atom::new("B", vec![Term::Anon, Term::var("n")])),
            ],
        )]);
        let sk = ids();
        let out = evaluate(&rules, &edb, &sk, &BTreeMap::new()).unwrap();
        assert_eq!(out["H"].len(), 1);
        assert!(out["H"].contains_key(Key(1)));
    }

    #[test]
    fn derived_head_index_follows_incremental_growth() {
        // Rule 2 probes head H by payload (unbound key -> index path), then
        // rule 3 grows H, then rule 4 probes it again: the cached index must
        // reflect the appended rows without a rebuild, and results must
        // match the naive engine exactly.
        let rules = RuleSet::new(vec![
            Rule::new(
                Atom::vars("H", &["p", "n"]),
                vec![Literal::Pos(Atom::vars("A", &["p", "n"]))],
            ),
            Rule::new(
                Atom::vars("J1", &["q", "n"]),
                vec![
                    Literal::Pos(Atom::vars("B", &["q", "n"])),
                    Literal::Pos(Atom::new("H", vec![Term::Anon, Term::var("n")])),
                ],
            ),
            Rule::new(
                Atom::vars("H", &["p", "n"]),
                vec![Literal::Pos(Atom::vars("A2", &["p", "n"]))],
            ),
            Rule::new(
                Atom::vars("J2", &["q", "n"]),
                vec![
                    Literal::Pos(Atom::vars("B", &["q", "n"])),
                    Literal::Pos(Atom::new("H", vec![Term::Anon, Term::var("n")])),
                ],
            ),
        ]);
        let mut a = Relation::with_columns("A", ["n"]);
        a.insert(Key(1), vec![Value::Int(10)]).unwrap();
        let mut a2 = Relation::with_columns("A2", ["n"]);
        a2.insert(Key(2), vec![Value::Int(20)]).unwrap();
        let mut b = Relation::with_columns("B", ["n"]);
        b.insert(Key(100), vec![Value::Int(10)]).unwrap();
        b.insert(Key(101), vec![Value::Int(20)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(a).add(a2).add(b);
        let sk = ids();
        let compiled = evaluate(&rules, &edb, &sk, &BTreeMap::new()).unwrap();
        // J1 ran before H grew: only n=10 matches. J2 sees both.
        assert_eq!(compiled["J1"].len(), 1);
        assert_eq!(compiled["J2"].len(), 2);
        let sk2 = ids();
        let naive = crate::naive::evaluate(&rules, &edb, &sk2, &BTreeMap::new()).unwrap();
        assert_eq!(compiled, naive);
    }

    /// Full-evaluation oracle for the column-seeded entry point.
    fn seeded_oracle(
        rules: &RuleSet,
        edb: &MapEdb,
        head: &str,
        column: usize,
        value: &Value,
    ) -> Vec<(Key, Row)> {
        let sk = ids();
        let full = evaluate(rules, edb, &sk, &BTreeMap::new()).unwrap();
        full[head]
            .iter()
            .filter(|(_, row)| row.get(column) == Some(value))
            .map(|(k, row)| (k, row.clone()))
            .collect()
    }

    #[test]
    fn head_rows_by_column_matches_full_eval_filter() {
        let edb = edb_task();
        let rules = split_rules();
        let crs = CompiledRuleSet::compile(&rules).unwrap();
        for (head, col, value) in [
            ("R", 2, Value::Int(1)),
            ("S", 0, Value::text("Ann")),
            ("S", 0, Value::text("Nobody")),
            ("T2", 1, Value::text("Clean room")),
        ] {
            let sk = ids();
            let mut ev = Evaluator::new(&edb, &sk);
            let seeded = ev.head_rows_by_column(&crs, head, col, &value).unwrap();
            assert_eq!(
                seeded,
                seeded_oracle(&rules, &edb, head, col, &value),
                "{head}[{col}] = {value}"
            );
        }
    }

    #[test]
    fn head_rows_by_column_keeps_stored_bytes_under_numeric_folding() {
        // Stored Int(1), probed with Float(1.0): the numeric fold must find
        // the row, and the emitted tuple must carry the *stored* Int — the
        // bytes a scan-and-filter would produce.
        let edb = edb_task();
        let rules = split_rules();
        let crs = CompiledRuleSet::compile(&rules).unwrap();
        let sk = ids();
        let mut ev = Evaluator::new(&edb, &sk);
        let seeded = ev
            .head_rows_by_column(&crs, "R", 2, &Value::Float(1.0))
            .unwrap();
        assert_eq!(seeded.len(), 2);
        for (_, row) in &seeded {
            assert!(
                matches!(row[2], Value::Int(1)),
                "seeded output must keep stored bytes, got {:?}",
                row[2]
            );
        }
        assert_eq!(
            seeded,
            seeded_oracle(&rules, &edb, "R", 2, &Value::Float(1.0))
        );
    }

    #[test]
    fn head_rows_by_column_falls_back_for_computed_columns() {
        // Column b is bound by an assignment, not a positive atom: the rule
        // cannot be pushed and must evaluate fully, then filter.
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("Rp", &["p", "a", "b"]),
            vec![
                Literal::Pos(Atom::vars("R", &["p", "a"])),
                Literal::Assign {
                    var: "b".into(),
                    expr: inverda_storage::Expr::Binary(
                        Box::new(Expr::col("a")),
                        inverda_storage::BinaryOp::Mul,
                        Box::new(Expr::lit(2)),
                    ),
                },
            ],
        )]);
        let mut r = Relation::with_columns("R", ["a"]);
        r.insert(Key(1), vec![Value::Int(21)]).unwrap();
        r.insert(Key(2), vec![Value::Int(5)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(r);
        let crs = CompiledRuleSet::compile(&rules).unwrap();
        let sk = ids();
        let mut ev = Evaluator::new(&edb, &sk);
        let seeded = ev
            .head_rows_by_column(&crs, "Rp", 1, &Value::Int(42))
            .unwrap();
        assert_eq!(seeded, vec![(Key(1), vec![Value::Int(21), Value::Int(42)])]);
    }

    #[test]
    fn head_rows_by_column_handles_negation_and_union_heads() {
        // γsrc-of-SPLIT shape (union + negation): seeded results must agree
        // with full evaluation on every branch.
        let vars = ["p", "a"];
        let rules = RuleSet::new(vec![
            Rule::new(
                Atom::vars("T", &vars),
                vec![Literal::Pos(Atom::vars("R", &vars))],
            ),
            Rule::new(
                Atom::vars("T", &vars),
                vec![
                    Literal::Pos(Atom::vars("S", &vars)),
                    Literal::Neg(Atom::new("R", vec![Term::var("p"), Term::Anon])),
                ],
            ),
        ]);
        let mut r = Relation::with_columns("R", ["a"]);
        r.insert(Key(1), vec![Value::Int(10)]).unwrap();
        r.insert(Key(2), vec![Value::Int(20)]).unwrap();
        let mut s = Relation::with_columns("S", ["a"]);
        s.insert(Key(1), vec![Value::Int(10)]).unwrap();
        s.insert(Key(5), vec![Value::Int(10)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(r).add(s);
        let crs = CompiledRuleSet::compile(&rules).unwrap();
        for probe in [Value::Int(10), Value::Int(20), Value::Int(99)] {
            let sk = ids();
            let mut ev = Evaluator::new(&edb, &sk);
            let seeded = ev.head_rows_by_column(&crs, "T", 0, &probe).unwrap();
            assert_eq!(
                seeded,
                seeded_oracle(&rules, &edb, "T", 0, &probe),
                "{probe}"
            );
        }
    }

    #[test]
    fn compiled_frames_restore_after_backtracking() {
        // Two independent scans: backtracking across the first atom must not
        // leak bindings into later candidates (trail correctness).
        let mut a = Relation::with_columns("A", ["x"]);
        a.insert(Key(1), vec![Value::Int(1)]).unwrap();
        a.insert(Key(2), vec![Value::Int(2)]).unwrap();
        let mut b = Relation::with_columns("B", ["y"]);
        b.insert(Key(3), vec![Value::Int(30)]).unwrap();
        b.insert(Key(4), vec![Value::Int(40)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(a).add(b);
        // H(k, x, y) ← A(p, x), B(q, y), k = p * 100 + q.
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("H", &["k", "x", "y"]),
            vec![
                Literal::Pos(Atom::vars("A", &["p", "x"])),
                Literal::Pos(Atom::vars("B", &["q", "y"])),
                Literal::Assign {
                    var: "k".into(),
                    expr: Expr::Binary(
                        Box::new(Expr::Binary(
                            Box::new(Expr::col("p")),
                            inverda_storage::BinaryOp::Mul,
                            Box::new(Expr::lit(100)),
                        )),
                        inverda_storage::BinaryOp::Add,
                        Box::new(Expr::col("q")),
                    ),
                },
            ],
        )]);
        let sk = ids();
        let out = evaluate(&rules, &edb, &sk, &BTreeMap::new()).unwrap();
        assert_eq!(out["H"].len(), 4); // full cross product
        assert!(out["H"].contains_key(Key(103)));
        assert!(out["H"].contains_key(Key(204)));
    }
}

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
//! * a payload variable of a positive atom that occurs nowhere else in the
//!   rule compiles to `_`, and matching a row visits only the atom's **live
//!   columns** (key and non-`_` payload), so a scan clones only what the
//!   rule reads;
//! * a payload variable whose one other use is one head payload position
//!   is a **copied column**: matching leaves it unbound, and the head tuple
//!   reads it from the matched row, so its value is cloned once, into the
//!   head;
//! * safe evaluation orders (base, key-seeded, and one per probe literal for
//!   the delta engine) are **scheduled at compile time** over slot bitsets;
//! * positive and negated atoms whose key term is unbound probe an on-demand
//!   **secondary join index** ([`ColumnIndex`]) on the first bound payload
//!   column instead of scanning the relation — O(1) per probe after a single
//!   O(n) build, which the relation keeps ([`Relation::index`]) for as long
//!   as anyone keeps its rows.
//!
//! The compiled engine explores joins in **exactly** the same order as the
//! naive interpreter (same scheduling preferences and tie-breaks, and index
//! probes enumerate matches in key order like a scan would), so the two
//! engines derive identical relations *and* mint identical skolem ids. The
//! differential property tests in `tests/compiled_vs_naive.rs` hold them to
//! that.
//!
//! A set whose every head row is computed from the one body row under its
//! key — a projection set or a lookup-or-default pair ([`RowMap`], the
//! positional maps ADD / DROP / RENAME COLUMN and RENAME TABLE) — is fully
//! evaluated as a **row map** ([`evaluate_row_map`]): a walk of the body
//! relation in key order that copies columns, with one key lookup of the
//! aux relation per row for a pair, and no join. Its EDB calls are a prefix
//! of the join's; on any error, write overlay or row of another arity it
//! hands the set to the join, which raises the canonical error.
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
//! Evaluation is sequential. Full evaluation runs the rules one after
//! another on the calling thread; an id-minting set does so behind one
//! **reservation scope** ([`ReservingIds`]) whose reservations are committed
//! in exploration order once every rule succeeded, so a failed evaluation
//! mints nothing (see [`crate::skolem`] and DESIGN.md "Deterministic
//! minting & reservation commit").

use crate::ast::{Literal, Rule, RuleSet, Term};
use crate::delta::Delta;
use crate::error::DatalogError;
use crate::skolem::{self, PlaceholderPatch, ReservationArena, SkolemRegistry};
use crate::Result;
use inverda_storage::{ColumnIndex, Key, Relation, Row, RowContext, TableSchema, Value};
use std::cell::RefCell;
use std::cmp::Reverse;
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
pub trait EdbView {
    /// Full state of the relation.
    fn full(&self, relation: &str) -> Result<Arc<Relation>>;

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
    /// current state: the relation's own ([`Relation::index`]), built on
    /// first use and kept with its rows. Only a view that serves a state
    /// nobody materializes overrides it ([`PatchedEdb`](crate::delta::PatchedEdb)).
    fn index(&self, relation: &str, column: usize) -> Result<Arc<ColumnIndex>> {
        Ok(self.full(relation)?.index(column))
    }
}

/// A source of memoized skolem identifiers usable behind a shared reference
/// (rule evaluation happens on read paths too, which may mint fresh ids for
/// new payloads).
///
/// Reservation-backed sources ([`ReservingIds`]) defer actual minting to a
/// commit after evaluation succeeded.
pub trait IdSource {
    /// The id for `(generator, args)`, minted (or reserved) on first use.
    fn generate(&self, generator: &str, args: &[Value]) -> u64;

    /// The id already assigned — or reserved — for `(generator, args)`,
    /// with no minting side effect.
    fn peek(&self, generator: &str, args: &[Value]) -> Option<u64>;
}

impl IdSource for RefCell<SkolemRegistry> {
    fn generate(&self, generator: &str, args: &[Value]) -> u64 {
        self.borrow_mut().get_or_create(generator, args)
    }

    fn peek(&self, generator: &str, args: &[Value]) -> Option<u64> {
        self.borrow().peek(generator, args)
    }
}

/// The reserve half of the engine's two-phase minting (see
/// [`crate::skolem`]): `generate` first peeks the parent source (the
/// durable registry, or an enclosing reservation scope) and only then
/// reserves a scope-local placeholder. `commit` replays the reservations
/// against the parent in reservation order, once the evaluation behind the
/// scope has succeeded — a failed evaluation drops the scope and mints
/// nothing.
pub struct ReservingIds<'a> {
    parent: &'a dyn IdSource,
    arena: RefCell<ReservationArena>,
}

impl<'a> ReservingIds<'a> {
    /// A fresh reservation scope over `parent`, drawing placeholders from
    /// `scope_base` ([`skolem::SCOPE_CHUNK`] or [`skolem::SCOPE_EVAL`] —
    /// nested scopes must use distinct bases so a placeholder peeked from
    /// the parent is never mistaken for a local one).
    pub fn new(parent: &'a dyn IdSource, scope_base: u64) -> Self {
        ReservingIds {
            parent,
            arena: RefCell::new(ReservationArena::new(scope_base)),
        }
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
        self.arena.borrow_mut().reserve(generator, args)
    }

    fn peek(&self, generator: &str, args: &[Value]) -> Option<u64> {
        self.parent
            .peek(generator, args)
            .or_else(|| self.arena.borrow().peek(generator, args))
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

/// A plain map-backed EDB.
#[derive(Debug, Default, Clone)]
pub struct MapEdb {
    rels: BTreeMap<String, Arc<Relation>>,
}

impl MapEdb {
    /// Empty EDB.
    pub fn new() -> Self {
        MapEdb::default()
    }

    /// Insert a relation under its own name.
    pub fn add(&mut self, rel: Relation) -> &mut Self {
        self.rels.insert(rel.name().to_string(), Arc::new(rel));
        self
    }

    /// Insert a shared relation under the given name.
    pub fn add_shared(&mut self, name: impl Into<String>, rel: Arc<Relation>) -> &mut Self {
        self.rels.insert(name.into(), rel);
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
    /// The frame slot of a variable.
    fn slot(&self) -> Option<usize> {
        match self {
            CTerm::Var(s) => Some(*s),
            _ => None,
        }
    }

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
    /// The **live** payload columns, ascending: those whose term is not
    /// `_` and not [copied](CAtom::copied). Matching a row binds or
    /// compares these.
    live: Vec<usize>,
    /// The **copied** payload columns, ascending, as `(column, slot)`: a
    /// positive atom's variable whose one other use is one head payload
    /// position. Matching a row leaves an unbound one unbound (the head
    /// reads it from the row, [`head_tuple`]) and compares a seeded one.
    copied: Vec<(usize, usize)>,
}

impl CAtom {
    fn new(relation: String, terms: Vec<CTerm>) -> CAtom {
        let live = (1..terms.len())
            .filter(|&i| !matches!(terms[i], CTerm::Anon))
            .map(|i| i - 1)
            .collect();
        CAtom {
            relation,
            terms,
            live,
            copied: Vec::new(),
        }
    }

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
    /// Per slot: the `(body literal, payload column)` a
    /// [copied](CAtom::copied) variable is read from when the frame leaves
    /// it unbound; `None` for every other slot.
    copy_from: Vec<Option<(usize, usize)>>,
    /// Slot of the head key variable, if it is a variable.
    pub head_key_slot: Option<usize>,
    /// Whether the head key variable occurs in some positive body atom, so
    /// seeding it restricts evaluation.
    pub seedable: bool,
    /// Whether the rule is **key-local**: it is seedable, and `keyed_order`
    /// puts before every condition and assignment each literal `base_order`
    /// puts before it. A key-seeded walk then reaches a filter only with
    /// the literals the cold order matches first matched, so it meets only
    /// failures a cold evaluation meets; propagation takes a changed
    /// tuple's key as its candidate without a probe join (see `probe_rules`
    /// in [`crate::delta`]).
    pub key_local: bool,
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
    /// The column-level shape of the set, if it has one: full evaluation
    /// maps rows instead of running the join ([`evaluate_row_map`]).
    pub(crate) row_map: Option<RowMap>,
}

/// A rule set whose every head row is computed from the one body row under
/// its key, with no join: the positional maps (ADD / DROP / RENAME COLUMN,
/// RENAME TABLE). Full evaluation of such a set is a row map
/// ([`evaluate_row_map`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RowMap {
    /// A **projection set** — every rule is `Hᵢ(p, πᵢ(x)) ← B(p, x)`: one
    /// positive atom over distinct variables (anonymous positions allowed),
    /// a head keyed by the atom's key whose payload variables all come from
    /// the atom's payload, one rule per head, no other literal. Per rule,
    /// the payload columns of the body row its head copies, in head order.
    /// RENAME's copy rule is one; ADD COLUMN's γ_src and DROP COLUMN's
    /// γ_tgt (a data head and an aux head) are two. Propagation hands its
    /// delta through ([`crate::delta::propagate_compiled`]).
    Projection(Vec<Vec<usize>>),
    /// A **lookup-or-default pair**: two rules for one head over one data
    /// atom `S(p, x…)` and one aux atom `A(p, b)`,
    /// - the aux-present rule `H(p, π(x), b) ← S(p, x), A(p, b)`, scheduled
    ///   `[S, A]`;
    /// - the aux-absent rule `H(p, π(x), v) ← S(p, x), ¬A(p, _), v = e(x)`,
    ///   scheduled `[S, ¬A, assignment]`, or `[assignment, S, ¬A]` when
    ///   `e` reads no column (a constant default is evaluated once, first).
    ///
    /// ADD COLUMN's γ_tgt (absent rule first) and DROP COLUMN's γ_src
    /// (present rule first) are pairs.
    Pair(LookupOrDefault),
}

/// The parts of a [lookup-or-default pair](RowMap::Pair) its row map reads.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupOrDefault {
    /// The aux-present rule; the aux-absent rule is the other one.
    present: usize,
    /// The data relation `S` and its atom's arity (key included).
    data: String,
    data_arity: usize,
    /// The aux relation `A`.
    aux: String,
    /// Per head payload position: `Some(c)` copies payload column `c` of
    /// the data row, `None` takes the aux value or the default.
    cells: Vec<Option<usize>>,
    /// The default `e(x)` and, per column name it reads, the data payload
    /// column that name is bound to.
    default: inverda_storage::Expr,
    default_cols: Vec<(String, usize)>,
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
        let row_map = if staged {
            None
        } else if head_index.len() == compiled.len() {
            let projection: Option<Vec<_>> = rules.rules.iter().map(projected_columns).collect();
            projection.map(RowMap::Projection)
        } else {
            lookup_or_default(&compiled).map(RowMap::Pair)
        };
        Ok(CompiledRuleSet {
            rules: compiled,
            head_index,
            staged,
            row_map,
        })
    }

    /// The column-level shape whose row map full evaluation tries first
    /// ([`evaluate_row_map`]), if the set has one.
    pub fn row_map(&self) -> Option<&RowMap> {
        self.row_map.as_ref()
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

    /// Names of every **external** relation the rule bodies read, in the
    /// order the scheduled sequential evaluation would first touch them
    /// (rule order, then scheduled-literal order). Heads of the set itself
    /// (the staged `old`/`new` intermediates) are derived in place and
    /// excluded.
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

/// The payload columns of the body row `rule` copies into its head, in
/// head order, if `rule` is `H(p, π(x)) ← B(p, x)` over distinct variables
/// (anonymous positions allowed). The caller rules out a `B` the set derives.
fn projected_columns(rule: &Rule) -> Option<Vec<usize>> {
    let [Literal::Pos(body)] = rule.body.as_slice() else {
        return None;
    };
    let key = body.key_term().as_var()?;
    let vars = body.variables();
    let distinct: BTreeSet<&str> = vars.iter().copied().collect();
    let all_vars = body.terms.iter().all(|t| !matches!(t, Term::Const(_)));
    if distinct.len() != vars.len() || !all_vars || rule.head.key_term().as_var() != Some(key) {
        return None;
    }
    rule.head.terms[1..]
        .iter()
        .map(|t| {
            let var = t.as_var()?;
            body.terms[1..].iter().position(|b| b.as_var() == Some(var))
        })
        .collect()
}

/// The [lookup-or-default pair](RowMap::Pair) `rules` make, with the
/// aux-present rule first or second. The caller rules out a set that reads
/// its own heads.
fn lookup_or_default(rules: &[CompiledRule]) -> Option<LookupOrDefault> {
    let [first, second] = rules else {
        return None;
    };
    if first.head.relation != second.head.relation {
        return None;
    }
    (0..2).find_map(|present| pair_with_present(rules, present))
}

fn pair_with_present(rules: &[CompiledRule], present: usize) -> Option<LookupOrDefault> {
    let (with, without) = (&rules[present], &rules[1 - present]);
    // The aux-present rule: `S(p, x)`, then `A(p, b)` by key.
    let &[s, a] = with.base_order.as_slice() else {
        return None;
    };
    let (CLit::Pos(data), CLit::Pos(aux)) = (&with.body[s], &with.body[a]) else {
        return None;
    };
    if aux.relation == data.relation {
        return None;
    }
    let (key, payload) = data_slots(data)?;
    let value = match aux.terms.as_slice() {
        [CTerm::Var(k), CTerm::Anon] if *k == key => None,
        [CTerm::Var(k), CTerm::Var(b)]
            if *k == key && *b != key && !payload.contains(&Some(*b)) =>
        {
            Some(*b)
        }
        _ => return None,
    };
    let cells = head_cells(with, key, &payload, value)?;
    // The aux-absent rule: `S(p, x)`, `¬A(p, _)` and `v = e(x)` in the
    // order that meets the lookup before the default.
    let order: Vec<&CLit> = without
        .base_order
        .iter()
        .map(|&l| &without.body[l])
        .collect();
    let (data2, neg, slot, expr, cols) = match order.as_slice() {
        [CLit::Pos(d), CLit::Neg(n), CLit::Assign { slot, expr, cols }] => (d, n, slot, expr, cols),
        [CLit::Assign { slot, expr, cols }, CLit::Pos(d), CLit::Neg(n)] if cols.is_empty() => {
            (d, n, slot, expr, cols)
        }
        _ => return None,
    };
    let (key2, payload2) = data_slots(data2)?;
    let same_data = data2.relation == data.relation && data2.terms.len() == data.terms.len();
    let absent = matches!(neg.terms.as_slice(), [CTerm::Var(k), CTerm::Anon] if *k == key2);
    let fresh = *slot != key2 && !payload2.contains(&Some(*slot));
    if !same_data || neg.relation != aux.relation || !absent || !fresh {
        return None;
    }
    let default_cols = cols
        .iter()
        .map(|(name, s)| {
            let col = payload2.iter().position(|p| *p == Some(*s))?;
            Some((name.clone(), col))
        })
        .collect::<Option<_>>()?;
    if head_cells(without, key2, &payload2, Some(*slot))? != cells {
        return None;
    }
    Some(LookupOrDefault {
        present,
        data: data.relation.clone(),
        data_arity: data.terms.len(),
        aux: aux.relation.clone(),
        cells,
        default: expr.clone(),
        default_cols,
    })
}

/// The key slot of `atom` and the slot of each payload column (`None`:
/// anonymous), if its terms are distinct variables.
fn data_slots(atom: &CAtom) -> Option<(usize, Vec<Option<usize>>)> {
    let CTerm::Var(key) = atom.terms[0] else {
        return None;
    };
    let mut seen = BTreeSet::from([key]);
    let payload = atom.terms[1..]
        .iter()
        .map(|t| match t {
            CTerm::Var(s) => seen.insert(*s).then_some(Some(*s)),
            CTerm::Anon => Some(None),
            CTerm::Const(_) => None,
        })
        .collect::<Option<_>>()?;
    Some((key, payload))
}

/// Per head payload position of `rule`, keyed by `key`: `Some(c)` for the
/// data payload column `c` whose slot it names, `None` for `value`.
fn head_cells(
    rule: &CompiledRule,
    key: usize,
    payload: &[Option<usize>],
    value: Option<usize>,
) -> Option<Vec<Option<usize>>> {
    if rule.head.terms[0] != CTerm::Var(key) {
        return None;
    }
    rule.head.terms[1..]
        .iter()
        .map(|t| match t {
            CTerm::Var(s) if Some(*s) == value => Some(None),
            CTerm::Var(s) => payload.iter().position(|p| *p == Some(*s)).map(Some),
            _ => None,
        })
        .collect()
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
    /// Constant terms of a positive atom (bound under every frame).
    consts: usize,
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
    let catom =
        |a: &crate::ast::Atom| CAtom::new(a.relation.clone(), a.terms.iter().map(cterm).collect());
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
                    consts: atom
                        .terms
                        .iter()
                        .filter(|t| matches!(t, CTerm::Const(_)))
                        .count(),
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
                    consts: 0,
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
                    consts: 0,
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
                    consts: 0,
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
                    consts: 0,
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

    let head = catom(&rule.head);
    let copy_from = drop_singletons(&head, &mut body, n_vars);

    let display = rule.to_string();
    let empty = SlotSet::new(n_vars);
    let base_order = schedule_slots(&meta, None, &empty, AtomPick::First, &display)?;

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
            schedule_slots(&meta, None, &seed, AtomPick::First, &display).ok()
        }
        None => None,
    };
    let key_local = seedable
        && keyed_order
            .as_deref()
            .is_some_and(|keyed| keeps_cold_prefixes(&body, &base_order, keyed));
    let head_seed_order = {
        let mut seed = SlotSet::new(n_vars);
        for v in rule.head.terms.iter().filter_map(Term::as_var) {
            seed.insert(slot_of[v]);
        }
        // Schedulable whenever `base_order` is: more slots bound up front
        // only ever makes more filters ready.
        schedule_slots(&meta, None, &seed, AtomPick::MostBound, &display)?
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
            schedule_slots(&meta, Some(i), &seed, AtomPick::First, &display).ok()
        })
        .collect();

    Ok(CompiledRule {
        head,
        body,
        n_vars,
        var_names,
        base_order,
        keyed_order,
        probe_orders,
        head_seed_order,
        scan_key_slot,
        copy_from,
        head_key_slot,
        seedable,
        key_local,
        display,
    })
}

/// Whether `order` puts before every condition and assignment each literal
/// `base_order` puts before it.
fn keeps_cold_prefixes(body: &[CLit], base_order: &[usize], order: &[usize]) -> bool {
    base_order.iter().enumerate().all(|(at, &lit)| {
        if !matches!(body[lit], CLit::Cond { .. } | CLit::Assign { .. }) {
            return true;
        }
        let i = order.iter().position(|&l| l == lit);
        let before = &order[..i.expect("an order holds every literal")];
        base_order[..at].iter().all(|l| before.contains(l))
    })
}

/// Sort the payload variables of positive atoms by what the rule does with
/// them, from one count of uses per slot (head and body, expressions
/// included):
///
/// - one that occurs nowhere else becomes `_`, so a scan neither visits
///   nor clones that column: its slot is never read;
/// - one whose only other use is one head payload position is **copied**:
///   it leaves [`CAtom::live`] for [`CAtom::copied`], and the returned
///   per-slot table records the `(literal, column)` [`head_tuple`] reads it
///   from. No literal, condition, assignment or skolem argument reads it,
///   so leaving it unbound changes no match; a frame seeded with it still
///   compares it ([`unify_atom`]).
///
/// Scheduling (computed from the source rule) is unaffected. Key positions
/// and negated atoms keep their variables: a negation's variables must stay
/// bound by other literals for the rule to be safe, and a head key is read
/// from the frame. A variable repeated in one atom, or copied into the head
/// twice, has one use too many for either class, so it stays live.
fn drop_singletons(head: &CAtom, body: &mut [CLit], n_vars: usize) -> Vec<Option<(usize, usize)>> {
    let mut uses = vec![0u32; n_vars];
    let mut in_head_payload = vec![false; n_vars];
    if let Some(s) = head.terms[0].slot() {
        uses[s] += 1;
    }
    for s in head.terms[1..].iter().filter_map(CTerm::slot) {
        uses[s] += 1;
        in_head_payload[s] = true;
    }
    let mut add = |slot: usize| uses[slot] += 1;
    for lit in body.iter() {
        match lit {
            CLit::Pos(a) | CLit::Neg(a) => {
                a.terms.iter().filter_map(CTerm::slot).for_each(&mut add)
            }
            CLit::Cond { cols, .. } => cols.iter().for_each(|(_, s)| add(*s)),
            CLit::Assign { slot, cols, .. } => {
                add(*slot);
                cols.iter().for_each(|(_, s)| add(*s));
            }
            CLit::Skolem { slot, args, .. } => {
                add(*slot);
                args.iter().filter_map(CTerm::slot).for_each(&mut add);
            }
        }
    }
    let mut copy_from = vec![None; n_vars];
    for (li, lit) in body.iter_mut().enumerate() {
        let CLit::Pos(atom) = lit else { continue };
        for (col, t) in atom.terms[1..].iter_mut().enumerate() {
            let CTerm::Var(s) = *t else { continue };
            match uses[s] {
                1 => *t = CTerm::Anon,
                2 if in_head_payload[s] => {
                    atom.copied.push((col, s));
                    copy_from[s] = Some((li, col));
                }
                _ => {}
            }
        }
        let (terms, copied) = (&atom.terms, &atom.copied);
        atom.live.retain(|&col| {
            !matches!(terms[col + 1], CTerm::Anon) && !copied.iter().any(|&(c, _)| c == col)
        });
    }
    copy_from
}

/// Which positive atom [`schedule_slots`] takes when no ready one has a
/// bound key term.
#[derive(Clone, Copy)]
enum AtomPick {
    /// The first in body order, as the naive interpreter does.
    First,
    /// The one with the most bound terms (constants and bound variables),
    /// the first on a tie: the tightest probe, for a search that wants one
    /// witness, not all of them in the naive order.
    MostBound,
}

/// Compile-time scheduling over slot bitsets. With [`AtomPick::First`] it
/// mirrors the naive interpreter's `schedule` exactly — same preferences
/// (ready filters first, then positive atoms with a bound key term, then
/// any positive atom) and same first-position tie-breaks — so both engines
/// explore joins in the same order. Every order that enumerates firings
/// (`base_order`, `keyed_order`, `probe_orders`) is scheduled so, and with
/// it mint order and error precedence. The one exception is
/// `head_seed_order`, the witness order of
/// [`Evaluator::derives_head_tuple`], which asks only whether a firing
/// exists and takes [`AtomPick::MostBound`].
fn schedule_slots(
    meta: &[LitMeta],
    skip: Option<usize>,
    seed: &SlotSet,
    pick: AtomPick,
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
        let any_pos = keyed.or_else(|| {
            let mut positive = remaining
                .iter()
                .enumerate()
                .filter(|&(_, &i)| meta[i].pos_key.is_some());
            match pick {
                AtomPick::First => positive.next(),
                AtomPick::MostBound => positive.min_by_key(|&(_, &i)| {
                    let bound_vars = meta[i].binds.iter().filter(|&&s| bound.contains(s));
                    Reverse(meta[i].consts + bound_vars.count())
                }),
            }
            .map(|(pos, _)| pos)
        });
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

/// Evaluate a pre-compiled rule set bottom-up against an EDB: rules
/// strictly in order, each rule's head tuples emitted in exploration order,
/// straight into the head as the join finds them. Errors rank as in the
/// naive interpreter, which joins a rule fully before emitting any of its
/// tuples: a join error of a rule wins over a head-tuple error or key
/// conflict of the same rule found earlier; among those, the first in
/// exploration order wins.
///
/// Skolem calls go through a **reserve-then-commit** cycle
/// ([`ReservingIds`]): the evaluation hands out scope-local placeholder
/// ids in exploration order, and only once every rule succeeded are they
/// committed — minted for real, in that order — and patched through the
/// derived relations. A failed evaluation mints nothing; a mint-free set
/// never reserves, so its commit is empty and its output untouched.
///
/// A set with a column-level shape ([`RowMap`]) is first handed to its row
/// map ([`evaluate_row_map`]), which gives it back to the join on anything
/// but success.
pub fn evaluate_compiled(
    crs: &CompiledRuleSet,
    edb: &dyn EdbView,
    ids: &dyn IdSource,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<BTreeMap<String, Relation>> {
    if let Some(out) = evaluate_row_map(crs, edb, head_columns) {
        return Ok(out);
    }
    evaluate_by_join(crs, edb, ids, head_columns)
}

/// Full evaluation of a set with a column-level shape ([`RowMap`]) as a
/// row map: every head row is computed from the body row under its key,
/// walked in key order, with no join, no frame and no reservation scope.
/// `None` hands the set to the join ([`evaluate_compiled`] does). Public
/// so the differential suite can count the inputs it takes.
///
/// - A **projection set**: per rule, in rule order, its body relation is
///   read and its arity checked as the join does, then `(key, π(row))` is
///   appended for every row in key order.
/// - A **lookup-or-default pair**: `S` is walked in key order, with one
///   [`EdbView::by_key`] of `A` per row, the call the first rule's walk
///   makes; the head row takes the aux value if `A` holds a row there, or
///   the default evaluated from the data row if not. A constant default is
///   evaluated once, before the walk, as the absent rule's order does.
///
/// **Why this is exact.** The row map's EDB calls are a prefix, in the
/// same order, of the calls the join makes (for a pair, of those its first
/// rule makes), and its default expressions are pure. It returns only when
/// it succeeds: on any error, on a relation the view holds under a write
/// overlay ([`EdbView::overlay`]), on a row of another arity than its atom
/// and on a key the join's head rejects it returns `None`. The join then makes the same calls again, which
/// a view that caches its resolutions answers from its cache, and raises
/// the canonical error. A success derives what the join derives: every row
/// of `S` or `B` matches its atom of distinct variables, the join emits its
/// tuples in the same key order, and no key conflict can arise: a
/// projection set has one rule per head, and the pair's two rules fire on
/// disjoint keys, where `A` holds a row and where it does not.
pub fn evaluate_row_map(
    crs: &CompiledRuleSet,
    edb: &dyn EdbView,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Option<BTreeMap<String, Relation>> {
    match crs.row_map.as_ref()? {
        RowMap::Projection(columns) => map_projection(crs, columns, edb, head_columns),
        RowMap::Pair(pair) => map_lookup_or_default(crs, pair, edb, head_columns),
    }
}

fn map_projection(
    crs: &CompiledRuleSet,
    columns: &[Vec<usize>],
    edb: &dyn EdbView,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Option<BTreeMap<String, Relation>> {
    let mut out = BTreeMap::new();
    for (rule, columns) in crs.rules.iter().zip(columns) {
        let CLit::Pos(atom) = &rule.body[0] else {
            unreachable!("a projection rule is one positive atom")
        };
        let body = whole_relation(edb, &atom.relation, atom.terms.len())?;
        let mut head = empty_head(&rule.head, head_columns);
        for (key, row) in body.iter() {
            let key = head_key(&rule.head, key)?;
            let row = columns.iter().map(|&c| row[c].clone()).collect();
            head.insert_vacant(key, row).ok()?.ok()?;
        }
        out.insert(rule.head.relation.clone(), head);
    }
    Some(out)
}

fn map_lookup_or_default(
    crs: &CompiledRuleSet,
    pair: &LookupOrDefault,
    edb: &dyn EdbView,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Option<BTreeMap<String, Relation>> {
    let default = |row: &[Value]| {
        let ctx = DataRowCtx {
            cols: &pair.default_cols,
            row,
        };
        pair.default.eval(&ctx).ok()
    };
    let constant = match pair.default_cols.is_empty() {
        true => Some(default(&[])?),
        false => None,
    };
    let data = whole_relation(edb, &pair.data, pair.data_arity)?;
    let head_atom = &crs.rules[pair.present].head;
    let mut head = empty_head(head_atom, head_columns);
    for (key, row) in data.iter() {
        let key = head_key(head_atom, key)?;
        let value = match edb.by_key(&pair.aux, key).ok()? {
            Some(aux) => <[Value; 1]>::try_from(aux).ok()?.into_iter().next()?,
            None => match &constant {
                Some(value) => value.clone(),
                None => default(row)?,
            },
        };
        let cells = pair.cells.iter().map(|cell| match cell {
            Some(c) => row[*c].clone(),
            None => value.clone(),
        });
        head.insert_vacant(key, cells.collect()).ok()?.ok()?;
    }
    Some(BTreeMap::from([(head_atom.relation.clone(), head)]))
}

/// The head key the join derives from the body row under `key`: `None`
/// where it raises [`DatalogError::BadKey`] instead (a key past `i64::MAX`
/// binds a negative value), before it looks the key up in another atom.
fn head_key(head: &CAtom, key: Key) -> Option<Key> {
    value_key(&head.relation, &key_value(key)).ok()
}

/// `relation` as the join reads it ([`Evaluator::relation_view`], with the
/// arity check of a scan), if the view holds it as one materialized state
/// whose atoms have `arity` terms.
fn whole_relation(edb: &dyn EdbView, relation: &str, arity: usize) -> Option<Arc<Relation>> {
    if edb.overlay(relation).ok()?.is_some() {
        return None;
    }
    let rel = edb.full(relation).ok()?;
    (rel.schema().arity() + 1 == arity).then_some(rel)
}

/// The empty head `atom` derives into: named by `head_columns`, or by
/// position (`c0`, `c1`, …).
fn empty_head(atom: &CAtom, head_columns: &BTreeMap<String, Vec<String>>) -> Relation {
    let name = atom.relation.as_str();
    let columns: Vec<String> = match head_columns.get(name) {
        Some(cols) => cols.clone(),
        None => (0..atom.terms.len() - 1).map(|i| format!("c{i}")).collect(),
    };
    Relation::new(TableSchema::new(name.to_string(), columns).expect("unique columns"))
}

/// The join of [`evaluate_compiled`]: every rule in order, behind one
/// reservation scope.
fn evaluate_by_join(
    crs: &CompiledRuleSet,
    edb: &dyn EdbView,
    ids: &dyn IdSource,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<BTreeMap<String, Relation>> {
    let reserving = ReservingIds::new(ids, skolem::SCOPE_EVAL);
    let mut ev = Evaluator::new(edb, &reserving);
    for rule in &crs.rules {
        ev.derive_rule(rule, head_columns)?;
    }
    let derived = ev.into_derived();
    let patch = reserving.commit();
    if patch.is_empty() {
        return Ok(derived);
    }
    derived
        .into_iter()
        .map(|(name, rel)| patch_relation(rel, &patch).map(|rel| (name, rel)))
        .collect()
}

/// The compiled evaluation engine. Holds derived heads (which shadow the
/// EDB).
pub struct Evaluator<'a> {
    edb: &'a dyn EdbView,
    ids: &'a dyn IdSource,
    /// Fully evaluated heads (full evaluation mode). Shared so the join can
    /// iterate a head while the evaluator hands out further references.
    pub derived: BTreeMap<String, Arc<Relation>>,
    /// A witness search ([`Evaluator::witness_search`]): skolem literals
    /// only [`peek`](IdSource::peek), and arguments without an assigned id,
    /// like an expression that fails to evaluate, end the branch.
    witness_search: bool,
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
    /// materialized state would take) until `f` breaks; returns the break.
    fn try_for_each(
        &self,
        mut f: impl FnMut(Key, &Row) -> Result<ControlFlow<()>>,
    ) -> Result<ControlFlow<()>> {
        let stop = ControlFlow::Break(());
        match self {
            RelView::Whole(rel) => {
                for (key, row) in rel.iter() {
                    if f(key, row)?.is_break() {
                        return Ok(stop);
                    }
                }
            }
            RelView::Patched(base, delta) => {
                // Merge the surviving base rows with the inserted ones.
                let mut inserts = delta.inserts.iter().peekable();
                for (key, row) in base.iter() {
                    while let Some((k, r)) = inserts.next_if(|(k, _)| **k < key) {
                        if f(*k, r)?.is_break() {
                            return Ok(stop);
                        }
                    }
                    let kept =
                        !delta.inserts.contains_key(&key) && !delta.deletes.contains_key(&key);
                    if kept && f(key, row)?.is_break() {
                        return Ok(stop);
                    }
                }
                for (k, r) in inserts {
                    if f(*k, r)?.is_break() {
                        return Ok(stop);
                    }
                }
            }
        }
        Ok(ControlFlow::Continue(()))
    }
}

impl<'a> Evaluator<'a> {
    /// New evaluator over an EDB.
    pub fn new(edb: &'a dyn EdbView, ids: &'a dyn IdSource) -> Self {
        Evaluator {
            edb,
            ids,
            derived: BTreeMap::new(),
            witness_search: false,
        }
    }

    /// The evaluator of [`derives_head_tuple`](Self::derives_head_tuple),
    /// which asks whether a firing exists, never what it raises or mints.
    /// It never mints or reserves: a skolem literal whose arguments have no
    /// assigned id yet simply matches nothing. Exact for checking
    /// derivations that *already existed* — their generator arguments were
    /// memoized when they were first derived — which is what the delete
    /// side of delta-vs-stored maintenance asks
    /// ([`crate::delta::propagate_vs_stored`]). A condition or assignment
    /// that fails to evaluate (a division by zero) likewise ends its branch
    /// instead of the search.
    pub(crate) fn witness_search(edb: &'a dyn EdbView, ids: &'a dyn IdSource) -> Self {
        Evaluator {
            witness_search: true,
            ..Evaluator::new(edb, ids)
        }
    }

    /// The value of the condition or assignment `order[depth]`, `None`
    /// where the branch it fails on ends instead of the evaluation: in a
    /// witness search, and in a probe where the cold evaluation does not
    /// [meet the failure](Self::cold_evaluation_meets).
    #[allow(clippy::too_many_arguments)]
    fn filter_value<T>(
        &self,
        value: inverda_storage::Result<T>,
        rule: &CompiledRule,
        order: &[usize],
        depth: usize,
        frame: &mut Frame,
        trail: &mut Vec<usize>,
    ) -> Result<Option<T>> {
        match value {
            Ok(v) => Ok(Some(v)),
            Err(_) if self.witness_search => Ok(None),
            Err(e) => match self.cold_evaluation_meets(rule, order, depth, frame, trail)? {
                true => Err(e.into()),
                false => Ok(None),
            },
        }
    }

    /// Whether a cold evaluation meets the condition or assignment
    /// `order[depth]`, which failed to evaluate under `frame`, with the same
    /// inputs: whether the literals `base_order` (the cold order) puts
    /// before it have a match that agrees with the frame. Only a probe's
    /// order ([`Evaluator::probe_head_keys`]) can leave one of them off its
    /// path, the one it seeds among them; every other order, a prefix of
    /// `base_order` included, raises, as the naive interpreter does in the
    /// same order. A probe has matched some of those literals on its
    /// path and, if positive, its seed, whose tuple is present in the probed
    /// state; the rest are tried under the frame. Not where a skolem literal
    /// comes first, matched or not: trying it would mint, and in a minting
    /// probe it binds a reservation, not the id a cold evaluation reads. See
    /// `probe_rules` in [`crate::delta`] for why ending the branch is exact.
    fn cold_evaluation_meets(
        &self,
        rule: &CompiledRule,
        order: &[usize],
        depth: usize,
        frame: &mut Frame,
        trail: &mut Vec<usize>,
    ) -> Result<bool> {
        if order.len() == rule.body.len() {
            return Ok(true);
        }
        let failing = order[depth];
        let at = rule.base_order.iter().position(|&lit| lit == failing);
        let before = &rule.base_order[..at.expect("base_order holds every literal")];
        let path = &order[..depth];
        let matched = |lit: &usize| {
            path.contains(lit) || (!order.contains(lit) && matches!(rule.body[*lit], CLit::Pos(_)))
        };
        if before
            .iter()
            .any(|&lit| matches!(rule.body[lit], CLit::Skolem { .. }))
        {
            return Ok(false);
        }
        if before.iter().all(matched) {
            return Ok(true);
        }
        let found = self.join(rule, before, 0, frame, trail, None, &mut |_, _| {
            Ok(ControlFlow::Break(()))
        })?;
        Ok(found.is_break())
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

    fn ensure_head(&mut self, head: &CAtom, head_columns: &BTreeMap<String, Vec<String>>) {
        if !self.derived.contains_key(&head.relation) {
            let empty = Arc::new(empty_head(head, head_columns));
            self.derived.insert(head.relation.clone(), empty);
        }
    }

    /// Full evaluation of one rule: every head tuple it derives goes into
    /// its head the moment the join finds it. A head-tuple error or key
    /// conflict is deferred while the join runs on: a later join error
    /// wins (see [`evaluate_compiled`]).
    ///
    /// No rule the engine builds reads its own head, but one that does sees
    /// the head as it stood before the rule, as in the naive interpreter:
    /// the rule fills a copy of the head (chunks shared, not rows, and no
    /// index: it derives a different state) that replaces it once the join
    /// is done. A probe of the head reads the index of the head the join
    /// reads.
    fn derive_rule(
        &mut self,
        rule: &CompiledRule,
        head_columns: &BTreeMap<String, Vec<String>>,
    ) -> Result<()> {
        let name = rule.head.relation.as_str();
        self.ensure_head(&rule.head, head_columns);
        let mut head = self.derived[name].clone_rows();
        let mut deferred = None;
        let mut frame = vec![None; rule.n_vars];
        let mut trail = Vec::with_capacity(rule.n_vars);
        let joined = self.join(
            rule,
            &rule.base_order,
            0,
            &mut frame,
            &mut trail,
            None,
            &mut |frame, rows| {
                if deferred.is_none() {
                    deferred = head_tuple(rule, frame, rows)
                        .and_then(|(key, row)| emit(&mut head, name, key, row))
                        .err();
                }
                Ok(ControlFlow::Continue(()))
            },
        );
        first_error(joined, deferred)?;
        *self.derived.get_mut(name).expect("head created above") = Arc::new(head);
        Ok(())
    }

    /// Resolve a relation for matching: derived heads shadow the EDB, and
    /// an overlaid EDB relation is read without materializing it.
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

    /// The join index over `column` of `rel`, the view of `relation` the
    /// join reads: a materialized state's own, or the EDB's index of its
    /// write overlay.
    fn index_for(
        &self,
        relation: &str,
        rel: &RelView<'_>,
        column: usize,
    ) -> Result<Arc<ColumnIndex>> {
        match rel {
            RelView::Whole(rel) => Ok(rel.index(column)),
            RelView::Patched(..) => self.edb.index(relation, column),
        }
    }

    /// All head tuples the rule derives, with `seed` pre-bound (callers pass
    /// the precomputed order matching the seed shape). Errors rank as in
    /// [`evaluate_compiled`].
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
        let mut deferred = None;
        let joined = self.join(
            rule,
            order,
            0,
            &mut frame,
            &mut trail,
            None,
            &mut |frame, rows| {
                collect_head_tuple(rule, frame, rows, &mut out, &mut deferred);
                Ok(ControlFlow::Continue(()))
            },
        );
        first_error(joined, deferred)?;
        Ok(out)
    }

    /// Depth-first join over the scheduled body literals. Bindings live in
    /// `frame`; slots bound while matching an atom are recorded on `trail`
    /// and undone on backtrack, so no per-depth clone happens. `rows` holds
    /// the rows matched on the current path by atoms with
    /// [copied](CAtom::copied) columns. `on_match` sees every complete
    /// frame, with those rows, in exploration order until it breaks; the
    /// join then unwinds at once and returns the break.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &self,
        rule: &CompiledRule,
        order: &[usize],
        depth: usize,
        frame: &mut Frame,
        trail: &mut Vec<usize>,
        rows: Option<&Rows<'_>>,
        on_match: &mut OnMatch<'_>,
    ) -> Result<ControlFlow<()>> {
        if depth == order.len() {
            return on_match(frame, rows);
        }
        match &rule.body[order[depth]] {
            CLit::Pos(atom) => {
                // Key-bound fast path: a single point lookup.
                if let Some(kv) = atom.terms[0].resolved(frame) {
                    // A non-key value (e.g. NULL from an ω fk) matches nothing.
                    let Ok(key) = value_key(&atom.relation, kv) else {
                        return Ok(ControlFlow::Continue(()));
                    };
                    let Some(row) = self.relation_by_key(&atom.relation, key)? else {
                        return Ok(ControlFlow::Continue(()));
                    };
                    check_arity(atom, row.len() + 1)?;
                    return self.match_row(
                        rule, order, depth, atom, key, &row, frame, trail, rows, on_match,
                    );
                }
                let rel = self.relation_view(&atom.relation)?;
                check_arity(atom, rel.arity() + 1)?;
                // Index path: probe the first bound payload column.
                if let Some((col, value)) = atom.bound_payload(frame) {
                    let value = value.clone();
                    let index = self.index_for(&atom.relation, &rel, col)?;
                    for &key in index.keys_for(&value) {
                        let Some(row) = rel.get(key) else { continue };
                        let flow = self.match_row(
                            rule, order, depth, atom, key, row, frame, trail, rows, on_match,
                        )?;
                        if flow.is_break() {
                            return Ok(flow);
                        }
                    }
                    return Ok(ControlFlow::Continue(()));
                }
                // No bound column at all: full scan.
                rel.try_for_each(|key, row| {
                    self.match_row(
                        rule, order, depth, atom, key, row, frame, trail, rows, on_match,
                    )
                })
            }
            CLit::Neg(atom) => {
                if self.atom_has_match(atom, frame, trail)? {
                    return Ok(ControlFlow::Continue(()));
                }
                self.join(rule, order, depth + 1, frame, trail, rows, on_match)
            }
            CLit::Cond { expr, cols } => {
                let value = expr.matches(&FrameCtx { cols, frame });
                if self.filter_value(value, rule, order, depth, frame, trail)? != Some(true) {
                    return Ok(ControlFlow::Continue(()));
                }
                self.join(rule, order, depth + 1, frame, trail, rows, on_match)
            }
            CLit::Assign { slot, expr, cols } => {
                let value = expr.eval(&FrameCtx { cols, frame });
                let Some(v) = self.filter_value(value, rule, order, depth, frame, trail)? else {
                    return Ok(ControlFlow::Continue(()));
                };
                self.bind_and_continue(rule, order, depth, *slot, v, frame, trail, rows, on_match)
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
                let id = if self.witness_search {
                    match self.ids.peek(generator, &vals) {
                        Some(id) => id,
                        None => return Ok(ControlFlow::Continue(())),
                    }
                } else {
                    self.ids.generate(generator, &vals)
                };
                let v = Value::Int(id as i64);
                self.bind_and_continue(rule, order, depth, *slot, v, frame, trail, rows, on_match)
            }
        }
    }

    /// Match positive atom `order[depth]` against one row and, if it
    /// unifies, join the literals after it; the frame is restored either way.
    /// An atom with copied columns passes its row down on `rows`.
    #[allow(clippy::too_many_arguments)]
    fn match_row(
        &self,
        rule: &CompiledRule,
        order: &[usize],
        depth: usize,
        atom: &CAtom,
        key: Key,
        row: &[Value],
        frame: &mut Frame,
        trail: &mut Vec<usize>,
        rows: Option<&Rows<'_>>,
        on_match: &mut OnMatch<'_>,
    ) -> Result<ControlFlow<()>> {
        let mark = trail.len();
        let flow = if unify_atom(atom, key, row, frame, trail) {
            let node;
            let rows = if atom.copied.is_empty() {
                rows
            } else {
                node = Rows {
                    lit: order[depth],
                    row,
                    up: rows,
                };
                Some(&node)
            };
            self.join(rule, order, depth + 1, frame, trail, rows, on_match)?
        } else {
            ControlFlow::Continue(())
        };
        undo(frame, trail, mark);
        Ok(flow)
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
        rows: Option<&Rows<'_>>,
        on_match: &mut OnMatch<'_>,
    ) -> Result<ControlFlow<()>> {
        match &frame[slot] {
            Some(bound) if *bound == value => {
                self.join(rule, order, depth + 1, frame, trail, rows, on_match)
            }
            Some(_) => Ok(ControlFlow::Continue(())), // equality check failed
            None => {
                frame[slot] = Some(value);
                let result = self.join(rule, order, depth + 1, frame, trail, rows, on_match);
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
            let index = self.index_for(&atom.relation, &rel, col)?;
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
        let found = rel.try_for_each(|key, row| {
            let mark = trail.len();
            let matched = unify_atom(atom, key, row, frame, trail);
            undo(frame, trail, mark);
            Ok(if matched {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        })?;
        Ok(found.is_break())
    }

    /// Key-seeded evaluation: the row `head` derives for `key` under the
    /// compiled rule set, or `None`. Nothing is memoized: its callers ask
    /// for each `(head, key)` once per evaluator (a propagation's candidate
    /// keys, a point read's one key).
    ///
    /// Falls back to full evaluation of a rule when the key binding cannot
    /// be pushed into its body (e.g. the key is produced by a skolem
    /// function — the id-generating SMOs).
    pub fn head_row_for_key(
        &self,
        crs: &CompiledRuleSet,
        head: &str,
        key: Key,
    ) -> Result<Option<Row>> {
        // If the head was already fully derived, serve from it.
        if let Some(rel) = self.derived.get(head) {
            return Ok(rel.get(key).cloned());
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
        Ok(found)
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
        self.join(
            rule,
            order,
            0,
            &mut frame,
            &mut trail,
            None,
            &mut |frame, _| {
                if let Some(head_key) = head_key_from_frame(rule, frame) {
                    out.insert(head_key);
                }
                Ok(ControlFlow::Continue(()))
            },
        )
        .map(drop)
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
        self.join(
            rule,
            scan,
            0,
            &mut frame,
            &mut trail,
            None,
            &mut |frame, _| {
                let scan_key = frame[slot].as_ref().and_then(|v| value_key("", v).ok());
                out.extend(scan_key);
                Ok(ControlFlow::Continue(()))
            },
        )
        .map(drop)
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
        let mut deferred = None;
        let mut collect = |frame: &Frame, rows: Option<&Rows<'_>>| {
            collect_head_tuple(rule, frame, rows, &mut out, &mut deferred);
            Ok(ControlFlow::Continue(()))
        };
        let order = &rule.base_order;
        for &key in keys {
            let Some(row) = self.relation_by_key(&atom.relation, key)? else {
                continue;
            };
            check_arity(atom, row.len() + 1)?;
            let _ = self.match_row(
                rule,
                order,
                0,
                atom,
                key,
                &row,
                &mut frame,
                &mut trail,
                None,
                &mut collect,
            )?;
        }
        first_error(Ok(()), deferred)?;
        Ok(out)
    }

    /// Whether some rule of `crs` derives exactly the tuple `head(key, row)`
    /// over the new state: the survive check of
    /// [`propagate_vs_stored`](crate::delta::propagate_vs_stored)'s step 4,
    /// for a stored tuple the state change may have taken a derivation
    /// from. Every head variable is seeded and the join stops at its first
    /// witness binding of the rest. The witness order (`head_seed_order`)
    /// opens with the tightest atom, not with naive's first one, so a check
    /// reads at most one witness, not every firing that derives the tuple.
    ///
    /// **Why this is exact.** The search runs on a
    /// [witness-search](Self::witness_search) evaluator: it peeks and never
    /// mints, and its answer, existence, does not depend on the order. Nor
    /// can stopping early, reordering, or dropping a branch on an
    /// expression error lose an error that a cold evaluation of the new
    /// state raises, because every such error is raised before this check
    /// runs. A cold-evaluation error sits at a (partial) firing of two
    /// kinds:
    /// - one that uses no changed tuple also existed in the old state, and
    ///   `stored` was derived from the old state without error, so it
    ///   raises none;
    /// - one that uses a changed tuple sits under a scan key that step 2
    ///   replays first, in the cold evaluation's order, so step 2 has
    ///   raised it already.
    ///
    /// The same argument makes dropping a branch on an expression error
    /// exact: had the branch a complete witness, that witness would be a
    /// firing of the new state, and the cold evaluation would meet the
    /// error on it, which it does not. Such a branch exists because seeded
    /// head values reach a filter before the atom that binds them in the
    /// cold order does (`H(k, x) ← A(k, y), B(k, x), v = 1 / (y − x)`
    /// checks `1 / (y − x)` before `B`).
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
            let order = &rule.head_seed_order;
            let witness =
                self.join(rule, order, 0, &mut frame, &mut trail, None, &mut |_, _| {
                    Ok(ControlFlow::Break(()))
                })?;
            if witness.is_break() {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// The callback a join hands every complete frame, with the rows matched on
/// its path.
type OnMatch<'m> = dyn FnMut(&Frame, Option<&Rows<'_>>) -> Result<ControlFlow<()>> + 'm;

/// The rows matched on the current join path by atoms with
/// [copied](CAtom::copied) columns, innermost first: a list on the join's
/// stack, one node per such atom. Every row outlives the recursive call
/// that reads it, whether it is borrowed from a relation or is a point
/// lookup's owned row.
struct Rows<'r> {
    /// The body literal whose atom matched `row`.
    lit: usize,
    row: &'r [Value],
    up: Option<&'r Rows<'r>>,
}

impl Rows<'_> {
    /// Payload column `col` of the row body literal `lit` matched.
    fn cell(&self, lit: usize, col: usize) -> Option<&Value> {
        let mut node = self;
        while node.lit != lit {
            node = node.up?;
        }
        node.row.get(col)
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

/// Row context over a data row, using a compile-time name→column table
/// (the default of a [lookup-or-default pair](RowMap::Pair)).
struct DataRowCtx<'a> {
    cols: &'a [(String, usize)],
    row: &'a [Value],
}

impl RowContext for DataRowCtx<'_> {
    fn value_of(&self, column: &str) -> Option<Value> {
        self.cols
            .iter()
            .find(|(name, _)| name == column)
            .and_then(|(_, col)| self.row.get(*col).cloned())
    }
}

/// Build the head tuple from a complete frame and the rows matched on its
/// path: the payload in one allocation, the key read in place. A copied
/// variable the frame leaves unbound is read straight from the row its atom
/// matched, so each of its values is cloned once, into the head. An
/// unresolvable term anywhere in the head ranks before a key that is no
/// key, as in the naive interpreter.
fn head_tuple(
    rule: &CompiledRule,
    frame: &[Option<Value>],
    rows: Option<&Rows<'_>>,
) -> Result<(Key, Row)> {
    let head = &rule.head;
    let unsafe_rule = || DatalogError::UnsafeRule {
        rule: rule.display.clone(),
    };
    let key = head.terms[0].resolved(frame).ok_or_else(unsafe_rule)?;
    let mut row = Vec::with_capacity(head.terms.len() - 1);
    for t in &head.terms[1..] {
        let value = match (t, t.resolved(frame)) {
            (CTerm::Var(s), None) => {
                rule.copy_from[*s].and_then(|(lit, col)| rows.and_then(|rows| rows.cell(lit, col)))
            }
            (_, value) => value,
        };
        row.push(value.ok_or_else(unsafe_rule)?.clone());
    }
    Ok((value_key(&head.relation, key)?, row))
}

/// Add a derived tuple to `rel`, the head `name`, detecting key conflicts.
fn emit(rel: &mut Relation, name: &str, key: Key, row: Row) -> Result<()> {
    match rel.insert_vacant(key, row)? {
        Err((existing, row)) if *existing != row => Err(DatalogError::KeyConflict {
            relation: name.to_string(),
            key: key.0,
        }),
        _ => Ok(()),
    }
}

/// Push the head tuple of one firing onto `out`, or keep its error in
/// `deferred` if none is kept yet (tuples after it are not needed).
fn collect_head_tuple(
    rule: &CompiledRule,
    frame: &[Option<Value>],
    rows: Option<&Rows<'_>>,
    out: &mut Vec<(Key, Row)>,
    deferred: &mut Option<DatalogError>,
) {
    if deferred.is_none() {
        match head_tuple(rule, frame, rows) {
            Ok(tuple) => out.push(tuple),
            Err(e) => *deferred = Some(e),
        }
    }
}

/// The naive interpreter's error order for one rule: its join error, else
/// the first head-tuple or emission error its firings deferred.
fn first_error<T>(joined: Result<T>, deferred: Option<DatalogError>) -> Result<()> {
    joined?;
    deferred.map_or(Ok(()), Err)
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

/// Try to extend the frame so the atom matches `(key, row)`, visiting the
/// key, the live payload columns and the bound copied ones only; newly
/// bound slots are pushed on `trail`.
///
/// A copied column whose slot is unbound is skipped: binding it always
/// succeeds, and the head reads it from the row instead. One whose slot a
/// seed bound (the head of [`Evaluator::derives_head_tuple`], a
/// [`seed_frame`] probe) is compared, as binding it would compare it, so a
/// seeded frame matches exactly the rows it matched with the column live.
fn unify_atom(
    atom: &CAtom,
    key: Key,
    row: &[Value],
    frame: &mut [Option<Value>],
    trail: &mut Vec<usize>,
) -> bool {
    if !unify_term(&atom.terms[0], &key_value(key), frame, trail) {
        return false;
    }
    for &col in &atom.live {
        // Like a pairwise walk of terms and row, a short row (possible only
        // where no arity check ran) is compared on the columns it has.
        let Some(v) = row.get(col) else { break };
        if !unify_term(&atom.terms[col + 1], v, frame, trail) {
            return false;
        }
    }
    atom.copied
        .iter()
        .all(|&(col, slot)| match (&frame[slot], row.get(col)) {
            (Some(bound), Some(v)) => bound == v,
            _ => true,
        })
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
    use inverda_storage::{BinaryOp, Expr};
    use std::cell::Cell;

    fn ids() -> RefCell<SkolemRegistry> {
        RefCell::new(SkolemRegistry::new())
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
        let ev = Evaluator::new(&edb, &sk2);
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

    /// The body atom at `lit` of a one-rule set's compiled rule.
    fn compiled_atom(rule: Rule, lit: usize) -> CAtom {
        let crs = CompiledRuleSet::compile(&RuleSet::new(vec![rule])).unwrap();
        let (_, atom, _) = crs.body_atoms(0).nth(lit).unwrap();
        atom.clone()
    }

    #[test]
    fn scans_bind_only_the_columns_the_rule_reads() {
        // B(p, b) ← T(p, x, y, b): x and y occur once, so the scan skips
        // them; b is only copied into the head, so the scan binds only p.
        let rule = Rule::new(
            Atom::vars("B", &["p", "b"]),
            vec![Literal::Pos(Atom::vars("T", &["p", "x", "y", "b"]))],
        );
        let atom = compiled_atom(rule.clone(), 0);
        assert_eq!(
            atom.terms,
            vec![CTerm::Var(0), CTerm::Anon, CTerm::Anon, CTerm::Var(1)]
        );
        assert_eq!(atom.live, Vec::<usize>::new());
        assert_eq!(atom.copied, vec![(2, 1)]);
        let mut t = Relation::with_columns("T", ["x", "y", "b"]);
        t.insert(Key(4), vec![1.into(), 2.into(), 3.into()])
            .unwrap();
        let mut edb = MapEdb::new();
        edb.add(t);
        let out = evaluate(&RuleSet::new(vec![rule]), &edb, &ids(), &BTreeMap::new()).unwrap();
        assert_eq!(out["B"].get(Key(4)), Some(&vec![Value::Int(3)]));
    }

    #[test]
    fn a_head_only_column_is_copied_not_bound() {
        // H(p, k, r, c, d, d, e) ← T(k, p, r, r, c, d, e), c > 0: the key
        // variable k, the head key p, the repeated r, the condition's c and
        // d, copied into the head twice, stay live; only e is copied.
        let rule = Rule::new(
            Atom::vars("H", &["p", "k", "r", "c", "d", "d", "e"]),
            vec![
                Literal::Pos(Atom::vars("T", &["k", "p", "r", "r", "c", "d", "e"])),
                Literal::Cond(Expr::col("c").gt(Expr::lit(0))),
            ],
        );
        let crs = CompiledRuleSet::compile(&RuleSet::new(vec![rule.clone()])).unwrap();
        let (_, atom, _) = crs.body_atoms(0).next().unwrap();
        assert_eq!(atom.live, vec![0, 1, 2, 3, 4]);
        assert_eq!(atom.copied, vec![(5, 5)]);
        assert_eq!(crs.rules[0].copy_from[5], Some((0, 5)));
        assert!(crs.rules[0].copy_from[..5].iter().all(Option::is_none));
        let mut t = Relation::with_columns("T", ["p", "r1", "r2", "c", "d", "e"]);
        let row = |p: i64, r: i64, c: i64| -> Row {
            [p, r, r + (r % 2), c, 10 * p, 100 * p]
                .map(Value::Int)
                .to_vec()
        };
        for (k, (p, r, c)) in [(1, 2, 3), (2, 1, 5), (3, 4, 0), (4, 6, 1)]
            .into_iter()
            .enumerate()
        {
            t.insert(Key(k as u64), row(p, r, c)).unwrap();
        }
        let mut edb = MapEdb::new();
        edb.add(t);
        let rules = RuleSet::new(vec![rule]);
        let out = evaluate(&rules, &edb, &ids(), &BTreeMap::new()).unwrap();
        let naive = crate::naive::evaluate(&rules, &edb, &ids(), &BTreeMap::new()).unwrap();
        assert_eq!(out, naive);
        // Rows 0 and 3 pass both the repeated r and c > 0.
        assert_eq!(out["H"].keys().collect::<Vec<_>>(), [Key(1), Key(4)]);
    }

    #[test]
    fn a_seeded_copied_column_is_compared() {
        // B(p, b) ← T(p, x, b): a survive check seeds b, so matching T
        // must compare the copied column, not skip it.
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("B", &["p", "b"]),
            vec![Literal::Pos(Atom::vars("T", &["p", "x", "b"]))],
        )]);
        let mut t = Relation::with_columns("T", ["x", "b"]);
        t.insert(Key(4), vec![1.into(), 3.into()]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(t);
        let crs = CompiledRuleSet::compile(&rules).unwrap();
        let sk = ids();
        let ev = Evaluator::witness_search(&edb, &sk);
        let derives = |b: i64| ev.derives_head_tuple(&crs, "B", Key(4), &vec![Value::Int(b)]);
        assert!(derives(3).unwrap());
        assert!(!derives(9).unwrap());
    }

    #[test]
    fn copied_columns_come_from_their_own_row() {
        // H(p, a, c) ← S(p, a), T0(p, _, c): a is copied from the scanned S
        // row, c from the row T0's point lookup returns, which the join
        // owns. Both columns sit at different positions of different rows.
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("H", &["p", "a", "c"]),
            vec![
                Literal::Pos(Atom::vars("S", &["p", "a"])),
                Literal::Pos(Atom::new(
                    "T0",
                    vec![Term::var("p"), Term::Anon, Term::var("c")],
                )),
            ],
        )]);
        let mut s = Relation::with_columns("S", ["a"]);
        let mut t0 = Relation::with_columns("T0", ["b", "c"]);
        for k in 1..6u64 {
            let k_i = k as i64;
            s.insert(Key(k), vec![Value::Int(10 * k_i)]).unwrap();
            if k != 3 {
                t0.insert(Key(k), vec![Value::Int(-k_i), Value::Int(100 * k_i)])
                    .unwrap();
            }
        }
        let mut edb = MapEdb::new();
        edb.add(s).add(t0);
        let crs = CompiledRuleSet::compile(&rules).unwrap();
        let copied: Vec<_> = crs
            .body_atoms(0)
            .map(|(_, a, _)| a.copied.clone())
            .collect();
        assert_eq!(copied, [vec![(0, 1)], vec![(1, 2)]]);
        let out = evaluate_compiled(&crs, &edb, &ids(), &BTreeMap::new()).unwrap();
        let naive = crate::naive::evaluate(&rules, &edb, &ids(), &BTreeMap::new()).unwrap();
        assert_eq!(out, naive);
        assert_eq!(
            out["H"].get(Key(2)),
            Some(&vec![Value::Int(20), Value::Int(200)])
        );
        // Key-seeded evaluation and the delta engine's replay of chosen
        // scan keys read the same rows.
        let sk = ids();
        let ev = Evaluator::new(&edb, &sk);
        for k in 0..7 {
            let seeded = ev.head_row_for_key(&crs, "H", Key(k)).unwrap();
            assert_eq!(seeded.as_ref(), naive["H"].get(Key(k)), "key {k}");
        }
        let keys = (0..7).map(Key).collect();
        let replayed = ev.scan_key_head_tuples(&crs.rules[0], &keys).unwrap();
        let expected: Vec<_> = naive["H"].iter().map(|(k, r)| (k, r.clone())).collect();
        assert_eq!(replayed, expected);
    }

    #[test]
    fn a_variable_repeated_in_one_atom_stays_bound() {
        // H(p) ← T(p, a, a): `a` occurs nowhere else, but twice here.
        let rule = Rule::new(
            Atom::vars("H", &["p"]),
            vec![Literal::Pos(Atom::vars("T", &["p", "a", "a"]))],
        );
        let atom = compiled_atom(rule, 0);
        assert_eq!(
            atom.terms,
            vec![CTerm::Var(0), CTerm::Var(1), CTerm::Var(1)]
        );
        assert_eq!(atom.live, vec![0, 1]);
    }

    #[test]
    fn a_singleton_under_negation_keeps_the_rule_unsafe() {
        // H(p) ← S(p), ¬T(p, x): `x` is bound by no positive literal, so
        // the negation can never be scheduled; dropping it would make the
        // rule safe.
        let rule = Rule::new(
            Atom::vars("H", &["p"]),
            vec![
                Literal::Pos(Atom::vars("S", &["p"])),
                Literal::Neg(Atom::vars("T", &["p", "x"])),
            ],
        );
        assert!(matches!(
            CompiledRuleSet::compile(&RuleSet::new(vec![rule])),
            Err(DatalogError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn a_rule_reading_its_own_head_sees_it_as_before_the_rule() {
        // Rule 2 probes its own head by payload while it grows it: B's
        // row 6 would match the tuple rule 2 derives from row 5, but the
        // naive interpreter joins a rule fully before emitting, so it must
        // not. Rule 3 then probes the grown head.
        let rules = RuleSet::new(vec![
            Rule::new(
                Atom::vars("H", &["p", "n"]),
                vec![Literal::Pos(Atom::vars("A", &["p", "n"]))],
            ),
            Rule::new(
                Atom::vars("H", &["q", "m"]),
                vec![
                    Literal::Pos(Atom::vars("B", &["q", "n", "m"])),
                    Literal::Pos(Atom::new("H", vec![Term::Anon, Term::var("n")])),
                ],
            ),
            Rule::new(
                Atom::vars("J", &["q", "n"]),
                vec![
                    Literal::Pos(Atom::vars("C", &["q", "n"])),
                    Literal::Pos(Atom::new("H", vec![Term::Anon, Term::var("n")])),
                ],
            ),
        ]);
        let mut a = Relation::with_columns("A", ["n"]);
        a.insert(Key(1), vec![Value::Int(10)]).unwrap();
        let mut b = Relation::with_columns("B", ["n", "m"]);
        b.insert(Key(5), vec![Value::Int(10), Value::Int(20)])
            .unwrap();
        b.insert(Key(6), vec![Value::Int(20), Value::Int(30)])
            .unwrap();
        let mut c = Relation::with_columns("C", ["n"]);
        for (k, n) in [(7, 20), (8, 30)] {
            c.insert(Key(k), vec![Value::Int(n)]).unwrap();
        }
        let mut edb = MapEdb::new();
        edb.add(a).add(b).add(c);
        let out = evaluate(&rules, &edb, &ids(), &BTreeMap::new()).unwrap();
        let naive = crate::naive::evaluate(&rules, &edb, &ids(), &BTreeMap::new()).unwrap();
        assert_eq!(out, naive);
        assert_eq!(out["H"].keys().collect::<Vec<_>>(), [Key(1), Key(5)]);
        assert_eq!(out["J"].keys().collect::<Vec<_>>(), [Key(7)]);
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
        // rule 3 grows H, then rule 4 probes it again: the index it probes
        // must reflect the appended rows, and results must match the naive
        // engine exactly.
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

    /// The FK-DECOMPOSE memo rule `T(t, a) ← In(p, a, b), Memo(p, t, a),
    /// {t IS NOT NULL}` and its generator twin `T(t, a) ← In(p, a, b),
    /// ¬Memo(p, _, a), t = gen(a)`.
    fn memo_rules() -> RuleSet {
        let memo = |t: Term| Atom::new("Memo", vec![Term::var("p"), t, Term::var("a")]);
        RuleSet::new(vec![
            Rule::new(
                Atom::vars("T", &["t", "a"]),
                vec![
                    Literal::Pos(Atom::vars("In", &["p", "a", "b"])),
                    Literal::Pos(memo(Term::var("t"))),
                    Literal::Cond(Expr::IsNull(Box::new(Expr::col("t"))).negate()),
                ],
            ),
            Rule::new(
                Atom::vars("T", &["t", "a"]),
                vec![
                    Literal::Pos(Atom::vars("In", &["p", "a", "b"])),
                    Literal::Neg(memo(Term::Anon)),
                    Literal::Skolem {
                        var: "t".into(),
                        generator: "gen".into(),
                        args: vec![Term::var("a")],
                    },
                ],
            ),
        ])
    }

    #[test]
    fn the_witness_order_opens_with_the_tightest_atom() {
        let crs = CompiledRuleSet::compile(&memo_rules()).unwrap();
        let memo_rule = &crs.rules[0];
        // The filter, then `Memo` (t and a bound) before `In` (a bound),
        // which the key `p` from `Memo` then reaches by key.
        assert_eq!(memo_rule.head_seed_order, vec![2, 1, 0]);
        // Every order that enumerates firings keeps naive's schedule.
        assert_eq!(memo_rule.base_order, vec![0, 1, 2]);
        // The generator rule: the peek, then `In`, then the negation.
        assert_eq!(crs.rules[1].head_seed_order, vec![2, 0, 1]);
    }

    /// An EDB that counts its point lookups.
    struct CountingEdb {
        inner: MapEdb,
        by_key: Cell<usize>,
    }

    impl EdbView for CountingEdb {
        fn full(&self, relation: &str) -> Result<Arc<Relation>> {
            self.inner.full(relation)
        }

        fn by_key(&self, relation: &str, key: Key) -> Result<Option<Row>> {
            self.by_key.set(self.by_key.get() + 1);
            self.inner.by_key(relation, key)
        }

        fn contains(&self, relation: &str) -> bool {
            self.inner.contains(relation)
        }
    }

    #[test]
    fn a_survive_check_reads_one_witness_of_fifty() {
        // Fifty `In` rows of author 7, none memoized: each derives `T(t, 7)`
        // through the generator rule, and each is one point lookup of the
        // negated `Memo`.
        let mut input = Relation::with_columns("In", ["a", "b"]);
        for p in 0..50 {
            input
                .insert(Key(p), vec![Value::Int(7), Value::Int(p as i64)])
                .unwrap();
        }
        let mut inner = MapEdb::new();
        inner
            .add(input)
            .add(Relation::with_columns("Memo", ["t", "a"]));
        let edb = CountingEdb {
            inner,
            by_key: Cell::new(0),
        };
        let sk = ids();
        let t = sk.generate("gen", &[Value::Int(7)]);
        let crs = CompiledRuleSet::compile(&memo_rules()).unwrap();
        let ev = Evaluator::witness_search(&edb, &sk);
        let derived = ev.derives_head_tuple(&crs, "T", Key(t), &vec![Value::Int(7)]);
        assert!(derived.unwrap());
        // The memo rule opens with `Memo`, which holds nothing: no `In`
        // row is read for it. The generator rule stops at its first witness.
        assert_eq!(edb.by_key.get(), 1);
    }

    /// An EDB that records every call an evaluation makes of it, in order.
    struct RecordingEdb {
        inner: MapEdb,
        calls: RefCell<Vec<String>>,
    }

    impl RecordingEdb {
        fn new(inner: MapEdb) -> RecordingEdb {
            RecordingEdb {
                inner,
                calls: RefCell::new(Vec::new()),
            }
        }

        fn record(&self, call: String) {
            self.calls.borrow_mut().push(call);
        }
    }

    impl EdbView for RecordingEdb {
        fn full(&self, relation: &str) -> Result<Arc<Relation>> {
            self.record(format!("full {relation}"));
            self.inner.full(relation)
        }

        fn by_key(&self, relation: &str, key: Key) -> Result<Option<Row>> {
            self.record(format!("by_key {relation}#{}", key.0));
            self.inner.by_key(relation, key)
        }

        fn contains(&self, relation: &str) -> bool {
            self.inner.contains(relation)
        }

        fn overlay(&self, relation: &str) -> Result<Option<(Arc<Relation>, &Delta)>> {
            self.record(format!("overlay {relation}"));
            Ok(None)
        }

        fn index(&self, relation: &str, column: usize) -> Result<Arc<ColumnIndex>> {
            self.record(format!("index {relation}.{column}"));
            self.inner.index(relation, column)
        }
    }

    /// ADD COLUMN's γ_tgt over `S(p, a, b)` and `A(p, v)`: `H(p, a, b, v)`
    /// takes `A`'s value, or `default` where `A` holds no row. With
    /// `present_first` the rules come in DROP COLUMN's γ_src order.
    fn pair_rules(present_first: bool, default: Expr) -> RuleSet {
        let head = || Atom::vars("H", &["p", "a", "b", "v"]);
        let data = || Literal::Pos(Atom::vars("S", &["p", "a", "b"]));
        let absent = Rule::new(
            head(),
            vec![
                data(),
                Literal::Neg(Atom::new("A", vec![Term::var("p"), Term::Anon])),
                Literal::Assign {
                    var: "v".into(),
                    expr: default,
                },
            ],
        );
        let present = Rule::new(
            head(),
            vec![data(), Literal::Pos(Atom::vars("A", &["p", "v"]))],
        );
        RuleSet::new(match present_first {
            true => vec![present, absent],
            false => vec![absent, present],
        })
    }

    /// `S(p, a, b)` with `a = k − 1` (zero under key 1) and `b = 10 k` for
    /// keys 1–5, and `A(p, v)` holding `aux_keys`.
    fn pair_edb(aux_keys: &[u64]) -> MapEdb {
        let mut data = Relation::with_columns("S", ["a", "b"]);
        for k in 1..=5u64 {
            let row = vec![Value::Int(k as i64 - 1), Value::Int(10 * k as i64)];
            data.insert(Key(k), row).unwrap();
        }
        let mut aux = Relation::with_columns("A", ["v"]);
        for &k in aux_keys {
            aux.insert(Key(k), vec![Value::Int(100 + k as i64)])
                .unwrap();
        }
        let mut edb = MapEdb::new();
        edb.add(data).add(aux);
        edb
    }

    /// `6 / a`: fails under key 1 of [`pair_edb`].
    fn dividing_default() -> Expr {
        Expr::Binary(
            Box::new(Expr::lit(6)),
            BinaryOp::Div,
            Box::new(Expr::col("a")),
        )
    }

    fn plus_one_default() -> Expr {
        Expr::Binary(
            Box::new(Expr::col("a")),
            BinaryOp::Add,
            Box::new(Expr::lit(1)),
        )
    }

    /// RENAME's copy rule, and ADD COLUMN's γ_src shape: a data head and
    /// an aux head over one relation.
    fn projection_rules() -> RuleSet {
        RuleSet::new(vec![
            Rule::new(
                Atom::vars("H0", &["p", "b", "a"]),
                vec![Literal::Pos(Atom::vars("S", &["p", "a", "b"]))],
            ),
            Rule::new(
                Atom::vars("H1", &["p", "b"]),
                vec![Literal::Pos(Atom::new(
                    "S",
                    vec![Term::var("p"), Term::Anon, Term::var("b")],
                ))],
            ),
        ])
    }

    #[test]
    fn the_column_level_shapes_are_recognized() {
        let kind = |rules: &RuleSet| CompiledRuleSet::compile(rules).unwrap().row_map;
        assert!(matches!(
            kind(&projection_rules()),
            Some(RowMap::Projection(_))
        ));
        for present_first in [false, true] {
            for default in [Expr::lit(7), plus_one_default(), dividing_default()] {
                let Some(RowMap::Pair(pair)) = kind(&pair_rules(present_first, default)) else {
                    panic!("a pair")
                };
                assert_eq!(pair.present, usize::from(!present_first));
                assert_eq!(pair.cells, vec![Some(0), Some(1), None]);
            }
        }
        // The default before the lookup: `[S, assignment, ¬A]`.
        let mut early = pair_rules(false, plus_one_default());
        early.rules[0].body.swap(1, 2);
        assert_eq!(kind(&early), None);
        // `A` walked first: `[A, S]`.
        let mut walked = pair_rules(true, Expr::lit(7));
        walked.rules[0].body.swap(0, 1);
        assert_eq!(kind(&walked), None);
        // A repeated data variable is an equality the row map does not test.
        let mut repeated = pair_rules(true, Expr::lit(7));
        for rule in &mut repeated.rules {
            rule.body[0] = Literal::Pos(Atom::vars("S", &["p", "a", "a"]));
            rule.head = Atom::vars("H", &["p", "a", "a", "v"]);
        }
        assert_eq!(kind(&repeated), None);
    }

    /// The row map and the join over the same inputs, each through its own
    /// recording view: the row map succeeds, derives what the join derives,
    /// and its calls are a prefix of the join's.
    #[test]
    fn a_row_map_makes_a_prefix_of_the_joins_calls() {
        let mut cases = vec![(projection_rules(), pair_edb(&[]))];
        for present_first in [false, true] {
            for default in [Expr::lit(7), plus_one_default(), dividing_default()] {
                // `6 / a` fails under key 1, where `A` holds a row.
                let edb = pair_edb(&[1, 2, 4]);
                cases.push((pair_rules(present_first, default), edb));
            }
        }
        for (rules, edb) in cases {
            let crs = CompiledRuleSet::compile(&rules).unwrap();
            let mapped = RecordingEdb::new(edb.clone());
            let joined = RecordingEdb::new(edb);
            let head_columns = BTreeMap::new();
            let out = evaluate_row_map(&crs, &mapped, &head_columns).expect("a row map");
            let expected = evaluate_by_join(&crs, &joined, &ids(), &head_columns).unwrap();
            assert_eq!(out, expected, "on:\n{rules}");
            let (mapped, joined) = (mapped.calls.into_inner(), joined.calls.into_inner());
            assert!(!mapped.is_empty());
            assert!(
                joined.starts_with(&mapped),
                "{mapped:?} is no prefix of {joined:?} on:\n{rules}"
            );
        }
    }

    #[test]
    fn a_pair_over_no_data_resolves_no_aux() {
        let mut edb = MapEdb::new();
        edb.add(Relation::with_columns("S", ["a", "b"]));
        for present_first in [false, true] {
            let rules = pair_rules(present_first, plus_one_default());
            let crs = CompiledRuleSet::compile(&rules).unwrap();
            let naive = crate::naive::evaluate(&rules, &edb, &ids(), &BTreeMap::new());
            let out = evaluate_row_map(&crs, &edb, &BTreeMap::new()).expect("a row map");
            assert!(out["H"].is_empty());
            assert_eq!(naive, Ok(out));
        }
    }

    #[test]
    fn a_projection_over_the_wrong_arity_raises_naives_error() {
        let mut wide = Relation::with_columns("S", ["a", "b", "c"]);
        wide.insert(Key(1), vec![Value::Int(1), Value::Int(2), Value::Int(3)])
            .unwrap();
        let mut edb = MapEdb::new();
        edb.add(wide);
        let rules = projection_rules();
        let crs = CompiledRuleSet::compile(&rules).unwrap();
        assert_eq!(evaluate_row_map(&crs, &edb, &BTreeMap::new()), None);
        let naive = crate::naive::evaluate(&rules, &edb, &ids(), &BTreeMap::new());
        assert!(matches!(naive, Err(DatalogError::ArityMismatch { .. })));
        assert_eq!(evaluate(&rules, &edb, &ids(), &BTreeMap::new()), naive);
    }

    /// A default is evaluated only where `A` holds no row: under key 1,
    /// where `6 / a` fails, an aux row takes the row map through; without
    /// it the join raises naive's error.
    #[test]
    fn a_default_is_evaluated_only_where_the_aux_has_no_row() {
        for present_first in [false, true] {
            let rules = pair_rules(present_first, dividing_default());
            let crs = CompiledRuleSet::compile(&rules).unwrap();
            for aux_keys in [&[1, 3][..], &[3]] {
                let edb = pair_edb(aux_keys);
                let naive = crate::naive::evaluate(&rules, &edb, &ids(), &BTreeMap::new());
                let mapped = evaluate_row_map(&crs, &edb, &BTreeMap::new());
                assert_eq!(mapped.is_some(), aux_keys.contains(&1));
                assert_eq!(naive.is_ok(), aux_keys.contains(&1));
                assert_eq!(
                    evaluate_compiled(&crs, &edb, &ids(), &BTreeMap::new()),
                    naive
                );
            }
        }
    }

    /// An aux row of another arity and data under a write overlay are
    /// handed to the join.
    #[test]
    fn a_row_map_hands_overlays_and_other_arities_to_the_join() {
        let rules = pair_rules(false, plus_one_default());
        let crs = CompiledRuleSet::compile(&rules).unwrap();
        let mut edb = pair_edb(&[]);
        let mut wide = Relation::with_columns("A", ["v", "w"]);
        wide.insert(Key(2), vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        edb.add(wide);
        assert_eq!(evaluate_row_map(&crs, &edb, &BTreeMap::new()), None);
        let naive = crate::naive::evaluate(&rules, &edb, &ids(), &BTreeMap::new());
        assert!(matches!(naive, Err(DatalogError::ArityMismatch { .. })));
        assert_eq!(
            evaluate_compiled(&crs, &edb, &ids(), &BTreeMap::new()),
            naive
        );

        let edb = pair_edb(&[2]);
        let mut delta = Delta::new();
        delta
            .inserts
            .insert(Key(9), vec![Value::Int(3), Value::Int(4)]);
        let input = BTreeMap::from([("S".to_string(), delta)]);
        let patched = crate::delta::PatchedEdb::new(&edb, &input);
        assert_eq!(evaluate_row_map(&crs, &patched, &BTreeMap::new()), None);
        let naive = crate::naive::evaluate(&rules, &patched, &ids(), &BTreeMap::new());
        assert_eq!(
            evaluate_compiled(&crs, &patched, &ids(), &BTreeMap::new()),
            naive
        );
        assert_eq!(naive.unwrap()["H"].len(), 6);
    }

    /// A key past `i64::MAX` is no head key: the join raises `BadKey` on it,
    /// and both row maps hand it over before they look anything up under it.
    #[test]
    fn a_row_map_hands_a_key_past_i64_max_to_the_join() {
        let mut edb = pair_edb(&[2]);
        let mut data = (*edb.full("S").unwrap()).clone();
        data.insert(Key(u64::MAX), vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        edb.add(data);
        for rules in [projection_rules(), pair_rules(false, plus_one_default())] {
            let crs = CompiledRuleSet::compile(&rules).unwrap();
            assert_eq!(evaluate_row_map(&crs, &edb, &BTreeMap::new()), None);
            let naive = crate::naive::evaluate(&rules, &edb, &ids(), &BTreeMap::new());
            assert!(matches!(naive, Err(DatalogError::BadKey { .. })));
            assert_eq!(evaluate(&rules, &edb, &ids(), &BTreeMap::new()), naive);
        }
    }
}

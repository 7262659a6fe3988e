//! Batch (vectorized) rule evaluation: relational-algebra execution for the
//! large-fan-out paths.
//!
//! The frame machine ([`crate::eval`]) evaluates rules **tuple-at-a-time**:
//! a depth-first join over one mutable frame, re-fetching each literal's
//! relation handle and join index through the (mutex-guarded) view caches at
//! every depth of every candidate. That shape leaves parallel fan-out little
//! to win — per-tuple overhead dominates. This module evaluates the same
//! compiled rules **set-at-a-time**, as a relational-algebra pipeline over
//! whole chunks of the depth-0 scan, which is what MATERIALIZE, cold
//! resolution of deep (possibly fused) chains, and bulk `apply_many`
//! recomputation actually execute.
//!
//! ## Plan shapes
//!
//! Which frame slots are bound when a scheduled literal is reached is fully
//! **static** — `base_order` is fixed at compile time and every literal
//! binds a statically known slot set — so each parallel-safe rule compiles
//! once (`compile_plan`, cached on its [`CompiledRuleSet`]) into a linear
//! op pipeline:
//!
//! * **Scan** — the depth-0 positive atom (unbound key term), chunked into
//!   key ranges exactly like the frame machine's parallel planner;
//! * `PointJoin` — positive atom whose key term is statically
//!   bound: one point lookup per frame;
//! * `HashJoin` — key unbound, some payload column statically
//!   bound: build (or reuse) the relation's [`ColumnIndex`] once per chunk,
//!   probe it per frame in ascending key order;
//! * `ScanJoin` — nothing bound: cross-scan;
//! * `AntiPoint` / `AntiProbe` / `AntiScan`
//!   — the same three shapes as set-membership tests for negation;
//! * `Filter` / `Map` — condition and assignment
//!   literals applied to the whole block.
//!
//! ## Gate taxonomy (what falls back, and why)
//!
//! * `INVERDA_BATCH=off` ([`enabled`]) — everything stays on the frame
//!   machine;
//! * staged or id-minting rule sets — no plan is compiled; they need the
//!   frame machine's strict rule ordering and reservation scopes
//!   ([`CompiledRuleSet::parallel_safe`] is the master gate, enforced by
//!   the caller in [`crate::eval::evaluate_compiled`]);
//! * a rule whose depth-0 literal is not a positive atom, or whose key term
//!   is already bound at depth 0 (a single point lookup), runs as one
//!   frame-machine task inside the batch epilogue;
//! * a depth-0 scan smaller than [`crate::tuning::batch_min_keys`] runs on
//!   the frame machine — nothing to vectorize;
//! * **any error** inside a batch chunk (arity mismatch, bad key in a head,
//!   condition type error, …) discards the chunk's partial block and
//!   replays the chunk tuple-at-a-time, which reproduces the canonical
//!   error — or the canonical tuples — at the canonical position (see
//!   below).
//!
//! ## Determinism contract
//!
//! Batch ≡ frame machine ≡ naive **byte-for-byte** — rows, tuple order,
//! error precedence, registry dumps, key sequences — at every
//! `INVERDA_THREADS` width, warm or cold:
//!
//! * the frame machine explores candidates in **ascending key order** at
//!   every level (scans iterate the `BTreeMap`, index probes return keys
//!   ascending), so processing a block literal-at-a-time while preserving
//!   (frame order × candidate order) yields exactly the depth-first
//!   output sequence;
//! * relations are fetched **lazily, once per (literal, chunk)** and only
//!   while the block is non-empty — the same first-touch conditions and
//!   order as the frame machine, so lazy cold resolution (and any id
//!   minting it performs) happens in the canonical sequence;
//! * errors surface in literal-at-a-time order, which differs from
//!   depth-first order — so an erroring chunk is **replayed on the frame
//!   machine** (`Evaluator::chunk_head_tuples`), whose first error is
//!   canonical by construction. Workers are pure (no minting), so replay
//!   is free of side effects;
//! * the multi-threaded path reuses the deterministic **rule-then-chunk
//!   merge epilogue** of the frame machine's parallel mode: fragments are
//!   emitted in rule order then chunk order, each rule's fragment errors
//!   drained (in task order) before any of its tuples is emitted.
//!
//! The differential oracles (`tests/batch_props.rs`,
//! `tests/compiled_vs_naive.rs`, and the core crate's fusion/snapshot
//! suites) randomize the knob against widths and warm/cold stores to hold
//! the engine to this.

use crate::error::DatalogError;
use crate::eval::{
    check_arity, head_tuple, undo, unify_atom, value_key, CLit, CTerm, CompiledRule,
    CompiledRuleSet, EdbView, Evaluator, FrameCtx, NO_MINT_IDS,
};
use crate::Result;
#[cfg(doc)]
use inverda_storage::ColumnIndex;
use inverda_storage::{Key, Relation, Row, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// The knob
// ---------------------------------------------------------------------------

/// Runtime override of the knob: 0 = not set, 1 = on, 2 = off.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Chunks executed by the vectorized pipeline since process start (the
/// engagement counter the tests and benches read).
static EXECS: AtomicUsize = AtomicUsize::new(0);

/// `INVERDA_BATCH`, read once per process: [`enabled`] is asked per rule
/// evaluation, and `std::env::var` takes the process-wide environment lock
/// and allocates. Panics on an unknown spelling rather than letting a typo
/// silently mean "on".
fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| crate::tuning::env_switch("INVERDA_BATCH", true))
}

/// Whether batch execution is enabled: a [`set_enabled`] override, else the
/// `INVERDA_BATCH` environment variable as the process found it at first
/// use (`on`/`1`/`true`/`yes`, `off`/`0`/`false`/`no`), else **on**.
/// Disabled batch execution runs exactly the tuple-at-a-time frame machine
/// that existed before this module landed.
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_enabled(),
    }
}

/// Override the knob at runtime (benchmarks toggle it per measurement; the
/// differential property tests randomize it per case). `None` restores the
/// `INVERDA_BATCH` / default-on behavior.
pub fn set_enabled(on: Option<bool>) {
    OVERRIDE.store(
        match on {
            Some(true) => 1,
            Some(false) => 2,
            None => 0,
        },
        Ordering::Relaxed,
    );
}

/// Number of chunks the vectorized pipeline has executed since process
/// start. Monotonic; used by tests and benches to assert the batch path
/// actually engaged (a differential test that silently compares the frame
/// machine against itself proves nothing).
pub fn execs() -> usize {
    EXECS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Plan compilation
// ---------------------------------------------------------------------------

/// One vectorized pipeline stage; `lit` indexes the rule's body.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BatchOp {
    /// Positive atom, key term statically bound: point lookup per frame.
    PointJoin {
        /// Body literal index.
        lit: usize,
    },
    /// Positive atom, key unbound, payload column `col` statically bound:
    /// build/reuse the column index once, probe per frame.
    HashJoin {
        /// Body literal index.
        lit: usize,
        /// Probe column (payload position, 0-based).
        col: usize,
    },
    /// Positive atom with nothing bound: cross-scan.
    ScanJoin {
        /// Body literal index.
        lit: usize,
    },
    /// Negated atom, key statically bound: point existence check.
    AntiPoint {
        /// Body literal index.
        lit: usize,
    },
    /// Negated atom, payload column statically bound: index existence probe.
    AntiProbe {
        /// Body literal index.
        lit: usize,
        /// Probe column (payload position, 0-based).
        col: usize,
    },
    /// Negated atom with nothing bound: scan existence check.
    AntiScan {
        /// Body literal index.
        lit: usize,
    },
    /// Condition literal: set-based filter over the block.
    Filter {
        /// Body literal index.
        lit: usize,
    },
    /// Assignment literal: compute-and-bind (or equality-check) per frame.
    Map {
        /// Body literal index.
        lit: usize,
    },
}

/// The static batch plan of a rule set: per rule, the op pipeline following
/// the chunkable depth-0 scan, or `None` when the rule must run on the
/// frame machine (non-scan depth 0, key-bound depth 0, or a skolem
/// literal). Compiled once in [`CompiledRuleSet::compile`] and carried by
/// the compiled set, so the core crate's compiled-store cache serves plans
/// for free.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    pub(crate) rules: Vec<Option<Vec<BatchOp>>>,
}

/// Compile the batch plan for a set of compiled rules. Returns `None` when
/// no rule is batchable (the caller then skips batch execution entirely).
pub(crate) fn compile_plan(rules: &[CompiledRule]) -> Option<BatchPlan> {
    let per_rule: Vec<Option<Vec<BatchOp>>> = rules.iter().map(plan_rule).collect();
    if per_rule.iter().all(Option::is_none) {
        return None;
    }
    Some(BatchPlan { rules: per_rule })
}

/// Derive one rule's op pipeline from its scheduled `base_order` by static
/// binding analysis: replay the schedule over a bound-slot set (every
/// literal binds a statically known slot set, so "which probe shape the
/// frame machine would pick" is a compile-time fact).
fn plan_rule(rule: &CompiledRule) -> Option<Vec<BatchOp>> {
    let (&first, rest) = rule.base_order.split_first()?;
    let CLit::Pos(atom0) = &rule.body[first] else {
        return None;
    };
    if matches!(atom0.terms[0], CTerm::Const(_)) {
        // Key-bound depth 0 is a single point lookup — nothing to chunk.
        return None;
    }
    let mut bound = vec![false; rule.n_vars];
    bind_atom_slots(&atom0.terms, &mut bound);
    let mut ops = Vec::with_capacity(rest.len());
    for &li in rest {
        let op = match &rule.body[li] {
            CLit::Pos(atom) => {
                let op = if term_bound(&atom.terms[0], &bound) {
                    BatchOp::PointJoin { lit: li }
                } else if let Some(col) = probe_col(&atom.terms, &bound) {
                    BatchOp::HashJoin { lit: li, col }
                } else {
                    BatchOp::ScanJoin { lit: li }
                };
                bind_atom_slots(&atom.terms, &mut bound);
                op
            }
            // Negation and conditions require their slots bound to be
            // schedulable, so they bind nothing new.
            CLit::Neg(atom) => {
                if term_bound(&atom.terms[0], &bound) {
                    BatchOp::AntiPoint { lit: li }
                } else if let Some(col) = probe_col(&atom.terms, &bound) {
                    BatchOp::AntiProbe { lit: li, col }
                } else {
                    BatchOp::AntiScan { lit: li }
                }
            }
            CLit::Cond { .. } => BatchOp::Filter { lit: li },
            CLit::Assign { slot, .. } => {
                bound[*slot] = true;
                BatchOp::Map { lit: li }
            }
            // Minting rules never batch (the set-level gate already
            // excludes them; be defensive anyway).
            CLit::Skolem { .. } => return None,
        };
        ops.push(op);
    }
    Some(ops)
}

/// Whether a term resolves to a value under the static bound-slot set —
/// the compile-time mirror of `CTerm::resolved`.
fn term_bound(t: &CTerm, bound: &[bool]) -> bool {
    match t {
        CTerm::Const(_) => true,
        CTerm::Var(s) => bound[*s],
        CTerm::Anon => false,
    }
}

/// First payload column whose term statically resolves — the compile-time
/// mirror of `CAtom::bound_payload` (identical because unscheduled slots
/// are `None` in every runtime frame).
fn probe_col(terms: &[CTerm], bound: &[bool]) -> Option<usize> {
    terms[1..].iter().position(|t| term_bound(t, bound))
}

/// A successful unification binds every variable position of the atom.
fn bind_atom_slots(terms: &[CTerm], bound: &mut [bool]) {
    for t in terms {
        if let CTerm::Var(s) = t {
            bound[*s] = true;
        }
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// The batch fast path of [`crate::eval::evaluate_compiled`], tried first
/// for parallel-safe sets. `Ok(None)` means "stay on the frame machine"
/// (knob off, or no batchable rule). `Ok(Some(..))` is byte-identical —
/// rows, tuple order, error precedence — to the frame machine at every
/// width.
///
/// At width ≥ 2 over a view that passed [`EdbView::prepare_parallel`], the
/// chunks fan out on the shared pool with the deterministic rule-then-chunk
/// merge epilogue; otherwise the pipeline runs single-threaded, which still
/// amortizes relation/index fetches from per-tuple to per-chunk.
pub fn try_evaluate(
    crs: &CompiledRuleSet,
    edb: &dyn EdbView,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<Option<BTreeMap<String, Relation>>> {
    if !enabled() {
        return Ok(None);
    }
    let Some(plan) = crs.batch_plan() else {
        return Ok(None);
    };
    debug_assert!(
        crs.parallel_safe(),
        "plans exist only for parallel-safe sets"
    );
    let width = crate::parallel::threads();
    if width >= 2 && edb.prepare_parallel(&crs.body_relations())? {
        return evaluate_parallel(crs, plan, edb, head_columns, width).map(Some);
    }
    evaluate_sequential(crs, plan, edb, head_columns).map(Some)
}

/// One unit of batch work (mirrors the frame machine's parallel task split).
enum Task {
    /// Whole rule on the frame machine (unbatchable rule, planning error to
    /// reproduce canonically, or a scan below the size gate).
    Whole(usize),
    /// One contiguous chunk of a rule's depth-0 candidates through the
    /// vectorized pipeline.
    Chunk {
        rule: usize,
        lit: usize,
        rel: Arc<Relation>,
        keys: Arc<Vec<Key>>,
        range: (usize, usize),
    },
}

impl Task {
    fn rule(&self) -> usize {
        match self {
            Task::Whole(rule) | Task::Chunk { rule, .. } => *rule,
        }
    }
}

/// Chunk-parallel batch evaluation over a prepared (side-effect-free) view,
/// with the deterministic rule-then-chunk merge epilogue: fragments are
/// emitted in rule order then chunk order, and each rule's fragment errors
/// are drained (in task order) before any of its tuples is emitted — the
/// width-1 engine computes a whole rule's tuples before its first emit, so
/// a join error anywhere in a rule precedes an emit-time `KeyConflict` of
/// that rule's earlier fragments.
fn evaluate_parallel(
    crs: &CompiledRuleSet,
    plan: &BatchPlan,
    edb: &dyn EdbView,
    head_columns: &BTreeMap<String, Vec<String>>,
    width: usize,
) -> Result<BTreeMap<String, Relation>> {
    let min_keys = crate::tuning::batch_min_keys();
    let mut tasks: Vec<Task> = Vec::new();
    for (ri, rule) in crs.rules.iter().enumerate() {
        // Planning failures (unbound relation, arity mismatch) fall back to
        // a Whole task whose sequential join raises the canonical error.
        let scan = match plan.rules[ri] {
            Some(_) => Evaluator::new(edb, &NO_MINT_IDS)
                .plan_chunk_scan(rule)
                .unwrap_or(None),
            None => None,
        };
        match scan {
            Some((lit, rel, keys)) if keys.len() >= min_keys => {
                for range in crate::parallel::chunk_ranges(keys.len(), width) {
                    tasks.push(Task::Chunk {
                        rule: ri,
                        lit,
                        rel: Arc::clone(&rel),
                        keys: Arc::clone(&keys),
                        range,
                    });
                }
            }
            _ => tasks.push(Task::Whole(ri)),
        }
    }

    // Workers are pure: they share the prepared view, mint nothing, and
    // each produces an ordered fragment of one rule's head tuples.
    let results: Vec<Result<Vec<(Key, Row)>>> = crate::parallel::map_indexed(tasks.len(), |ti| {
        let ev = Evaluator::new(edb, &NO_MINT_IDS);
        match &tasks[ti] {
            Task::Whole(ri) => {
                let rule = &crs.rules[*ri];
                ev.rule_head_tuples(rule, &rule.base_order, None)
            }
            Task::Chunk {
                rule,
                lit,
                rel,
                keys,
                range,
            } => {
                let ops = plan.rules[*rule]
                    .as_ref()
                    .expect("chunk tasks exist only for planned rules");
                run_chunk(
                    &ev,
                    &crs.rules[*rule],
                    ops,
                    *lit,
                    rel,
                    &keys[range.0..range.1],
                )
            }
        }
    });

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
    Ok(ev.into_derived())
}

/// Single-threaded batch evaluation (width 1, or a view that cannot be
/// shared with workers). Rules run strictly in order and each rule's scan
/// is planned immediately before it executes, so a lazy view's cold
/// resolutions — and any ids they mint — happen in exactly the sequential
/// first-touch order.
fn evaluate_sequential(
    crs: &CompiledRuleSet,
    plan: &BatchPlan,
    edb: &dyn EdbView,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<BTreeMap<String, Relation>> {
    let min_keys = crate::tuning::batch_min_keys();
    let mut ev = Evaluator::new(edb, &NO_MINT_IDS);
    for (ri, rule) in crs.rules.iter().enumerate() {
        ev.ensure_head(&rule.head.relation, rule.head.terms.len() - 1, head_columns);
        let scan = match plan.rules[ri] {
            Some(_) => ev.plan_chunk_scan(rule).unwrap_or(None),
            None => None,
        };
        let tuples = match (scan, plan.rules[ri].as_ref()) {
            (Some((lit, rel, keys)), Some(ops)) if keys.len() >= min_keys => {
                run_chunk(&ev, rule, ops, lit, &rel, &keys)?
            }
            _ => ev.rule_head_tuples(rule, &rule.base_order, None)?,
        };
        for (key, row) in tuples {
            ev.emit(&rule.head.relation, key, row)?;
        }
    }
    Ok(ev.into_derived())
}

/// Execute one chunk through the vectorized pipeline; on **any** error,
/// discard the partial block and replay the chunk tuple-at-a-time, which
/// reproduces the canonical depth-first error — or, if the batch error was
/// an artifact of literal-at-a-time ordering, the canonical tuples.
fn run_chunk(
    ev: &Evaluator<'_>,
    rule: &CompiledRule,
    ops: &[BatchOp],
    lit0: usize,
    rel0: &Relation,
    keys: &[Key],
) -> Result<Vec<(Key, Row)>> {
    EXECS.fetch_add(1, Ordering::Relaxed);
    match exec_chunk(ev, rule, ops, lit0, rel0, keys) {
        Ok(tuples) => Ok(tuples),
        Err(_) => ev.chunk_head_tuples(rule, lit0, rel0, keys),
    }
}

/// The error used when a frame violates the static binding analysis (a
/// slot the plan proved bound is unbound). Unreachable by construction;
/// if it ever fires, the caller replays the chunk canonically.
fn static_bind_violation(rule: &CompiledRule) -> DatalogError {
    DatalogError::UnsafeRule {
        rule: rule.display.clone(),
    }
}

/// A block of frames in one flat row-major buffer (`rows × n_vars`): the
/// chunk's whole intermediate state costs one allocation instead of one
/// per frame, and non-multiplying stages compact it **in place** — per-row
/// work stays at the frame machine's bind cost, so set-at-a-time execution
/// profits from its amortized fetches instead of paying them back in
/// `malloc` traffic.
struct Block {
    buf: Vec<Option<Value>>,
    n_vars: usize,
    rows: usize,
}

impl Block {
    fn new(n_vars: usize, rows_hint: usize) -> Self {
        Block {
            buf: Vec::with_capacity(n_vars * rows_hint),
            n_vars,
            rows: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn frame(&self, i: usize) -> &[Option<Value>] {
        &self.buf[i * self.n_vars..(i + 1) * self.n_vars]
    }

    fn frame_mut(&mut self, i: usize) -> &mut [Option<Value>] {
        let n = self.n_vars;
        &mut self.buf[i * n..(i + 1) * n]
    }

    /// Append an all-unbound frame and return it for in-place unification.
    fn push_unbound(&mut self) -> &mut [Option<Value>] {
        self.buf.resize(self.buf.len() + self.n_vars, None);
        self.rows += 1;
        let start = self.buf.len() - self.n_vars;
        &mut self.buf[start..]
    }

    /// Append a copy of a source frame (a multi-match join output).
    fn push_clone(&mut self, src: &[Option<Value>]) -> &mut [Option<Value>] {
        self.buf.extend_from_slice(src);
        self.rows += 1;
        let start = self.buf.len() - self.n_vars;
        &mut self.buf[start..]
    }

    /// Append by **moving** a source frame's values out (the final match of
    /// a join input — the common single-match probe never clones).
    fn push_move(&mut self, src: &mut [Option<Value>]) -> &mut [Option<Value>] {
        self.buf.extend(src.iter_mut().map(std::mem::take));
        self.rows += 1;
        let start = self.buf.len() - self.n_vars;
        &mut self.buf[start..]
    }

    /// Drop the most recently appended frame (failed unification).
    fn pop(&mut self) {
        self.buf.truncate(self.buf.len() - self.n_vars);
        self.rows -= 1;
    }

    /// Compaction step: move row `from` down into slot `to` (`to < from`).
    fn move_row(&mut self, from: usize, to: usize) {
        let n = self.n_vars;
        for j in 0..n {
            self.buf[to * n + j] = std::mem::take(&mut self.buf[from * n + j]);
        }
    }

    /// Keep only the first `rows` rows after a compaction sweep.
    fn truncate_rows(&mut self, rows: usize) {
        self.buf.truncate(rows * self.n_vars);
        self.rows = rows;
    }
}

/// The vectorized pipeline over one chunk of depth-0 candidates: a flat
/// [`Block`] of frames flows through the ops literal-at-a-time. Each stage
/// preserves (frame order × ascending candidate order), which equals the
/// frame machine's depth-first output order; relations and indexes are
/// fetched once per (literal, chunk), and only while the block is
/// non-empty — the frame machine's lazy first-touch behavior, amortized.
fn exec_chunk(
    ev: &Evaluator<'_>,
    rule: &CompiledRule,
    ops: &[BatchOp],
    lit0: usize,
    rel0: &Relation,
    keys: &[Key],
) -> Result<Vec<(Key, Row)>> {
    let CLit::Pos(atom0) = &rule.body[lit0] else {
        unreachable!("chunk tasks are planned on positive atoms only")
    };
    // Scan stage: materialize the chunk's seed block. `select_rows` walks
    // dense ascending selections by a single in-order merge instead of
    // per-key tree probes (chunk key slices are always ascending).
    let mut block = Block::new(rule.n_vars, keys.len());
    let mut trail: Vec<usize> = Vec::with_capacity(rule.n_vars);
    rel0.select_rows(keys, |key, row| {
        trail.clear();
        if !unify_atom(atom0, key, row, block.push_unbound(), &mut trail) {
            block.pop();
        }
    });

    for op in ops {
        if block.is_empty() {
            // No frame reaches the remaining literals: like the frame
            // machine, never fetch their relations (no arity errors, no
            // cold resolution).
            break;
        }
        match op {
            BatchOp::PointJoin { lit } => {
                let CLit::Pos(atom) = &rule.body[*lit] else {
                    unreachable!("PointJoin is planned on positive atoms")
                };
                let mut write = 0;
                for read in 0..block.rows {
                    let key = match atom.terms[0].resolved(block.frame(read)) {
                        Some(kv) => match value_key(&atom.relation, kv) {
                            Ok(key) => key,
                            // A non-key value (e.g. NULL from an ω fk)
                            // matches nothing.
                            Err(_) => continue,
                        },
                        None => return Err(static_bind_violation(rule)),
                    };
                    let keep = match ev.relation_by_key(&atom.relation, key)? {
                        Some(row) => {
                            check_arity(atom, row.len() + 1)?;
                            trail.clear();
                            unify_atom(atom, key, &row, block.frame_mut(read), &mut trail)
                        }
                        None => false,
                    };
                    if keep {
                        if write != read {
                            block.move_row(read, write);
                        }
                        write += 1;
                    }
                }
                block.truncate_rows(write);
            }
            BatchOp::HashJoin { lit, col } => {
                let CLit::Pos(atom) = &rule.body[*lit] else {
                    unreachable!("HashJoin is planned on positive atoms")
                };
                let rel = ev.relation_full(&atom.relation)?;
                check_arity(atom, rel.schema().arity() + 1)?;
                let index = ev.index_for(&atom.relation, *col)?;
                let mut next = Block::new(rule.n_vars, block.rows);
                let mut cands: Vec<(Key, &Row)> = Vec::new();
                for i in 0..block.rows {
                    let value = match atom.terms[*col + 1].resolved(block.frame(i)) {
                        Some(v) => v.clone(),
                        None => return Err(static_bind_violation(rule)),
                    };
                    cands.clear();
                    cands.extend(
                        index
                            .keys_for(&value)
                            .iter()
                            .filter_map(|&k| rel.get(k).map(|r| (k, r))),
                    );
                    // All candidates but the last clone the input frame;
                    // the last moves it.
                    if let Some(((last_key, last_row), rest)) = cands.split_last() {
                        for &(k, r) in rest {
                            trail.clear();
                            if !unify_atom(atom, k, r, next.push_clone(block.frame(i)), &mut trail)
                            {
                                next.pop();
                            }
                        }
                        trail.clear();
                        let dst = next.push_move(block.frame_mut(i));
                        if !unify_atom(atom, *last_key, last_row, dst, &mut trail) {
                            next.pop();
                        }
                    }
                }
                block = next;
            }
            BatchOp::ScanJoin { lit } => {
                let CLit::Pos(atom) = &rule.body[*lit] else {
                    unreachable!("ScanJoin is planned on positive atoms")
                };
                let rel = ev.relation_full(&atom.relation)?;
                check_arity(atom, rel.schema().arity() + 1)?;
                let mut next = Block::new(rule.n_vars, block.rows);
                for i in 0..block.rows {
                    for (key, row) in rel.iter() {
                        trail.clear();
                        if !unify_atom(atom, key, row, next.push_clone(block.frame(i)), &mut trail)
                        {
                            next.pop();
                        }
                    }
                }
                block = next;
            }
            BatchOp::AntiPoint { lit } => {
                let CLit::Neg(atom) = &rule.body[*lit] else {
                    unreachable!("AntiPoint is planned on negated atoms")
                };
                let mut write = 0;
                for read in 0..block.rows {
                    let key = match atom.terms[0].resolved(block.frame(read)) {
                        Some(kv) => value_key(&atom.relation, kv).ok(),
                        None => return Err(static_bind_violation(rule)),
                    };
                    let matched = match key {
                        // Non-key values match nothing: negation succeeds.
                        None => false,
                        Some(key) => match ev.relation_by_key(&atom.relation, key)? {
                            None => false,
                            Some(row) => {
                                trail.clear();
                                let frame = block.frame_mut(read);
                                let m = unify_atom(atom, key, &row, frame, &mut trail);
                                undo(frame, &mut trail, 0);
                                m
                            }
                        },
                    };
                    if !matched {
                        if write != read {
                            block.move_row(read, write);
                        }
                        write += 1;
                    }
                }
                block.truncate_rows(write);
            }
            BatchOp::AntiProbe { lit, col } => {
                let CLit::Neg(atom) = &rule.body[*lit] else {
                    unreachable!("AntiProbe is planned on negated atoms")
                };
                let rel = ev.relation_full(&atom.relation)?;
                check_arity(atom, rel.schema().arity() + 1)?;
                let index = ev.index_for(&atom.relation, *col)?;
                let mut write = 0;
                for read in 0..block.rows {
                    let value = match atom.terms[*col + 1].resolved(block.frame(read)) {
                        Some(v) => v.clone(),
                        None => return Err(static_bind_violation(rule)),
                    };
                    let mut matched = false;
                    for &key in index.keys_for(&value) {
                        let Some(row) = rel.get(key) else { continue };
                        trail.clear();
                        let frame = block.frame_mut(read);
                        let m = unify_atom(atom, key, row, frame, &mut trail);
                        undo(frame, &mut trail, 0);
                        if m {
                            matched = true;
                            break;
                        }
                    }
                    if !matched {
                        if write != read {
                            block.move_row(read, write);
                        }
                        write += 1;
                    }
                }
                block.truncate_rows(write);
            }
            BatchOp::AntiScan { lit } => {
                let CLit::Neg(atom) = &rule.body[*lit] else {
                    unreachable!("AntiScan is planned on negated atoms")
                };
                let rel = ev.relation_full(&atom.relation)?;
                check_arity(atom, rel.schema().arity() + 1)?;
                let mut write = 0;
                for read in 0..block.rows {
                    let mut matched = false;
                    for (key, row) in rel.iter() {
                        trail.clear();
                        let frame = block.frame_mut(read);
                        let m = unify_atom(atom, key, row, frame, &mut trail);
                        undo(frame, &mut trail, 0);
                        if m {
                            matched = true;
                            break;
                        }
                    }
                    if !matched {
                        if write != read {
                            block.move_row(read, write);
                        }
                        write += 1;
                    }
                }
                block.truncate_rows(write);
            }
            BatchOp::Filter { lit } => {
                let CLit::Cond { expr, cols } = &rule.body[*lit] else {
                    unreachable!("Filter is planned on condition literals")
                };
                let mut write = 0;
                for read in 0..block.rows {
                    let keep = {
                        let ctx = FrameCtx {
                            cols,
                            frame: block.frame(read),
                        };
                        expr.matches(&ctx).map_err(DatalogError::from)?
                    };
                    if keep {
                        if write != read {
                            block.move_row(read, write);
                        }
                        write += 1;
                    }
                }
                block.truncate_rows(write);
            }
            BatchOp::Map { lit } => {
                let CLit::Assign { slot, expr, cols } = &rule.body[*lit] else {
                    unreachable!("Map is planned on assignment literals")
                };
                let mut write = 0;
                for read in 0..block.rows {
                    let v = {
                        let ctx = FrameCtx {
                            cols,
                            frame: block.frame(read),
                        };
                        expr.eval(&ctx).map_err(DatalogError::from)?
                    };
                    // Assignment acts as an equality check when bound —
                    // statically uniform across the block either way.
                    let slot_value = &mut block.frame_mut(read)[*slot];
                    let keep = match slot_value {
                        Some(bound) => *bound == v,
                        None => {
                            *slot_value = Some(v);
                            true
                        }
                    };
                    if keep {
                        if write != read {
                            block.move_row(read, write);
                        }
                        write += 1;
                    }
                }
                block.truncate_rows(write);
            }
        }
    }

    let mut out = Vec::with_capacity(block.rows);
    for i in 0..block.rows {
        out.push(head_tuple(rule, block.frame(i))?);
    }
    Ok(out)
}

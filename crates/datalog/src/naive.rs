//! The naive, name-based rule interpreter — kept as the **reference oracle**
//! for the compiled evaluator in [`crate::eval`].
//!
//! This is the original evaluation engine of the reproduction: bindings are
//! `BTreeMap<String, Value>` cloned at every join depth, and positive atoms
//! without a bound key term fall back to a full scan of the relation. It is
//! deliberately simple and obviously faithful to the paper's rule semantics
//! (Section 4), which makes it the right yardstick: the differential property
//! tests in `tests/compiled_vs_naive.rs` assert that the compiled engine
//! computes *exactly* the same derived relations (including memoized skolem
//! identifiers, whose assignment depends on evaluation order).
//!
//! Production code paths never use this module; they go through
//! [`crate::eval`].

use crate::ast::{Atom, Literal, Rule, RuleSet, Term};
use crate::error::DatalogError;
use crate::eval::{key_value, patch_relation, value_key, EdbView, IdSource, ReservingIds};
use crate::skolem;
use crate::Result;
use inverda_storage::{Key, Relation, Row, RowContext, TableSchema, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Variable bindings during naive rule evaluation.
pub type Bindings = BTreeMap<String, Value>;

struct BindingsCtx<'a>(&'a Bindings);

impl RowContext for BindingsCtx<'_> {
    fn value_of(&self, column: &str) -> Option<Value> {
        self.0.get(column).cloned()
    }
}

/// Evaluate a rule set bottom-up against an EDB with the naive interpreter.
///
/// Semantics are identical to [`crate::eval::evaluate`]; see the module docs
/// for why this copy exists. Id-minting rule sets go through the same
/// two-phase reserve-then-commit cycle as the compiled engine (see
/// [`crate::skolem`]): skolem calls reserve placeholders during the join,
/// the commit epilogue mints real ids in reservation order (which equals
/// the compiled engine's merge order), and the placeholders are patched out
/// of the derived relations — so both engines stay byte-identical including
/// minted ids.
pub fn evaluate(
    rules: &RuleSet,
    edb: &dyn EdbView,
    ids: &dyn IdSource,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<BTreeMap<String, Relation>> {
    let mints = rules
        .rules
        .iter()
        .any(|r| r.body.iter().any(|l| matches!(l, Literal::Skolem { .. })));
    if !mints {
        let mut ev = Evaluator::new(edb, ids);
        run_rules(&mut ev, rules, head_columns)?;
        return Ok(ev.derived);
    }
    let reserving = ReservingIds::new(ids, skolem::SCOPE_EVAL);
    let derived = {
        let mut ev = Evaluator::new(edb, &reserving);
        run_rules(&mut ev, rules, head_columns)?;
        ev.derived
    };
    let patch = reserving.commit();
    if patch.is_empty() {
        return Ok(derived);
    }
    derived
        .into_iter()
        .map(|(name, rel)| patch_relation(rel, &patch).map(|rel| (name, rel)))
        .collect()
}

/// The shared bottom-up loop: rules in order, each rule's complete binding
/// sets emitted in exploration order.
fn run_rules(
    ev: &mut Evaluator<'_>,
    rules: &RuleSet,
    head_columns: &BTreeMap<String, Vec<String>>,
) -> Result<()> {
    for rule in &rules.rules {
        ev.ensure_head(&rule.head.relation, rule.head.terms.len() - 1, head_columns);
        let results = ev.eval_rule(rule, None, &Bindings::new())?;
        for bindings in results {
            ev.emit(rule, &bindings)?;
        }
    }
    Ok(())
}

/// The naive evaluation engine. Holds derived heads (which shadow the EDB)
/// and a memo for key-seeded head evaluation.
pub struct Evaluator<'a> {
    edb: &'a dyn EdbView,
    ids: &'a dyn IdSource,
    /// Fully evaluated heads (full evaluation mode).
    pub derived: BTreeMap<String, Relation>,
    by_key_memo: BTreeMap<(String, Key), Option<Row>>,
}

enum RelHandle<'a> {
    Borrowed(&'a Relation),
    Shared(Arc<Relation>),
}

impl std::ops::Deref for RelHandle<'_> {
    type Target = Relation;

    fn deref(&self) -> &Relation {
        match self {
            RelHandle::Borrowed(r) => r,
            RelHandle::Shared(r) => r,
        }
    }
}

impl<'a> Evaluator<'a> {
    /// New naive evaluator over an EDB.
    pub fn new(edb: &'a dyn EdbView, ids: &'a dyn IdSource) -> Self {
        Evaluator {
            edb,
            ids,
            derived: BTreeMap::new(),
            by_key_memo: BTreeMap::new(),
        }
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
            self.derived.insert(head.to_string(), Relation::new(schema));
        }
    }

    /// Add the head tuple induced by complete `bindings` to the derived head.
    fn emit(&mut self, rule: &Rule, bindings: &Bindings) -> Result<()> {
        let (key, row) = head_tuple(rule, bindings)?;
        let rel = self
            .derived
            .get_mut(&rule.head.relation)
            .expect("head relation pre-created");
        match rel.get(key) {
            Some(existing) if *existing == row => Ok(()),
            Some(_) => Err(DatalogError::KeyConflict {
                relation: rule.head.relation.clone(),
                key: key.0,
            }),
            None => {
                rel.upsert(key, row).map_err(DatalogError::from)?;
                Ok(())
            }
        }
    }

    /// Resolve a relation for matching: derived heads shadow the EDB.
    fn relation_full(&self, name: &str) -> Result<RelHandle<'_>> {
        if let Some(rel) = self.derived.get(name) {
            return Ok(RelHandle::Borrowed(rel));
        }
        Ok(RelHandle::Shared(self.edb.full(name)?))
    }

    fn relation_by_key(&self, name: &str, key: Key) -> Result<Option<Row>> {
        if let Some(rel) = self.derived.get(name) {
            return Ok(rel.get(key).cloned());
        }
        self.edb.by_key(name, key)
    }

    /// All bindings satisfying the rule body, with `skip` (a body literal
    /// index) excluded and `seed` pre-bound. Returns complete binding sets
    /// (every rule variable bound).
    pub fn eval_rule(
        &mut self,
        rule: &Rule,
        skip: Option<usize>,
        seed: &Bindings,
    ) -> Result<Vec<Bindings>> {
        let order = schedule(rule, skip, seed)?;
        let mut results = Vec::new();
        self.join(rule, &order, 0, seed.clone(), &mut results)?;
        Ok(results)
    }

    fn join(
        &mut self,
        rule: &Rule,
        order: &[usize],
        depth: usize,
        bindings: Bindings,
        out: &mut Vec<Bindings>,
    ) -> Result<()> {
        if depth == order.len() {
            out.push(bindings);
            return Ok(());
        }
        let lit = &rule.body[order[depth]];
        match lit {
            Literal::Pos(atom) => {
                let matches = self.match_atom(atom, &bindings)?;
                for b in matches {
                    self.join(rule, order, depth + 1, b, out)?;
                }
            }
            Literal::Neg(atom) => {
                if !self.atom_has_match(atom, &bindings)? {
                    self.join(rule, order, depth + 1, bindings, out)?;
                }
            }
            Literal::Cond(expr) => {
                if expr
                    .matches(&BindingsCtx(&bindings))
                    .map_err(DatalogError::from)?
                {
                    self.join(rule, order, depth + 1, bindings, out)?;
                }
            }
            Literal::Assign { var, expr } => {
                let v = expr
                    .eval(&BindingsCtx(&bindings))
                    .map_err(DatalogError::from)?;
                match bindings.get(var) {
                    Some(bound) if *bound == v => {
                        self.join(rule, order, depth + 1, bindings, out)?
                    }
                    Some(_) => {} // equality check failed
                    None => {
                        let mut b = bindings;
                        b.insert(var.clone(), v);
                        self.join(rule, order, depth + 1, b, out)?;
                    }
                }
            }
            Literal::Skolem {
                var,
                generator,
                args,
            } => {
                let mut vals = Vec::with_capacity(args.len());
                for t in args {
                    match t {
                        Term::Var(name) => match bindings.get(name) {
                            Some(v) => vals.push(v.clone()),
                            None => {
                                return Err(DatalogError::UnsafeRule {
                                    rule: rule.to_string(),
                                })
                            }
                        },
                        Term::Const(c) => vals.push(c.clone()),
                        Term::Anon => {
                            return Err(DatalogError::UnsafeRule {
                                rule: rule.to_string(),
                            })
                        }
                    }
                }
                let id = self.ids.generate(generator, &vals);
                let v = Value::Int(id as i64);
                match bindings.get(var) {
                    Some(bound) if *bound == v => {
                        self.join(rule, order, depth + 1, bindings, out)?
                    }
                    Some(_) => {}
                    None => {
                        let mut b = bindings;
                        b.insert(var.clone(), v);
                        self.join(rule, order, depth + 1, b, out)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// All binding extensions matching a positive atom.
    fn match_atom(&mut self, atom: &Atom, bindings: &Bindings) -> Result<Vec<Bindings>> {
        // Key-bound fast path.
        if let Some(kv) = resolved_term(&atom.terms[0], bindings) {
            // A non-key value (e.g. NULL from an ω fk) matches nothing.
            let Ok(key) = value_key(&atom.relation, &kv) else {
                return Ok(Vec::new());
            };
            let row = self.relation_by_key(&atom.relation, key)?;
            let mut out = Vec::new();
            if let Some(row) = row {
                check_arity(atom, row.len() + 1)?;
                if let Some(b) = unify_row(atom, key, &row, bindings) {
                    out.push(b);
                }
            }
            return Ok(out);
        }
        let rel = self.relation_full(&atom.relation)?;
        check_arity(atom, rel.schema().arity() + 1)?;
        let mut out = Vec::new();
        for (key, row) in rel.iter() {
            if let Some(b) = unify_row(atom, key, row, bindings) {
                out.push(b);
            }
        }
        Ok(out)
    }

    /// Whether any tuple matches the atom under the bindings (for negation).
    fn atom_has_match(&mut self, atom: &Atom, bindings: &Bindings) -> Result<bool> {
        if let Some(kv) = resolved_term(&atom.terms[0], bindings) {
            let Ok(key) = value_key(&atom.relation, &kv) else {
                return Ok(false);
            };
            return Ok(match self.relation_by_key(&atom.relation, key)? {
                Some(row) => unify_row(atom, key, &row, bindings).is_some(),
                None => false,
            });
        }
        let rel = self.relation_full(&atom.relation)?;
        check_arity(atom, rel.schema().arity() + 1)?;
        for (key, row) in rel.iter() {
            if unify_row(atom, key, row, bindings).is_some() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Key-seeded evaluation: the row `head` derives for `key` under the
    /// given rule set, or `None`. Memoized per (head, key).
    ///
    /// Falls back to full evaluation of the head when the key binding cannot
    /// be pushed into a rule's body (e.g. the key is produced by a skolem
    /// function — the id-generating SMOs).
    pub fn head_row_for_key(
        &mut self,
        rules: &RuleSet,
        head: &str,
        key: Key,
    ) -> Result<Option<Row>> {
        if let Some(memo) = self.by_key_memo.get(&(head.to_string(), key)) {
            return Ok(memo.clone());
        }
        // If the head was already fully derived, serve from it.
        if let Some(rel) = self.derived.get(head) {
            let row = rel.get(key).cloned();
            self.by_key_memo
                .insert((head.to_string(), key), row.clone());
            return Ok(row);
        }
        let mut found: Option<Row> = None;
        for rule in rules.rules_for(head) {
            let rows = match rule.head_key_var() {
                Some(kvar) if seedable(rule, kvar) => {
                    let mut seed = Bindings::new();
                    seed.insert(kvar.to_string(), key_value(key));
                    let bindings = self.eval_rule(rule, None, &seed)?;
                    bindings
                        .iter()
                        .map(|b| head_tuple(rule, b))
                        .collect::<Result<Vec<_>>>()?
                }
                _ => {
                    // Key not pushable: evaluate the rule fully and filter.
                    let bindings = self.eval_rule(rule, None, &Bindings::new())?;
                    bindings
                        .iter()
                        .map(|b| head_tuple(rule, b))
                        .collect::<Result<Vec<_>>>()?
                        .into_iter()
                        .filter(|(k, _)| *k == key)
                        .collect()
                }
            };
            for (k, row) in rows {
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
        self.by_key_memo
            .insert((head.to_string(), key), found.clone());
        Ok(found)
    }
}

/// Whether the rule's key variable occurs in some body atom, so that seeding
/// it restricts evaluation.
fn seedable(rule: &Rule, key_var: &str) -> bool {
    rule.body.iter().any(|lit| match lit {
        Literal::Pos(a) => a.variables().contains(&key_var),
        _ => false,
    })
}

/// Build the head tuple from complete bindings.
fn head_tuple(rule: &Rule, bindings: &Bindings) -> Result<(Key, Row)> {
    let head = &rule.head;
    let mut values = Vec::with_capacity(head.terms.len());
    for t in &head.terms {
        match t {
            Term::Var(v) => match bindings.get(v) {
                Some(val) => values.push(val.clone()),
                None => {
                    return Err(DatalogError::UnsafeRule {
                        rule: rule.to_string(),
                    })
                }
            },
            Term::Const(c) => values.push(c.clone()),
            Term::Anon => {
                return Err(DatalogError::UnsafeRule {
                    rule: rule.to_string(),
                })
            }
        }
    }
    let key = value_key(&head.relation, &values[0])?;
    Ok((key, values[1..].to_vec()))
}

/// Try to extend `bindings` so the atom matches `(key, row)`.
fn unify_row(atom: &Atom, key: Key, row: &[Value], bindings: &Bindings) -> Option<Bindings> {
    let mut out = bindings.clone();
    let kv = key_value(key);
    if !unify_term(&atom.terms[0], &kv, &mut out) {
        return None;
    }
    for (t, v) in atom.terms[1..].iter().zip(row.iter()) {
        if !unify_term(t, v, &mut out) {
            return None;
        }
    }
    Some(out)
}

fn unify_term(term: &Term, value: &Value, bindings: &mut Bindings) -> bool {
    match term {
        Term::Anon => true,
        Term::Const(c) => c == value,
        Term::Var(v) => match bindings.get(v) {
            Some(bound) => bound == value,
            None => {
                bindings.insert(v.clone(), value.clone());
                true
            }
        },
    }
}

/// The value a term resolves to under the bindings, if fully resolved.
fn resolved_term(term: &Term, bindings: &Bindings) -> Option<Value> {
    match term {
        Term::Const(c) => Some(c.clone()),
        Term::Var(v) => bindings.get(v).cloned(),
        Term::Anon => None,
    }
}

fn check_arity(atom: &Atom, relation_arity: usize) -> Result<()> {
    if atom.terms.len() != relation_arity {
        return Err(DatalogError::ArityMismatch {
            relation: atom.relation.clone(),
            atom_arity: atom.terms.len(),
            relation_arity,
        });
    }
    Ok(())
}

/// Compute a safe evaluation order for the body literals.
///
/// Positive atoms are always schedulable; negations, conditions and
/// assignments wait until their variables are bound. Among schedulable
/// positive atoms, those with a resolvable key term are preferred (index
/// lookup beats scan). The compiled evaluator mirrors this algorithm exactly
/// (over slot bitmasks) so both engines explore joins in the same order —
/// which matters for the id-minting order of skolem generators.
pub(crate) fn schedule(rule: &Rule, skip: Option<usize>, seed: &Bindings) -> Result<Vec<usize>> {
    let mut bound: BTreeSet<String> = seed.keys().cloned().collect();
    let mut remaining: Vec<usize> = (0..rule.body.len()).filter(|i| Some(*i) != skip).collect();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        // 1. Any non-atom literal whose inputs are bound, or negation with
        //    all vars bound — cheap filters first.
        let ready_filter = remaining.iter().position(|&i| match &rule.body[i] {
            Literal::Neg(a) => a.variables().iter().all(|v| bound.contains(*v)),
            Literal::Cond(e) => e.referenced_columns().iter().all(|c| bound.contains(c)),
            Literal::Assign { expr, .. } => {
                expr.referenced_columns().iter().all(|c| bound.contains(c))
            }
            Literal::Skolem { args, .. } => args
                .iter()
                .filter_map(|t| t.as_var())
                .all(|v| bound.contains(v)),
            Literal::Pos(_) => false,
        });
        if let Some(pos) = ready_filter {
            let i = remaining.remove(pos);
            for v in rule.body[i].variables() {
                bound.insert(v);
            }
            order.push(i);
            continue;
        }
        // 2. A positive atom, preferring one with a bound key term.
        let keyed = remaining.iter().position(|&i| match &rule.body[i] {
            Literal::Pos(a) => match a.key_term() {
                Term::Const(_) => true,
                Term::Var(v) => bound.contains(v),
                Term::Anon => false,
            },
            _ => false,
        });
        let any_pos = keyed.or_else(|| {
            remaining
                .iter()
                .position(|&i| rule.body[i].is_positive_atom())
        });
        match any_pos {
            Some(pos) => {
                let i = remaining.remove(pos);
                for v in rule.body[i].variables() {
                    bound.insert(v);
                }
                order.push(i);
            }
            None => {
                return Err(DatalogError::UnsafeRule {
                    rule: rule.to_string(),
                })
            }
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::MapEdb;
    use crate::skolem::SkolemRegistry;
    use std::cell::RefCell;

    fn ids() -> RefCell<SkolemRegistry> {
        RefCell::new(SkolemRegistry::new())
    }

    #[test]
    fn schedule_rejects_unsafe_rules() {
        // Negation over a variable never bound positively.
        let rule = Rule::new(
            Atom::vars("H", &["p"]),
            vec![Literal::Neg(Atom::vars("X", &["p"]))],
        );
        assert!(schedule(&rule, None, &Bindings::new()).is_err());
    }

    #[test]
    fn naive_evaluate_smoke() {
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("H", &["p", "a"]),
            vec![Literal::Pos(Atom::vars("X", &["p", "a"]))],
        )]);
        let mut x = Relation::with_columns("X", ["a"]);
        x.insert(Key(1), vec![Value::Int(7)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(x);
        let sk = ids();
        let out = evaluate(&rules, &edb, &sk, &BTreeMap::new()).unwrap();
        assert_eq!(out["H"].get(Key(1)), Some(&vec![Value::Int(7)]));
    }

    #[test]
    fn naive_head_row_for_key_smoke() {
        let rules = RuleSet::new(vec![Rule::new(
            Atom::vars("H", &["p", "a"]),
            vec![Literal::Pos(Atom::vars("X", &["p", "a"]))],
        )]);
        let mut x = Relation::with_columns("X", ["a"]);
        x.insert(Key(1), vec![Value::Int(7)]).unwrap();
        let mut edb = MapEdb::new();
        edb.add(x);
        let sk = ids();
        let mut ev = Evaluator::new(&edb, &sk);
        assert_eq!(
            ev.head_row_for_key(&rules, "H", Key(1)).unwrap(),
            Some(vec![Value::Int(7)])
        );
        assert_eq!(ev.head_row_for_key(&rules, "H", Key(9)).unwrap(), None);
    }
}

//! The simplification lemmas of Section 5, executable.
//!
//! The paper proves bidirectionality of every SMO by composing its two
//! mapping rule sets (e.g. `γ_src(γ_tgt(D_src))`), then syntactically
//! simplifying the composed Datalog program with five lemmas until only
//! identity rules remain. This module implements those lemmas as rule-set
//! transformations:
//!
//! * **Lemma 1 (Deduction)** — [`unfold`]: substitute defined predicates into
//!   rule bodies, for positive and negative occurrences (the latter with the
//!   paper's `t(K)` construction, which is sound because all relations are
//!   functional in their key `p`);
//! * **Lemma 2 (Empty predicate)** — [`apply_empty`];
//! * **Lemma 3 (Tautology)** — rule pairs identical up to one complementary
//!   literal merge; includes the separated-twin merge the paper uses for
//!   Rules 118/120 → 122;
//! * **Lemma 4 (Contradiction)** — rules with complementary body literals
//!   are dropped;
//! * **Lemma 5 (Unique key)** — two positive atoms over the same relation
//!   with the same key term unify their payloads.
//!
//! [`simplify_fixpoint`] iterates Lemmas 3–5 (plus duplicate-literal removal,
//! subsumption, dead-assignment elimination and trivial-condition folding)
//! until the rule set stops changing. Every applied step is appended to a
//! [`Derivation`], so the `formal` harness can print an Appendix-A-style
//! proof transcript.

use crate::ast::{Atom, Literal, Rule, RuleSet, Term};
use inverda_storage::{CmpOp, Expr};
use std::collections::{BTreeMap, BTreeSet};

/// A transcript of applied simplification steps.
#[derive(Debug, Default, Clone)]
pub struct Derivation {
    /// Human-readable proof steps in application order.
    pub steps: Vec<String>,
    /// Record nothing (see [`Derivation::silent`]).
    silent: bool,
}

impl Derivation {
    /// Empty derivation.
    pub fn new() -> Self {
        Derivation::default()
    }

    /// A derivation that records no step — and never formats one: for the
    /// engine's rule-set surgery (chain fusion, Lemma 2 over empty aux
    /// tables), which throws the transcript away. The rewritten rule sets
    /// are those a recording derivation yields.
    pub fn silent() -> Self {
        Derivation {
            steps: Vec::new(),
            silent: true,
        }
    }

    fn log(&mut self, step: impl FnOnce() -> String) {
        if !self.silent {
            self.steps.push(step());
        }
    }
}

/// Rename the relations of every atom according to the map (used to label
/// original relations, e.g. `T → T_D`, before composing mappings).
pub fn rename_relations(rules: &RuleSet, map: &BTreeMap<String, String>) -> RuleSet {
    let fix_atom = |a: &Atom| Atom {
        relation: map
            .get(&a.relation)
            .cloned()
            .unwrap_or_else(|| a.relation.clone()),
        terms: a.terms.clone(),
    };
    RuleSet::new(
        rules
            .rules
            .iter()
            .map(|r| Rule {
                head: fix_atom(&r.head),
                body: r
                    .body
                    .iter()
                    .map(|l| match l {
                        Literal::Pos(a) => Literal::Pos(fix_atom(a)),
                        Literal::Neg(a) => Literal::Neg(fix_atom(a)),
                        other => other.clone(),
                    })
                    .collect(),
            })
            .collect(),
    )
}

/// Rename skolem generator names according to the map (used alongside
/// [`rename_relations`] when instantiating SMO templates with globally
/// unique names).
pub fn rename_generators(rules: &RuleSet, map: &BTreeMap<String, String>) -> RuleSet {
    RuleSet::new(
        rules
            .rules
            .iter()
            .map(|r| Rule {
                head: r.head.clone(),
                body: r
                    .body
                    .iter()
                    .map(|l| match l {
                        Literal::Skolem {
                            var,
                            generator,
                            args,
                        } => Literal::Skolem {
                            var: var.clone(),
                            generator: map
                                .get(generator)
                                .cloned()
                                .unwrap_or_else(|| generator.clone()),
                            args: args.clone(),
                        },
                        other => other.clone(),
                    })
                    .collect(),
            })
            .collect(),
    )
}

/// Lemma 2: relations known to be empty. Rules with a positive occurrence
/// are dropped; negative occurrences are removed from bodies.
pub fn apply_empty(rules: &RuleSet, empty: &BTreeSet<String>, deriv: &mut Derivation) -> RuleSet {
    let mut out = Vec::new();
    'rules: for rule in &rules.rules {
        let mut body = Vec::new();
        for lit in &rule.body {
            match lit {
                Literal::Pos(a) if empty.contains(&a.relation) => {
                    deriv.log(|| {
                        format!(
                            "Lemma 2: dropped rule (positive literal over empty '{}'): {rule}",
                            a.relation
                        )
                    });
                    continue 'rules;
                }
                Literal::Neg(a) if empty.contains(&a.relation) => {
                    deriv.log(|| format!("Lemma 2: removed ¬{} from: {rule}", a.relation));
                }
                other => body.push(other.clone()),
            }
        }
        out.push(Rule::new(rule.head.clone(), body));
    }
    RuleSet::new(out)
}

/// Lemma 1: unfold every body literal over a predicate defined in `defs`,
/// to fixpoint. `defs` must be non-recursive.
pub fn unfold(outer: &RuleSet, defs: &RuleSet, deriv: &mut Derivation) -> RuleSet {
    unfold_within(outer, defs, deriv, usize::MAX, usize::MAX).expect("no bound to exceed")
}

/// [`unfold`] under a size bound: `None` as soon as the result is known to
/// hold more than `max_rules` rules or a rule with more than `max_body`
/// body literals — exactly when the finished result would, since finished
/// rules are only ever added — instead of building the whole oversized set
/// first (negative unfolding can double the rule count per step).
pub fn unfold_within(
    outer: &RuleSet,
    defs: &RuleSet,
    deriv: &mut Derivation,
    max_rules: usize,
    max_body: usize,
) -> Option<RuleSet> {
    let def_heads: BTreeSet<String> = defs.head_relations().into_iter().collect();
    let mut fresh = FreshVars::new(outer, defs);
    let mut work: Vec<Rule> = outer.rules.clone();
    let mut done: Vec<Rule> = Vec::new();
    let mut guard = 0usize;
    while let Some(rule) = work.pop() {
        guard += 1;
        assert!(
            guard < 100_000,
            "unfolding did not terminate (recursive defs?)"
        );
        let target = rule
            .body
            .iter()
            .position(|l| l.relation().map(|r| def_heads.contains(r)).unwrap_or(false));
        match target {
            None => {
                if done.len() == max_rules || rule.body.len() > max_body {
                    return None;
                }
                done.push(rule);
            }
            Some(i) => {
                let expanded = unfold_literal(&rule, i, defs, &mut fresh, deriv);
                work.extend(expanded);
            }
        }
    }
    done.reverse();
    Some(RuleSet::new(done))
}

fn unfold_literal(
    rule: &Rule,
    idx: usize,
    defs: &RuleSet,
    fresh: &mut FreshVars,
    deriv: &mut Derivation,
) -> Vec<Rule> {
    match &rule.body[idx] {
        Literal::Pos(atom) => {
            let mut out = Vec::new();
            for def in defs.rules_for(&atom.relation) {
                if let Some(new_rule) = unfold_positive(rule, idx, atom, def, fresh) {
                    deriv.log(|| {
                        format!(
                            "Lemma 1 (positive): unfolded {} in: {rule}  using  {def}",
                            atom
                        )
                    });
                    out.push(new_rule);
                }
            }
            out
        }
        Literal::Neg(atom) => {
            // ¬q ≡ conjunction over defining rules of q; each defining rule
            // contributes one blocked literal choice (t(K)); the result is
            // the cross product of choices.
            let defining: Vec<&Rule> = defs.rules_for(&atom.relation);
            let mut variants: Vec<Vec<Literal>> = vec![Vec::new()];
            for def in &defining {
                let choices = negative_choices(atom, def, fresh);
                let mut next = Vec::new();
                for base in &variants {
                    for choice in &choices {
                        let mut v = base.clone();
                        v.extend(choice.clone());
                        next.push(v);
                    }
                }
                variants = next;
            }
            deriv.log(|| {
                format!(
                    "Lemma 1 (negative): unfolded ¬{atom} into {} variant(s) in: {rule}",
                    variants.len()
                )
            });
            variants
                .into_iter()
                .map(|extra| {
                    let mut body: Vec<Literal> = rule
                        .body
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != idx)
                        .map(|(_, l)| l.clone())
                        .collect();
                    body.extend(extra);
                    Rule::new(rule.head.clone(), body)
                })
                .collect()
        }
        _ => vec![rule.clone()],
    }
}

/// Unify the defining rule's head with the literal and inline its body.
fn unfold_positive(
    rule: &Rule,
    idx: usize,
    atom: &Atom,
    def: &Rule,
    fresh: &mut FreshVars,
) -> Option<Rule> {
    let renamed = rename_def_apart(atom, def, fresh)?;
    // `renamed.head` now has terms aligned with `atom` where possible; any
    // leftover constant-vs-constant mismatch was rejected in rename_def_apart.
    // Terms of `atom` that are constants while the def head has a variable
    // were substituted inside rename_def_apart as well.
    let mut body: Vec<Literal> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != idx)
        .map(|(_, l)| l.clone())
        .collect();
    // Positions where atom has a Var but def head has a Const: the host
    // rule's variable is fixed to that constant.
    let mut host_subst: BTreeMap<String, Term> = BTreeMap::new();
    for (at, ht) in atom.terms.iter().zip(renamed.head.terms.iter()) {
        match (at, ht) {
            (Term::Var(v), Term::Const(c)) => {
                host_subst.insert(v.clone(), Term::Const(c.clone()));
            }
            (Term::Const(a), Term::Const(b)) if a != b => return None,
            _ => {}
        }
    }
    body.extend(renamed.body.clone());
    let mut new_rule = Rule::new(rule.head.clone(), body);
    if !host_subst.is_empty() {
        new_rule = substitute_terms(&new_rule, &host_subst);
    }
    Some(new_rule)
}

/// Rename a defining rule so its head terms align with the literal's terms:
/// head variables become the literal's terms; local variables become fresh.
/// Returns `None` on constant clash.
fn rename_def_apart(atom: &Atom, def: &Rule, fresh: &mut FreshVars) -> Option<Rule> {
    if atom.terms.len() != def.head.terms.len() {
        return None;
    }
    let mut subst: BTreeMap<String, Term> = BTreeMap::new();
    for (lt, ht) in atom.terms.iter().zip(def.head.terms.iter()) {
        match ht {
            Term::Var(hv) => {
                let replacement = match lt {
                    Term::Var(v) => Term::Var(v.clone()),
                    Term::Const(c) => Term::Const(c.clone()),
                    Term::Anon => Term::Var(fresh.next(hv)),
                };
                match subst.get(hv) {
                    None => {
                        subst.insert(hv.clone(), replacement);
                    }
                    Some(existing) if *existing == replacement => {}
                    Some(_) => return None, // repeated head var, conflicting
                }
            }
            Term::Const(c) => {
                if let Term::Const(lc) = lt {
                    if lc != c {
                        return None;
                    }
                }
                // Var-vs-const handled by the caller (host substitution).
            }
            Term::Anon => {}
        }
    }
    // Local variables get fresh names.
    for v in def.variables() {
        if !subst.contains_key(&v) {
            subst.insert(v.clone(), Term::Var(fresh.next(&v)));
        }
    }
    Some(substitute_terms(def, &subst))
}

/// The paper's `t(K)` construction: ways a defining rule's body can be
/// blocked, expressed over the host rule's variables.
fn negative_choices(atom: &Atom, def: &Rule, fresh: &mut FreshVars) -> Vec<Vec<Literal>> {
    let renamed = match rename_def_apart(atom, def, fresh) {
        Some(r) => r,
        None => return vec![vec![]], // head cannot match: ¬q trivially true
    };
    let positive_atoms: Vec<&Atom> = renamed
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
        .collect();
    let binders_for = |vars: &[String]| -> Vec<Literal> {
        positive_atoms
            .iter()
            .filter(|a| a.variables().iter().any(|v| vars.iter().any(|x| x == v)))
            .map(|a| Literal::Pos((*a).clone()))
            .collect()
    };
    // Variables visible to the host rule are those of the *outer* literal;
    // fresh variables introduced for `_` positions are local to the
    // unfolding and must be anonymized / bound by binder atoms.
    let head_vars: BTreeSet<String> = atom.variables().into_iter().map(String::from).collect();
    let mut choices = Vec::new();
    for lit in &renamed.body {
        match lit {
            Literal::Pos(a) => {
                // t(K) = ¬q_i with non-head variables anonymized.
                let keep: Vec<&str> = a
                    .variables()
                    .into_iter()
                    .filter(|v| head_vars.contains(*v))
                    .collect();
                choices.push(vec![Literal::Neg(a.anonymize_except(&keep))]);
            }
            Literal::Neg(a) => {
                // Double negation: the tuple exists. Include binders for its
                // local variables.
                let locals: Vec<String> = a
                    .variables()
                    .into_iter()
                    .filter(|v| !head_vars.contains(*v))
                    .map(String::from)
                    .collect();
                let mut c = binders_for(&locals);
                c.push(Literal::Pos(a.clone()));
                choices.push(c);
            }
            Literal::Cond(e) => {
                // t(K) = binding atoms for the condition's locals + ¬c.
                let locals: Vec<String> = e
                    .referenced_columns()
                    .into_iter()
                    .filter(|v| !head_vars.contains(v))
                    .collect();
                let mut c = binders_for(&locals);
                c.push(Literal::Cond(e.clone().negate()));
                choices.push(c);
            }
            Literal::Assign { var, expr } => {
                // Blocked iff the assigned value differs. Needs the binders
                // of the expression's locals and of the variable.
                let mut locals: Vec<String> = expr
                    .referenced_columns()
                    .into_iter()
                    .filter(|v| !head_vars.contains(v))
                    .collect();
                locals.push(var.clone());
                let mut c = binders_for(&locals);
                c.push(Literal::Cond(Expr::col(var.clone()).ne(expr.clone())));
                choices.push(c);
            }
            Literal::Skolem { .. } => {
                // Skolem functions are total: they never block a derivation
                // on their own, so they contribute no choice.
            }
        }
    }
    choices
}

/// Apply a term substitution to a whole rule (head and body, including
/// expressions — variables substituted by constants are folded into
/// expression literals where possible).
fn substitute_terms(rule: &Rule, subst: &BTreeMap<String, Term>) -> Rule {
    // Split into var->var renames (handled everywhere) and var->const.
    let mut renames: BTreeMap<String, String> = BTreeMap::new();
    let mut consts: BTreeMap<String, Term> = BTreeMap::new();
    for (k, v) in subst {
        match v {
            Term::Var(n) => {
                renames.insert(k.clone(), n.clone());
            }
            other => {
                consts.insert(k.clone(), other.clone());
            }
        }
    }
    let mut out = rule.rename(&renames);
    if consts.is_empty() {
        return out;
    }
    let fix_atom = |a: &Atom| Atom {
        relation: a.relation.clone(),
        terms: a
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => consts.get(v).cloned().unwrap_or_else(|| t.clone()),
                other => other.clone(),
            })
            .collect(),
    };
    let fix_expr = |e: &Expr| -> Expr { subst_expr_consts(e, &consts) };
    out = Rule {
        head: fix_atom(&out.head),
        body: out
            .body
            .iter()
            .map(|l| match l {
                Literal::Pos(a) => Literal::Pos(fix_atom(a)),
                Literal::Neg(a) => Literal::Neg(fix_atom(a)),
                Literal::Cond(e) => Literal::Cond(fix_expr(e)),
                Literal::Assign { var, expr } => Literal::Assign {
                    var: var.clone(),
                    expr: fix_expr(expr),
                },
                Literal::Skolem {
                    var,
                    generator,
                    args,
                } => Literal::Skolem {
                    var: var.clone(),
                    generator: generator.clone(),
                    args: args
                        .iter()
                        .map(|t| match t {
                            Term::Var(v) => consts.get(v).cloned().unwrap_or_else(|| t.clone()),
                            other => other.clone(),
                        })
                        .collect(),
                },
            })
            .collect(),
    };
    out
}

fn subst_expr_consts(e: &Expr, consts: &BTreeMap<String, Term>) -> Expr {
    match e {
        Expr::Column(c) => match consts.get(c) {
            Some(Term::Const(v)) => Expr::Lit(v.clone()),
            _ => e.clone(),
        },
        Expr::Lit(_) => e.clone(),
        Expr::Cmp(a, op, b) => Expr::Cmp(
            Box::new(subst_expr_consts(a, consts)),
            *op,
            Box::new(subst_expr_consts(b, consts)),
        ),
        Expr::Binary(a, op, b) => Expr::Binary(
            Box::new(subst_expr_consts(a, consts)),
            *op,
            Box::new(subst_expr_consts(b, consts)),
        ),
        Expr::And(a, b) => Expr::And(
            Box::new(subst_expr_consts(a, consts)),
            Box::new(subst_expr_consts(b, consts)),
        ),
        Expr::Or(a, b) => Expr::Or(
            Box::new(subst_expr_consts(a, consts)),
            Box::new(subst_expr_consts(b, consts)),
        ),
        Expr::Not(a) => Expr::Not(Box::new(subst_expr_consts(a, consts))),
        Expr::IsNull(a) => Expr::IsNull(Box::new(subst_expr_consts(a, consts))),
        Expr::Call(n, args) => Expr::Call(
            n.clone(),
            args.iter().map(|a| subst_expr_consts(a, consts)).collect(),
        ),
    }
}

struct FreshVars {
    used: BTreeSet<String>,
    counter: usize,
}

impl FreshVars {
    fn new(a: &RuleSet, b: &RuleSet) -> Self {
        let mut used = BTreeSet::new();
        for rs in [a, b] {
            for r in &rs.rules {
                used.extend(r.variables());
            }
        }
        FreshVars { used, counter: 0 }
    }

    fn next(&mut self, base: &str) -> String {
        loop {
            self.counter += 1;
            let candidate = format!("{base}_{}", self.counter);
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fixpoint simplification: Lemmas 3, 4, 5 + housekeeping.
// ---------------------------------------------------------------------------

/// Whether `a` is the structural complement of `b` (`a ≡ ¬b`).
pub fn exprs_complementary(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Not(x), y) | (y, Expr::Not(x)) => x.as_ref() == y,
        (Expr::Cmp(l1, op1, r1), Expr::Cmp(l2, op2, r2)) => {
            l1 == l2 && r1 == r2 && *op1 == complement_op(*op2)
        }
        (Expr::And(a1, a2), Expr::Or(b1, b2)) | (Expr::Or(b1, b2), Expr::And(a1, a2)) => {
            exprs_complementary(a1, b1) && exprs_complementary(a2, b2)
        }
        _ => false,
    }
}

fn complement_op(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Le => CmpOp::Gt,
    }
}

/// Constant truth value of an expression, if syntactically decidable.
fn truth_value(e: &Expr) -> Option<bool> {
    match e {
        Expr::Cmp(a, op, b) => {
            if a == b {
                // x ⊙ x (identical expressions, incl. NULL=NULL per our
                // distinct-from semantics).
                return Some(matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge));
            }
            if let (Expr::Lit(x), Expr::Lit(y)) = (a.as_ref(), b.as_ref()) {
                return Some(op.apply(x, y));
            }
            None
        }
        Expr::Not(x) => truth_value(x).map(|b| !b),
        Expr::IsNull(x) => match x.as_ref() {
            Expr::Lit(v) => Some(v.is_null()),
            _ => None,
        },
        Expr::And(a, b) => match (truth_value(a), truth_value(b)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Expr::Or(a, b) => match (truth_value(a), truth_value(b)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => None,
    }
}

/// Normalize an expression: eliminate double negations, push `NOT` through
/// `AND`/`OR` (De Morgan) and into comparisons (`¬(a < b)` → `a >= b`).
/// Keeps positive `AND`/`OR` structure intact so complement detection and
/// the twin-merge pattern still see the shapes the templates emit.
pub fn normalize_expr(e: &Expr) -> Expr {
    match e {
        Expr::Not(inner) => negate_normalized(&normalize_expr(inner)),
        Expr::And(a, b) => Expr::And(Box::new(normalize_expr(a)), Box::new(normalize_expr(b))),
        Expr::Or(a, b) => Expr::Or(Box::new(normalize_expr(a)), Box::new(normalize_expr(b))),
        other => other.clone(),
    }
}

fn negate_normalized(e: &Expr) -> Expr {
    match e {
        Expr::Not(inner) => (**inner).clone(),
        Expr::And(a, b) => Expr::Or(
            Box::new(negate_normalized(a)),
            Box::new(negate_normalized(b)),
        ),
        Expr::Or(a, b) => Expr::And(
            Box::new(negate_normalized(a)),
            Box::new(negate_normalized(b)),
        ),
        Expr::Cmp(l, op, r) => Expr::Cmp(l.clone(), complement_op(*op), r.clone()),
        Expr::Lit(v) => Expr::Lit(inverda_storage::Value::Bool(!v.is_truthy())),
        other => Expr::Not(Box::new(other.clone())),
    }
}

/// Split a normalized expression into its top-level conjuncts.
fn split_conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(a, b) => {
            split_conjuncts(*a, out);
            split_conjuncts(*b, out);
        }
        other => out.push(other),
    }
}

/// Whether two body literals are complementary.
fn literals_complementary(a: &Literal, b: &Literal) -> bool {
    match (a, b) {
        (Literal::Pos(x), Literal::Neg(y)) | (Literal::Neg(y), Literal::Pos(x)) => {
            atom_matches_pattern(x, y)
        }
        (Literal::Cond(x), Literal::Cond(y)) => exprs_complementary(x, y),
        _ => false,
    }
}

/// Whether the (witness) atom `a` satisfies the pattern of atom `b`:
/// same relation, and each term of `b` is anonymous or equal to `a`'s term.
fn atom_matches_pattern(a: &Atom, b: &Atom) -> bool {
    a.relation == b.relation
        && a.terms.len() == b.terms.len()
        && a.terms
            .iter()
            .zip(b.terms.iter())
            .all(|(ta, tb)| matches!(tb, Term::Anon) || ta == tb)
}

/// One fixpoint pass state.
struct Pass<'d> {
    deriv: &'d mut Derivation,
    changed: bool,
}

/// Simplify a rule set by iterating Lemmas 3–5, duplicate/trivial literal
/// removal, dead-assignment elimination, subsumption and the separated-twin
/// merge, until a fixpoint is reached.
pub fn simplify_fixpoint(mut rules: RuleSet, deriv: &mut Derivation) -> RuleSet {
    loop {
        let mut pass = Pass {
            deriv,
            changed: false,
        };
        rules = per_rule_pass(rules, &mut pass);
        // Alpha-rename every rule to canonical variable names so that
        // alpha-variant rules become syntactically comparable for the
        // merge passes below.
        rules = RuleSet::new(rules.rules.iter().map(canonical_rule).collect());
        rules = drop_duplicate_rules(rules, &mut pass);
        // Condition-complement merges first (the paper's derivation order:
        // Rules 111+115 and 112+116 merge on cS/¬cS before the twin merge
        // and the R/¬R merge) — merging atom complements too early can
        // strand rules that would otherwise pair up.
        rules = tautology_merge(rules, &mut pass, MergeScope::CondOnly);
        rules = twin_merge_pass(rules, &mut pass);
        rules = null_case_merge(rules, &mut pass);
        rules = tautology_merge(rules, &mut pass, MergeScope::Any);
        rules = subsumption(rules, &mut pass);
        if !pass.changed {
            return rules;
        }
    }
}

/// Lemma 5 + Lemma 4 + trivial-condition folding + duplicate-literal and
/// dead-assignment removal, per rule.
fn per_rule_pass(rules: RuleSet, pass: &mut Pass<'_>) -> RuleSet {
    let mut out = Vec::new();
    'rules: for rule in rules.rules {
        let mut rule = rule;
        // Normalize conditions (NNF) and split top-level conjunctions into
        // separate literals so complements and equalities become visible.
        {
            let mut body = Vec::new();
            let mut changed_here = false;
            for l in &rule.body {
                match l {
                    Literal::Cond(e) => {
                        let n = normalize_expr(e);
                        let mut conjuncts = Vec::new();
                        split_conjuncts(n.clone(), &mut conjuncts);
                        if conjuncts.len() > 1 || n != *e {
                            changed_here = true;
                        }
                        body.extend(conjuncts.into_iter().map(Literal::Cond));
                    }
                    other => body.push(other.clone()),
                }
            }
            if changed_here {
                pass.changed = true;
                rule.body = body;
            }
        }
        // Null propagation: `{x IS NULL}` pins the variable to NULL.
        loop {
            let found = rule.body.iter().enumerate().find_map(|(i, l)| match l {
                Literal::Cond(Expr::IsNull(inner)) => match inner.as_ref() {
                    Expr::Column(x) => Some((i, x.clone())),
                    _ => None,
                },
                _ => None,
            });
            let Some((i, x)) = found else { break };
            rule.body.remove(i);
            let mut subst = BTreeMap::new();
            subst.insert(x.clone(), Term::Const(inverda_storage::Value::Null));
            rule = substitute_terms(&rule, &subst);
            pass.changed = true;
            pass.deriv
                .log(|| format!("null propagation {x} IS NULL in: {rule}"));
        }
        // Equality propagation: a `{x = y}` condition between two variables
        // substitutes one for the other and disappears.
        loop {
            let found = rule.body.iter().enumerate().find_map(|(i, l)| match l {
                Literal::Cond(Expr::Cmp(a, CmpOp::Eq, b)) => match (a.as_ref(), b.as_ref()) {
                    (Expr::Column(x), Expr::Column(y)) if x != y => Some((i, x.clone(), y.clone())),
                    _ => None,
                },
                _ => None,
            });
            let Some((i, x, y)) = found else { break };
            // Prefer eliminating a variable that is not in the head.
            let head_vars: Vec<&str> = rule.head.variables();
            let (keep, drop) =
                if head_vars.contains(&y.as_str()) && !head_vars.contains(&x.as_str()) {
                    (y.clone(), x.clone())
                } else {
                    (x.clone(), y.clone())
                };
            rule.body.remove(i);
            let mut subst = BTreeMap::new();
            subst.insert(drop, Term::Var(keep));
            rule = substitute_terms(&rule, &subst);
            pass.changed = true;
            pass.deriv
                .log(|| format!("equality propagation {x} = {y} in: {rule}"));
        }
        // Lemma 5: unify positive atoms over the same relation and key term.
        loop {
            let mut subst: Option<BTreeMap<String, Term>> = None;
            let mut refined: Option<Rule> = None;
            'outer: for i in 0..rule.body.len() {
                let Literal::Pos(a) = &rule.body[i] else {
                    continue;
                };
                for j in (i + 1)..rule.body.len() {
                    let Literal::Pos(b) = &rule.body[j] else {
                        continue;
                    };
                    if a.relation != b.relation
                        || a.terms.len() != b.terms.len()
                        || a.terms[0] != b.terms[0]
                        || matches!(a.terms[0], Term::Anon)
                        || a.terms == b.terms
                    {
                        continue;
                    }
                    // Same relation, same key: payloads must unify.
                    let mut s: BTreeMap<String, Term> = BTreeMap::new();
                    let mut new_a = a.clone();
                    for (pos, (ta, tb)) in a.terms.iter().zip(b.terms.iter()).enumerate().skip(1) {
                        match (ta, tb) {
                            (Term::Var(x), Term::Var(y)) => {
                                if x != y {
                                    s.insert(y.clone(), Term::Var(x.clone()));
                                }
                            }
                            (Term::Anon, Term::Var(y)) => {
                                new_a.terms[pos] = Term::Var(y.clone());
                            }
                            (Term::Anon, Term::Const(c)) => {
                                new_a.terms[pos] = Term::Const(c.clone());
                            }
                            (Term::Var(_), Term::Anon)
                            | (Term::Const(_), Term::Anon)
                            | (Term::Anon, Term::Anon) => {}
                            (Term::Const(x), Term::Const(y)) if x != y => {
                                pass.deriv.log(|| format!(
                                    "Lemma 5+4: contradictory constants for one key, dropped: {rule}"
                                ));
                                pass.changed = true;
                                continue 'rules;
                            }
                            (Term::Const(_), Term::Const(_)) => {}
                            (Term::Var(x), Term::Const(c)) => {
                                s.insert(x.clone(), Term::Const(c.clone()));
                            }
                            (Term::Const(c), Term::Var(y)) => {
                                s.insert(y.clone(), Term::Const(c.clone()));
                            }
                        }
                    }
                    if new_a != *a {
                        let mut r2 = rule.clone();
                        r2.body[i] = Literal::Pos(new_a);
                        refined = Some(r2);
                        break 'outer;
                    }
                    if !s.is_empty() {
                        subst = Some(s);
                        break 'outer;
                    }
                    // Identical after refinement: drop the duplicate atom j.
                    let mut r2 = rule.clone();
                    r2.body.remove(j);
                    refined = Some(r2);
                    break 'outer;
                }
            }
            if let Some(r2) = refined {
                pass.deriv
                    .log(|| format!("Lemma 5: merged same-key atoms in: {rule}"));
                pass.changed = true;
                rule = r2;
                continue;
            }
            if let Some(s) = subst {
                pass.deriv
                    .log(|| format!("Lemma 5: unified payload variables in: {rule}"));
                pass.changed = true;
                rule = substitute_terms(&rule, &s);
                continue;
            }
            break;
        }
        // Remove exact duplicate literals.
        let mut deduped: Vec<Literal> = Vec::new();
        for l in &rule.body {
            if !deduped.contains(l) {
                deduped.push(l.clone());
            } else {
                pass.changed = true;
                pass.deriv
                    .log(|| format!("removed duplicate literal {l} in: {rule}"));
            }
        }
        rule.body = deduped;
        // Trivial conditions.
        let mut body = Vec::new();
        for l in rule.body {
            if let Literal::Cond(e) = &l {
                match truth_value(e) {
                    Some(true) => {
                        pass.changed = true;
                        pass.deriv.log(|| format!("folded true condition {{{e}}}"));
                        continue;
                    }
                    Some(false) => {
                        pass.changed = true;
                        pass.deriv.log(|| {
                            format!(
                                "Lemma 4: dropped rule with false condition {{{e}}}: {}",
                                rule.head
                            )
                        });
                        continue 'rules;
                    }
                    None => {}
                }
            }
            body.push(l);
        }
        rule.body = body;
        // Lemma 4: complementary body literals.
        for i in 0..rule.body.len() {
            for j in (i + 1)..rule.body.len() {
                if literals_complementary(&rule.body[i], &rule.body[j]) {
                    pass.changed = true;
                    pass.deriv.log(|| {
                        format!(
                            "Lemma 4: dropped rule with contradictory literals {} / {}: {rule}",
                            rule.body[i], rule.body[j]
                        )
                    });
                    continue 'rules;
                }
            }
        }
        // Dead assignments: assigned variable used nowhere else.
        let head_vars: BTreeSet<String> = rule
            .head
            .variables()
            .into_iter()
            .map(String::from)
            .collect();
        let mut usage: BTreeMap<String, usize> = BTreeMap::new();
        for l in &rule.body {
            for v in l.variables() {
                *usage.entry(v).or_insert(0) += 1;
            }
        }
        let before = rule.body.len();
        rule.body.retain(|l| match l {
            Literal::Assign { var, .. } | Literal::Skolem { var, .. } => {
                head_vars.contains(var) || usage.get(var).copied().unwrap_or(0) > 1
            }
            _ => true,
        });
        if rule.body.len() != before {
            pass.changed = true;
            pass.deriv
                .log(|| format!("removed dead assignment(s) in: {rule}"));
        }
        // Anonymize single-use variables not in the head (cleanup enabling
        // Lemma 3 matching on e.g. R_D(p, _)).
        let mut usage2: BTreeMap<String, usize> = BTreeMap::new();
        for l in &rule.body {
            for v in l.variables() {
                *usage2.entry(v).or_insert(0) += 1;
            }
        }
        let single_use: BTreeSet<String> = usage2
            .iter()
            .filter(|(v, n)| **n == 1 && !head_vars.contains(*v))
            .map(|(v, _)| v.clone())
            .collect();
        if !single_use.is_empty() {
            let anonymize_atom = |a: &Atom| Atom {
                relation: a.relation.clone(),
                terms: a
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) if single_use.contains(v) => Term::Anon,
                        other => other.clone(),
                    })
                    .collect(),
            };
            let mut changed_here = false;
            let body: Vec<Literal> = rule
                .body
                .iter()
                .map(|l| match l {
                    Literal::Pos(a) => {
                        let na = anonymize_atom(a);
                        if na != *a {
                            changed_here = true;
                        }
                        Literal::Pos(na)
                    }
                    Literal::Neg(a) => {
                        let na = anonymize_atom(a);
                        if na != *a {
                            changed_here = true;
                        }
                        Literal::Neg(na)
                    }
                    other => other.clone(),
                })
                .collect();
            if changed_here {
                pass.changed = true;
                rule.body = body;
            }
        }
        out.push(rule);
    }
    RuleSet::new(out)
}

fn drop_duplicate_rules(rules: RuleSet, pass: &mut Pass<'_>) -> RuleSet {
    let mut seen: Vec<Rule> = Vec::new();
    let mut out = Vec::new();
    for rule in rules.rules {
        let canon = canonical_rule(&rule);
        if seen.contains(&canon) {
            pass.changed = true;
            pass.deriv.log(|| format!("removed duplicate rule: {rule}"));
            continue;
        }
        seen.push(canon);
        out.push(rule);
    }
    RuleSet::new(out)
}

/// Canonical form for rule comparison: body sorted by display, variables
/// renamed by first occurrence, body sorted again.
fn canonical_rule(rule: &Rule) -> Rule {
    let mut r = rule.clone();
    r.body.sort_by_key(|l| l.to_string());
    let r = r.canonicalize();
    let mut r2 = r;
    r2.body.sort_by_key(|l| l.to_string());
    r2
}

/// Which complementary-literal pairs a tautology-merge phase may merge on.
#[derive(Clone, Copy, PartialEq)]
enum MergeScope {
    /// Only condition/condition complements (`{c}` vs `{¬c}`).
    CondOnly,
    /// Any complementary pair, including atom/negated-atom.
    Any,
}

/// Lemma 3: merge rule pairs identical except one complementary literal.
fn tautology_merge(rules: RuleSet, pass: &mut Pass<'_>, scope: MergeScope) -> RuleSet {
    let mut list: Vec<Option<Rule>> = rules.rules.into_iter().map(Some).collect();
    for i in 0..list.len() {
        for j in (i + 1)..list.len() {
            let (Some(a), Some(b)) = (list[i].clone(), list[j].clone()) else {
                continue;
            };
            if a.head.relation != b.head.relation {
                continue;
            }
            if let Some(merged) = try_tautology_merge(&a, &b, scope) {
                pass.changed = true;
                pass.deriv
                    .log(|| format!("Lemma 3: merged\n    {a}\n    {b}\n  into\n    {merged}"));
                list[i] = Some(merged);
                list[j] = None;
            }
        }
    }
    RuleSet::new(list.into_iter().flatten().collect())
}

fn try_tautology_merge(a: &Rule, b: &Rule, scope: MergeScope) -> Option<Rule> {
    if a.head != b.head || a.body.len() != b.body.len() {
        return None;
    }
    // Match bodies as multisets: find the unique literal of `a` and of `b`
    // left unmatched; they must be complementary.
    let mut b_used = vec![false; b.body.len()];
    let mut a_unmatched = Vec::new();
    for la in &a.body {
        let mut found = false;
        for (j, lb) in b.body.iter().enumerate() {
            if !b_used[j] && la == lb {
                b_used[j] = true;
                found = true;
                break;
            }
        }
        if !found {
            a_unmatched.push(la.clone());
        }
    }
    let b_unmatched: Vec<Literal> = b
        .body
        .iter()
        .enumerate()
        .filter(|(j, _)| !b_used[*j])
        .map(|(_, l)| l.clone())
        .collect();
    if a_unmatched.len() != 1 || b_unmatched.len() != 1 {
        return None;
    }
    if scope == MergeScope::CondOnly
        && !(matches!(a_unmatched[0], Literal::Cond(_))
            && matches!(b_unmatched[0], Literal::Cond(_)))
    {
        return None;
    }
    if !literals_complementary(&a_unmatched[0], &b_unmatched[0]) {
        return None;
    }
    let body: Vec<Literal> = a
        .body
        .iter()
        .filter(|l| **l != a_unmatched[0])
        .cloned()
        .collect();
    Some(Rule::new(a.head.clone(), body))
}

/// The separated-twin merge (Rules 118 + 120 → 122 in Appendix A):
/// `H ← B, q(k, V̄)` merges with `H ← B, q(k, W̄), {V̄ ≠ W̄}` into
/// `H ← B, q(k, _)` — sound because `q` is functional in its key, so the two
/// rules jointly cover "the q-tuple equals V̄ or differs from it".
fn twin_merge_pass(rules: RuleSet, pass: &mut Pass<'_>) -> RuleSet {
    let mut list: Vec<Option<Rule>> = rules.rules.into_iter().map(Some).collect();
    for i in 0..list.len() {
        for j in 0..list.len() {
            if i == j {
                continue;
            }
            let (Some(a), Some(b)) = (list[i].clone(), list[j].clone()) else {
                continue;
            };
            if let Some(merged) = try_twin_merge(&a, &b) {
                pass.changed = true;
                pass.deriv.log(|| {
                    format!("Lemma 3 (twin merge): merged\n    {a}\n    {b}\n  into\n    {merged}")
                });
                list[i] = Some(merged);
                list[j] = None;
            }
        }
    }
    RuleSet::new(list.into_iter().flatten().collect())
}

fn try_twin_merge(a: &Rule, b: &Rule) -> Option<Rule> {
    if a.head != b.head {
        return None;
    }
    for (ia, la) in a.body.iter().enumerate() {
        let Literal::Pos(atom_a) = la else { continue };
        for (ib, lb) in b.body.iter().enumerate() {
            let Literal::Pos(atom_b) = lb else { continue };
            if atom_a.relation != atom_b.relation
                || atom_a.terms.len() != atom_b.terms.len()
                || atom_a.terms[0] != atom_b.terms[0]
                || atom_a.terms == atom_b.terms
            {
                continue;
            }
            // rest of a and b must be equal (as multisets).
            let rest_a: Vec<&Literal> = a
                .body
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != ia)
                .map(|(_, l)| l)
                .collect();
            let rest_b: Vec<&Literal> = b
                .body
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != ib)
                .map(|(_, l)| l)
                .collect();
            // b should have exactly one extra literal: the ≠ condition.
            if rest_b.len() != rest_a.len() + 1 {
                continue;
            }
            let mut b_used = vec![false; rest_b.len()];
            let mut all_found = true;
            for la2 in &rest_a {
                let mut found = false;
                for (k, lb2) in rest_b.iter().enumerate() {
                    if !b_used[k] && la2 == lb2 {
                        b_used[k] = true;
                        found = true;
                        break;
                    }
                }
                if !found {
                    all_found = false;
                    break;
                }
            }
            if !all_found {
                continue;
            }
            let extra: Vec<&Literal> = rest_b
                .iter()
                .enumerate()
                .filter(|(k, _)| !b_used[*k])
                .map(|(_, l)| *l)
                .collect();
            let [Literal::Cond(ne)] = extra.as_slice() else {
                continue;
            };
            // The extra condition must be the pairwise ≠ of the two payloads.
            let pairs: Vec<(&str, &str)> = atom_a.terms[1..]
                .iter()
                .zip(atom_b.terms[1..].iter())
                .filter_map(|(ta, tb)| match (ta, tb) {
                    (Term::Var(x), Term::Var(y)) if x != y => Some((x.as_str(), y.as_str())),
                    _ => None,
                })
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let xs: Vec<&str> = pairs.iter().map(|(x, _)| *x).collect();
            let ys: Vec<&str> = pairs.iter().map(|(_, y)| *y).collect();
            let expected = crate::ast::lists_ne(&xs, &ys);
            if *ne != expected {
                continue;
            }
            // Merge: keep rest_a plus the atom with the differing payload
            // positions anonymized.
            let merged_atom = Atom {
                relation: atom_a.relation.clone(),
                terms: atom_a
                    .terms
                    .iter()
                    .zip(atom_b.terms.iter())
                    .map(|(ta, tb)| if ta == tb { ta.clone() } else { Term::Anon })
                    .collect(),
            };
            let mut body: Vec<Literal> = rest_a.into_iter().cloned().collect();
            body.push(Literal::Pos(merged_atom));
            return Some(Rule::new(a.head.clone(), body));
        }
    }
    None
}

/// Null-case merge: `H ← B, {¬(x IS NULL)}` merges with its `x := NULL`
/// instance `H[x:=NULL] ← B[x:=NULL]` into `H ← B` — together the two rules
/// cover the null and non-null cases of `x` identically (the ω-padding
/// rules of DECOMPOSE ON PK, Appendix B.2).
fn null_case_merge(rules: RuleSet, pass: &mut Pass<'_>) -> RuleSet {
    let mut list: Vec<Option<Rule>> = rules.rules.into_iter().map(Some).collect();
    for i in 0..list.len() {
        for j in 0..list.len() {
            if i == j {
                continue;
            }
            let (Some(a), Some(b)) = (list[i].clone(), list[j].clone()) else {
                continue;
            };
            if a.head.relation != b.head.relation {
                continue;
            }
            // Find a `¬(x IS NULL)` condition in `a`.
            for (idx, lit) in a.body.iter().enumerate() {
                let Literal::Cond(Expr::Not(inner)) = lit else {
                    continue;
                };
                let Expr::IsNull(col) = inner.as_ref() else {
                    continue;
                };
                let Expr::Column(x) = col.as_ref() else {
                    continue;
                };
                let mut without = a.clone();
                without.body.remove(idx);
                let mut subst = BTreeMap::new();
                subst.insert(x.clone(), Term::Const(inverda_storage::Value::Null));
                // Drop trivially-true conditions the substitution creates.
                let mut candidate = substitute_terms(&without, &subst);
                candidate.body.retain(|l| match l {
                    Literal::Cond(e) => truth_value(e) != Some(true),
                    _ => true,
                });
                if canonical_rule(&candidate) == canonical_rule(&b) {
                    pass.changed = true;
                    pass.deriv.log(|| {
                        format!("null-case merge:\n    {a}\n    {b}\n  into\n    {without}")
                    });
                    list[i] = Some(without);
                    list[j] = None;
                    break;
                }
            }
        }
    }
    RuleSet::new(list.into_iter().flatten().collect())
}

/// Drop rules subsumed by another rule with the same head and a body subset.
fn subsumption(rules: RuleSet, pass: &mut Pass<'_>) -> RuleSet {
    let list = rules.rules;
    let mut keep = vec![true; list.len()];
    for i in 0..list.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..list.len() {
            if i == j || !keep[j] {
                continue;
            }
            let (r, s) = (&list[i], &list[j]);
            if r.head == s.head
                && r.body.len() < s.body.len()
                && r.body.iter().all(|l| s.body.contains(l))
            {
                keep[j] = false;
                pass.changed = true;
                pass.deriv
                    .log(|| format!("subsumption: {r}  subsumes  {s}"));
            }
        }
    }
    RuleSet::new(
        list.into_iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|(r, _)| r)
            .collect(),
    )
}

/// Check that for every `(head, input)` pair the rule set derives `head`
/// with exactly one identity rule `head(p, X…) ← input(p, X…)`, and reports
/// any head in `expected` violating this. Heads not listed are ignored.
pub fn check_identity(
    rules: &RuleSet,
    expected: &BTreeMap<String, String>,
) -> std::result::Result<(), String> {
    for (head, input) in expected {
        let for_head = rules.rules_for(head);
        if for_head.len() != 1 {
            return Err(format!(
                "head '{head}': expected exactly 1 identity rule, found {}:\n{}",
                for_head.len(),
                for_head
                    .iter()
                    .map(|r| format!("  {r}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            ));
        }
        let rule = for_head[0];
        let ok = rule.body.len() == 1
            && match &rule.body[0] {
                Literal::Pos(a) => a.relation == *input && a.terms == rule.head.terms,
                _ => false,
            };
        if !ok {
            return Err(format!(
                "head '{head}': not an identity over '{input}': {rule}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::lists_ne;

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::vars(rel, vars)
    }

    #[test]
    fn lemma2_drops_and_strips() {
        let rules = RuleSet::new(vec![
            Rule::new(
                atom("H", &["p", "a"]),
                vec![Literal::Pos(atom("Empty", &["p", "a"]))],
            ),
            Rule::new(
                atom("H", &["p", "a"]),
                vec![
                    Literal::Pos(atom("X", &["p", "a"])),
                    Literal::Neg(atom("Empty", &["p", "a"])),
                ],
            ),
        ]);
        let mut d = Derivation::new();
        let empty: BTreeSet<String> = ["Empty".to_string()].into_iter().collect();
        let out = apply_empty(&rules, &empty, &mut d);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rules[0].body.len(), 1);
        assert_eq!(d.steps.len(), 2);
    }

    #[test]
    fn silent_derivation_rewrites_identically_and_records_nothing() {
        // outer: T(p,a) ← S(p,a), ¬R(p,_), ¬Empty(p,_)   def: R(p,a) ← TD(p,a), {a > 0}
        let outer = RuleSet::new(vec![Rule::new(
            atom("T", &["p", "a"]),
            vec![
                Literal::Pos(atom("S", &["p", "a"])),
                Literal::Neg(Atom::new("R", vec![Term::var("p"), Term::Anon])),
                Literal::Neg(Atom::new("Empty", vec![Term::var("p"), Term::Anon])),
            ],
        )]);
        let defs = RuleSet::new(vec![Rule::new(
            atom("R", &["p", "a"]),
            vec![
                Literal::Pos(atom("TD", &["p", "a"])),
                Literal::Cond(Expr::col("a").gt(Expr::lit(0))),
            ],
        )]);
        let empty: BTreeSet<String> = ["Empty".to_string()].into_iter().collect();
        let run = |d: &mut Derivation| {
            let unfolded = unfold(&apply_empty(&outer, &empty, d), &defs, d);
            simplify_fixpoint(unfolded, d)
        };
        let (mut recording, mut silent) = (Derivation::new(), Derivation::silent());
        assert_eq!(run(&mut recording), run(&mut silent));
        assert!(recording.steps.len() >= 2, "Lemma 2 and Lemma 1 steps");
        assert!(silent.steps.is_empty());
    }

    #[test]
    fn positive_unfolding_inlines_definition() {
        // outer: T(p,a) ← R(p,a)        def: R(p,a) ← TD(p,a), {a > 0}
        let outer = RuleSet::new(vec![Rule::new(
            atom("T", &["p", "a"]),
            vec![Literal::Pos(atom("R", &["p", "a"]))],
        )]);
        let defs = RuleSet::new(vec![Rule::new(
            atom("R", &["p", "a"]),
            vec![
                Literal::Pos(atom("TD", &["p", "a"])),
                Literal::Cond(Expr::col("a").gt(Expr::lit(0))),
            ],
        )]);
        let mut d = Derivation::new();
        let out = unfold(&outer, &defs, &mut d);
        assert_eq!(out.len(), 1);
        let r = &out.rules[0];
        assert_eq!(r.to_string(), "T(p, a) ← TD(p, a), {a > 0}");
    }

    #[test]
    fn negative_unfolding_produces_choice_variants() {
        // outer: T(p,a) ← S(p,a), ¬R(p,_)
        // def:   R(p,a) ← TD(p,a), {a > 0}
        // Expected variants: ¬TD(p,_)  and  TD(p,a'), {¬(a' > 0)}.
        let outer = RuleSet::new(vec![Rule::new(
            atom("T", &["p", "a"]),
            vec![
                Literal::Pos(atom("S", &["p", "a"])),
                Literal::Neg(Atom::new("R", vec![Term::var("p"), Term::Anon])),
            ],
        )]);
        let defs = RuleSet::new(vec![Rule::new(
            atom("R", &["p", "a"]),
            vec![
                Literal::Pos(atom("TD", &["p", "a"])),
                Literal::Cond(Expr::col("a").gt(Expr::lit(0))),
            ],
        )]);
        let mut d = Derivation::new();
        let out = unfold(&outer, &defs, &mut d);
        assert_eq!(out.len(), 2);
        let texts: Vec<String> = out.rules.iter().map(|r| r.to_string()).collect();
        assert!(
            texts.iter().any(|t| t.contains("¬TD(p, _)")),
            "got: {texts:?}"
        );
        assert!(
            texts
                .iter()
                .any(|t| t.contains("TD(p, a_") && t.contains("NOT (a_")),
            "got: {texts:?}"
        );
    }

    #[test]
    fn lemma4_contradiction_dropped() {
        let rules = RuleSet::new(vec![Rule::new(
            atom("H", &["p", "a"]),
            vec![
                Literal::Pos(atom("X", &["p", "a"])),
                Literal::Cond(Expr::col("a").gt(Expr::lit(0))),
                Literal::Cond(Expr::col("a").gt(Expr::lit(0)).negate()),
            ],
        )]);
        let mut d = Derivation::new();
        let out = simplify_fixpoint(rules, &mut d);
        assert!(out.is_empty());
    }

    #[test]
    fn lemma4_pos_neg_same_atom_dropped() {
        let rules = RuleSet::new(vec![Rule::new(
            atom("H", &["p", "a"]),
            vec![
                Literal::Pos(atom("X", &["p", "a"])),
                Literal::Neg(Atom::new("X", vec![Term::var("p"), Term::Anon])),
            ],
        )]);
        let mut d = Derivation::new();
        let out = simplify_fixpoint(rules, &mut d);
        assert!(out.is_empty());
    }

    #[test]
    fn lemma3_merges_complementary_pair() {
        // H ← X, {a>0}  and  H ← X, {¬(a>0)}  →  H ← X.
        let c = Expr::col("a").gt(Expr::lit(0));
        let rules = RuleSet::new(vec![
            Rule::new(
                atom("H", &["p", "a"]),
                vec![
                    Literal::Pos(atom("X", &["p", "a"])),
                    Literal::Cond(c.clone()),
                ],
            ),
            Rule::new(
                atom("H", &["p", "a"]),
                vec![
                    Literal::Pos(atom("X", &["p", "a"])),
                    Literal::Cond(c.negate()),
                ],
            ),
        ]);
        let mut d = Derivation::new();
        let out = simplify_fixpoint(rules, &mut d);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rules[0].to_string(), "H(v0, v1) ← X(v0, v1)");
    }

    #[test]
    fn lemma5_unifies_same_key_atoms() {
        // S+(p,a) ← TD(p,a), TD(p,b), {a ≠ b} must vanish (Rule 38).
        let rules = RuleSet::new(vec![Rule::new(
            atom("Splus", &["p", "a"]),
            vec![
                Literal::Pos(atom("TD", &["p", "a"])),
                Literal::Pos(atom("TD", &["p", "b"])),
                Literal::Cond(lists_ne(&["a"], &["b"])),
            ],
        )]);
        let mut d = Derivation::new();
        let out = simplify_fixpoint(rules, &mut d);
        assert!(out.is_empty(), "got: {out}");
    }

    #[test]
    fn subsumption_drops_more_specific_rule() {
        let rules = RuleSet::new(vec![
            Rule::new(
                atom("H", &["p", "a"]),
                vec![Literal::Pos(atom("X", &["p", "a"]))],
            ),
            Rule::new(
                atom("H", &["p", "a"]),
                vec![
                    Literal::Pos(atom("X", &["p", "a"])),
                    Literal::Neg(Atom::new("Y", vec![Term::var("p"), Term::Anon])),
                ],
            ),
        ]);
        let mut d = Derivation::new();
        let out = simplify_fixpoint(rules, &mut d);
        assert_eq!(out.len(), 1);
        assert_eq!(out.rules[0].body.len(), 1);
    }

    #[test]
    fn twin_merge_reproduces_appendix_a_step() {
        // S(p,a) ← SD(p,a), RD(p,a)   [Rule 118]
        // S(p,a) ← SD(p,a), RD(p,a2), {a ≠ a2}   [Rule 120]
        // → S(p,a) ← SD(p,a), RD(p,_)  [Rule 122]; with
        // S(p,a) ← SD(p,a), ¬RD(p,_)  [Rule 119] → S(p,a) ← SD(p,a).
        let rules = RuleSet::new(vec![
            Rule::new(
                atom("S", &["p", "a"]),
                vec![
                    Literal::Pos(atom("SD", &["p", "a"])),
                    Literal::Pos(atom("RD", &["p", "a"])),
                ],
            ),
            Rule::new(
                atom("S", &["p", "a"]),
                vec![
                    Literal::Pos(atom("SD", &["p", "a"])),
                    Literal::Neg(Atom::new("RD", vec![Term::var("p"), Term::Anon])),
                ],
            ),
            Rule::new(
                atom("S", &["p", "a"]),
                vec![
                    Literal::Pos(atom("SD", &["p", "a"])),
                    Literal::Pos(atom("RD", &["p", "a2"])),
                    Literal::Cond(lists_ne(&["a"], &["a2"])),
                ],
            ),
        ]);
        let mut d = Derivation::new();
        let out = simplify_fixpoint(rules, &mut d);
        assert_eq!(out.len(), 1, "got:\n{out}");
        assert_eq!(out.rules[0].to_string(), "S(v0, v1) ← SD(v0, v1)");
        let mut expected = BTreeMap::new();
        expected.insert("S".to_string(), "SD".to_string());
        assert!(check_identity(&out, &expected).is_ok());
    }

    #[test]
    fn check_identity_rejects_non_identity() {
        let rules = RuleSet::new(vec![Rule::new(
            atom("H", &["p", "a"]),
            vec![
                Literal::Pos(atom("X", &["p", "a"])),
                Literal::Cond(Expr::col("a").gt(Expr::lit(0))),
            ],
        )]);
        let mut expected = BTreeMap::new();
        expected.insert("H".to_string(), "X".to_string());
        assert!(check_identity(&rules, &expected).is_err());
    }

    #[test]
    fn complementary_expressions() {
        let a = Expr::col("x").eq(Expr::lit(1));
        assert!(exprs_complementary(&a, &a.clone().negate()));
        assert!(exprs_complementary(
            &Expr::col("x").lt(Expr::col("y")),
            &Expr::col("x").ge(Expr::col("y"))
        ));
        let eq2 = crate::ast::lists_eq(&["a", "b"], &["c", "d"]);
        let ne2 = crate::ast::lists_ne(&["a", "b"], &["c", "d"]);
        assert!(exprs_complementary(&eq2, &ne2));
        assert!(!exprs_complementary(&a, &a));
    }

    #[test]
    fn rename_relations_rewrites_atoms() {
        let rules = RuleSet::new(vec![Rule::new(
            atom("T", &["p", "a"]),
            vec![Literal::Pos(atom("T", &["p", "a"]))],
        )]);
        let mut map = BTreeMap::new();
        map.insert("T".to_string(), "TD".to_string());
        let out = rename_relations(&rules, &map);
        // Head and body both renamed (callers rename heads/bodies separately
        // in compositions by applying to the right rule set).
        assert_eq!(out.rules[0].to_string(), "TD(p, a) ← TD(p, a)");
    }
}

//! Rule AST for the paper's extended Datalog.
//!
//! Conventions carried over from Section 4:
//!
//! * every atom's **first term is the key position** (the InVerDa identifier
//!   `p`);
//! * attribute-list variables (capital letters in the paper, e.g. `A`) are
//!   already expanded to one variable per column when rules are instantiated
//!   from an SMO's parameters, so a term here is always a single variable,
//!   an anonymous `_`, or a constant;
//! * condition predicates `cR(A)` and functions `f(r1,…,rn)` are carried as
//!   [`Expr`] trees whose column names *are* the rule variable names;
//! * `t = idT(B)` skolem assignments model the id-generating functions of
//!   Appendix B.3/B.4/B.6.

use inverda_storage::{Expr, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A term in an atom.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Term {
    /// A named variable.
    Var(String),
    /// The anonymous variable `_` (matches anything, binds nothing).
    Anon,
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Named-variable constructor.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// The variable name if this is a named variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Anon => write!(f, "_"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An atom `q(t0, t1, …, tn)`; `t0` is the key position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Relation name.
    pub relation: String,
    /// Terms; index 0 is the key position `p`.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Build an atom.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Atom {
        Atom {
            relation: relation.into(),
            terms,
        }
    }

    /// Build an atom whose terms are all named variables.
    pub fn vars(relation: impl Into<String>, names: &[&str]) -> Atom {
        Atom {
            relation: relation.into(),
            terms: names.iter().map(|n| Term::var(*n)).collect(),
        }
    }

    /// The key term (position 0).
    pub fn key_term(&self) -> &Term {
        &self.terms[0]
    }

    /// Named variables occurring in the atom (in position order, with dups).
    pub fn variables(&self) -> Vec<&str> {
        self.terms.iter().filter_map(|t| t.as_var()).collect()
    }

    /// Rename variables according to the mapping.
    pub fn rename(&self, mapping: &BTreeMap<String, String>) -> Atom {
        Atom {
            relation: self.relation.clone(),
            terms: self
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => match mapping.get(v) {
                        Some(n) => Term::Var(n.clone()),
                        None => t.clone(),
                    },
                    other => other.clone(),
                })
                .collect(),
        }
    }

    /// Replace every variable not in `keep` with `_`.
    pub fn anonymize_except(&self, keep: &[&str]) -> Atom {
        Atom {
            relation: self.relation.clone(),
            terms: self
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) if !keep.contains(&v.as_str()) => Term::Anon,
                    other => other.clone(),
                })
                .collect(),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.terms.iter().map(|t| t.to_string()).collect();
        write!(f, "{}({})", self.relation, parts.join(", "))
    }
}

/// A body literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Positive atom.
    Pos(Atom),
    /// Negated atom.
    Neg(Atom),
    /// Condition predicate (`cR(A)`, `A ≠ A'`, …) over rule variables.
    Cond(Expr),
    /// Function assignment `var = f(…)`. Acts as an equality check when the
    /// variable is already bound.
    Assign {
        /// Assigned variable.
        var: String,
        /// Function over rule variables.
        expr: Expr,
    },
    /// Skolem assignment `var = idG(args)`: a memoized id-generating function
    /// (a "regular SQL sequence" per Appendix B.3). Equal argument tuples
    /// always yield the same generated id.
    Skolem {
        /// Assigned variable.
        var: String,
        /// Generator name (e.g. `id_Author`).
        generator: String,
        /// Argument terms (variables or constants).
        args: Vec<Term>,
    },
}

impl Literal {
    /// The relation addressed, for (positive or negative) atoms.
    pub fn relation(&self) -> Option<&str> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => Some(&a.relation),
            _ => None,
        }
    }

    /// All named variables occurring in the literal.
    pub fn variables(&self) -> Vec<String> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => {
                a.variables().into_iter().map(String::from).collect()
            }
            Literal::Cond(e) => e.referenced_columns(),
            Literal::Assign { var, expr } => {
                let mut v = expr.referenced_columns();
                v.push(var.clone());
                v
            }
            Literal::Skolem { var, args, .. } => {
                let mut v: Vec<String> = args
                    .iter()
                    .filter_map(|t| t.as_var().map(String::from))
                    .collect();
                v.push(var.clone());
                v
            }
        }
    }

    /// Rename variables according to the mapping (including inside
    /// expressions).
    pub fn rename(&self, mapping: &BTreeMap<String, String>) -> Literal {
        match self {
            Literal::Pos(a) => Literal::Pos(a.rename(mapping)),
            Literal::Neg(a) => Literal::Neg(a.rename(mapping)),
            Literal::Cond(e) => Literal::Cond(e.rename_columns(mapping)),
            Literal::Assign { var, expr } => Literal::Assign {
                var: mapping.get(var).cloned().unwrap_or_else(|| var.clone()),
                expr: expr.rename_columns(mapping),
            },
            Literal::Skolem {
                var,
                generator,
                args,
            } => Literal::Skolem {
                var: mapping.get(var).cloned().unwrap_or_else(|| var.clone()),
                generator: generator.clone(),
                args: args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => {
                            Term::Var(mapping.get(v).cloned().unwrap_or_else(|| v.clone()))
                        }
                        other => other.clone(),
                    })
                    .collect(),
            },
        }
    }

    /// True for `Pos`.
    pub fn is_positive_atom(&self) -> bool {
        matches!(self, Literal::Pos(_))
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "¬{a}"),
            Literal::Cond(e) => write!(f, "{{{e}}}"),
            Literal::Assign { var, expr } => write!(f, "{var} = {expr}"),
            Literal::Skolem {
                var,
                generator,
                args,
            } => {
                let parts: Vec<String> = args.iter().map(|t| t.to_string()).collect();
                write!(f, "{var} = {generator}({})", parts.join(", "))
            }
        }
    }
}

/// A rule `head ← body`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Head atom; its first term is the derived key.
    pub head: Atom,
    /// Body literals (conjunction).
    pub body: Vec<Literal>,
}

impl Rule {
    /// Build a rule.
    pub fn new(head: Atom, body: Vec<Literal>) -> Rule {
        Rule { head, body }
    }

    /// The head's key variable name, if it is a named variable.
    pub fn head_key_var(&self) -> Option<&str> {
        self.head.key_term().as_var()
    }

    /// All variables of the rule (head + body), deduped, in first-occurrence
    /// order.
    pub fn variables(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for v in self.head.variables() {
            if !seen.iter().any(|s: &String| s == v) {
                seen.push(v.to_string());
            }
        }
        for lit in &self.body {
            for v in lit.variables() {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        seen
    }

    /// Rename variables according to the mapping.
    pub fn rename(&self, mapping: &BTreeMap<String, String>) -> Rule {
        Rule {
            head: self.head.rename(mapping),
            body: self.body.iter().map(|l| l.rename(mapping)).collect(),
        }
    }

    /// Canonical form: variables renamed `v0, v1, …` by first occurrence.
    /// Two rules that are equal up to variable renaming have equal canonical
    /// forms (used by Lemma 3's "or can be renamed to be so").
    pub fn canonicalize(&self) -> Rule {
        let vars = self.variables();
        let mapping: BTreeMap<String, String> = vars
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, format!("v{i}")))
            .collect();
        self.rename(&mapping)
    }

    /// Relations referenced in body atoms (positive and negative).
    pub fn body_relations(&self) -> Vec<&str> {
        self.body.iter().filter_map(|l| l.relation()).collect()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.body.iter().map(|l| l.to_string()).collect();
        write!(f, "{} ← {}", self.head, parts.join(", "))
    }
}

/// An ordered rule set.
///
/// Order matters: evaluation is staged — later rules may reference the heads
/// of earlier rules, which realizes the paper's `old`/`new` sequencing for
/// the id-generating SMOs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleSet {
    /// Rules in evaluation order.
    pub rules: Vec<Rule>,
}

impl RuleSet {
    /// Build from rules.
    pub fn new(rules: Vec<Rule>) -> RuleSet {
        RuleSet { rules }
    }

    /// Distinct head relation names, in first-derivation order.
    pub fn head_relations(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for r in &self.rules {
            if !out.contains(&r.head.relation) {
                out.push(r.head.relation.clone());
            }
        }
        out
    }

    /// All rules deriving `head`.
    pub fn rules_for(&self, head: &str) -> Vec<&Rule> {
        self.rules
            .iter()
            .filter(|r| r.head.relation == head)
            .collect()
    }

    /// Distinct relation names referenced in bodies that are *not* derived
    /// by the rule set itself — i.e. the EDB inputs.
    pub fn input_relations(&self) -> Vec<String> {
        let heads = self.head_relations();
        let mut out: Vec<String> = Vec::new();
        for r in &self.rules {
            for rel in r.body_relations() {
                if !heads.iter().any(|h| h == rel) && !out.iter().any(|o| o == rel) {
                    out.push(rel.to_string());
                }
            }
        }
        out
    }

    /// The **slice** deriving `heads`: the rules of every head in the
    /// backward dependency closure of `heads` within this set — the heads
    /// themselves, plus every head of the set a kept rule reads, positively
    /// or negatively — in their original order. Names the set does not
    /// derive are ignored, so the slice of nothing the set derives is empty.
    ///
    /// Evaluated, the slice derives what the whole set derives for every
    /// head it keeps: a kept rule reads only inputs and kept heads, a kept
    /// head keeps all of its rules, and the order is unchanged, so each
    /// staged read sees the same partial state it sees in the whole set.
    /// What the rules left out would have *done* — mint ids, raise an
    /// error — is the caller's argument to make.
    pub fn slice<'h>(&self, heads: impl IntoIterator<Item = &'h str>) -> RuleSet {
        let derived: BTreeSet<&str> = self
            .rules
            .iter()
            .map(|r| r.head.relation.as_str())
            .collect();
        let mut kept: BTreeSet<&str> = heads
            .into_iter()
            .filter_map(|head| derived.get(head).copied())
            .collect();
        let mut pending: Vec<&str> = kept.iter().copied().collect();
        while let Some(head) = pending.pop() {
            for rule in self.rules.iter().filter(|r| r.head.relation == head) {
                for rel in rule.body_relations() {
                    if let Some(&read) = derived.get(rel) {
                        if kept.insert(read) {
                            pending.push(read);
                        }
                    }
                }
            }
        }
        RuleSet::new(
            self.rules
                .iter()
                .filter(|r| kept.contains(r.head.relation.as_str()))
                .cloned()
                .collect(),
        )
    }

    /// Append all rules of another set.
    pub fn extend(&mut self, other: RuleSet) {
        self.rules.extend(other.rules);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True iff there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

/// Build the list-disequality condition `A ≠ A'` of the paper (e.g. Rule 23):
/// true iff any component differs.
pub fn lists_ne(a: &[&str], b: &[&str]) -> Expr {
    assert_eq!(a.len(), b.len(), "attribute lists must have equal length");
    assert!(!a.is_empty(), "attribute lists must be non-empty");
    let mut iter = a.iter().zip(b.iter());
    let (x, y) = iter.next().expect("non-empty");
    let mut expr = Expr::col(*x).ne(Expr::col(*y));
    for (x, y) in iter {
        expr = expr.or(Expr::col(*x).ne(Expr::col(*y)));
    }
    expr
}

/// Build the list-equality condition `A = A'`: all components equal.
pub fn lists_eq(a: &[&str], b: &[&str]) -> Expr {
    assert_eq!(a.len(), b.len(), "attribute lists must have equal length");
    assert!(!a.is_empty(), "attribute lists must be non-empty");
    let mut iter = a.iter().zip(b.iter());
    let (x, y) = iter.next().expect("non-empty");
    let mut expr = Expr::col(*x).eq(Expr::col(*y));
    for (x, y) in iter {
        expr = expr.and(Expr::col(*x).eq(Expr::col(*y)));
    }
    expr
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split_gamma_src() -> RuleSet {
        // Rules 18-20 of the paper: T from R, S, T'.
        RuleSet::new(vec![
            Rule::new(
                Atom::vars("T", &["p", "a"]),
                vec![Literal::Pos(Atom::vars("R", &["p", "a"]))],
            ),
            Rule::new(
                Atom::vars("T", &["p", "a"]),
                vec![
                    Literal::Pos(Atom::vars("S", &["p", "a"])),
                    Literal::Neg(Atom::new("R", vec![Term::var("p"), Term::Anon])),
                ],
            ),
            Rule::new(
                Atom::vars("T", &["p", "a"]),
                vec![Literal::Pos(Atom::vars("T'", &["p", "a"]))],
            ),
        ])
    }

    #[test]
    fn head_and_input_relations() {
        let rs = split_gamma_src();
        assert_eq!(rs.head_relations(), vec!["T"]);
        assert_eq!(rs.input_relations(), vec!["R", "S", "T'"]);
        assert_eq!(rs.rules_for("T").len(), 3);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn slice_keeps_the_backward_closure_in_rule_order() {
        let pos = |rel: &str| Literal::Pos(Atom::vars(rel, &["p", "a"]));
        let neg = |rel: &str| Literal::Neg(Atom::new(rel, vec![Term::var("p"), Term::Anon]));
        let head = |rel: &str| Atom::vars(rel, &["p", "a"]);
        // A staged set: `Sn` is an intermediate two heads read, `Aux` is
        // derived twice and read negatively by `Z`.
        let rs = RuleSet::new(vec![
            Rule::new(head("Sn"), vec![pos("T")]),
            Rule::new(head("R"), vec![pos("Sn"), neg("X")]),
            Rule::new(head("Aux"), vec![pos("Sn"), pos("X")]),
            Rule::new(head("Other"), vec![pos("R")]),
            Rule::new(head("Aux"), vec![pos("Y")]),
            Rule::new(head("Z"), vec![pos("T"), neg("Aux")]),
        ]);
        let picked = |heads: &[&str]| -> Vec<usize> {
            let slice = rs.slice(heads.iter().copied());
            slice
                .rules
                .iter()
                .map(|r| rs.rules.iter().position(|o| o == r).unwrap())
                .collect()
        };
        assert_eq!(picked(&["Aux"]), vec![0, 2, 4]);
        assert_eq!(picked(&["Other"]), vec![0, 1, 3]);
        assert_eq!(picked(&["Z"]), vec![0, 2, 4, 5]);
        assert_eq!(picked(&["Aux", "R"]), vec![0, 1, 2, 4]);
        assert_eq!(picked(&["Sn"]), vec![0]);
        // Inputs and unknown names select nothing.
        assert!(rs.slice(["T", "X", "nope"]).is_empty());
        assert!(rs.slice([]).is_empty());
        assert_eq!(rs.slice(rs.head_relations().iter().map(String::as_str)), rs);
    }

    #[test]
    fn display_matches_paper_style() {
        let rs = split_gamma_src();
        let text = rs.rules[1].to_string();
        assert_eq!(text, "T(p, a) ← S(p, a), ¬R(p, _)");
    }

    #[test]
    fn rule_variables_in_occurrence_order() {
        let r = Rule::new(
            Atom::vars("H", &["p", "x"]),
            vec![
                Literal::Pos(Atom::vars("B", &["p", "y"])),
                Literal::Cond(Expr::col("x").eq(Expr::col("y"))),
            ],
        );
        assert_eq!(r.variables(), vec!["p", "x", "y"]);
    }

    #[test]
    fn canonicalization_equates_alpha_variants() {
        let r1 = Rule::new(
            Atom::vars("H", &["p", "a"]),
            vec![Literal::Pos(Atom::vars("B", &["p", "a"]))],
        );
        let r2 = Rule::new(
            Atom::vars("H", &["q", "z"]),
            vec![Literal::Pos(Atom::vars("B", &["q", "z"]))],
        );
        assert_eq!(r1.canonicalize(), r2.canonicalize());
    }

    #[test]
    fn rename_reaches_expressions_and_skolems() {
        let r = Rule::new(
            Atom::vars("H", &["p", "b"]),
            vec![
                Literal::Cond(Expr::col("b").gt(Expr::lit(1))),
                Literal::Assign {
                    var: "b".into(),
                    expr: Expr::col("a"),
                },
                Literal::Skolem {
                    var: "t".into(),
                    generator: "id_T".into(),
                    args: vec![Term::var("b")],
                },
            ],
        );
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), "bb".to_string());
        let r2 = r.rename(&m);
        assert_eq!(r2.head.terms[1], Term::var("bb"));
        match &r2.body[0] {
            Literal::Cond(e) => assert_eq!(e.to_string(), "bb > 1"),
            other => panic!("unexpected {other}"),
        }
        match &r2.body[2] {
            Literal::Skolem { args, .. } => assert_eq!(args[0], Term::var("bb")),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn anonymize_except_keeps_listed_vars() {
        let a = Atom::vars("R", &["p", "x", "y"]);
        let b = a.anonymize_except(&["p"]);
        assert_eq!(b.terms, vec![Term::var("p"), Term::Anon, Term::Anon]);
    }

    #[test]
    fn list_conditions() {
        let ne = lists_ne(&["a", "b"], &["a2", "b2"]);
        assert_eq!(ne.to_string(), "(a <> a2 OR b <> b2)");
        let eq = lists_eq(&["a"], &["a2"]);
        assert_eq!(eq.to_string(), "a = a2");
    }
}

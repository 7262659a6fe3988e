//! γ-chain fusion: statically compose adjacent SMO mappings.
//!
//! A cold read of a virtual table version k hops from its data evaluates k
//! rule sets, each materializing one intermediate version. For the
//! column-level SMOs (ADD/DROP/RENAME COLUMN, RENAME TABLE) the composition
//! is itself expressible as a single rule set: the intermediate version's
//! defining rules are inlined into their consumer with Lemma 1
//! ([`crate::simplify::unfold`]) — body-atom substitution with variable
//! renaming for positive occurrences, the `t(K)` choice construction for
//! negative ones. This module provides the policy around that mechanism:
//!
//! * the structural gate [`hop_fusable`]: a mapping participates in a fused
//!   run only if it is skolem-free (fused runs must not reorder id minting)
//!   and non-staged (staged sets consume their own intermediate heads, which
//!   inlining would have to evaluate in sequence);
//! * [`inline_hop`], one fusion step under a [`FusionBudget`] — negative
//!   unfolding multiplies rule counts (an ADD COLUMN hop has an aux-present
//!   and an aux-absent rule, so k naive hops can cost 2^k rules), so a run
//!   whose fused form outgrows the budget simply stops early and leaves the
//!   remaining hops to ordinary recursive resolution.
//!
//! The caller (the core crate's `VersionedEdb`) decides *which* hops to
//! fuse — SMO kinds, aux-emptiness assumptions, and caching live there,
//! next to the catalog; this module is pure rule-set surgery.

use crate::ast::{Literal, RuleSet};
use crate::simplify::{unfold_within, Derivation};
use std::collections::BTreeSet;

/// Size bounds on a fused rule set. Fusion trades k small evaluations for
/// one larger one; past these bounds the larger one stops winning (and
/// negative unfolding can grow exponentially), so the run is cut short.
#[derive(Debug, Clone, Copy)]
pub struct FusionBudget {
    /// Maximum rules in the fused set.
    pub max_rules: usize,
    /// Maximum body literals in any single fused rule.
    pub max_body: usize,
}

impl Default for FusionBudget {
    fn default() -> Self {
        FusionBudget {
            max_rules: 64,
            max_body: 32,
        }
    }
}

/// Whether `rules` fits within `budget`.
pub fn within_budget(rules: &RuleSet, budget: &FusionBudget) -> bool {
    rules.len() <= budget.max_rules && rules.rules.iter().all(|r| r.body.len() <= budget.max_body)
}

/// Structural gate: a mapping may participate in a fused run only if it is
/// **skolem-free** (no rule binds a variable through a generator — fusing a
/// minting hop would evaluate its generators under a different outer rule
/// set, changing the canonical minting order) and **non-staged** (no body
/// atom references a head of the same set; staged intermediates are
/// evaluated in rule order, which inlining does not preserve).
pub fn hop_fusable(rules: &RuleSet) -> bool {
    let heads: BTreeSet<&str> = rules
        .rules
        .iter()
        .map(|r| r.head.relation.as_str())
        .collect();
    for rule in &rules.rules {
        for lit in &rule.body {
            match lit {
                Literal::Skolem { .. } => return false,
                Literal::Pos(a) | Literal::Neg(a) if heads.contains(a.relation.as_str()) => {
                    return false;
                }
                _ => {}
            }
        }
    }
    true
}

/// One fusion step: inline `defs` (the defining rules of one intermediate
/// relation) into every occurrence in `outer`, returning the fused set —
/// or `None` when the result outgrows `budget`, in which case the caller
/// keeps `outer` and lets ordinary resolution handle the remaining hops.
/// The unfolding stops at the first rule past the budget; the verdict and
/// the fused set are those of unfolding in full and checking
/// [`within_budget`] afterwards.
///
/// `defs` must be restricted to the rules of the single relation being
/// inlined and must satisfy [`hop_fusable`]; under those conditions
/// [`unfold`](crate::simplify::unfold) terminates and is exact (Lemma 1 over
/// functional relations).
pub fn inline_hop(outer: &RuleSet, defs: &RuleSet, budget: &FusionBudget) -> Option<RuleSet> {
    unfold_within(
        outer,
        defs,
        &mut Derivation::silent(),
        budget.max_rules,
        budget.max_body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Rule, Term};

    fn atom(rel: &str, vars: &[&str]) -> Atom {
        Atom::vars(rel, vars)
    }

    #[test]
    fn staged_and_minting_sets_are_not_fusable() {
        let staged = RuleSet::new(vec![
            Rule::new(
                atom("Mid", &["p", "a"]),
                vec![Literal::Pos(atom("In", &["p", "a"]))],
            ),
            Rule::new(
                atom("Out", &["p", "a"]),
                vec![Literal::Pos(atom("Mid", &["p", "a"]))],
            ),
        ]);
        assert!(!hop_fusable(&staged));
        let minting = RuleSet::new(vec![Rule::new(
            atom("Out", &["p", "a", "i"]),
            vec![
                Literal::Pos(atom("In", &["p", "a"])),
                Literal::Skolem {
                    var: "i".to_string(),
                    generator: "idT".to_string(),
                    args: vec![Term::var("a")],
                },
            ],
        )]);
        assert!(!hop_fusable(&minting));
        let plain = RuleSet::new(vec![Rule::new(
            atom("Out", &["p", "a"]),
            vec![Literal::Pos(atom("In", &["p", "a"]))],
        )]);
        assert!(hop_fusable(&plain));
    }

    #[test]
    fn inline_hop_composes_rename_chain() {
        // V3(p,a) ← V2(p,a); V2(p,a) ← V1(p,a) fuse to V3(p,a) ← V1(p,a).
        let outer = RuleSet::new(vec![Rule::new(
            atom("V3", &["p", "a"]),
            vec![Literal::Pos(atom("V2", &["p", "a"]))],
        )]);
        let defs = RuleSet::new(vec![Rule::new(
            atom("V2", &["p", "a"]),
            vec![Literal::Pos(atom("V1", &["p", "a"]))],
        )]);
        let fused = inline_hop(&outer, &defs, &FusionBudget::default()).unwrap();
        assert_eq!(fused.len(), 1);
        assert_eq!(fused.rules[0].to_string(), "V3(p, a) ← V1(p, a)");
    }

    #[test]
    fn budget_overflow_rejects_fusion() {
        let outer = RuleSet::new(vec![Rule::new(
            atom("V3", &["p", "a"]),
            vec![Literal::Pos(atom("V2", &["p", "a"]))],
        )]);
        let defs = RuleSet::new(
            (0..4)
                .map(|i| {
                    Rule::new(
                        atom("V2", &["p", "a"]),
                        vec![Literal::Pos(atom(&format!("V1_{i}"), &["p", "a"]))],
                    )
                })
                .collect(),
        );
        let tight = FusionBudget {
            max_rules: 2,
            max_body: 32,
        };
        assert!(inline_hop(&outer, &defs, &tight).is_none());
        assert!(inline_hop(&outer, &defs, &FusionBudget::default()).is_some());
    }

    /// A rule over `In0`/`In1` and the relation being inlined, `Mid`:
    /// each selector byte picks one body literal.
    fn generated_rule(head: &str, literals: &[u8]) -> Rule {
        let mut body = vec![Literal::Pos(atom("In0", &["p", "a"]))];
        for sel in literals {
            body.push(match sel % 5 {
                0 => Literal::Pos(atom("Mid", &["p", "a"])),
                1 => Literal::Neg(atom("Mid", &["p", "a"])),
                2 => Literal::Neg(Atom::new("Mid", vec![Term::var("p"), Term::Anon])),
                3 => Literal::Neg(atom("In1", &["p", "a"])),
                _ => {
                    Literal::Cond(inverda_storage::Expr::col("a").eq(inverda_storage::Expr::lit(1)))
                }
            });
        }
        Rule::new(atom(head, &["p", "a"]), body)
    }

    proptest::proptest! {
        /// Stopping at the first rule past the budget changes neither the
        /// verdict nor the fused set.
        #[test]
        fn bounded_unfold_equals_unfold_then_check(
            outer in proptest::collection::vec(proptest::collection::vec(0u8..5, 0..4), 1..4),
            defs in proptest::collection::vec(proptest::collection::vec(3u8..5, 0..3), 1..4),
            max_rules in 1usize..12,
            max_body in 1usize..10,
        ) {
            let outer = RuleSet::new(outer.iter().map(|l| generated_rule("Out", l)).collect());
            let defs = RuleSet::new(defs.iter().map(|l| generated_rule("Mid", l)).collect());
            let budget = FusionBudget { max_rules, max_body };
            let full = crate::simplify::unfold(&outer, &defs, &mut Derivation::new());
            let expected = within_budget(&full, &budget).then_some(full);
            proptest::prop_assert_eq!(inline_hop(&outer, &defs, &budget), expected);
        }
    }
}

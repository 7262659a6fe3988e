//! Mechanical bidirectionality verification (Section 5, Appendix A).
//!
//! For an SMO with mappings γ_tgt / γ_src, the paper's conditions are
//!
//! * (27) `D_src = γ_src^data(γ_tgt(D_src))` — write the source data to the
//!   target side, read it back: nothing lost, nothing gained;
//! * (26) `D_tgt = γ_tgt^data(γ_src(D_tgt))` — vice versa.
//!
//! This module reproduces the paper's *syntactic* proof: label the original
//! relations (`T → T_D`), drop the auxiliaries that are empty on the
//! materialized side (Lemma 2), unfold the inner mapping into the outer one
//! (Lemma 1) and simplify with Lemmas 3–5 until only identity rules remain.
//!
//! The syntactic check applies to the SMOs without id-generating skolem
//! functions (SPLIT, MERGE, ADD/DROP COLUMN, DECOMPOSE/OUTER JOIN ON PK,
//! JOIN ON PK/FK). The id-generating SMOs (FK/cond decompose, cond join)
//! require reasoning about skolem equalities that plain rule rewriting
//! cannot express; their round-trip laws are verified *semantically* by the
//! property tests in `inverda-core`.

use crate::semantics::DerivedSmo;
use inverda_datalog::simplify::{
    apply_empty, check_identity, rename_relations, simplify_fixpoint, Derivation,
};
use inverda_datalog::RuleSet;
use std::collections::{BTreeMap, BTreeSet};

/// Which round-trip condition to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundTrip {
    /// Condition (27): data starts on the source side.
    FromSource,
    /// Condition (26): data starts on the target side.
    FromTarget,
}

/// Outcome of a verification run.
#[derive(Debug)]
pub struct VerificationReport {
    /// The SMO kind verified.
    pub smo: String,
    /// The direction checked.
    pub round_trip: RoundTrip,
    /// Whether all data tables simplified to identity rules.
    pub identity_ok: bool,
    /// Diagnostic when `identity_ok` is false.
    pub failure: Option<String>,
    /// Rules remaining for auxiliary heads (legitimately non-empty for
    /// value-calculating SMOs, cf. Rule 131).
    pub residual_aux_rules: Vec<String>,
    /// The final simplified rule set.
    pub simplified: RuleSet,
    /// The proof transcript (every lemma application).
    pub derivation: Derivation,
}

impl VerificationReport {
    /// True when the round trip provably preserves the data tables.
    pub fn is_proved(&self) -> bool {
        self.identity_ok
    }
}

/// Remove `¬allnull` guards that are vacuous under the ω-free assumption:
/// a condition of shape `¬IsNull(x1) ∨ … ∨ ¬IsNull(xn)` is true whenever
/// `{x1,…,xn}` is exactly the payload of a labeled (`…@D`) body atom,
/// because labeled data tables hold no all-NULL rows.
fn omega_free_pass(rules: &RuleSet, derivation: &mut Derivation) -> RuleSet {
    use inverda_datalog::ast::{Literal, Rule, Term};
    let mut out = Vec::new();
    for rule in &rules.rules {
        let labeled_payloads: Vec<BTreeSet<String>> = rule
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::Pos(a) if a.relation.ends_with("@D") => Some(
                    a.terms[1..]
                        .iter()
                        .filter_map(|t| match t {
                            Term::Var(v) => Some(v.clone()),
                            _ => None,
                        })
                        .collect::<BTreeSet<String>>(),
                ),
                _ => None,
            })
            .collect();
        let body: Vec<Literal> = rule
            .body
            .iter()
            .filter(|l| {
                if let Literal::Cond(e) = l {
                    if let Some(vars) = nonnull_disjunct_vars(e) {
                        if labeled_payloads.contains(&vars) {
                            derivation
                                .steps
                                .push(format!("ω-free assumption: removed {{{e}}} in: {rule}"));
                            return false;
                        }
                    }
                }
                true
            })
            .cloned()
            .collect();
        out.push(Rule::new(rule.head.clone(), body));
    }
    RuleSet::new(out)
}

/// If `e` is a disjunction tree of `¬IsNull(var)` leaves, the variable set.
fn nonnull_disjunct_vars(e: &inverda_storage::Expr) -> Option<BTreeSet<String>> {
    use inverda_storage::Expr;
    match e {
        Expr::Or(a, b) => {
            let mut va = nonnull_disjunct_vars(a)?;
            let vb = nonnull_disjunct_vars(b)?;
            va.extend(vb);
            Some(va)
        }
        Expr::Not(inner) => match inner.as_ref() {
            Expr::IsNull(x) => match x.as_ref() {
                Expr::Column(v) => {
                    let mut s = BTreeSet::new();
                    s.insert(v.clone());
                    Some(s)
                }
                _ => None,
            },
            _ => None,
        },
        _ => None,
    }
}

/// Whether the SMO is eligible for the syntactic proof (no skolem terms).
pub fn syntactically_verifiable(smo: &DerivedSmo) -> bool {
    smo.generators.is_empty() && !smo.to_tgt.is_empty() && !smo.to_src.is_empty()
}

/// Run the syntactic round-trip proof for one SMO instance.
pub fn verify_round_trip(smo: &DerivedSmo, round_trip: RoundTrip) -> VerificationReport {
    let mut derivation = Derivation::new();

    // Choose inner/outer mapping and the side whose data is labeled.
    let (inner, outer, data_tables, empty_aux): (&RuleSet, &RuleSet, Vec<_>, Vec<String>) =
        match round_trip {
            RoundTrip::FromSource => (
                &smo.to_tgt,
                &smo.to_src,
                smo.src_data.clone(),
                // Target-side materialization: source-side aux are empty.
                smo.src_aux
                    .iter()
                    .map(|a| a.rel.clone())
                    .chain(smo.shared_aux.iter().map(|s| s.old_name.clone()))
                    .collect(),
            ),
            RoundTrip::FromTarget => (
                &smo.to_src,
                &smo.to_tgt,
                smo.tgt_data.clone(),
                smo.tgt_aux
                    .iter()
                    .map(|a| a.rel.clone())
                    .chain(smo.shared_aux.iter().map(|s| s.old_name.clone()))
                    .collect(),
            ),
        };

    // 1. Label original data relations: X → X@D.
    let label: BTreeMap<String, String> = data_tables
        .iter()
        .map(|t| (t.rel.clone(), format!("{}@D", t.rel)))
        .collect();
    derivation.steps.push(format!(
        "label original relations: {}",
        label
            .iter()
            .map(|(a, b)| format!("{a} → {b}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let inner_labeled = rename_relations(inner, &label);
    // Heads of the inner mapping must keep their names — rename only body
    // occurrences of the labeled inputs. `rename_relations` renames heads
    // too, but inner heads live on the *other* side, so they are disjoint
    // from the data tables being labeled (identity SMOs excepted — they use
    // distinct src#/tgt# prefixes).

    // 2. Lemma 2: the unmaterialized side's auxiliaries are empty.
    let empties: BTreeSet<String> = empty_aux.into_iter().collect();
    let inner_clean = apply_empty(&inner_labeled, &empties, &mut derivation);

    // 3. Lemma 1: unfold the inner mapping into the outer one.
    let composed = inverda_datalog::simplify::unfold(outer, &inner_clean, &mut derivation);

    // 3b. Lemma 2 again: after unfolding, the only extensional relations of
    // the composition are the labeled `…@D` tables. Any remaining body
    // literal over an unlabeled relation (an inner head without defining
    // rules, e.g. the single-arm split's R⁻) is empty by construction.
    let residual_inputs: BTreeSet<String> = composed
        .rules
        .iter()
        .flat_map(|r| {
            r.body_relations()
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        })
        .filter(|rel| !rel.ends_with("@D"))
        .collect();
    let composed = if residual_inputs.is_empty() {
        composed
    } else {
        apply_empty(&composed, &residual_inputs, &mut derivation)
    };

    // 4. Lemmas 3–5 to fixpoint.
    let simplified = simplify_fixpoint(composed, &mut derivation);

    // 4b. ω-free integrity assumption: labeled data tables contain no
    // all-NULL rows (the ω convention of Appendix B.2: an all-ω side *is*
    // the absent side). The paper applies this silently — its rules 133/134
    // guard `A ≠ ω` and the claimed identities 139/140 assume the guard is
    // vacuous over real data. Removing those guards can enable further
    // merges, so re-run the fixpoint afterwards.
    let cleaned = omega_free_pass(&simplified, &mut derivation);
    let simplified = if cleaned != simplified {
        simplify_fixpoint(cleaned, &mut derivation)
    } else {
        simplified
    };

    // 5. Identity check on the data tables.
    let expected: BTreeMap<String, String> = data_tables
        .iter()
        .map(|t| (t.rel.clone(), format!("{}@D", t.rel)))
        .collect();
    let check = check_identity(&simplified, &expected);

    // Residual aux rules (informational).
    let data_heads: BTreeSet<&String> = expected.keys().collect();
    let residual_aux_rules: Vec<String> = simplified
        .rules
        .iter()
        .filter(|r| !data_heads.contains(&r.head.relation))
        .map(|r| r.to_string())
        .collect();

    VerificationReport {
        smo: smo.kind.to_string(),
        round_trip,
        identity_ok: check.is_ok(),
        failure: check.err(),
        residual_aux_rules,
        simplified,
        derivation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Smo, SplitArm, TableSig};
    use crate::semantics::derive_smo;
    use inverda_storage::Expr;
    use std::collections::BTreeMap;

    fn schemas(entries: &[(&str, &[&str])]) -> BTreeMap<String, Vec<String>> {
        entries
            .iter()
            .map(|(t, cols)| (t.to_string(), cols.iter().map(|c| c.to_string()).collect()))
            .collect()
    }

    fn assert_proved(smo: &Smo, src: &BTreeMap<String, Vec<String>>) {
        let d = derive_smo(smo, src).unwrap();
        assert!(syntactically_verifiable(&d), "{} not verifiable", d.kind);
        for rt in [RoundTrip::FromSource, RoundTrip::FromTarget] {
            let report = verify_round_trip(&d, rt);
            assert!(
                report.is_proved(),
                "{:?} of {} failed: {:?}\nsimplified:\n{}",
                rt,
                d.kind,
                report.failure,
                report.simplified
            );
        }
    }

    #[test]
    fn split_two_arms_is_bidirectional() {
        // The paper's Appendix A result, mechanically re-derived.
        let smo = Smo::Split {
            table: "T".into(),
            first: SplitArm {
                table: "R".into(),
                condition: Expr::col("a").lt(Expr::lit(5)),
            },
            second: Some(SplitArm {
                table: "S".into(),
                condition: Expr::col("a").ge(Expr::lit(3)),
            }),
        };
        assert_proved(&smo, &schemas(&[("T", &["a", "b"])]));
    }

    #[test]
    fn split_single_arm_is_bidirectional() {
        let smo = Smo::Split {
            table: "Task".into(),
            first: SplitArm {
                table: "Todo".into(),
                condition: Expr::col("prio").eq(Expr::lit(1)),
            },
            second: None,
        };
        assert_proved(&smo, &schemas(&[("Task", &["author", "task", "prio"])]));
    }

    #[test]
    fn merge_is_bidirectional() {
        let smo = Smo::Merge {
            first: SplitArm {
                table: "R".into(),
                condition: Expr::col("a").lt(Expr::lit(0)),
            },
            second: SplitArm {
                table: "S".into(),
                condition: Expr::col("a").ge(Expr::lit(0)),
            },
            into: "T".into(),
        };
        assert_proved(&smo, &schemas(&[("R", &["a"]), ("S", &["a"])]));
    }

    #[test]
    fn add_column_round_trip_keeps_data_and_fills_aux() {
        let smo = Smo::AddColumn {
            table: "R".into(),
            column: "b".into(),
            function: Expr::col("a"),
        };
        let d = derive_smo(&smo, &schemas(&[("R", &["a"])])).unwrap();
        let report = verify_round_trip(&d, RoundTrip::FromSource);
        assert!(report.is_proved(), "{:?}", report.failure);
        // Rule 131: the aux table B is populated by the round trip.
        assert!(
            !report.residual_aux_rules.is_empty(),
            "expected residual B rules"
        );
        let report = verify_round_trip(&d, RoundTrip::FromTarget);
        assert!(report.is_proved(), "{:?}", report.failure);
    }

    #[test]
    fn drop_column_is_bidirectional() {
        let smo = Smo::DropColumn {
            table: "Todo".into(),
            column: "prio".into(),
            default: Expr::lit(1),
        };
        assert_proved(&smo, &schemas(&[("Todo", &["author", "task", "prio"])]));
    }

    #[test]
    fn join_pk_is_bidirectional() {
        let smo = Smo::Join {
            left: "S".into(),
            right: "T".into(),
            into: "R".into(),
            on: crate::ast::JoinKind::Pk,
            outer: false,
        };
        assert_proved(&smo, &schemas(&[("S", &["a"]), ("T", &["b"])]));
    }

    #[test]
    fn rename_column_is_bidirectional() {
        let smo = Smo::RenameColumn {
            table: "author".into(),
            column: "author".into(),
            to: "name".into(),
        };
        assert_proved(&smo, &schemas(&[("author", &["author"])]));
    }

    #[test]
    fn decompose_pk_source_round_trip() {
        let smo = Smo::Decompose {
            table: "R".into(),
            first: TableSig {
                name: "S".into(),
                columns: vec!["a".into()],
            },
            second: TableSig {
                name: "T".into(),
                columns: vec!["b".into()],
            },
            on: crate::ast::DecomposeKind::Pk,
        };
        let d = derive_smo(&smo, &schemas(&[("R", &["a", "b"])])).unwrap();
        // FromTarget (condition 26) is the plain outer-join identity.
        let report = verify_round_trip(&d, RoundTrip::FromTarget);
        assert!(
            report.is_proved(),
            "{:?}\n{}",
            report.failure,
            report.simplified
        );
    }

    #[test]
    fn skolem_smos_are_excluded_from_syntactic_proof() {
        let smo = Smo::Decompose {
            table: "Task".into(),
            first: TableSig {
                name: "Task".into(),
                columns: vec!["task".into()],
            },
            second: TableSig {
                name: "Author".into(),
                columns: vec!["author".into()],
            },
            on: crate::ast::DecomposeKind::Fk("author_id".into()),
        };
        let d = derive_smo(&smo, &schemas(&[("Task", &["task", "author"])])).unwrap();
        assert!(!syntactically_verifiable(&d));
    }

    proptest::proptest! {
        /// The license of the engine's column-level shortcuts
        /// (`DerivedSmo::is_positional_map`): every kind it admits proves
        /// both round trips on a generated column list, whichever column
        /// it adds from, drops or renames.
        #[test]
        fn every_positional_map_proves_both_round_trips(
            n in 1usize..6,
            pick in 0usize..6,
            from in 0usize..6,
        ) {
            let cols: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
            let (picked, from) = (cols[pick % n].clone(), cols[from % n].clone());
            let src = BTreeMap::from([("R".to_string(), cols.clone())]);
            let mut smos = vec![
                Smo::AddColumn {
                    table: "R".into(),
                    column: "x".into(),
                    function: Expr::col(from.as_str()),
                },
                Smo::RenameColumn {
                    table: "R".into(),
                    column: picked.clone(),
                    to: "x".into(),
                },
                Smo::RenameTable {
                    table: "R".into(),
                    to: "Q".into(),
                },
            ];
            if n > 1 && picked != from {
                smos.push(Smo::DropColumn {
                    table: "R".into(),
                    column: picked,
                    default: Expr::col(from.as_str()),
                });
            }
            for smo in &smos {
                let d = derive_smo(smo, &src).unwrap();
                proptest::prop_assert!(d.is_positional_map(), "{} not admitted", d.kind);
                assert_proved(smo, &src);
            }
        }
    }

    /// SPLIT, MERGE, DECOMPOSE and JOIN restructure rows across relations:
    /// the license admits none of their variants.
    #[test]
    fn no_restructuring_kind_is_a_positional_map() {
        let arm = |table: &str, at: i64| SplitArm {
            table: table.into(),
            condition: Expr::col("a").lt(Expr::lit(at)),
        };
        let sig = |name: &str, column: &str| TableSig {
            name: name.into(),
            columns: vec![column.into()],
        };
        let cond = Expr::col("a").eq(Expr::col("b"));
        let mut smos = vec![
            Smo::Split {
                table: "R".into(),
                first: arm("S", 5),
                second: Some(arm("T", 3)),
            },
            Smo::Split {
                table: "R".into(),
                first: arm("S", 5),
                second: None,
            },
            Smo::Merge {
                first: arm("M1", 5),
                second: arm("M2", 3),
                into: "M".into(),
            },
        ];
        for on in [
            crate::ast::DecomposeKind::Pk,
            crate::ast::DecomposeKind::Fk("fk".into()),
            crate::ast::DecomposeKind::Cond(cond.clone()),
        ] {
            smos.push(Smo::Decompose {
                table: "R".into(),
                first: sig("S", "a"),
                second: sig("T", "b"),
                on,
            });
        }
        for outer in [false, true] {
            for on in [
                crate::ast::JoinKind::Pk,
                crate::ast::JoinKind::Fk("fk".into()),
                crate::ast::JoinKind::Cond(cond.clone()),
            ] {
                smos.push(Smo::Join {
                    left: "S".into(),
                    right: "T".into(),
                    into: "R".into(),
                    on,
                    outer,
                });
            }
        }
        let src = schemas(&[
            ("R", &["a", "b"]),
            ("S", &["a", "fk"]),
            ("T", &["b"]),
            ("M1", &["a"]),
            ("M2", &["a"]),
        ]);
        for smo in &smos {
            let d = derive_smo(smo, &src).unwrap();
            assert!(!d.is_positional_map(), "{} admitted", d.kind);
        }
    }

    #[test]
    fn derivation_transcript_is_recorded() {
        let smo = Smo::Split {
            table: "T".into(),
            first: SplitArm {
                table: "R".into(),
                condition: Expr::col("a").lt(Expr::lit(5)),
            },
            second: Some(SplitArm {
                table: "S".into(),
                condition: Expr::col("a").ge(Expr::lit(5)),
            }),
        };
        let d = derive_smo(&smo, &schemas(&[("T", &["a"])])).unwrap();
        let report = verify_round_trip(&d, RoundTrip::FromSource);
        assert!(report.derivation.steps.len() > 5);
        assert!(report
            .derivation
            .steps
            .iter()
            .any(|s| s.contains("Lemma 2")));
    }
}

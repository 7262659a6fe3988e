//! ADD COLUMN / DROP COLUMN (Appendix B.1, Rules 126–132).
//!
//! `ADD COLUMN b AS f(…) INTO R` computes values for the new column with
//! `f` when data flows forward; the source-side auxiliary `B(p, b)` stores
//! values written through the *new* version so they survive a round trip
//! while the data is materialized at the source (repeatable reads,
//! Rule 131). `DROP COLUMN` is the exact inverse: the dropped values park in
//! a target-side auxiliary, and `f` provides defaults for tuples that only
//! ever existed in the new version.

use crate::error::BidelError;
use crate::semantics::{
    aux_rel, key_atom, pvar, src_rel, table_atom, tgt_rel, user_expr, DerivedSmo, TableRef,
};
use crate::Result;
use inverda_datalog::ast::{Atom, Literal, Rule, RuleSet, Term};
use inverda_storage::Expr;

/// Build ADD COLUMN semantics.
pub fn add_column(
    table: &str,
    column: &str,
    function: &Expr,
    columns: &[String],
) -> Result<DerivedSmo> {
    if columns.contains(&column.to_string()) {
        return Err(BidelError::semantics(format!(
            "ADD COLUMN: column '{column}' already exists in '{table}'"
        )));
    }
    for c in function.referenced_columns() {
        if !columns.contains(&c) {
            return Err(BidelError::semantics(format!(
                "ADD COLUMN: function references unknown column '{c}'"
            )));
        }
    }
    let src = TableRef::new(table, src_rel(table), columns.to_vec());
    let mut tgt_cols = columns.to_vec();
    tgt_cols.push(column.to_string());
    let tgt = TableRef::new(table, tgt_rel(table), tgt_cols.clone());
    let aux_b = TableRef::new(
        "B",
        aux_rel(&format!("{table}.{column}")),
        vec![column.to_string()],
    );

    let p = "p";
    let bvar = pvar(column);
    let f = user_expr(function);

    // γ_tgt — Rules 126/127.
    let to_tgt = RuleSet::new(vec![
        Rule::new(
            table_atom(&tgt.rel, p, &tgt_cols),
            vec![
                Literal::Pos(table_atom(&src.rel, p, columns)),
                Literal::Neg(key_atom(&aux_b.rel, p, 1)),
                Literal::Assign {
                    var: bvar.clone(),
                    expr: f.clone(),
                },
            ],
        ),
        Rule::new(
            table_atom(&tgt.rel, p, &tgt_cols),
            vec![
                Literal::Pos(table_atom(&src.rel, p, columns)),
                Literal::Pos(Atom::new(&aux_b.rel, vec![Term::var(p), Term::var(&bvar)])),
            ],
        ),
    ]);

    // γ_src — Rules 128/129.
    let mut tgt_terms_key_only_payload = vec![Term::var(p)];
    tgt_terms_key_only_payload.extend(std::iter::repeat_n(Term::Anon, columns.len()));
    tgt_terms_key_only_payload.push(Term::var(&bvar));
    let to_src = RuleSet::new(vec![
        Rule::new(
            table_atom(&src.rel, p, columns),
            vec![Literal::Pos(Atom::new(&tgt.rel, {
                let mut t = table_atom(&src.rel, p, columns).terms;
                t.push(Term::Anon);
                t
            }))],
        ),
        Rule::new(
            Atom::new(&aux_b.rel, vec![Term::var(p), Term::var(&bvar)]),
            vec![Literal::Pos(Atom::new(
                &tgt.rel,
                tgt_terms_key_only_payload,
            ))],
        ),
    ]);

    Ok(DerivedSmo {
        kind: "ADD COLUMN",
        src_data: vec![src],
        tgt_data: vec![tgt],
        src_aux: vec![aux_b],
        tgt_aux: vec![],
        shared_aux: vec![],
        to_tgt,
        to_src,
        generators: vec![],
        observe_hints: vec![],
        payload_keyed_aux: vec![],
        moves_data: true,
    })
}

/// Build DROP COLUMN semantics — structurally the inverse of ADD COLUMN,
/// but derived directly so the dropped column may sit at any position.
pub fn drop_column(
    table: &str,
    column: &str,
    default: &Expr,
    columns: &[String],
) -> Result<DerivedSmo> {
    let idx = columns.iter().position(|c| c == column).ok_or_else(|| {
        BidelError::semantics(format!(
            "DROP COLUMN: column '{column}' does not exist in '{table}'"
        ))
    })?;
    let kept: Vec<String> = columns.iter().filter(|c| *c != column).cloned().collect();
    if kept.is_empty() {
        return Err(BidelError::semantics(
            "DROP COLUMN: cannot drop the only column of a table",
        ));
    }
    for c in default.referenced_columns() {
        if !kept.contains(&c) {
            return Err(BidelError::semantics(format!(
                "DROP COLUMN: default function references unavailable column '{c}'"
            )));
        }
    }
    let src = TableRef::new(table, src_rel(table), columns.to_vec());
    let tgt = TableRef::new(table, tgt_rel(table), kept.clone());
    let aux_b = TableRef::new(
        "B",
        aux_rel(&format!("{table}.{column}")),
        vec![column.to_string()],
    );

    let p = "p";
    let bvar = pvar(column);
    let f = user_expr(default);

    // γ_tgt: project away the column; keep its values in the aux.
    let mut drop_terms = vec![Term::var(p)];
    for (i, c) in columns.iter().enumerate() {
        if i == idx {
            drop_terms.push(Term::Anon);
        } else {
            drop_terms.push(Term::var(pvar(c)));
        }
    }
    let mut keep_value_terms = vec![Term::var(p)];
    for (i, c) in columns.iter().enumerate() {
        if i == idx {
            keep_value_terms.push(Term::var(&bvar));
        } else {
            keep_value_terms.push(Term::var(pvar(c)));
        }
    }
    let to_tgt = RuleSet::new(vec![
        Rule::new(
            table_atom(&tgt.rel, p, &kept),
            vec![Literal::Pos(Atom::new(&src.rel, drop_terms))],
        ),
        Rule::new(
            Atom::new(&aux_b.rel, vec![Term::var(p), Term::var(&bvar)]),
            vec![Literal::Pos(Atom::new(&src.rel, keep_value_terms.clone()))],
        ),
    ]);

    // γ_src: re-insert the column from the aux, or from the default.
    let head = Atom::new(&src.rel, keep_value_terms);
    let to_src = RuleSet::new(vec![
        Rule::new(
            head.clone(),
            vec![
                Literal::Pos(table_atom(&tgt.rel, p, &kept)),
                Literal::Pos(Atom::new(&aux_b.rel, vec![Term::var(p), Term::var(&bvar)])),
            ],
        ),
        Rule::new(
            head,
            vec![
                Literal::Pos(table_atom(&tgt.rel, p, &kept)),
                Literal::Neg(key_atom(&aux_b.rel, p, 1)),
                Literal::Assign {
                    var: bvar.clone(),
                    expr: f,
                },
            ],
        ),
    ]);

    Ok(DerivedSmo {
        kind: "DROP COLUMN",
        src_data: vec![src],
        tgt_data: vec![tgt],
        src_aux: vec![],
        tgt_aux: vec![aux_b],
        shared_aux: vec![],
        to_tgt,
        to_src,
        generators: vec![],
        observe_hints: vec![],
        payload_keyed_aux: vec![],
        moves_data: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_column_shape() {
        let d = add_column(
            "T",
            "c",
            &Expr::col("a").eq(Expr::col("a")), // f(a)
            &["a".into(), "b".into()],
        )
        .unwrap();
        assert_eq!(d.tgt_data[0].columns, vec!["a", "b", "c"]);
        assert_eq!(d.src_aux.len(), 1);
        assert!(d.tgt_aux.is_empty());
        assert_eq!(d.to_tgt.len(), 2);
        assert_eq!(d.to_src.len(), 2);
        // Rule 126 shape: head has the assign for the new column.
        let r = &d.to_tgt.rules[0];
        assert!(r.body.iter().any(|l| matches!(l, Literal::Assign { .. })));
    }

    #[test]
    fn add_column_rejects_duplicates_and_unknown_refs() {
        assert!(add_column("T", "a", &Expr::lit(1), &["a".into()]).is_err());
        assert!(add_column("T", "b", &Expr::col("zz"), &["a".into()]).is_err());
    }

    #[test]
    fn drop_column_mid_position() {
        let d = drop_column(
            "T",
            "b",
            &Expr::lit(1),
            &["a".into(), "b".into(), "c".into()],
        )
        .unwrap();
        assert_eq!(d.tgt_data[0].columns, vec!["a", "c"]);
        assert_eq!(d.tgt_aux.len(), 1);
        assert!(d.src_aux.is_empty());
        // γ_src head must restore the original column order (a, b, c).
        let head = &d.to_src.rules[0].head;
        assert_eq!(head.terms.len(), 4);
        assert_eq!(head.terms[2], Term::var("c_b"));
    }

    #[test]
    fn drop_column_default_is_used_for_new_tuples() {
        // The Do! example: DROP COLUMN prio FROM Todo DEFAULT 1.
        let d = drop_column(
            "Todo",
            "prio",
            &Expr::lit(1),
            &["author".into(), "task".into(), "prio".into()],
        )
        .unwrap();
        let fallback = &d.to_src.rules[1];
        assert!(fallback
            .body
            .iter()
            .any(|l| matches!(l, Literal::Assign { var, .. } if var == "c_prio")));
    }

    #[test]
    fn drop_column_errors() {
        assert!(drop_column("T", "zz", &Expr::lit(1), &["a".into()]).is_err());
        assert!(drop_column("T", "a", &Expr::lit(1), &["a".into()]).is_err());
        assert!(
            drop_column("T", "a", &Expr::col("a"), &["a".into(), "b".into()]).is_err(),
            "default may not reference the dropped column"
        );
    }

    /// Full evaluation maps rows in both directions of both SMOs, whatever
    /// the default reads and wherever the dropped column sits: γ_src of ADD
    /// COLUMN and γ_tgt of DROP COLUMN are projection sets, the other two
    /// lookup-or-default pairs.
    #[test]
    fn column_mappings_are_row_maps() {
        use inverda_datalog::eval::{CompiledRuleSet, RowMap};
        let row_map = |rules: &RuleSet| CompiledRuleSet::compile(rules).unwrap().row_map().cloned();
        let cols: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
        for default in [Expr::lit(0), Expr::col("a")] {
            let add = add_column("T", "d", &default, &cols).unwrap();
            assert!(matches!(row_map(&add.to_tgt), Some(RowMap::Pair(_))));
            assert!(matches!(row_map(&add.to_src), Some(RowMap::Projection(_))));
            for dropped in ["b", "c"] {
                let drop = drop_column("T", dropped, &default, &cols).unwrap();
                assert!(matches!(row_map(&drop.to_tgt), Some(RowMap::Projection(_))));
                assert!(matches!(row_map(&drop.to_src), Some(RowMap::Pair(_))));
            }
        }
    }
}

//! SMO semantics: side schemas and the γ_tgt / γ_src Datalog rule templates.
//!
//! Every SMO instance maps between two *side states*:
//!
//! * the **source side** — the data tables of the consumed table versions
//!   plus the source-side auxiliary tables,
//! * the **target side** — the produced table versions' data tables plus the
//!   target-side auxiliary tables.
//!
//! `γ_tgt` derives the complete target-side state from the source-side state;
//! `γ_src` the reverse (paper Figure 5). Auxiliary tables hold the
//! information one side cannot represent (lost twins, separated twins,
//! condition violators, computed column values, generated identifiers —
//! Section 4). The id tables of the condition-based SMOs are consumed *and*
//! re-derived by both directions; they are modeled as [`SharedAux`] with
//! distinct `old`/`new` relation names (the paper's `IDo`/`IDn`).
//!
//! ## Relation-name conventions
//!
//! Rule templates use locally scoped relation names that the catalog later
//! renames to globally unique physical/virtual instance names:
//!
//! * `src#<table>` — source-version table,
//! * `tgt#<table>` — target-version table,
//! * `aux#<tag>` (+ `aux#<tag>@new` for shared aux) — auxiliary tables,
//! * `gen#<tag>` — skolem id generators.
//!
//! Payload variables are the column names prefixed with `c_` (so engine
//! variables like `p`, `t`, `fk` can never collide with user columns).
//!
//! ## Documented deviations from the paper's rule sets
//!
//! * **FK-decompose (B.3) is de-staged**: the paper's `To`/`Tn` old/new
//!   staging exists to reuse identifiers of already-known payloads. We get
//!   the same effect from the memoized skolem registry (`idT(B)` always
//!   returns the same id for the same payload), which keeps the rule set
//!   delta-friendly so writes through it propagate incrementally.
//! * **Cond-join/decompose id retention**: the paper's rule `IDn ← IDo`
//!   keeps id entries of deleted pairs forever; we drop dead entries and
//!   rely on the memoized registry for repeatable identifiers, so that the
//!   unmatched-row auxiliaries (`S⁺`, `T⁺`) stay correct after deletions.
//! * **Inner join keeps match-condition semantics on update**: a matched
//!   pair whose payload no longer satisfies the condition dissolves (the
//!   paper's rules 187/189 are ambiguous on this point).
//! * **ω guards**: all-NULL sides produced by outer joins are guarded
//!   explicitly (`¬allnull(A)`) where the paper writes `A ≠ ω_R`.

mod column;
mod decompose;
mod join;
mod split;
mod trivial;

use crate::ast::{DecomposeKind, JoinKind, Smo};
use crate::error::BidelError;
use crate::Result;
use inverda_datalog::ast::{Atom, RuleSet, Term};
use inverda_storage::Expr;
use std::collections::BTreeMap;

/// A named relation with its column list, as used in SMO rule templates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// User-visible table name (e.g. `Todo`).
    pub name: String,
    /// Relation name used inside the rule sets (e.g. `tgt#Todo`).
    pub rel: String,
    /// Column names (the key `p` is implicit).
    pub columns: Vec<String>,
}

impl TableRef {
    /// Construct a table ref.
    pub fn new(
        name: impl Into<String>,
        rel: impl Into<String>,
        columns: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        TableRef {
            name: name.into(),
            rel: rel.into(),
            columns: columns.into_iter().map(Into::into).collect(),
        }
    }
}

/// An auxiliary table consumed (as `old_name`) and re-derived (as
/// `new_name`) by both mapping directions — the id tables of the
/// condition-based SMOs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedAux {
    /// The physical table.
    pub table: TableRef,
    /// Relation name bound to the current physical state in rule bodies.
    pub old_name: String,
    /// Head relation name carrying the post-mapping state.
    pub new_name: String,
}

/// A hint telling the engine to seed the skolem registry from a relation's
/// rows: each `(key, payload)` row of `relation` records the assignment
/// `generator(payload) → key`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserveHint {
    /// Skolem generator name (`gen#…`).
    pub generator: String,
    /// Relation whose rows are known assignments.
    pub relation: String,
}

/// The derived semantics of one SMO instance.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedSmo {
    /// SMO type tag (e.g. `"SPLIT"`).
    pub kind: &'static str,
    /// Source-version data tables consumed.
    pub src_data: Vec<TableRef>,
    /// Target-version data tables produced.
    pub tgt_data: Vec<TableRef>,
    /// Auxiliary tables physically present when the SMO is *virtualized*
    /// (data stored on the source side).
    pub src_aux: Vec<TableRef>,
    /// Auxiliary tables physically present when the SMO is *materialized*
    /// (data stored on the target side).
    pub tgt_aux: Vec<TableRef>,
    /// Auxiliary tables physically present on both sides (id tables).
    pub shared_aux: Vec<SharedAux>,
    /// γ_tgt: derives the target-side state (tgt data + tgt aux + shared
    /// `@new`) from the source-side state (src data + src aux + shared old).
    pub to_tgt: RuleSet,
    /// γ_src: the reverse direction.
    pub to_src: RuleSet,
    /// Skolem generators used by the rule sets.
    pub generators: Vec<String>,
    /// Registry seeding hints (see [`ObserveHint`]).
    pub observe_hints: Vec<ObserveHint>,
    /// Relation names of auxiliary tables whose rows memoize a
    /// **payload-derived** generator assignment for a source row key
    /// (Appendix B.3's `ID_R(p, t)`: `t = idT(payload(p))`). An update that
    /// replaces row `p`'s payload invalidates such an entry — a stale one
    /// would pin the old payload's id onto the new payload and collide with
    /// the old payload's surviving twin — so the write path purges
    /// key-matching rows on *updates* as well as deletes when the owning
    /// SMO is adjacent to (not traversed by) the propagation. Re-derivation
    /// then re-mints through the skolem registry, which reproduces the same
    /// id whenever the generator arguments did not actually change.
    pub payload_keyed_aux: Vec<String>,
    /// Whether materializing this SMO relocates data. `CREATE TABLE` and
    /// `DROP TABLE` do not move data: their tables simply begin / end.
    pub moves_data: bool,
}

impl DerivedSmo {
    /// Swap the two sides: turns a SPLIT into a MERGE, an ADD COLUMN into a
    /// DROP COLUMN, a DECOMPOSE into an OUTER JOIN, and vice versa
    /// (Appendix B: "exchanging the rule sets γ_src and γ_tgt yields the
    /// inverse SMO").
    pub fn inverted(mut self, kind: &'static str) -> Self {
        std::mem::swap(&mut self.src_data, &mut self.tgt_data);
        std::mem::swap(&mut self.src_aux, &mut self.tgt_aux);
        std::mem::swap(&mut self.to_tgt, &mut self.to_src);
        self.kind = kind;
        self
    }

    /// Whether the SMO is a **positional map**: ADD COLUMN, DROP COLUMN,
    /// RENAME COLUMN or RENAME TABLE. Each direction maps one key's row of
    /// one data table to that key's rows on the other side (a copy, a
    /// projection, or the aux value with the default function as fallback),
    /// and [`verify_round_trip`](crate::verify::verify_round_trip) proves
    /// both round trips. SPLIT, MERGE, DECOMPOSE and JOIN restructure rows
    /// across relations and are not admitted. This is the one license of the
    /// engine's column-level shortcuts: fused γ-chains, and a write whose
    /// own deltas are its patches (PutGet).
    pub fn is_positional_map(&self) -> bool {
        matches!(
            self.kind,
            "ADD COLUMN" | "DROP COLUMN" | "RENAME COLUMN" | "RENAME TABLE"
        )
    }

    /// All auxiliary tables regardless of side.
    pub fn all_aux(&self) -> impl Iterator<Item = &TableRef> {
        self.src_aux
            .iter()
            .chain(self.tgt_aux.iter())
            .chain(self.shared_aux.iter().map(|s| &s.table))
    }
}

/// The source-relation name prefix.
pub fn src_rel(name: &str) -> String {
    format!("src#{name}")
}

/// The target-relation name prefix.
pub fn tgt_rel(name: &str) -> String {
    format!("tgt#{name}")
}

/// The auxiliary-relation name prefix.
pub fn aux_rel(tag: &str) -> String {
    format!("aux#{tag}")
}

/// The generator name prefix.
pub fn gen_name(tag: &str) -> String {
    format!("gen#{tag}")
}

/// Payload variable for a column.
pub fn pvar(column: &str) -> String {
    format!("c_{column}")
}

/// Payload variables for a column list.
pub fn pvars(columns: &[String]) -> Vec<String> {
    columns.iter().map(|c| pvar(c)).collect()
}

/// Atom `rel(key, c_col1, …, c_coln)`.
pub fn table_atom(rel: &str, key: &str, columns: &[String]) -> Atom {
    let mut terms = vec![Term::var(key)];
    terms.extend(columns.iter().map(|c| Term::var(pvar(c))));
    Atom::new(rel, terms)
}

/// Atom `rel(key, _, …, _)` — key only, payload anonymous.
pub fn key_atom(rel: &str, key: &str, arity: usize) -> Atom {
    let mut terms = vec![Term::var(key)];
    terms.extend(std::iter::repeat_n(Term::Anon, arity));
    Atom::new(rel, terms)
}

/// Rewrite a user expression so its column references use payload variables.
pub fn user_expr(e: &Expr) -> Expr {
    let mapping: BTreeMap<String, String> = e
        .referenced_columns()
        .into_iter()
        .map(|c| (c.clone(), pvar(&c)))
        .collect();
    e.rename_columns(&mapping)
}

/// `IsNull(c1) AND … AND IsNull(cn)` — the paper's `A = ω` test.
pub fn all_null(columns: &[String]) -> Expr {
    let mut iter = columns.iter();
    let first = iter.next().expect("non-empty column list");
    let mut e = Expr::IsNull(Box::new(Expr::col(pvar(first))));
    for c in iter {
        e = e.and(Expr::IsNull(Box::new(Expr::col(pvar(c)))));
    }
    e
}

/// `¬(A = ω)` — at least one column non-NULL.
pub fn not_all_null(columns: &[String]) -> Expr {
    all_null(columns).negate()
}

/// Resolve the semantics of an SMO against the source version's table
/// schemas (`table name → column list`).
pub fn derive_smo(smo: &Smo, src_schemas: &BTreeMap<String, Vec<String>>) -> Result<DerivedSmo> {
    let columns_of = |table: &str| -> Result<Vec<String>> {
        src_schemas
            .get(table)
            .cloned()
            .ok_or_else(|| BidelError::semantics(format!("unknown source table '{table}'")))
    };
    match smo {
        Smo::CreateTable { table, columns } => trivial::create_table(table, columns),
        Smo::DropTable { table } => trivial::drop_table(table, &columns_of(table)?),
        Smo::RenameTable { table, to } => trivial::rename_table(table, to, &columns_of(table)?),
        Smo::RenameColumn { table, column, to } => {
            trivial::rename_column(table, column, to, &columns_of(table)?)
        }
        Smo::AddColumn {
            table,
            column,
            function,
        } => column::add_column(table, column, function, &columns_of(table)?),
        Smo::DropColumn {
            table,
            column,
            default,
        } => column::drop_column(table, column, default, &columns_of(table)?),
        Smo::Split {
            table,
            first,
            second,
        } => split::split(table, first, second.as_ref(), &columns_of(table)?),
        Smo::Merge {
            first,
            second,
            into,
        } => {
            let first_cols = columns_of(&first.table)?;
            let second_cols = columns_of(&second.table)?;
            split::merge(first, second, into, &first_cols, &second_cols)
        }
        Smo::Decompose {
            table,
            first,
            second,
            on,
        } => {
            let cols = columns_of(table)?;
            match on {
                DecomposeKind::Pk => decompose::decompose_pk(table, first, second, &cols),
                DecomposeKind::Fk(fk) => decompose::decompose_fk(table, first, second, fk, &cols),
                DecomposeKind::Cond(c) => decompose::decompose_cond(table, first, second, c, &cols),
            }
        }
        Smo::Join {
            left,
            right,
            into,
            on,
            outer,
        } => {
            let left_cols = columns_of(left)?;
            let right_cols = columns_of(right)?;
            match (outer, on) {
                (false, JoinKind::Pk) => join::join_pk(left, right, into, &left_cols, &right_cols),
                (false, JoinKind::Fk(fk)) => {
                    join::join_fk(left, right, into, fk, &left_cols, &right_cols)
                }
                (false, JoinKind::Cond(c)) => {
                    join::join_cond(left, right, into, c, &left_cols, &right_cols)
                }
                (true, JoinKind::Pk) => {
                    join::outer_join_pk(left, right, into, &left_cols, &right_cols)
                }
                (true, JoinKind::Fk(fk)) => {
                    join::outer_join_fk(left, right, into, fk, &left_cols, &right_cols)
                }
                (true, JoinKind::Cond(c)) => {
                    join::outer_join_cond(left, right, into, c, &left_cols, &right_cols)
                }
            }
        }
    }
}

/// Check that `sub` is a subset of `sup`.
pub(crate) fn require_subset(sub: &[String], sup: &[String], what: &str) -> Result<()> {
    for c in sub {
        if !sup.contains(c) {
            return Err(BidelError::semantics(format!(
                "{what}: column '{c}' does not exist in the source table"
            )));
        }
    }
    Ok(())
}

/// Check that `a ∪ b` covers exactly the source columns.
pub(crate) fn require_cover(a: &[String], b: &[String], src: &[String], what: &str) -> Result<()> {
    require_subset(a, src, what)?;
    require_subset(b, src, what)?;
    for c in src {
        if !a.contains(c) && !b.contains(c) {
            return Err(BidelError::semantics(format!(
                "{what}: source column '{c}' is covered by neither target"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_naming() {
        assert_eq!(src_rel("Task"), "src#Task");
        assert_eq!(tgt_rel("Todo"), "tgt#Todo");
        assert_eq!(aux_rel("Tprime"), "aux#Tprime");
        assert_eq!(pvar("prio"), "c_prio");
    }

    #[test]
    fn table_atom_layout() {
        let a = table_atom("src#T", "p", &["a".into(), "b".into()]);
        assert_eq!(a.to_string(), "src#T(p, c_a, c_b)");
        let k = key_atom("src#T", "p", 2);
        assert_eq!(k.to_string(), "src#T(p, _, _)");
    }

    #[test]
    fn user_expr_prefixes_columns() {
        let e = Expr::col("prio").eq(Expr::lit(1));
        assert_eq!(user_expr(&e).to_string(), "c_prio = 1");
    }

    #[test]
    fn all_null_shape() {
        let e = all_null(&["a".into(), "b".into()]);
        assert_eq!(e.to_string(), "(c_a IS NULL AND c_b IS NULL)");
    }

    #[test]
    fn cover_checks() {
        let src = vec!["a".to_string(), "b".to_string()];
        assert!(require_cover(&["a".into()], &["b".into()], &src, "t").is_ok());
        assert!(require_cover(&["a".into()], &["a".into()], &src, "t").is_err());
        assert!(require_subset(&["z".into()], &src, "t").is_err());
    }
}

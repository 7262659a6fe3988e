//! Differential property test for the query layer: **pushdown ≡
//! scan-plus-filter ≡ naive**, byte for byte.
//!
//! Random genealogies (the TasKy triple, an overlapping two-arm SPLIT, and
//! the FK-DECOMPOSE + stacked SPLIT minting chain) receive random write
//! sequences; interleaved random queries — filters (eq/range/conjunction),
//! projections, orderings, limits — are then executed three ways:
//!
//! 1. **pushdown** — `db.query(...)` through the plan layer (index probes,
//!    key seeks, scans — whatever the planner picks);
//! 2. **scan + filter** — `db.scan(...)` followed by the engine-side
//!    [`Relation::filter`];
//! 3. **naive** — a hand-rolled Rust loop over the scanned rows evaluating
//!    the filter via [`Expr::matches`] on a [`NamedRow`], then sorting,
//!    limiting, and projecting.
//!
//! All three must agree exactly — row bytes, key order, counts — on a
//! **warm** database (snapshot reuse on) and a **cold** one (reuse off,
//! every statement re-resolves), whose results must also equal each other,
//! skolem registries included. Queries run *before* the oracle scan, so
//! cold runs genuinely resolve the relation in the query's own statement
//! rather than being served from the statement the oracle warmed.
//!
//! The genealogies, the generated writes and their lockstep apply are the
//! twin harness in `common`; this file adds the query op and its three-way
//! check.

mod common;

use common::{
    delete, insert, materialize, mint_chain, split, tables, tasky, update, Genealogy, Twin, COLD,
    WARM,
};
use inverda_core::Inverda;
use inverda_storage::{Expr, Key, NamedRow, Relation, Row, Value};
use proptest::prelude::*;
use std::sync::Arc;

type Op = common::Op<QuerySpec>;

/// A structurally random query, interpreted against whatever target it
/// lands on at runtime (column/value selectors wrap around the actual
/// schema and data).
#[derive(Debug, Clone)]
struct QuerySpec {
    /// Index into the flattened (version, table) list.
    target: usize,
    /// Filter shape: 0 = none, 1 = eq, 2 = range, 3 = eq AND range.
    shape: usize,
    /// Column selectors (wrap around arity).
    col_a: usize,
    col_b: usize,
    /// Value selectors (wrap around the distinct values present, +1 extra
    /// slot probing a value that is absent).
    val_a: usize,
    val_b: usize,
    /// Range operator selector: `>=`, `<`, `>`, `<=`.
    range_op: usize,
    /// Projection: bitmask over columns (0 = no projection).
    proj_mask: usize,
    /// Ordering: 0 = none, else column selector +1; descending if odd.
    order_sel: usize,
    /// Limit: 0 = none, else 1..=4.
    limit_sel: usize,
}

fn query_strategy() -> impl Strategy<Value = QuerySpec> {
    (
        0usize..16,
        0usize..4,
        0usize..4,
        0usize..4,
        0usize..8,
        0usize..8,
        0usize..4,
        0usize..16,
        0usize..7,
        0usize..5,
    )
        .prop_map(
            |(
                target,
                shape,
                col_a,
                col_b,
                val_a,
                val_b,
                range_op,
                proj_mask,
                order_sel,
                limit_sel,
            )| {
                QuerySpec {
                    target,
                    shape,
                    col_a,
                    col_b,
                    val_a,
                    val_b,
                    range_op,
                    proj_mask,
                    order_sel,
                    limit_sel,
                }
            },
        )
}

fn op_strategy(n_targets: usize, n_versions: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        insert(0..n_targets),
        insert(0..n_targets),
        update(0..n_targets),
        delete(0..n_targets),
        materialize(0..n_versions),
        query_strategy().prop_map(Op::Query),
        query_strategy().prop_map(Op::Query),
        query_strategy().prop_map(Op::Query),
    ]
}

impl Twin {
    fn check_query(&self, spec: &QuerySpec, context: &str) {
        // Identical in both databases by construction.
        let targets = tables(&self.subject);
        let (version, table) = &targets[spec.target % targets.len()];
        for (name, db) in [("warm", &self.subject), ("cold", &self.reference)] {
            check_one(db, version, table, spec, &format!("{context} [{name}]"));
        }
        // Queries are reads: they must never make the two databases' skolem
        // registries drift (pushdown may not mint off the canonical order).
        assert_eq!(
            self.subject.debug_registry(),
            self.reference.debug_registry(),
            "registries diverged after {context}"
        );
    }
}

/// Interpret the spec against the live schema/data and run the three-way
/// comparison on one database.
fn check_one(db: &Inverda, version: &str, table: &str, spec: &QuerySpec, context: &str) {
    let columns = db.columns_of(version, table).unwrap();
    // Build the query FIRST (cold runs must take the pushdown path, not be
    // served by the oracle's scan)...
    let (filter, filter_display) = build_filter(db, version, table, &columns, spec);
    let mut q = db.query(version, table);
    if let Some(f) = &filter {
        q = q.filter(f.clone());
    }
    let proj: Option<Vec<String>> = projection(&columns, spec.proj_mask);
    if let Some(cols) = &proj {
        q = q.project(cols.clone());
    }
    let order: Option<(usize, bool)> = (spec.order_sel > 0).then(|| {
        let col = (spec.order_sel - 1) % columns.len();
        (col, spec.order_sel % 2 == 1)
    });
    if let Some((col, desc)) = order {
        q = if desc {
            q.order_by_desc(columns[col].clone())
        } else {
            q.order_by(columns[col].clone())
        };
    }
    let limit = (spec.limit_sel > 0).then_some(spec.limit_sel);
    if let Some(n) = limit {
        q = q.limit(n);
    }
    let pushed = q.rows().map(|it| it.collect::<Vec<(Key, Row)>>());
    let count = q.count();
    let exists = q.exists();

    // ...then the oracles.
    let scanned = db.scan(version, table);
    let (scanned, pushed) = match (scanned, pushed) {
        (Ok(s), Ok(p)) => (s, p),
        (s, p) => {
            assert_eq!(
                s.is_ok(),
                p.is_ok(),
                "{context}: scan {s:?} vs query {p:?} ({filter_display})"
            );
            return;
        }
    };
    // Oracle 2: scan + engine-side Relation::filter.
    let filtered: Arc<Relation> = match &filter {
        Some(f) => Arc::new(scanned.filter(|_, row| {
            f.matches(&NamedRow {
                columns: &columns,
                row,
            })
            .unwrap_or(false)
        })),
        None => Arc::clone(&scanned),
    };
    // Oracle 3: hand-rolled loop — order, limit, project.
    let mut naive: Vec<(Key, Row)> = filtered.iter().map(|(k, row)| (k, row.clone())).collect();
    if let Some((col, desc)) = order {
        naive.sort_by(|(ka, ra), (kb, rb)| {
            let ord = ra.get(col).cmp(&rb.get(col));
            let ord = if desc { ord.reverse() } else { ord };
            ord.then(ka.cmp(kb))
        });
    }
    if let Some(n) = limit {
        naive.truncate(n);
    }
    if let Some(cols) = &proj {
        let idxs: Vec<usize> = cols
            .iter()
            .map(|c| columns.iter().position(|x| x == c).unwrap())
            .collect();
        for (_, row) in naive.iter_mut() {
            *row = idxs.iter().map(|&i| row[i].clone()).collect();
        }
    }
    assert_eq!(
        pushed, naive,
        "{context}: pushdown != naive for {version}.{table} filter {filter_display} \
         proj {proj:?} order {order:?} limit {limit:?}"
    );
    assert_eq!(
        count.unwrap(),
        naive.len(),
        "{context}: count ({filter_display})"
    );
    assert_eq!(
        exists.unwrap(),
        !naive.is_empty(),
        "{context}: exists ({filter_display})"
    );
}

/// Pick filter columns/values from what is actually stored (wrapping the
/// selectors), with one extra value slot that is guaranteed absent.
fn build_filter(
    db: &Inverda,
    version: &str,
    table: &str,
    columns: &[String],
    spec: &QuerySpec,
) -> (Option<Expr>, String) {
    if spec.shape == 0 {
        return (None, "<none>".into());
    }
    let value_of = |col: usize, sel: usize| -> Value {
        let rel = match db.scan(version, table) {
            Ok(rel) => rel,
            Err(_) => return Value::Int(0),
        };
        let mut vals: Vec<Value> = rel.iter().map(|(_, row)| row[col].clone()).collect();
        vals.sort();
        vals.dedup();
        // One selector slot past the stored values probes a miss.
        if vals.is_empty() || sel % (vals.len() + 1) == vals.len() {
            Value::text("absent!")
        } else {
            vals[sel % (vals.len() + 1)].clone()
        }
    };
    let ca = spec.col_a % columns.len();
    let eq = Expr::col(columns[ca].clone()).eq(Expr::lit(value_of(ca, spec.val_a)));
    let cb = spec.col_b % columns.len();
    let vb = Expr::lit(value_of(cb, spec.val_b));
    let range = match spec.range_op {
        0 => Expr::col(columns[cb].clone()).ge(vb),
        1 => Expr::col(columns[cb].clone()).lt(vb),
        2 => Expr::col(columns[cb].clone()).gt(vb),
        _ => Expr::col(columns[cb].clone()).le(vb),
    };
    let expr = match spec.shape {
        1 => eq,
        2 => range,
        _ => eq.and(range),
    };
    let display = expr.to_string();
    (Some(expr), display)
}

fn projection(columns: &[String], mask: usize) -> Option<Vec<String>> {
    if mask == 0 {
        return None;
    }
    let picked: Vec<String> = columns
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << (i % 8)) != 0)
        .map(|(_, c)| c.clone())
        .collect();
    if picked.is_empty() {
        None
    } else {
        Some(picked)
    }
}

fn run(genealogy: Genealogy, ops: &[Op]) {
    let mut h = Twin::new(genealogy, WARM, COLD);
    for (i, op) in ops.iter().enumerate() {
        if let Some(spec) = h.apply(op) {
            h.check_query(spec, &format!("op {i}: {spec:?}"));
        }
    }
}

proptest! {
    /// TasKy triple: SPLIT/DROP COLUMN pushdown chains plus the staged
    /// FK-DECOMPOSE branch (which must *fall back* to full resolution and
    /// still agree).
    #[test]
    fn query_pushdown_equals_scan_filter_tasky(
        ops in prop::collection::vec(op_strategy(2, 3), 1..18),
    ) {
        run(tasky(), &ops);
    }

    /// Overlapping two-arm SPLIT: twins, separations, aux guards — the
    /// union-with-negation γ mappings every access path must reproduce.
    #[test]
    fn query_pushdown_equals_scan_filter_overlapping_split(
        ops in prop::collection::vec(op_strategy(3, 2), 1..18),
    ) {
        run(split(), &ops);
    }

    /// FK-DECOMPOSE + stacked SPLIT minting chain: queries across the
    /// id-generating frontier must agree with scan+filter *and* leave the
    /// registries in lockstep (pushdown never mints off the canonical
    /// order).
    #[test]
    fn query_pushdown_equals_scan_filter_minting_chain(
        ops in prop::collection::vec(op_strategy(2, 3), 1..18),
    ) {
        run(mint_chain(), &ops);
    }
}

//! Differential property test for the query layer: **pushdown ≡
//! scan-plus-filter ≡ naive**, byte for byte.
//!
//! Random genealogies (the TasKy triple, an overlapping two-arm SPLIT, and
//! the FK-DECOMPOSE + stacked SPLIT minting chain) receive random write
//! sequences; interleaved random queries — filters (eq/range/conjunction),
//! projections, orderings, limits — are then executed three ways:
//!
//! 1. **pushdown** — `db.query(...)` through the plan layer (index probes,
//!    cold seeded evaluation, scans — whatever the planner picks);
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
//! cold runs genuinely exercise the seeded pushdown path rather than being
//! served from the statement the oracle warmed.

use inverda_core::Inverda;
use inverda_storage::{Expr, Key, NamedRow, Relation, Row, Value};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        target: usize,
        vals: Vec<i64>,
    },
    Update {
        target: usize,
        slot: usize,
        vals: Vec<i64>,
    },
    Delete {
        target: usize,
        slot: usize,
    },
    Materialize {
        version: usize,
    },
    Query(QuerySpec),
}

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
        (0..n_targets, prop::collection::vec(0i64..6, 4..5))
            .prop_map(|(target, vals)| Op::Insert { target, vals }),
        (0..n_targets, prop::collection::vec(0i64..6, 4..5))
            .prop_map(|(target, vals)| Op::Insert { target, vals }),
        (
            0..n_targets,
            0usize..12,
            prop::collection::vec(0i64..6, 4..5)
        )
            .prop_map(|(target, slot, vals)| Op::Update { target, slot, vals }),
        (0..n_targets, 0usize..12).prop_map(|(target, slot)| Op::Delete { target, slot }),
        (0..n_versions).prop_map(|version| Op::Materialize { version }),
        query_strategy().prop_map(Op::Query),
        query_strategy().prop_map(Op::Query),
        query_strategy().prop_map(Op::Query),
    ]
}

struct Harness {
    warm: Inverda,
    cold: Inverda,
    targets: Vec<(&'static str, &'static str)>,
    versions: Vec<&'static str>,
    keys: Vec<Key>,
}

impl Harness {
    fn new(
        script: &str,
        targets: Vec<(&'static str, &'static str)>,
        versions: Vec<&'static str>,
    ) -> Self {
        let warm = Inverda::new();
        warm.execute(script).expect("script");
        let cold = Inverda::new();
        cold.execute(script).expect("script");
        cold.set_snapshot_reuse(false);
        Harness {
            warm,
            cold,
            targets,
            versions,
            keys: Vec::new(),
        }
    }

    fn row(&self, target: usize, vals: &[i64]) -> Vec<Value> {
        let (_, table) = self.targets[target];
        match table {
            "Task" => vec![
                Value::text(format!("author{}", vals[0])),
                Value::text(format!("task{}", vals[1])),
                Value::Int(vals[2] % 3 + 1),
            ],
            "Todo" => vec![
                Value::text(format!("author{}", vals[0])),
                Value::text(format!("todo{}", vals[1])),
            ],
            "D" | "W" => vec![
                Value::Int(vals[0] % 5),
                Value::text(format!("b{}", vals[1])),
                Value::text(format!("c{}", vals[2] % 3)),
            ],
            _ => vec![Value::Int(vals[0]), Value::text(format!("b{}", vals[1]))],
        }
    }

    fn apply_write(&mut self, op: &Op) {
        match op {
            Op::Insert { target, vals } => {
                let (v, t) = self.targets[*target];
                let row = self.row(*target, vals);
                let rw = self.warm.insert(v, t, row.clone());
                let rc = self.cold.insert(v, t, row);
                match (rw, rc) {
                    (Ok(kw), Ok(kc)) => {
                        assert_eq!(kw, kc, "key sequences diverged");
                        self.keys.push(kw);
                    }
                    (rw, rc) => assert_eq!(rw.is_ok(), rc.is_ok(), "{rw:?} vs {rc:?}"),
                }
            }
            Op::Update { target, slot, vals } => {
                if self.keys.is_empty() {
                    return;
                }
                let key = self.keys[slot % self.keys.len()];
                let (v, t) = self.targets[*target];
                let row = self.row(*target, vals);
                let rw = self.warm.update(v, t, key, row.clone());
                let rc = self.cold.update(v, t, key, row);
                assert_eq!(rw.is_ok(), rc.is_ok(), "{rw:?} vs {rc:?}");
            }
            Op::Delete { target, slot } => {
                if self.keys.is_empty() {
                    return;
                }
                let key = self.keys[slot % self.keys.len()];
                let (v, t) = self.targets[*target];
                let rw = self.warm.delete(v, t, key);
                let rc = self.cold.delete(v, t, key);
                assert_eq!(rw.is_ok(), rc.is_ok(), "{rw:?} vs {rc:?}");
            }
            Op::Materialize { version } => {
                let v = self.versions[*version];
                let rw = self.warm.materialize(&[v.to_string()]);
                let rc = self.cold.materialize(&[v.to_string()]);
                assert_eq!(rw.is_ok(), rc.is_ok(), "{rw:?} vs {rc:?}");
            }
            Op::Query(_) => unreachable!("queries are checked, not applied"),
        }
    }

    /// Flattened, deterministic (version, table) enumeration — identical in
    /// both databases by construction.
    fn query_targets(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for v in self.warm.versions() {
            let mut tables = self.warm.tables_of(&v).unwrap();
            tables.sort();
            for t in tables {
                out.push((v.clone(), t));
            }
        }
        out
    }

    fn check_query(&self, spec: &QuerySpec, context: &str) {
        let targets = self.query_targets();
        let (version, table) = &targets[spec.target % targets.len()];
        for (name, db) in [("warm", &self.warm), ("cold", &self.cold)] {
            check_one(db, version, table, spec, &format!("{context} [{name}]"));
        }
        // Queries are reads: they must never make the two databases' skolem
        // registries drift (pushdown may not mint off the canonical order).
        assert_eq!(
            self.warm.debug_registry(),
            self.cold.debug_registry(),
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

const TASKY_SCRIPT: &str =
    "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio); \
     CREATE SCHEMA VERSION Do! FROM TasKy WITH \
       SPLIT TABLE Task INTO Todo WITH prio = 1; \
       DROP COLUMN prio FROM Todo DEFAULT 1; \
     CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
       DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author; \
       RENAME COLUMN author IN Author TO name;";

const SPLIT_SCRIPT: &str = "CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b); \
     CREATE SCHEMA VERSION V2 FROM V1 WITH \
       SPLIT TABLE T INTO R WITH a < 5, S WITH a >= 3;";

const MINT_CHAIN_SCRIPT: &str = "CREATE SCHEMA VERSION V1 WITH CREATE TABLE D(a, b, c); \
     CREATE SCHEMA VERSION V2 FROM V1 WITH \
       DECOMPOSE TABLE D INTO D(a, b), U(c) ON FOREIGN KEY c; \
     CREATE SCHEMA VERSION V3 FROM V2 WITH \
       SPLIT TABLE D INTO W WITH a < 3;";

fn run(
    script: &str,
    targets: Vec<(&'static str, &'static str)>,
    versions: Vec<&'static str>,
    ops: &[Op],
) {
    let mut h = Harness::new(script, targets, versions);
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Query(spec) => h.check_query(spec, &format!("op {i}: {spec:?}")),
            write => h.apply_write(write),
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
        run(
            TASKY_SCRIPT,
            vec![("TasKy", "Task"), ("Do!", "Todo")],
            vec!["TasKy", "Do!", "TasKy2"],
            &ops,
        );
    }

    /// Overlapping two-arm SPLIT: twins, separations, aux guards — the
    /// union-with-negation γ mappings the seeded path must reproduce.
    #[test]
    fn query_pushdown_equals_scan_filter_overlapping_split(
        ops in prop::collection::vec(op_strategy(3, 2), 1..18),
    ) {
        run(
            SPLIT_SCRIPT,
            vec![("V1", "T"), ("V2", "R"), ("V2", "S")],
            vec!["V1", "V2"],
            &ops,
        );
    }

    /// FK-DECOMPOSE + stacked SPLIT minting chain: queries across the
    /// id-generating frontier must agree with scan+filter *and* leave the
    /// registries in lockstep (pushdown never mints off the canonical
    /// order).
    #[test]
    fn query_pushdown_equals_scan_filter_minting_chain(
        ops in prop::collection::vec(op_strategy(2, 3), 1..18),
    ) {
        run(
            MINT_CHAIN_SCRIPT,
            vec![("V1", "D"), ("V3", "W")],
            vec!["V1", "V2", "V3"],
            &ops,
        );
    }
}

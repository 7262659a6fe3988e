//! The first-class query layer: logical plans with index-backed selection,
//! projection, and limit over a resolved schema version.
//!
//! Every schema version is a full-fledged read interface (Section 2 of the
//! paper), and a *filtered* read should not rescan the whole virtual
//! relation each time it runs. A [`Query`] is built fluently —
//!
//! ```
//! use inverda_core::Inverda;
//! use inverda_storage::Expr;
//!
//! let db = Inverda::new();
//! db.execute("CREATE SCHEMA VERSION V1 WITH CREATE TABLE t(a, b);").unwrap();
//! db.insert("V1", "t", vec![1.into(), 10.into()]).unwrap();
//! db.insert("V1", "t", vec![2.into(), 20.into()]).unwrap();
//! let hot = db
//!     .query("V1", "t")
//!     .filter(Expr::col("a").eq(Expr::lit(2)))
//!     .project(["b"])
//!     .limit(10)
//!     .rows()
//!     .unwrap();
//! assert_eq!(hot.count(), 1);
//! ```
//!
//! — and picks its access path when it runs:
//!
//! * **Warm / physical** — the relation is already at hand (statement
//!   cache, physical table, valid [`SnapshotStore`] entry): an eq/range
//!   conjunct probes the relation's own [`ColumnIndex`]
//!   ([`ColumnIndex::keys_where`]), everything else scans the snapshot.
//! * **Cold virtual** — the relation is resolved exactly as a scan
//!   resolves it ([`EdbView::full`]: one canonical evaluation through the
//!   γ mappings, or the catch-up of a stale snapshot), and the snapshot
//!   store keeps it, so the next filtered read is warm. No index is built
//!   for the cold read itself: one the relation already has is probed,
//!   otherwise the rows are scanned.
//! * **Key** — [`Query::with_key`] takes the existing key-seeded path
//!   ([`EdbView::by_key`]), the engine's 3.4× point-lookup fast path.
//!
//! The **entire** original filter is re-evaluated on every candidate row
//! (as a position-bound [`BoundExpr`], borrowed-row evaluation), so the
//! probed conjunct only *prunes* — an index probe ≡ scan-plus-filter holds
//! byte-for-byte, including the numeric-folding corner where `Int(1)`
//! matches a `Float(1.0)` probe but the emitted row keeps the stored bytes.
//! Residual predicates, projections, and limits apply during emission:
//! rows stream out of a [`RowIter`] without cloning the full relation, and
//! `count`/`exists` never clone rows at all. Determinism: a cold plan
//! resolves what a scan resolves, so it mints skolem ids in the canonical
//! order and fails exactly where a scan fails; results are byte-identical
//! warm or cold — enforced by `tests/query_pushdown_props.rs`.
//!
//! [`SnapshotStore`]: crate::snapshot::SnapshotStore
//! [`ColumnIndex`]: inverda_storage::ColumnIndex
//! [`ColumnIndex::keys_where`]: inverda_storage::ColumnIndex::keys_where
//! [`EdbView::full`]: inverda_datalog::eval::EdbView::full
//! [`EdbView::by_key`]: inverda_datalog::eval::EdbView::by_key
//! [`BoundExpr`]: inverda_storage::BoundExpr

use crate::database::Inverda;
use crate::Result;
use inverda_datalog::eval::EdbView;
use inverda_storage::{BoundExpr, CmpOp, Expr, Key, Relation, Row, TableSchema, Value};
use std::fmt;
use std::sync::Arc;

/// A fluent read query against one `version.table`. Built by
/// [`Inverda::query`]; nothing executes until a terminal method
/// ([`rows`](Query::rows), [`collect`](Query::collect),
/// [`count`](Query::count), [`exists`](Query::exists), …) runs it.
#[derive(Clone)]
pub struct Query<'a> {
    db: &'a Inverda,
    version: String,
    table: String,
    filter: Option<Expr>,
    projection: Option<Vec<String>>,
    order_by: Option<(String, bool)>,
    limit: Option<usize>,
    key: Option<Key>,
}

/// How an executed plan fetched its candidate rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Point lookup pushed through the defining mappings by key.
    KeySeek,
    /// Index probe (`column <op> literal`) over a warm or physical snapshot.
    IndexProbe {
        /// Probed column.
        column: String,
        /// SQL spelling of the comparison.
        op: &'static str,
    },
    /// Scan of the resolved relation with residual filtering.
    Scan,
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPath::KeySeek => write!(f, "key-seek"),
            AccessPath::IndexProbe { column, op } => write!(f, "index-probe({column} {op} …)"),
            AccessPath::Scan => write!(f, "scan"),
        }
    }
}

/// The logical plan an executed [`Query`] chose (diagnostics and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Version-independent relation the query reads.
    pub relation: String,
    /// Access path taken (reflects the warm/cold state at execution time).
    pub access: AccessPath,
    /// Whether a residual predicate ran per candidate row.
    pub filtered: bool,
    /// Output column names (after projection).
    pub columns: Vec<String>,
    /// Ordering column and direction (`true` = descending), if any.
    pub order_by: Option<(String, bool)>,
    /// Row limit, if any.
    pub limit: Option<usize>,
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read {} via {}{}",
            self.relation,
            self.access,
            if self.filtered {
                " + residual filter"
            } else {
                ""
            }
        )?;
        if let Some((col, desc)) = &self.order_by {
            write!(f, " order by {col}{}", if *desc { " desc" } else { "" })?;
        }
        if let Some(n) = self.limit {
            write!(f, " limit {n}")?;
        }
        write!(f, " -> [{}]", self.columns.join(", "))
    }
}

/// Selected rows before projection: either a whole shared snapshot, a key
/// list over a shared snapshot, or owned tuples (key-seek results).
enum Selected {
    /// The entire relation qualifies (no filter/order/limit).
    All(Arc<Relation>),
    /// Selected keys (already ordered and limited) over a shared snapshot.
    Keyed(Arc<Relation>, Vec<Key>),
    /// Owned tuples (already ordered and limited).
    Owned(Vec<(Key, Row)>),
}

impl Selected {
    fn len(&self) -> usize {
        match self {
            Selected::All(rel) => rel.len(),
            Selected::Keyed(_, keys) => keys.len(),
            Selected::Owned(rows) => rows.len(),
        }
    }
}

/// The result of running a query's selection phase. Plan *display* state
/// ([`QueryPlan`]) is assembled lazily by [`Exec::plan`] — `get`, `count`,
/// and `exists` never pay for the column-name clones it carries.
struct Exec {
    /// Version-independent relation the query read.
    relation: String,
    /// Access path taken.
    access: AccessPath,
    /// Whether a residual predicate ran per candidate row.
    filtered: bool,
    /// Source column names (pre-projection).
    columns: Vec<String>,
    /// Projection as source column positions, if any.
    proj: Option<Vec<usize>>,
    rows: Selected,
}

/// Streaming iterator over a query's result rows, yielding `(Key, Row)`
/// with the projection applied lazily: rows backed by a shared snapshot are
/// cloned one at a time as the iterator advances, never all at once.
pub struct RowIter {
    inner: RowIterInner,
    columns: Vec<String>,
}

enum RowIterInner {
    Shared {
        rel: Arc<Relation>,
        keys: std::vec::IntoIter<Key>,
        proj: Option<Vec<usize>>,
    },
    Owned {
        rows: std::vec::IntoIter<(Key, Row)>,
        proj: Option<Vec<usize>>,
    },
}

fn project_row(row: &[Value], proj: Option<&[usize]>) -> Row {
    match proj {
        Some(idxs) => idxs.iter().map(|&i| row[i].clone()).collect(),
        None => row.to_vec(),
    }
}

impl RowIter {
    /// Output column names (post-projection).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }
}

impl Iterator for RowIter {
    type Item = (Key, Row);

    fn next(&mut self) -> Option<(Key, Row)> {
        match &mut self.inner {
            RowIterInner::Shared { rel, keys, proj } => {
                for key in keys.by_ref() {
                    if let Some(row) = rel.get(key) {
                        return Some((key, project_row(row, proj.as_deref())));
                    }
                }
                None
            }
            RowIterInner::Owned { rows, proj } => rows
                .next()
                .map(|(key, row)| (key, project_row(&row, proj.as_deref()))),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.inner {
            RowIterInner::Shared { keys, .. } => keys.len(),
            RowIterInner::Owned { rows, .. } => rows.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for RowIter {}

/// One conjunct of the filter that an index can answer: `column <op> lit`.
#[derive(Clone)]
struct PushedPred {
    column: usize,
    op: CmpOp,
    value: Value,
}

/// Flatten an `AND` tree into conjuncts.
fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        other => vec![other],
    }
}

/// Recognize `column <op> literal` (either side), normalized so the column
/// is on the left. `NULL` literals stay residual: the pushed conjunct only
/// prunes, and keeping ω comparisons out of the probe sidesteps their
/// `IS [NOT] DISTINCT FROM` corner entirely.
fn pushable_conjunct(expr: &Expr, columns: &[String]) -> Option<(usize, CmpOp, Value)> {
    let flip = |op: CmpOp| match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    };
    let Expr::Cmp(a, op, b) = expr else {
        return None;
    };
    let (col, op, lit) = match (a.as_ref(), b.as_ref()) {
        (Expr::Column(c), Expr::Lit(v)) => (c, *op, v),
        (Expr::Lit(v), Expr::Column(c)) => (c, flip(*op), v),
        _ => return None,
    };
    if lit.is_null()
        || !matches!(
            op,
            CmpOp::Eq | CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge
        )
    {
        return None;
    }
    let idx = columns.iter().position(|name| name == col)?;
    Some((idx, op, lit.clone()))
}

impl<'a> Query<'a> {
    pub(crate) fn new(db: &'a Inverda, version: &str, table: &str) -> Self {
        Query {
            db,
            version: version.to_string(),
            table: table.to_string(),
            filter: None,
            projection: None,
            order_by: None,
            limit: None,
            key: None,
        }
    }

    /// Add a predicate; multiple calls conjoin (`AND`).
    pub fn filter(mut self, expr: Expr) -> Self {
        self.filter = Some(match self.filter.take() {
            Some(existing) => existing.and(expr),
            None => expr,
        });
        self
    }

    /// Project the output to the named columns, in the given order
    /// (duplicate names are rejected when the query executes).
    pub fn project<S: Into<String>>(mut self, columns: impl IntoIterator<Item = S>) -> Self {
        self.projection = Some(columns.into_iter().map(Into::into).collect());
        self
    }

    /// Order by a column, ascending (ties break by key; the default order
    /// is ascending key).
    pub fn order_by(mut self, column: impl Into<String>) -> Self {
        self.order_by = Some((column.into(), false));
        self
    }

    /// Order by a column, descending (ties break by ascending key).
    pub fn order_by_desc(mut self, column: impl Into<String>) -> Self {
        self.order_by = Some((column.into(), true));
        self
    }

    /// Keep at most `n` rows (applied after ordering; without an ordering,
    /// selection stops early once `n` rows qualified).
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Restrict to the row with this InVerDa identifier — the key-seeded
    /// fast path of [`Inverda::get`].
    pub fn with_key(mut self, key: Key) -> Self {
        self.key = Some(key);
        self
    }

    // ---- terminal operations ----------------------------------------------

    /// Stream the matching rows.
    pub fn rows(&self) -> Result<RowIter> {
        let exec = self.run(self.limit)?;
        let columns = exec.output_columns();
        let inner = match exec.rows {
            Selected::All(rel) => {
                let keys: Vec<Key> = rel.keys().collect();
                RowIterInner::Shared {
                    rel,
                    keys: keys.into_iter(),
                    proj: exec.proj,
                }
            }
            Selected::Keyed(rel, keys) => RowIterInner::Shared {
                rel,
                keys: keys.into_iter(),
                proj: exec.proj,
            },
            Selected::Owned(rows) => RowIterInner::Owned {
                rows: rows.into_iter(),
                proj: exec.proj,
            },
        };
        Ok(RowIter { inner, columns })
    }

    /// Materialize the result as a relation named after the table, with the
    /// projected columns.
    pub fn collect(&self) -> Result<Relation> {
        let exec = self.run(self.limit)?;
        let columns = exec.output_columns();
        let schema =
            TableSchema::new(self.table.clone(), columns).map_err(crate::CoreError::from)?;
        let mut out = Relation::new(schema);
        let proj = exec.proj.as_deref();
        match &exec.rows {
            Selected::All(rel) => {
                for (key, row) in rel.iter() {
                    out.upsert(key, project_row(row, proj))
                        .map_err(crate::CoreError::from)?;
                }
            }
            Selected::Keyed(rel, keys) => {
                // Dense ascending selections (a scan or an unselective probe
                // kept most rows, no ORDER BY re-sort) materialize by merging
                // against one in-order walk of the relation; per-key tree
                // probes only pay off when the selection is sparse. Both
                // shapes live in [`Relation::select_rows`].
                let mut first_err: Option<crate::CoreError> = None;
                rel.select_rows(keys, |key, row| {
                    if first_err.is_some() {
                        return;
                    }
                    if let Err(e) = out.upsert(key, project_row(row, proj)) {
                        first_err = Some(crate::CoreError::from(e));
                    }
                });
                if let Some(e) = first_err {
                    return Err(e);
                }
            }
            Selected::Owned(rows) => {
                for (key, row) in rows {
                    out.upsert(*key, project_row(row, proj))
                        .map_err(crate::CoreError::from)?;
                }
            }
        }
        Ok(out)
    }

    /// The result as a shared relation: a query with no filter, projection,
    /// ordering, or limit hands back the resolved snapshot itself (O(1), the
    /// [`Inverda::scan`] path); anything narrower materializes the selection.
    pub fn collect_shared(&self) -> Result<Arc<Relation>> {
        let exec = self.run(self.limit)?;
        if let (Selected::All(rel), None) = (&exec.rows, &exec.proj) {
            return Ok(Arc::clone(rel));
        }
        self.collect().map(Arc::new)
    }

    /// The single matching row of a [`with_key`](Query::with_key) query (or
    /// the first row in result order otherwise), projected.
    pub fn row(&self) -> Result<Option<Row>> {
        let exec = self.run(Some(self.limit.unwrap_or(1).min(1)))?;
        let proj = exec.proj.as_deref();
        Ok(match exec.rows {
            Selected::All(rel) => rel.iter().next().map(|(_, row)| project_row(row, proj)),
            Selected::Keyed(rel, keys) => keys
                .first()
                .and_then(|&k| rel.get(k))
                .map(|row| project_row(row, proj)),
            Selected::Owned(rows) => rows.first().map(|(_, row)| project_row(row, proj)),
        })
    }

    /// Number of matching rows. Never clones a row: a warm unfiltered count
    /// is O(1) off the snapshot, a filtered one counts selected keys.
    pub fn count(&self) -> Result<usize> {
        Ok(self.run(self.limit)?.rows.len())
    }

    /// Whether any row matches (selection stops at the first hit).
    pub fn exists(&self) -> Result<bool> {
        Ok(self.run(Some(1))?.rows.len() > 0)
    }

    /// The plan the query would execute **right now** (access paths reflect
    /// the current warm/cold state; running the query is how the plan is
    /// decided, so this performs the selection).
    pub fn plan(&self) -> Result<QueryPlan> {
        Ok(self
            .run(self.limit)?
            .plan(self.order_by.clone(), self.limit))
    }

    /// Human-readable form of [`plan`](Query::plan).
    pub fn explain(&self) -> Result<String> {
        Ok(self.plan()?.to_string())
    }

    // ---- execution --------------------------------------------------------

    /// Resolve, plan, and select. `limit` is the effective row cap (terminal
    /// ops may tighten it, e.g. `exists` caps at 1).
    fn run(&self, limit: Option<usize>) -> Result<Exec> {
        let state = self.db.state.read();
        let tv = state.genealogy.resolve(&self.version, &self.table)?;
        let tvd = state.genealogy.table_version(tv);
        let relation = tvd.rel.clone();
        let columns = tvd.columns.clone();

        // Bind everything against the schema up front: unknown filter /
        // projection / ordering columns error before any data is touched.
        let bound = self
            .filter
            .as_ref()
            .map(|e| BoundExpr::bind(e, &self.table, &columns))
            .transpose()
            .map_err(crate::CoreError::from)?;
        let proj = self
            .projection
            .as_ref()
            .map(|cols| {
                // Reject duplicates here so every terminal agrees (collect()
                // would otherwise hit the schema's duplicate-column check
                // while rows()/count() sailed through).
                for (i, c) in cols.iter().enumerate() {
                    if cols[..i].contains(c) {
                        return Err(inverda_storage::StorageError::DuplicateColumn {
                            table: self.table.clone(),
                            column: c.clone(),
                        });
                    }
                }
                cols.iter()
                    .map(|c| inverda_storage::resolve_column(&self.table, &columns, c))
                    .collect::<std::result::Result<Vec<usize>, _>>()
            })
            .transpose()
            .map_err(crate::CoreError::from)?;
        let order = self
            .order_by
            .as_ref()
            .map(|(c, desc)| {
                inverda_storage::resolve_column(&self.table, &columns, c).map(|i| (i, *desc))
            })
            .transpose()
            .map_err(crate::CoreError::from)?;

        let ids = self.db.id_source();
        let edb = self.db.edb(&state, &ids);

        let (access, rows) =
            self.select(&edb, &relation, &columns, bound.as_ref(), order, limit)?;
        Ok(Exec {
            relation,
            access,
            filtered: bound.is_some(),
            columns,
            proj,
            rows,
        })
    }

    /// The selection phase: pick an access path, collect qualifying rows,
    /// order, and limit.
    fn select(
        &self,
        edb: &crate::edb::VersionedEdb<'_>,
        relation: &str,
        columns: &[String],
        bound: Option<&BoundExpr>,
        order: Option<(usize, bool)>,
        limit: Option<usize>,
    ) -> Result<(AccessPath, Selected)> {
        // Key path: the point lookup the delta engine and `get` use.
        if let Some(key) = self.key {
            let mut rows = Vec::new();
            if let Some(row) = edb.by_key(relation, key).map_err(crate::CoreError::from)? {
                if match bound {
                    Some(pred) => pred.matches(&row).map_err(crate::CoreError::from)?,
                    None => true,
                } {
                    rows.push((key, row));
                }
            }
            let rows = order_and_limit_owned(rows, order, limit);
            return Ok((AccessPath::KeySeek, Selected::Owned(rows)));
        }

        // Prefer an equality conjunct: it is an O(1) hash probe where a
        // range probe costs O(distinct values).
        let pushed: Option<PushedPred> = self.filter.as_ref().and_then(|f| {
            let candidates: Vec<PushedPred> = conjuncts(f)
                .into_iter()
                .filter_map(|c| pushable_conjunct(c, columns))
                .map(|(column, op, value)| PushedPred { column, op, value })
                .collect();
            candidates
                .iter()
                .find(|p| matches!(p.op, CmpOp::Eq))
                .or_else(|| candidates.first())
                .cloned()
        });

        // Warm / physical: index-backed selection over the snapshot.
        if let Some(rel) = edb
            .peek_resolved(relation)
            .map_err(crate::CoreError::from)?
        {
            return self.select_from_snapshot(rel, bound, pushed, order, limit);
        }

        // Cold: resolve fully (canonical order), then scan. No
        // index is built for a one-shot cold query — the resolution itself
        // already cost O(data), and the snapshot store keeps the resolved
        // relation (and any later index) warm for the next one. An index
        // that is already there is probed: a stale snapshot caught up by
        // `full` comes back with its indexes patched with its rows.
        let rel = edb.full(relation).map_err(crate::CoreError::from)?;
        let pushed = pushed.filter(|p| rel.built_index(p.column).is_some());
        self.select_from_snapshot(rel, bound, pushed, order, limit)
    }

    /// Selection over an at-hand snapshot: index probe for a pushed
    /// conjunct, scan otherwise; residual filter per candidate; order and
    /// limit applied on the selected keys (no row is cloned here).
    fn select_from_snapshot(
        &self,
        rel: Arc<Relation>,
        bound: Option<&BoundExpr>,
        pushed: Option<PushedPred>,
        order: Option<(usize, bool)>,
        limit: Option<usize>,
    ) -> Result<(AccessPath, Selected)> {
        let Some(pred) = bound else {
            // Unfiltered: the snapshot itself is the result; ordering or a
            // limit only narrows the key list. With no ordering the first
            // `limit` keys suffice — `exists` on a warm relation never
            // enumerates it.
            if order.is_none() && limit.is_none() {
                return Ok((AccessPath::Scan, Selected::All(rel)));
            }
            let keys: Vec<Key> = match (order, limit) {
                (None, Some(n)) => rel.keys().take(n).collect(),
                _ => rel.keys().collect(),
            };
            let keys = order_and_limit_keys(&rel, keys, order, limit);
            return Ok((AccessPath::Scan, Selected::Keyed(rel, keys)));
        };
        let candidates: Option<(AccessPath, Vec<Key>)> = match pushed {
            Some(p) if p.column < rel.schema().arity() && matches!(p.op, CmpOp::Eq) => {
                // Equality: an O(1) hash probe after the (amortized,
                // store-cached) index build — always worth it.
                let index = rel.index(p.column);
                Some((
                    AccessPath::IndexProbe {
                        column: rel.schema().columns[p.column].clone(),
                        op: p.op.sql(),
                    },
                    index.keys_for(&p.value).to_vec(),
                ))
            }
            Some(p) if p.column < rel.schema().arity() => {
                // Range: the probe walks every distinct value and sorts the
                // matches, so it only beats a scan when an index is already
                // at hand (never build one for a range) *and* the candidate
                // set is selective. Past half the relation, enumerating and
                // sorting the matches costs more than the in-key-order scan
                // it replaces — fall back. Both paths yield ascending-key
                // candidates rechecked against the full predicate, so the
                // selected rows are byte-identical either way.
                rel.built_index(p.column)
                    .and_then(|index| {
                        (index.count_where(p.op, &p.value) <= rel.len() / 2)
                            .then(|| index.keys_where(p.op, &p.value))
                    })
                    .map(|keys| {
                        (
                            AccessPath::IndexProbe {
                                column: rel.schema().columns[p.column].clone(),
                                op: p.op.sql(),
                            },
                            keys,
                        )
                    })
            }
            _ => None,
        };
        let early = order.is_none().then_some(limit).flatten();
        let mut selected = Vec::new();
        let access = match candidates {
            Some((access, candidates)) => {
                for key in candidates {
                    let Some(row) = rel.get(key) else { continue };
                    if pred.matches(row).map_err(crate::CoreError::from)? {
                        selected.push(key);
                        if early.is_some_and(|n| selected.len() >= n) {
                            break;
                        }
                    }
                }
                access
            }
            None => {
                // Scan: walk the rows in place (ascending key order, same as
                // the probe paths) instead of collecting keys and re-probing
                // the map per key.
                for (key, row) in rel.iter() {
                    if pred.matches(row).map_err(crate::CoreError::from)? {
                        selected.push(key);
                        if early.is_some_and(|n| selected.len() >= n) {
                            break;
                        }
                    }
                }
                AccessPath::Scan
            }
        };
        let selected = order_and_limit_keys(&rel, selected, order, limit);
        Ok((access, Selected::Keyed(rel, selected)))
    }
}

impl Exec {
    fn output_columns(&self) -> Vec<String> {
        match &self.proj {
            Some(idxs) => idxs.iter().map(|&i| self.columns[i].clone()).collect(),
            None => self.columns.clone(),
        }
    }

    /// Assemble the displayable plan (allocates; only `plan`/`explain` ask).
    fn plan(self, order_by: Option<(String, bool)>, limit: Option<usize>) -> QueryPlan {
        QueryPlan {
            columns: self.output_columns(),
            relation: self.relation,
            access: self.access,
            filtered: self.filtered,
            order_by,
            limit,
        }
    }
}

/// Order selected keys by a column value (ties by ascending key; `None`
/// keeps ascending key order) and truncate to the limit.
fn order_and_limit_keys(
    rel: &Relation,
    mut keys: Vec<Key>,
    order: Option<(usize, bool)>,
    limit: Option<usize>,
) -> Vec<Key> {
    if let Some((col, desc)) = order {
        // Decorate once instead of two tree lookups per comparison.
        let mut decorated: Vec<(Option<&Value>, Key)> = keys
            .iter()
            .map(|&k| (rel.get(k).and_then(|r| r.get(col)), k))
            .collect();
        decorated.sort_by(|(va, ka), (vb, kb)| {
            let ord = va.cmp(vb);
            let ord = if desc { ord.reverse() } else { ord };
            ord.then(ka.cmp(kb))
        });
        keys = decorated.into_iter().map(|(_, k)| k).collect();
    }
    if let Some(n) = limit {
        keys.truncate(n);
    }
    keys
}

/// [`order_and_limit_keys`] for owned tuples.
fn order_and_limit_owned(
    mut rows: Vec<(Key, Row)>,
    order: Option<(usize, bool)>,
    limit: Option<usize>,
) -> Vec<(Key, Row)> {
    if let Some((col, desc)) = order {
        rows.sort_by(|(ka, ra), (kb, rb)| {
            let ord = ra.get(col).cmp(&rb.get(col));
            let ord = if desc { ord.reverse() } else { ord };
            ord.then(ka.cmp(kb))
        });
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasky_db() -> Inverda {
        let db = Inverda::new();
        db.execute(
            "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio); \
             CREATE SCHEMA VERSION Do! FROM TasKy WITH \
               SPLIT TABLE Task INTO Todo WITH prio = 1; \
               DROP COLUMN prio FROM Todo DEFAULT 1;",
        )
        .unwrap();
        for i in 0..12 {
            db.insert(
                "TasKy",
                "Task",
                vec![
                    Value::text(format!("author{}", i % 4)),
                    Value::text(format!("task {i}")),
                    Value::Int(i % 3 + 1),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn filter_project_limit_roundtrip() {
        let db = tasky_db();
        let rows: Vec<_> = db
            .query("TasKy", "Task")
            .filter(Expr::col("author").eq(Expr::lit("author1")))
            .project(["task", "prio"])
            .rows()
            .unwrap()
            .collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|(_, row)| row.len() == 2));

        let limited = db
            .query("TasKy", "Task")
            .filter(Expr::col("prio").ge(Expr::lit(2)))
            .limit(3)
            .count()
            .unwrap();
        assert_eq!(limited, 3);
    }

    #[test]
    fn pushdown_equals_scan_filter_on_virtual_version() {
        let db = tasky_db();
        let filter = Expr::col("author").eq(Expr::lit("author2"));
        let pushed = db
            .query("Do!", "Todo")
            .filter(filter.clone())
            .collect()
            .unwrap();
        let scanned = db.scan("Do!", "Todo").unwrap();
        let bound = BoundExpr::bind(&filter, "Todo", &["author".into(), "task".into()]).unwrap();
        let oracle = scanned.filter(|_, row| bound.matches(row).unwrap());
        assert_eq!(pushed.len(), oracle.len());
        for (k, row) in oracle.iter() {
            assert_eq!(pushed.get(k), Some(row));
        }
    }

    #[test]
    fn cold_selective_query_plans_a_scan() {
        let db = tasky_db();
        db.set_snapshot_reuse(false); // every statement is cold
        let plan = db
            .query("Do!", "Todo")
            .filter(Expr::col("author").eq(Expr::lit("author1")))
            .plan()
            .unwrap();
        assert_eq!(plan.access, AccessPath::Scan, "{plan}");
    }

    #[test]
    fn a_cold_equality_query_leaves_its_relation_warm() {
        let db = tasky_db();
        assert!(db.snapshot_reuse());
        let todo = {
            let state = db.state.read();
            let tv = state.genealogy.resolve("Do!", "Todo").unwrap();
            state.genealogy.table_version(tv).rel.clone()
        };
        assert!(db.snapshots.peek_valid(&todo, &db.storage).is_none());
        let author1 = || {
            db.query("Do!", "Todo")
                .filter(Expr::col("author").eq(Expr::lit("author1")))
        };
        let before = db.snapshot_stats();
        assert_eq!(author1().count().unwrap(), 1);
        let cold = db.snapshot_stats();
        assert_eq!(cold.hits, before.hits, "the first read found no entry");
        assert!(cold.misses > before.misses);

        // The cold query resolved `Do!.Todo` whole, and the store kept it.
        db.scan("Do!", "Todo").unwrap();
        let scanned = db.snapshot_stats();
        assert_eq!(scanned.hits, cold.hits + 1);
        assert_eq!(scanned.misses, cold.misses);
        let plan = author1().plan().unwrap();
        assert_eq!(plan.access.to_string(), "index-probe(author = …)", "{plan}");
    }

    #[test]
    fn planner_prefers_equality_over_leading_range_conjunct() {
        // `range AND eq` probes the equality's hash index warm, not the
        // range.
        let db = tasky_db();
        let filter = Expr::col("task")
            .ge(Expr::lit("task"))
            .and(Expr::col("author").eq(Expr::lit("author1")));
        let q = db.query("Do!", "Todo").filter(filter);
        db.scan("Do!", "Todo").unwrap();
        let plan = q.plan().unwrap();
        assert!(
            matches!(plan.access, AccessPath::IndexProbe { ref column, op: "=" } if column == "author"),
            "{plan}"
        );
        // One Todo row (prio 1) belongs to author1; the range conjunct
        // (`task >= "task"`) keeps it.
        assert_eq!(q.count().unwrap(), 1);
    }

    #[test]
    fn warm_query_probes_the_index() {
        let db = tasky_db();
        db.scan("Do!", "Todo").unwrap(); // warm the store
        let plan = db
            .query("Do!", "Todo")
            .filter(Expr::col("author").eq(Expr::lit("author1")))
            .plan()
            .unwrap();
        assert!(
            matches!(plan.access, AccessPath::IndexProbe { ref column, op: "=" } if column == "author"),
            "{plan}"
        );
    }

    #[test]
    fn order_by_and_desc() {
        let db = tasky_db();
        let rows: Vec<_> = db
            .query("TasKy", "Task")
            .order_by_desc("prio")
            .limit(4)
            .project(["prio"])
            .rows()
            .unwrap()
            .collect();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|(_, r)| r[0] == Value::Int(3)));
        let asc: Vec<_> = db
            .query("TasKy", "Task")
            .order_by("prio")
            .limit(1)
            .project(["prio"])
            .rows()
            .unwrap()
            .collect();
        assert_eq!(asc[0].1[0], Value::Int(1));
    }

    #[test]
    fn count_exists_and_key_path() {
        let db = tasky_db();
        assert_eq!(db.query("TasKy", "Task").count().unwrap(), 12);
        assert!(db
            .query("TasKy", "Task")
            .filter(Expr::col("author").eq(Expr::lit("author3")))
            .exists()
            .unwrap());
        assert!(!db
            .query("TasKy", "Task")
            .filter(Expr::col("author").eq(Expr::lit("nobody")))
            .exists()
            .unwrap());
        let key = db.scan("TasKy", "Task").unwrap().keys().next().unwrap();
        let direct = db.get("TasKy", "Task", key).unwrap();
        let via_query = db.query("TasKy", "Task").with_key(key).row().unwrap();
        assert_eq!(direct, via_query);
    }

    #[test]
    fn unknown_columns_error_at_plan_time() {
        let db = tasky_db();
        assert!(db
            .query("TasKy", "Task")
            .filter(Expr::col("nope").eq(Expr::lit(1)))
            .count()
            .is_err());
        assert!(db.query("TasKy", "Task").project(["nope"]).rows().is_err());
        // Duplicate projections error on every terminal, not just collect().
        let dup = db.query("TasKy", "Task").project(["task", "task"]);
        assert!(dup.rows().is_err());
        assert!(dup.count().is_err());
        assert!(dup.collect().is_err());
        assert!(db.query("TasKy", "Task").order_by("nope").count().is_err());
        assert!(db.query("Nope", "Task").count().is_err());
    }
}

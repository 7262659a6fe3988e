//! Keyed relations: the unit of data every mapping rule consumes/produces.
//!
//! A [`Relation`] is a set of rows indexed by the InVerDa identifier `p`
//! ([`Key`]). The unique key makes relations behave as sets (the paper's
//! bridge between SQL multisets and Datalog sets) and makes diffing two side
//! states — the heart of write propagation and migration — a linear merge.
//!
//! ## Structural sharing
//!
//! Relations are held as `Arc<Relation>` and changed copy-on-write by
//! storage, the snapshot store, epoch pins, branch forks and the serving
//! layer's published epoch, so a relation is **persistent**: its rows live
//! in key-ordered chunks, each an `Arc<Vec<(Key, Row)>>`. Cloning a relation
//! clones the chunk pointers, not the rows; a change copies only the chunk
//! it lands in (`Arc::make_mut`), everything else stays shared with every
//! other holder; dropping a superseded version frees only the chunks no one
//! else holds. Every mutation keeps these invariants:
//!
//! * every chunk is non-empty and strictly ascending by key, and all its
//!   keys are below every key of the next chunk — the chunks in order *are*
//!   the relation in key order;
//! * `firsts[i]` is the first key of chunk `i`, in a flat array beside the
//!   chunks: finding a key's chunk is one binary search over contiguous
//!   keys, never a pointer chase per probe;
//! * no chunk reaches `2 × CHUNK` rows — one that does splits in half — and
//!   an ascending append past a full last chunk starts a new chunk instead
//!   of copying the full one;
//! * `len` is the total number of rows.
//!
//! Nothing observable depends on where chunk boundaries fall: equality,
//! `Debug` and `Display` are defined over the rows in key order.
//!
//! ## Column indexes
//!
//! A relation owns the secondary indexes built over it.
//! [`Relation::index`] builds one on first use, through `&self`, and keeps
//! it; every mutator patches the indexes already built, and a clone shares
//! them as it shares row chunks (an index is an `Arc`, copied by the first
//! patch that lands while another holder still reads it). So an index
//! always describes exactly the rows of the relation it sits in: storage
//! tables, epoch pins, branch forks and snapshot-store entries keep theirs
//! for as long as they keep the rows, with no staleness check anywhere. A
//! copy that goes on to derive a *different* state starts without them
//! ([`Relation::clone_rows`]), so its first change copies no index the
//! original still holds. Indexes are not part of a relation's value:
//! equality, `Debug` and `Display` do not see them.

use crate::error::StorageError;
use crate::schema::TableSchema;
use crate::value::{Key, Value};
use crate::Result;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One row's payload (the key is stored separately, beside it).
pub type Row = Vec<Value>;

/// Rows an ascending append fills a chunk with before starting the next;
/// a chunk splits in half when it reaches twice this. It trades the cost of
/// a change (copy one chunk: up to `2 × CHUNK` row clones) against the cost
/// of a clone (one reference bump per chunk): at 64 a 10 000-row relation
/// clones in ~2 µs (the `BTreeMap` it replaced: ~0.7 ms) and a one-row
/// change to a shared one costs ~7 µs; 32 doubles the clone, 128 adds a
/// third to the change (EXPERIMENTS.md, "Copy-on-write that copies only
/// what changed").
const CHUNK: usize = 64;

/// The chunked row store behind a [`Relation`] (invariants: module docs).
#[derive(Clone, Default)]
struct Rows {
    chunks: Vec<Arc<Vec<(Key, Row)>>>,
    firsts: Vec<Key>,
    len: usize,
}

impl Rows {
    /// The chunk `key` belongs in — the last one starting at or below it,
    /// the first one for a key below them all — and its slot there (`Err`:
    /// where it would be inserted). `None` iff there are no rows. A key past
    /// the last one is answered without a search: ascending appends (a
    /// derived head filling in scan order) are the common case.
    fn locate(&self, key: Key) -> Option<(usize, std::result::Result<usize, usize>)> {
        let last = self.chunks.last()?;
        if last[last.len() - 1].0 < key {
            return Some((self.chunks.len() - 1, Err(last.len())));
        }
        let c = self
            .firsts
            .partition_point(|first| *first <= key)
            .saturating_sub(1);
        Some((c, self.chunks[c].binary_search_by_key(&key, |(k, _)| *k)))
    }

    fn get(&self, key: Key) -> Option<&Row> {
        match self.locate(key)? {
            (c, Ok(slot)) => Some(&self.chunks[c][slot].1),
            _ => None,
        }
    }

    /// The row under `key`, in a chunk this relation no longer shares.
    fn get_mut(&mut self, key: Key) -> Option<&mut Row> {
        match self.locate(key)? {
            (c, Ok(slot)) => Some(&mut Arc::make_mut(&mut self.chunks[c])[slot].1),
            _ => None,
        }
    }

    /// Store `row` under `key`, returning the row it replaced.
    fn insert(&mut self, key: Key, row: Row) -> Option<Row> {
        let located = self.locate(key);
        if let Some((c, Ok(slot))) = located {
            let chunk = Arc::make_mut(&mut self.chunks[c]);
            return Some(std::mem::replace(&mut chunk[slot].1, row));
        }
        self.insert_vacant(located, key, row);
        None
    }

    /// Store `row` under a vacant `key`, where [`locate`](Rows::locate)
    /// placed it, and return the row as stored.
    fn insert_vacant(
        &mut self,
        located: Option<(usize, std::result::Result<usize, usize>)>,
        key: Key,
        row: Row,
    ) -> &Row {
        self.len += 1;
        match located {
            // Anything but an append at the end of a full last chunk.
            Some((c, Err(slot)))
                if slot < CHUNK || slot < self.chunks[c].len() || c + 1 < self.chunks.len() =>
            {
                let chunk = Arc::make_mut(&mut self.chunks[c]);
                chunk.insert(slot, (key, row));
                if slot == 0 {
                    self.firsts[c] = key;
                }
                if chunk.len() < 2 * CHUNK {
                    return &self.chunks[c][slot].1;
                }
                let tail = chunk.split_off(CHUNK);
                self.firsts.insert(c + 1, tail[0].0);
                self.chunks.insert(c + 1, Arc::new(tail));
                match slot.checked_sub(CHUNK) {
                    Some(slot) => &self.chunks[c + 1][slot].1,
                    None => &self.chunks[c][slot].1,
                }
            }
            // No rows yet, or an ascending append past a full last chunk,
            // which stays as it is (and shared with whoever holds it).
            _ => {
                self.chunks.push(Arc::new(vec![(key, row)]));
                self.firsts.push(key);
                &self.chunks[self.chunks.len() - 1][0].1
            }
        }
    }

    /// Remove the row under `key`, dropping its chunk if that empties it.
    fn remove(&mut self, key: Key) -> Option<Row> {
        let (c, Ok(slot)) = self.locate(key)? else {
            return None;
        };
        self.len -= 1;
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        let (_, row) = chunk.remove(slot);
        if chunk.is_empty() {
            self.chunks.remove(c);
            self.firsts.remove(c);
        } else if slot == 0 {
            self.firsts[c] = chunk[0].0;
        }
        Some(row)
    }

    fn iter(&self) -> impl Iterator<Item = (Key, &Row)> + '_ {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter().map(|(key, row)| (*key, row)))
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The column indexes of a [`Relation`]: one slot per payload column,
/// allocated with the first index built.
#[derive(Clone, Default)]
struct Indexes(OnceLock<Box<[OnceLock<Arc<ColumnIndex>>]>>);

impl Indexes {
    /// Patch every built index for one row change: `old` is the row that
    /// was stored under `key`, `new` the row stored there now.
    fn patch(&mut self, key: Key, old: Option<&Row>, new: Option<&Row>) {
        let Some(slots) = self.0.get_mut() else {
            return;
        };
        for (column, slot) in slots.iter_mut().enumerate() {
            if let Some(index) = slot.get_mut() {
                Arc::make_mut(index).apply_row_change(column, key, old, new);
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.0.get().is_none()
    }
}

/// A named, keyed relation.
#[derive(Clone)]
pub struct Relation {
    schema: TableSchema,
    rows: Rows,
    indexes: Indexes,
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema)
            .field("rows", &self.rows)
            .finish()
    }
}

/// Equal schema and equal rows, whatever the chunk layout.
impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Relation {}

impl Relation {
    /// Empty relation with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        Relation {
            schema,
            rows: Rows::default(),
            indexes: Indexes::default(),
        }
    }

    /// A copy sharing this relation's rows but none of its indexes: for a
    /// copy that will derive a different state, whose first change would
    /// otherwise copy every index the original still holds.
    pub fn clone_rows(&self) -> Relation {
        Relation {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            indexes: Indexes::default(),
        }
    }

    /// Empty relation with name and columns (panics on duplicate columns —
    /// callers constructing literals in code).
    pub fn with_columns(
        name: impl Into<String>,
        columns: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Relation::new(TableSchema::new(name, columns).expect("valid schema"))
    }

    /// The relation's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// True iff the relation holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// Insert a row under `key`. Fails if the key exists or arity mismatches.
    pub fn insert(&mut self, key: Key, row: Row) -> Result<()> {
        self.check_arity(&row)?;
        if self.rows.get(key).is_some() {
            return Err(StorageError::DuplicateKey {
                table: self.schema.name.clone(),
                key: key.0,
            });
        }
        self.rows.insert(key, row);
        self.patch_indexes(key, None);
        Ok(())
    }

    /// Insert `row` under `key` unless the key is taken, with one search
    /// (none for a key past the last one). `Ok(stored)`: the row as now
    /// stored. `Err((existing, row))`: the key holds `existing`, which is
    /// left in place, and `row` is handed back. Arity is checked only when
    /// the key is vacant.
    pub fn insert_vacant(
        &mut self,
        key: Key,
        row: Row,
    ) -> Result<std::result::Result<&Row, (&Row, Row)>> {
        let located = self.rows.locate(key);
        if let Some((c, Ok(slot))) = located {
            return Ok(Err((&self.rows.chunks[c][slot].1, row)));
        }
        self.check_arity(&row)?;
        let stored = self.rows.insert_vacant(located, key, row);
        self.indexes.patch(key, None, Some(stored));
        Ok(Ok(stored))
    }

    /// Insert or replace a row under `key`.
    pub fn upsert(&mut self, key: Key, row: Row) -> Result<()> {
        self.check_arity(&row)?;
        let old = self.rows.insert(key, row);
        self.patch_indexes(key, old.as_ref());
        Ok(())
    }

    /// Remove the row under `key`, returning it.
    pub fn delete(&mut self, key: Key) -> Result<Row> {
        self.delete_if_present(key)
            .ok_or_else(|| StorageError::MissingKey {
                table: self.schema.name.clone(),
                key: key.0,
            })
    }

    /// Remove the row under `key` if present.
    pub fn delete_if_present(&mut self, key: Key) -> Option<Row> {
        let old = self.rows.remove(key)?;
        self.indexes.patch(key, Some(&old), None);
        Some(old)
    }

    /// Replace the row under `key`. Fails if absent.
    pub fn update(&mut self, key: Key, row: Row) -> Result<Row> {
        self.check_arity(&row)?;
        match self.rows.get_mut(key) {
            Some(slot) => {
                let old = std::mem::replace(slot, row);
                self.patch_indexes(key, Some(&old));
                Ok(old)
            }
            None => Err(StorageError::MissingKey {
                table: self.schema.name.clone(),
                key: key.0,
            }),
        }
    }

    /// Patch the built indexes for a change at `key` from `old` to the row
    /// stored there now.
    fn patch_indexes(&mut self, key: Key, old: Option<&Row>) {
        if !self.indexes.is_empty() {
            self.indexes.patch(key, old, self.rows.get(key));
        }
    }

    /// Row lookup by key.
    pub fn get(&self, key: Key) -> Option<&Row> {
        self.rows.get(key)
    }

    /// True iff a row with this key exists.
    pub fn contains_key(&self, key: Key) -> bool {
        self.rows.get(key).is_some()
    }

    /// Iterate `(key, row)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &Row)> + '_ {
        self.rows.iter()
    }

    /// Iterate keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.rows.iter().map(|(k, _)| k)
    }

    /// Visit `(key, row)` for each of `keys` present in the relation, in the
    /// given order; absent keys are skipped. A *dense* key list — strictly
    /// ascending and covering at least half the relation — is served by one
    /// in-order merge against the rows instead of a lookup per key; the
    /// visit order is identical either way. This is the fetch primitive
    /// behind multi-key query reads (core).
    pub fn select_rows(&self, keys: &[Key], mut f: impl FnMut(Key, &Row)) {
        let dense = keys.len() >= self.len() / 2 && keys.windows(2).all(|w| w[0] < w[1]);
        if dense {
            let mut wanted = keys.iter().copied().peekable();
            for (k, row) in self.iter() {
                while let Some(&w) = wanted.peek() {
                    if w < k {
                        wanted.next();
                    } else {
                        break;
                    }
                }
                if wanted.peek() == Some(&k) {
                    wanted.next();
                    f(k, row);
                }
            }
        } else {
            for &k in keys {
                if let Some(row) = self.rows.get(k) {
                    f(k, row);
                }
            }
        }
    }

    /// Value of `column` in the row under `key`.
    pub fn value(&self, key: Key, column: &str) -> Option<&Value> {
        let idx = self.schema.column_index(column)?;
        self.rows.get(key).map(|r| &r[idx])
    }

    /// Project to the named columns (key is always carried along).
    pub fn project(&self, columns: &[&str]) -> Result<Relation> {
        let idxs: Vec<usize> = columns
            .iter()
            .map(|c| {
                self.schema
                    .column_index(c)
                    .ok_or_else(|| StorageError::UnknownColumn {
                        table: self.schema.name.clone(),
                        column: (*c).to_string(),
                    })
            })
            .collect::<Result<_>>()?;
        let schema = TableSchema::new(self.schema.name.clone(), columns.iter().copied())?;
        let mut out = Relation::new(schema);
        for (k, row) in self.iter() {
            let projected: Row = idxs.iter().map(|&i| row[i].clone()).collect();
            out.rows.insert(k, projected);
        }
        Ok(out)
    }

    /// Keep only rows satisfying the predicate.
    pub fn filter(&self, mut pred: impl FnMut(Key, &Row) -> bool) -> Relation {
        let mut out = Relation::new(self.schema.clone());
        for (k, row) in self.iter() {
            if pred(k, row) {
                out.rows.insert(k, row.clone());
            }
        }
        out
    }

    /// Rename the relation (schema name only).
    pub fn renamed(mut self, name: impl Into<String>) -> Relation {
        self.schema.name = name.into();
        self
    }

    /// Set-difference by (key,row): rows of `self` not present identically in
    /// `other`. Schemas must have equal arity.
    pub fn minus(&self, other: &Relation) -> Relation {
        self.filter(|k, row| other.get(k) != Some(row))
    }

    /// The delta turning `from` into `self`, as (deletes, inserts, updates).
    ///
    /// * deletes: keys in `from` missing from `self`
    /// * inserts: keys in `self` missing from `from`
    /// * updates: keys in both with differing payload (new row reported)
    ///
    /// Computed as a single two-pointer merge over both key-ordered row
    /// sequences — O(n + m) with no per-key probes — so each output vector
    /// is in ascending key order.
    pub fn diff(&self, from: &Relation) -> RelationDelta {
        let mut delta = RelationDelta::default();
        let mut new_it = self.iter().peekable();
        let mut old_it = from.iter().peekable();
        loop {
            match (new_it.peek(), old_it.peek()) {
                (Some(&(nk, _)), Some(&(ok, _))) => match nk.cmp(&ok) {
                    std::cmp::Ordering::Less => {
                        let (k, row) = new_it.next().expect("peeked");
                        delta.inserts.push((k, row.clone()));
                    }
                    std::cmp::Ordering::Greater => {
                        let (k, row) = old_it.next().expect("peeked");
                        delta.deletes.push((k, row.clone()));
                    }
                    std::cmp::Ordering::Equal => {
                        let (k, new_row) = new_it.next().expect("peeked");
                        let (_, old_row) = old_it.next().expect("peeked");
                        if new_row != old_row {
                            delta.updates.push((k, old_row.clone(), new_row.clone()));
                        }
                    }
                },
                (Some(_), None) => {
                    let (k, row) = new_it.next().expect("peeked");
                    delta.inserts.push((k, row.clone()));
                }
                (None, Some(_)) => {
                    let (k, row) = old_it.next().expect("peeked");
                    delta.deletes.push((k, row.clone()));
                }
                (None, None) => break,
            }
        }
        delta
    }

    /// Remove every row. Keeps the schema, and every built index, empty.
    pub fn clear(&mut self) {
        self.rows = Rows::default();
        if let Some(slots) = self.indexes.0.get_mut() {
            for index in slots.iter_mut().filter_map(OnceLock::get_mut) {
                *index = Arc::default();
            }
        }
    }

    /// The index over payload column `column`, built on first use and kept
    /// with the rows (module docs, "Column indexes"). A column past the
    /// payload columns is not kept: it is built each time, as
    /// [`build_column_index`] builds it.
    ///
    /// [`build_column_index`]: Relation::build_column_index
    pub fn index(&self, column: usize) -> Arc<ColumnIndex> {
        let slots = self
            .indexes
            .0
            .get_or_init(|| (0..self.schema.arity()).map(|_| OnceLock::new()).collect());
        let build = || Arc::new(self.build_column_index(column));
        match slots.get(column) {
            Some(slot) => Arc::clone(slot.get_or_init(build)),
            None => build(),
        }
    }

    /// The index over payload column `column` if one has been built,
    /// without building it.
    pub fn built_index(&self, column: usize) -> Option<Arc<ColumnIndex>> {
        self.indexes.0.get()?.get(column)?.get().map(Arc::clone)
    }

    /// Build a secondary index over one payload column (`0` is the first
    /// payload column, i.e. *not* the key), without keeping it. Keys per
    /// value are in ascending key order, so an index probe enumerates
    /// matches in the same order a full scan would — evaluation results are
    /// identical either way.
    pub fn build_column_index(&self, column: usize) -> ColumnIndex {
        let mut map: HashMap<Value, Vec<Key>> = HashMap::new();
        for (key, row) in self.iter() {
            map.entry(row[column].clone()).or_default().push(key);
        }
        ColumnIndex { map, base: None }
    }

    fn check_arity(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        Ok(())
    }

    /// How many of this relation's chunks `other` does not share — what a
    /// copy-on-write since the two parted actually copied. Tests only: the
    /// chunk layout is not part of the public API.
    #[cfg(test)]
    pub(crate) fn unshared_chunks(&self, other: &Relation) -> usize {
        self.rows
            .chunks
            .iter()
            .filter(|chunk| !other.rows.chunks.iter().any(|o| Arc::ptr_eq(chunk, o)))
            .count()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for (k, row) in self.iter() {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "  {k}: [{}]", cells.join(", "))?;
        }
        Ok(())
    }
}

/// A hash index `column value → keys` over one payload column of a
/// [`Relation`], built on demand and kept by the relation itself
/// ([`Relation::index`]; module docs, "Column indexes").
///
/// This is the join accelerator of the compiled rule evaluator: probing a
/// bound column is O(1) instead of a full scan. `Value`'s `Hash` agrees with
/// its `Eq` (numerically equal ints and floats collide), so a probe finds
/// exactly the rows a scan-and-compare would.
///
/// An index can also be an **overlay** ([`ColumnIndex::overlay`]): it then
/// describes a base snapshot's index plus a handful of row changes without
/// copying the base — `map` holds the complete patched key list of every
/// value a change touched (an empty list shadows a value the changes
/// emptied), every other value reads through to the base.
#[derive(Debug, Clone, Default)]
pub struct ColumnIndex {
    map: HashMap<Value, Vec<Key>>,
    base: Option<Arc<ColumnIndex>>,
}

/// Equal key lists for every value, overlay or not.
impl PartialEq for ColumnIndex {
    fn eq(&self, other: &ColumnIndex) -> bool {
        let mut same = self.distinct_values() == other.distinct_values();
        self.for_each_entry(&mut |value, keys| same &= other.keys_for(value) == keys);
        same
    }
}

impl ColumnIndex {
    /// An index that starts out equal to `base` and takes row changes
    /// ([`apply_row_change`](ColumnIndex::apply_row_change)) at O(keys of
    /// the touched values) each, sharing everything else with `base`.
    pub fn overlay(base: Arc<ColumnIndex>) -> ColumnIndex {
        ColumnIndex {
            map: HashMap::new(),
            base: Some(base),
        }
    }

    /// The keys whose indexed column equals `value`, in ascending key order.
    pub fn keys_for(&self, value: &Value) -> &[Key] {
        match (self.map.get(value), &self.base) {
            (Some(keys), _) => keys,
            (None, Some(base)) => base.keys_for(value),
            (None, None) => &[],
        }
    }

    /// Visit every indexed value with its (non-empty) key list, overlay
    /// entries shadowing the base's.
    fn for_each_entry(&self, f: &mut dyn FnMut(&Value, &[Key])) {
        for (value, keys) in &self.map {
            if !keys.is_empty() {
                f(value, keys);
            }
        }
        if let Some(base) = &self.base {
            base.for_each_entry(&mut |value, keys| {
                if !self.map.contains_key(value) {
                    f(value, keys);
                }
            });
        }
    }

    /// The key list of `value` in an overlay's own map, copied up from the
    /// base on first touch.
    fn copied_up(&mut self, value: &Value) -> &mut Vec<Key> {
        if !self.map.contains_key(value) {
            let base = self.base.as_ref().expect("overlay");
            self.map
                .insert(value.clone(), base.keys_for(value).to_vec());
        }
        self.map.get_mut(value).expect("inserted above")
    }

    /// The keys whose indexed column satisfies `column <op> probe`, in
    /// ascending key order — the index-backed form of an eq/range predicate.
    /// Semantics equal a scan evaluating `CmpOp::apply(stored, probe)` row
    /// by row (the stored value on the left, like `Expr::Cmp(col, op, lit)`);
    /// cost is O(distinct values + matches) instead of O(rows), with an O(1)
    /// hash probe for `Eq`.
    pub fn keys_where(&self, op: crate::expr::CmpOp, probe: &Value) -> Vec<Key> {
        if matches!(op, crate::expr::CmpOp::Eq) {
            return self.keys_for(probe).to_vec();
        }
        let mut out: Vec<Key> = Vec::new();
        self.for_each_entry(&mut |v, keys| {
            if op.apply(v, probe) {
                out.extend_from_slice(keys);
            }
        });
        out.sort_unstable();
        out
    }

    /// Number of keys `keys_where` would return, at O(distinct values) and
    /// without materializing or sorting them — the planner's selectivity
    /// estimate for deciding between an index probe and a plain scan.
    pub fn count_where(&self, op: crate::expr::CmpOp, probe: &Value) -> usize {
        if matches!(op, crate::expr::CmpOp::Eq) {
            return self.keys_for(probe).len();
        }
        let mut count = 0;
        self.for_each_entry(&mut |v, keys| {
            if op.apply(v, probe) {
                count += keys.len();
            }
        });
        count
    }

    /// Number of distinct values indexed.
    pub fn distinct_values(&self) -> usize {
        if self.base.is_none() {
            return self.map.len();
        }
        let mut count = 0;
        self.for_each_entry(&mut |_, _| count += 1);
        count
    }

    /// Record that `key`'s indexed column now holds `value`, keeping the
    /// per-value key list in ascending order (the order an index probe must
    /// enumerate to match a scan). Idempotent for an already-recorded pair.
    pub fn insert_key(&mut self, value: Value, key: Key) {
        let keys = if self.base.is_some() {
            self.copied_up(&value)
        } else {
            self.map.entry(value).or_default()
        };
        if let Err(pos) = keys.binary_search(&key) {
            keys.insert(pos, key);
        }
    }

    /// Remove the `(value, key)` pair; a no-op if it was not indexed.
    pub fn remove_key(&mut self, value: &Value, key: Key) {
        if self.base.is_some() {
            // An overlay keeps an emptied list: it shadows the base's.
            if let Ok(pos) = self.keys_for(value).binary_search(&key) {
                self.copied_up(value).remove(pos);
            }
            return;
        }
        if let Some(keys) = self.map.get_mut(value) {
            if let Ok(pos) = keys.binary_search(&key) {
                keys.remove(pos);
            }
            if keys.is_empty() {
                self.map.remove(value);
            }
        }
    }

    /// Patch this index (over payload column `column`) for one row change:
    /// `old` is the replaced payload (None for a pure insert), `new` the
    /// payload now stored under `key` (None for a delete). Tolerant of rows
    /// shorter than the indexed column.
    pub fn apply_row_change(
        &mut self,
        column: usize,
        key: Key,
        old: Option<&Row>,
        new: Option<&Row>,
    ) {
        if let Some(v) = old.and_then(|row| row.get(column)) {
            self.remove_key(v, key);
        }
        if let Some(v) = new.and_then(|row| row.get(column)) {
            self.insert_key(v.clone(), key);
        }
    }
}

/// Differences between two relation states, produced by [`Relation::diff`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationDelta {
    /// Rows present only in the old state: `(key, old_row)`.
    pub deletes: Vec<(Key, Row)>,
    /// Rows present only in the new state: `(key, new_row)`.
    pub inserts: Vec<(Key, Row)>,
    /// Rows present in both with changed payload: `(key, old_row, new_row)`.
    pub updates: Vec<(Key, Row, Row)>,
}

impl RelationDelta {
    /// True iff nothing changed.
    pub fn is_empty(&self) -> bool {
        self.deletes.is_empty() && self.inserts.is_empty() && self.updates.is_empty()
    }

    /// Total number of changed rows.
    pub fn len(&self) -> usize {
        self.deletes.len() + self.inserts.len() + self.updates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn rel() -> Relation {
        let mut r = Relation::with_columns("Task", ["author", "task", "prio"]);
        r.insert(
            Key(1),
            vec!["Ann".into(), "Organize party".into(), 3.into()],
        )
        .unwrap();
        r.insert(
            Key(2),
            vec!["Ben".into(), "Learn for exam".into(), 2.into()],
        )
        .unwrap();
        r
    }

    #[test]
    fn insert_delete_update_roundtrip() {
        let mut r = rel();
        assert_eq!(r.len(), 2);
        assert!(r
            .insert(Key(1), vec!["x".into(), "y".into(), 1.into()])
            .is_err());
        let old = r
            .update(Key(1), vec!["Ann".into(), "Write paper".into(), 1.into()])
            .unwrap();
        assert_eq!(old[1], Value::text("Organize party"));
        assert_eq!(r.value(Key(1), "task"), Some(&Value::text("Write paper")));
        let removed = r.delete(Key(2)).unwrap();
        assert_eq!(removed[0], Value::text("Ben"));
        assert!(r.delete(Key(2)).is_err());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn arity_checked() {
        let mut r = rel();
        assert!(matches!(
            r.insert(Key(9), vec!["only-one".into()]),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn project_keeps_keys() {
        let r = rel();
        let p = r.project(&["task"]).unwrap();
        assert_eq!(p.schema().columns, vec!["task"]);
        assert_eq!(
            p.value(Key(2), "task"),
            Some(&Value::text("Learn for exam"))
        );
        assert!(r.project(&["nope"]).is_err());
    }

    #[test]
    fn filter_by_prio() {
        let r = rel();
        let urgent = r.filter(|_, row| row[2] == Value::Int(2));
        assert_eq!(urgent.len(), 1);
        assert!(urgent.contains_key(Key(2)));
    }

    #[test]
    fn diff_computes_minimal_delta() {
        let old = rel();
        let mut new = rel();
        new.delete(Key(2)).unwrap();
        new.insert(Key(3), vec!["Ann".into(), "Write paper".into(), 1.into()])
            .unwrap();
        new.update(
            Key(1),
            vec!["Ann".into(), "Organize party".into(), 2.into()],
        )
        .unwrap();
        let d = new.diff(&old);
        assert_eq!(d.deletes.len(), 1);
        assert_eq!(d.inserts.len(), 1);
        assert_eq!(d.updates.len(), 1);
        assert_eq!(d.deletes[0].0, Key(2));
        assert_eq!(d.inserts[0].0, Key(3));
        assert_eq!(d.updates[0].0, Key(1));
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert!(new.diff(&new).is_empty());
    }

    #[test]
    fn minus_removes_identical_rows() {
        let a = rel();
        let mut b = rel();
        b.update(Key(1), vec!["Ann".into(), "Changed".into(), 3.into()])
            .unwrap();
        let m = a.minus(&b);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(Key(1)));
    }

    #[test]
    fn column_index_finds_exactly_the_matching_keys() {
        let mut r = Relation::with_columns("T", ["a", "b"]);
        r.insert(Key(5), vec!["x".into(), 1.into()]).unwrap();
        r.insert(Key(1), vec!["x".into(), 2.into()]).unwrap();
        r.insert(Key(3), vec!["y".into(), 1.into()]).unwrap();
        let by_a = r.build_column_index(0);
        assert_eq!(by_a.keys_for(&Value::text("x")), &[Key(1), Key(5)]);
        assert_eq!(by_a.keys_for(&Value::text("y")), &[Key(3)]);
        assert_eq!(by_a.keys_for(&Value::text("z")), &[] as &[Key]);
        assert_eq!(by_a.distinct_values(), 2);
        // Numeric int/float equality carries over to index probes.
        let by_b = r.build_column_index(1);
        assert_eq!(by_b.keys_for(&Value::Float(1.0)), &[Key(3), Key(5)]);
    }

    #[test]
    fn keys_where_agrees_with_scan_for_every_op() {
        use crate::expr::CmpOp;
        let mut r = Relation::with_columns("T", ["n"]);
        let vals = [
            Value::Int(1),
            Value::Int(5),
            Value::Float(2.5),
            Value::Int(5),
            Value::Null,
            Value::text("x"),
        ];
        for (i, v) in vals.iter().enumerate() {
            r.insert(Key(10 - i as u64), vec![v.clone()]).unwrap();
        }
        let idx = r.build_column_index(0);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for probe in [
                Value::Int(5),
                Value::Float(2.5),
                Value::Null,
                Value::text("x"),
            ] {
                let scanned: Vec<Key> = r
                    .iter()
                    .filter(|(_, row)| op.apply(&row[0], &probe))
                    .map(|(k, _)| k)
                    .collect();
                assert_eq!(
                    idx.keys_where(op, &probe),
                    scanned,
                    "op {} probe {probe}",
                    op.sql()
                );
            }
        }
    }

    #[test]
    fn column_index_probe_agrees_with_scan_beyond_2_pow_53() {
        // Int((1<<53)+1) and Float(2^53) are Eq-equal (numeric comparison
        // through f64); a hash probe must find the row exactly like a
        // scan-and-compare would.
        let mut r = Relation::with_columns("T", ["n"]);
        r.insert(Key(1), vec![Value::Int((1i64 << 53) + 1)])
            .unwrap();
        let idx = r.build_column_index(0);
        let probe = Value::Float(9_007_199_254_740_992.0);
        let scanned: Vec<Key> = r
            .iter()
            .filter(|(_, row)| row[0] == probe)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(idx.keys_for(&probe), scanned.as_slice());
        assert_eq!(idx.keys_for(&probe), &[Key(1)]);
    }

    #[test]
    fn column_index_incremental_patch_matches_rebuild() {
        let mut r = Relation::with_columns("T", ["a"]);
        r.insert(Key(5), vec!["x".into()]).unwrap();
        r.insert(Key(1), vec!["x".into()]).unwrap();
        let mut idx = r.build_column_index(0);
        // Append a row with an existing value: key order must be maintained.
        r.insert(Key(3), vec!["x".into()]).unwrap();
        idx.insert_key(Value::text("x"), Key(3));
        assert_eq!(idx.keys_for(&Value::text("x")), &[Key(1), Key(3), Key(5)]);
        // Update: remove old value, insert new.
        r.update(Key(3), vec!["y".into()]).unwrap();
        idx.remove_key(&Value::text("x"), Key(3));
        idx.insert_key(Value::text("y"), Key(3));
        // Delete and drain a value class entirely.
        r.delete(Key(3)).unwrap();
        idx.remove_key(&Value::text("y"), Key(3));
        assert_eq!(idx.keys_for(&Value::text("y")), &[] as &[Key]);
        // Idempotent / tolerant edge cases.
        idx.remove_key(&Value::text("nope"), Key(9));
        idx.insert_key(Value::text("x"), Key(1));
        let rebuilt = r.build_column_index(0);
        assert_eq!(
            idx.keys_for(&Value::text("x")),
            rebuilt.keys_for(&Value::text("x"))
        );
        assert_eq!(idx.distinct_values(), rebuilt.distinct_values());
    }

    #[test]
    fn overlay_index_matches_rebuild_and_leaves_base_alone() {
        let mut r = Relation::with_columns("T", ["a"]);
        for (k, v) in [(1, "x"), (2, "y"), (3, "x"), (4, "z")] {
            r.insert(Key(k), vec![v.into()]).unwrap();
        }
        let base = Arc::new(r.build_column_index(0));
        let mut over = ColumnIndex::overlay(Arc::clone(&base));
        assert_eq!(over.keys_for(&Value::text("x")), &[Key(1), Key(3)]);
        // Update 3: x -> y; delete 4 (empties `z`); insert 5 with a new value.
        let row = |v: &str| vec![Value::text(v)];
        over.apply_row_change(0, Key(3), Some(&row("x")), Some(&row("y")));
        over.apply_row_change(0, Key(4), Some(&row("z")), None);
        over.apply_row_change(0, Key(5), None, Some(&row("w")));
        // Tolerant: removing a pair that is not indexed copies nothing up.
        over.remove_key(&Value::text("q"), Key(9));
        r.update(Key(3), row("y")).unwrap();
        r.delete(Key(4)).unwrap();
        r.insert(Key(5), row("w")).unwrap();
        let rebuilt = r.build_column_index(0);
        for v in ["x", "y", "z", "w", "q"] {
            let v = Value::text(v);
            assert_eq!(over.keys_for(&v), rebuilt.keys_for(&v), "{v}");
        }
        assert_eq!(over.distinct_values(), rebuilt.distinct_values());
        let ge_x = |idx: &ColumnIndex| idx.keys_where(crate::expr::CmpOp::Ge, &Value::text("x"));
        assert_eq!(ge_x(&over), ge_x(&rebuilt));
        assert_eq!(
            over.count_where(crate::expr::CmpOp::Lt, &Value::text("y")),
            rebuilt.count_where(crate::expr::CmpOp::Lt, &Value::text("y"))
        );
        // The shared base still describes the old snapshot.
        assert_eq!(base.keys_for(&Value::text("x")), &[Key(1), Key(3)]);
        assert_eq!(base.keys_for(&Value::text("z")), &[Key(4)]);
    }

    #[test]
    fn relation_index_tracks_every_mutator() {
        let mut r = Relation::with_columns("T", ["a", "b"]);
        r.insert(Key(1), vec!["x".into(), 1.into()]).unwrap();
        assert!(r.built_index(0).is_none());
        let idx0 = r.index(0);
        assert_eq!(idx0.keys_for(&Value::text("x")), &[Key(1)]);
        // An update on column 0 (column 1 has no index built).
        r.update(Key(1), vec!["y".into(), 2.into()]).unwrap();
        assert!(r.built_index(1).is_none());
        let idx1 = r.built_index(0).expect("kept");
        assert_eq!(idx1.keys_for(&Value::text("x")), &[] as &[Key]);
        assert_eq!(idx1.keys_for(&Value::text("y")), &[Key(1)]);
        // The index handed out before the change still describes the rows
        // it was handed out for (copy-on-write).
        assert_eq!(idx0.keys_for(&Value::text("x")), &[Key(1)]);
        r.upsert(Key(2), vec!["y".into(), 3.into()]).unwrap();
        r.insert_vacant(Key(3), vec!["z".into(), 4.into()])
            .unwrap()
            .unwrap();
        r.insert(Key(4), vec!["z".into(), 5.into()]).unwrap();
        r.delete(Key(1)).unwrap();
        r.delete_if_present(Key(3));
        assert_eq!(*r.built_index(0).unwrap(), r.build_column_index(0));
        assert_eq!(r.index(0).keys_for(&Value::text("y")), &[Key(2)]);
        r.clear();
        assert_eq!(r.built_index(0).unwrap().distinct_values(), 0);
        r.insert(Key(5), vec!["y".into(), 6.into()]).unwrap();
        assert_eq!(r.index(0).keys_for(&Value::text("y")), &[Key(5)]);
    }

    #[test]
    fn relation_index_is_built_once_and_shared_by_clones() {
        let r = rel();
        let idx = r.index(2);
        assert!(Arc::ptr_eq(&idx, &r.index(2)), "built once");
        let clone = r.clone();
        assert!(Arc::ptr_eq(&idx, &clone.built_index(2).unwrap()));
        assert!(r.clone_rows().built_index(2).is_none());
        // A change to the clone leaves the original's index alone.
        let mut changed = clone;
        changed
            .update(Key(2), vec!["Ben".into(), "x".into(), 7.into()])
            .unwrap();
        assert_eq!(r.index(2).keys_for(&Value::Int(2)), &[Key(2)]);
        assert_eq!(changed.index(2).keys_for(&Value::Int(2)), &[] as &[Key]);
        assert_eq!(changed.index(2).keys_for(&Value::Int(7)), &[Key(2)]);
        // Indexes are not part of the relation's value.
        assert_eq!(format!("{:?}", r.clone_rows()), format!("{r:?}"));
        assert_eq!(r.clone_rows(), r);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut r = Relation::with_columns("T", ["a"]);
        for k in [5u64, 1, 3] {
            r.insert(Key(k), vec![Value::Int(k as i64)]).unwrap();
        }
        let keys: Vec<u64> = r.keys().map(|k| k.0).collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    fn int_row(v: i64) -> Row {
        vec![Value::Int(v)]
    }

    /// The chunk invariants of the module docs.
    fn check_layout(rel: &Relation) {
        let rows = &rel.rows;
        assert_eq!(rows.chunks.len(), rows.firsts.len());
        assert_eq!(rows.len, rows.chunks.iter().map(|c| c.len()).sum::<usize>());
        for (chunk, first) in rows.chunks.iter().zip(&rows.firsts) {
            assert!(!chunk.is_empty() && chunk.len() < 2 * CHUNK);
            assert_eq!(chunk[0].0, *first);
        }
        let keys: Vec<Key> = rel.keys().collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "not strictly ascending"
        );
    }

    #[test]
    fn insert_vacant_inserts_once_and_hands_back_a_taken_key() {
        // Ascending appends past full chunks, then keys between them that
        // split chunks: every insert returns the row as stored.
        let mut rel = Relation::with_columns("T", ["a"]);
        let mut model = BTreeMap::new();
        let keys = (0..3 * CHUNK as u64)
            .map(|k| 2 * k)
            .chain((0..2 * CHUNK as u64).map(|k| 2 * k + 1));
        for k in keys {
            let stored = rel.insert_vacant(Key(k), int_row(k as i64)).unwrap();
            assert_eq!(stored, Ok(&int_row(k as i64)));
            model.insert(Key(k), int_row(k as i64));
            check_layout(&rel);
        }
        assert!(rel.iter().map(|(k, r)| (k, r.clone())).eq(model));
        // A taken key keeps its row, even under a row of the wrong arity.
        let taken = rel.insert_vacant(Key(4), vec![Value::Null, Value::Null]);
        assert_eq!(
            taken.unwrap(),
            Err((&int_row(4), vec![Value::Null, Value::Null]))
        );
        assert!(rel.insert_vacant(Key(9999), vec![]).is_err());
        assert_eq!(rel.len(), 5 * CHUNK);
    }

    #[test]
    fn clone_then_change_copies_at_most_two_chunks() {
        // Even keys, appended in order: full chunks of CHUNK rows.
        let mut rel = Relation::with_columns("T", ["a"]);
        for k in (0..40 * CHUNK as u64).step_by(2) {
            rel.insert(Key(k), int_row(k as i64)).unwrap();
        }
        assert_eq!(rel.clone().unshared_chunks(&rel), 0);
        assert!(rel.unshared_chunks(&rel.filter(|_, _| true)) >= 20);
        let step = |rel: &mut Relation, change: &dyn Fn(&mut Relation)| {
            let before = rel.clone();
            let shown = before.to_string();
            change(rel);
            check_layout(rel);
            assert!(
                rel.unshared_chunks(&before) <= 2,
                "copied more than it touched"
            );
            assert_eq!(before.to_string(), shown, "a clone saw the change");
        };
        // Odd keys into the first chunk until it splits (twice).
        for k in (1..4 * CHUNK as u64).step_by(2) {
            step(&mut rel, &|r| r.insert(Key(k), int_row(0)).unwrap());
        }
        assert!(
            rel.rows.firsts.contains(&Key(CHUNK as u64)),
            "first chunk split"
        );
        step(&mut rel, &|r| r.upsert(Key(1000), int_row(-1)).unwrap());
        step(&mut rel, &|r| {
            r.update(Key(2000), int_row(-2)).unwrap();
        });
        step(&mut rel, &|r| r.insert(Key(1_000_000), int_row(7)).unwrap());
        // Empty the chunk holding 2 000.
        let c = rel.rows.locate(Key(2000)).unwrap().0;
        for (k, _) in rel.rows.chunks[c].clone().iter() {
            let k = *k;
            step(&mut rel, &|r| {
                r.delete(k).unwrap();
            });
        }
        assert!(rel.get(Key(2000)).is_none());
    }

    /// One step of the model-based test below.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, i64),
        Upsert(u64, i64),
        Update(u64, i64),
        Delete(u64),
        DeleteIfPresent(u64),
        Clear,
        /// `n` inserts of ascending keys above every key held.
        Append(usize),
        /// `delete_if_present` over `len` consecutive keys from `start`:
        /// empties whole chunks.
        DeleteRun(u64, u64),
    }

    fn arb_op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        let key = || 0u64..600;
        prop_oneof![
            (key(), 0i64..4).prop_map(|(k, v)| Op::Insert(k, v)),
            (key(), 0i64..4).prop_map(|(k, v)| Op::Insert(k, v)),
            (key(), 0i64..4).prop_map(|(k, v)| Op::Upsert(k, v)),
            (key(), 0i64..4).prop_map(|(k, v)| Op::Update(k, v)),
            key().prop_map(Op::Delete),
            key().prop_map(Op::DeleteIfPresent),
            Just(Op::Clear),
            (1usize..3 * CHUNK).prop_map(Op::Append),
            (1usize..3 * CHUNK).prop_map(Op::Append),
            (key(), 1u64..2 * CHUNK as u64).prop_map(|(s, n)| Op::DeleteRun(s, n)),
        ]
    }

    /// Apply `op` to the relation and the model, asserting both agree on
    /// every result.
    fn apply(rel: &mut Relation, model: &mut BTreeMap<Key, Row>, op: &Op) {
        match *op {
            Op::Insert(k, v) => {
                let ok = rel.insert(Key(k), int_row(v)).is_ok();
                assert_eq!(ok, !model.contains_key(&Key(k)));
                model.entry(Key(k)).or_insert_with(|| int_row(v));
            }
            Op::Upsert(k, v) => {
                rel.upsert(Key(k), int_row(v)).unwrap();
                model.insert(Key(k), int_row(v));
            }
            Op::Update(k, v) => {
                let old = rel.update(Key(k), int_row(v)).ok();
                let expected = model
                    .get_mut(&Key(k))
                    .map(|r| std::mem::replace(r, int_row(v)));
                assert_eq!(old, expected);
            }
            Op::Delete(k) => assert_eq!(rel.delete(Key(k)).ok(), model.remove(&Key(k))),
            Op::DeleteIfPresent(k) => {
                assert_eq!(rel.delete_if_present(Key(k)), model.remove(&Key(k)));
            }
            Op::Clear => {
                rel.clear();
                model.clear();
            }
            Op::Append(n) => {
                let from = model.keys().next_back().map_or(0, |k| k.0 + 1);
                for k in from..from + n as u64 {
                    rel.insert(Key(k), int_row(k as i64)).unwrap();
                    model.insert(Key(k), int_row(k as i64));
                }
            }
            Op::DeleteRun(start, n) => {
                for k in start..start + n {
                    assert_eq!(rel.delete_if_present(Key(k)), model.remove(&Key(k)));
                }
            }
        }
    }

    /// Every read of `rel` against the model; `prev` / `prev_model` are the
    /// state before the step, for `diff` and `minus`.
    fn agree(
        rel: &Relation,
        model: &BTreeMap<Key, Row>,
        prev: &Relation,
        prev_model: &BTreeMap<Key, Row>,
    ) {
        check_layout(rel);
        assert_eq!(rel.len(), model.len());
        assert_eq!(rel.is_empty(), model.is_empty());
        assert!(rel.iter().eq(model.iter().map(|(k, r)| (*k, r))));
        assert!(rel.keys().eq(model.keys().copied()));
        for k in model
            .keys()
            .flat_map(|k| [k.0.saturating_sub(1), k.0, k.0 + 1])
        {
            assert_eq!(rel.get(Key(k)), model.get(&Key(k)));
            assert_eq!(rel.contains_key(Key(k)), model.contains_key(&Key(k)));
        }
        let select = |keys: &[Key]| {
            let mut seen = Vec::new();
            rel.select_rows(keys, |k, row| seen.push((k, row.clone())));
            let expected: Vec<(Key, Row)> = keys
                .iter()
                .filter_map(|k| model.get(k).map(|r| (*k, r.clone())))
                .collect();
            assert_eq!(seen, expected);
        };
        // Dense: every held key plus absent neighbours, ascending.
        let mut dense: Vec<Key> = model.keys().flat_map(|k| [*k, Key(k.0 + 1)]).collect();
        dense.dedup();
        select(&dense);
        // Sparse: a few keys, descending.
        select(
            &dense
                .iter()
                .rev()
                .step_by(7)
                .take(5)
                .copied()
                .collect::<Vec<_>>(),
        );
        let mut expected = RelationDelta::default();
        for (k, new) in model {
            match prev_model.get(k) {
                None => expected.inserts.push((*k, new.clone())),
                Some(old) if old != new => expected.updates.push((*k, old.clone(), new.clone())),
                Some(_) => {}
            }
        }
        for (k, old) in prev_model {
            if !model.contains_key(k) {
                expected.deletes.push((*k, old.clone()));
            }
        }
        assert_eq!(rel.diff(prev), expected);
        let minus: Vec<Key> = rel.minus(prev).keys().collect();
        let expected: Vec<Key> = model
            .iter()
            .filter(|(k, r)| prev_model.get(k) != Some(r))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(minus, expected);
    }

    proptest::proptest! {
        /// The chunked store is a `BTreeMap<Key, Row>`: random mutation
        /// sequences — random keys, ascending appends that fill chunks, runs
        /// of deletes that empty them, splits — leave every read equal to
        /// the model's, and equal content is equal, `Debug`s and
        /// `Display`s the same whatever order (so layout) built it.
        #[test]
        fn chunked_rows_behave_like_an_ordered_map(
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let mut rel = Relation::with_columns("T", ["a"]);
            let mut model: BTreeMap<Key, Row> = BTreeMap::new();
            for op in &ops {
                let (prev, prev_model) = (rel.clone(), model.clone());
                apply(&mut rel, &mut model, op);
                agree(&rel, &model, &prev, &prev_model);
                // The clone taken before the step still shows the old state.
                assert!(prev.iter().eq(prev_model.iter().map(|(k, r)| (*k, r))));
            }
            let mut ascending = Relation::with_columns("T", ["a"]);
            let mut descending = Relation::with_columns("T", ["a"]);
            for (k, row) in &model {
                ascending.insert(*k, row.clone()).unwrap();
            }
            for (k, row) in model.iter().rev() {
                descending.insert(*k, row.clone()).unwrap();
            }
            for built in [&ascending, &descending] {
                check_layout(built);
                assert_eq!(built, &rel);
                assert_eq!(format!("{built:?}"), format!("{rel:?}"));
                assert_eq!(built.to_string(), rel.to_string());
            }
            assert_eq!(format!("{:?}", rel.rows), format!("{model:?}"));
        }
    }
}

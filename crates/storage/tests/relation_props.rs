//! Property tests on the storage substrate's core invariants.

use inverda_storage::{Key, Relation, Storage, TableSchema, Value, WriteBatch};
use proptest::prelude::*;

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    (any::<i64>(), "[a-z]{0,6}").prop_map(|(i, s)| vec![Value::Int(i), Value::text(s)])
}

fn arb_relation() -> impl Strategy<Value = Relation> {
    prop::collection::btree_map(0u64..64, arb_row(), 0..24).prop_map(|rows| {
        let mut rel = Relation::with_columns("T", ["a", "b"]);
        for (k, row) in rows {
            rel.insert(Key(k), row).unwrap();
        }
        rel
    })
}

proptest! {
    /// `diff` is exact: applying the delta of (new vs old) onto old yields new.
    #[test]
    fn diff_apply_round_trip(old in arb_relation(), new in arb_relation()) {
        let delta = new.diff(&old);
        let mut patched = old.clone();
        for (k, _) in &delta.deletes {
            patched.delete(*k).unwrap();
        }
        for (k, row) in &delta.inserts {
            patched.insert(*k, row.clone()).unwrap();
        }
        for (k, _, row) in &delta.updates {
            patched.update(*k, row.clone()).unwrap();
        }
        prop_assert_eq!(patched, new);
    }

    /// diff against self is empty; minus removes exactly the identical rows.
    #[test]
    fn diff_self_is_empty_and_minus_is_sound(rel in arb_relation(), other in arb_relation()) {
        prop_assert!(rel.diff(&rel).is_empty());
        let m = rel.minus(&other);
        for (k, row) in m.iter() {
            prop_assert_ne!(other.get(k), Some(row));
        }
        for (k, row) in rel.iter() {
            if other.get(k) != Some(row) {
                prop_assert!(m.contains_key(k));
            }
        }
    }

    /// A failing batch leaves storage exactly as before (atomicity).
    #[test]
    fn failed_batches_are_fully_rolled_back(
        rows in prop::collection::vec((0u64..32, arb_row()), 1..12),
        dup_at in 0usize..12,
    ) {
        let storage = Storage::new();
        storage
            .create_table(TableSchema::new("T", ["a", "b"]).unwrap())
            .unwrap();
        // Seed one row we will duplicate-insert to force a failure.
        let mut seed = WriteBatch::new();
        seed.insert("T", Key(1000), vec![Value::Int(0), Value::text("seed")]);
        storage.apply(&seed).unwrap();
        let before = storage.snapshot("T").unwrap();

        let mut batch = WriteBatch::new();
        for (i, (k, row)) in rows.iter().enumerate() {
            if i == dup_at % rows.len() {
                batch.insert("T", Key(1000), row.clone()); // will collide
            }
            batch.upsert("T", Key(*k), row.clone());
        }
        prop_assert!(storage.apply(&batch).is_err());
        prop_assert_eq!(storage.snapshot("T").unwrap(), before);
    }

    /// Projection keeps keys and column contents aligned.
    #[test]
    fn projection_preserves_rows(rel in arb_relation()) {
        let p = rel.project(&["b"]).unwrap();
        prop_assert_eq!(p.len(), rel.len());
        for (k, row) in rel.iter() {
            prop_assert_eq!(p.get(k).unwrap()[0].clone(), row[1].clone());
        }
    }
}

/// One step of [`built_indexes_follow_every_mutator`].
#[derive(Debug, Clone)]
enum IndexOp {
    Insert(u64, i64, u8),
    InsertVacant(u64, i64, u8),
    Upsert(u64, i64, u8),
    Update(u64, i64, u8),
    Delete(u64),
    DeleteIfPresent(u64),
    Clear,
    /// `n` ascending appends past the last key, through
    /// `insert_vacant_from`: fills and starts chunks.
    Append(u64),
    /// Build (or fetch) the index over one payload column.
    Index(usize),
    /// Hold a clone of the relation; later changes go through
    /// `Arc::make_mut`, so they copy it first.
    Fork,
    /// Go on with a copy that shares the rows but no index.
    CloneRows,
}

fn arb_index_op() -> impl Strategy<Value = IndexOp> {
    let key = || 0u64..160;
    let cells = || (0i64..4, 0u8..3);
    prop_oneof![
        (key(), cells()).prop_map(|(k, (a, b))| IndexOp::Insert(k, a, b)),
        (key(), cells()).prop_map(|(k, (a, b))| IndexOp::InsertVacant(k, a, b)),
        (key(), cells()).prop_map(|(k, (a, b))| IndexOp::Upsert(k, a, b)),
        (key(), cells()).prop_map(|(k, (a, b))| IndexOp::Update(k, a, b)),
        key().prop_map(IndexOp::Delete),
        key().prop_map(IndexOp::DeleteIfPresent),
        Just(IndexOp::Clear),
        (1u64..150).prop_map(IndexOp::Append),
        (0usize..WIDTH).prop_map(IndexOp::Index),
        (0usize..WIDTH).prop_map(IndexOp::Index),
        Just(IndexOp::Fork),
        Just(IndexOp::CloneRows),
    ]
}

/// Columns of the relation [`built_indexes_follow_every_mutator`] indexes:
/// wide enough that a row stored or read at the wrong stride puts another
/// column's value under an index.
const WIDTH: usize = 5;

fn index_row(a: i64, b: u8) -> Vec<Value> {
    vec![
        Value::Int(a),
        Value::text(format!("b{b}")),
        Value::Int(3 * a + i64::from(b)),
        Value::text(format!("d{a}")),
        Value::Int(-i64::from(b)),
    ]
}

/// Every index `rel` has built, by column.
fn built(rel: &Relation) -> Vec<Option<inverda_storage::ColumnIndex>> {
    (0..rel.schema().arity())
        .map(|col| rel.built_index(col).map(|index| (*index).clone()))
        .collect()
}

/// Every built index of `rel` equals a rebuild over its rows.
fn indexes_match_rows(rel: &Relation) {
    for (col, index) in built(rel).into_iter().enumerate() {
        if let Some(index) = index {
            assert!(index == rel.build_column_index(col), "column {col} drifted");
        }
    }
}

proptest! {
    /// A relation's own indexes under random sequences of every mutator,
    /// with clones and copy-on-write changes in between: every built index
    /// (over any of five columns) equals a rebuild over the rows it sits
    /// with, and changing a copy never changes an index the original holds.
    #[test]
    fn built_indexes_follow_every_mutator(
        ops in prop::collection::vec(arb_index_op(), 1..60),
    ) {
        use std::sync::Arc;
        let mut rel = Arc::new(Relation::with_columns("T", ["a", "b", "c", "d", "e"]));
        let mut held: Vec<(Arc<Relation>, Vec<Option<inverda_storage::ColumnIndex>>)> =
            Vec::new();
        for op in &ops {
            match *op {
                IndexOp::Insert(k, a, b) => {
                    let _ = Arc::make_mut(&mut rel).insert(Key(k), index_row(a, b));
                }
                IndexOp::InsertVacant(k, a, b) => {
                    let _ = Arc::make_mut(&mut rel).insert_vacant(Key(k), index_row(a, b));
                }
                IndexOp::Upsert(k, a, b) => {
                    Arc::make_mut(&mut rel).upsert(Key(k), index_row(a, b)).unwrap();
                }
                IndexOp::Update(k, a, b) => {
                    let _ = Arc::make_mut(&mut rel).update(Key(k), index_row(a, b));
                }
                IndexOp::Delete(k) => {
                    let _ = Arc::make_mut(&mut rel).delete(Key(k));
                }
                IndexOp::DeleteIfPresent(k) => {
                    Arc::make_mut(&mut rel).delete_if_present(Key(k));
                }
                IndexOp::Clear => Arc::make_mut(&mut rel).clear(),
                IndexOp::Append(n) => {
                    let from = rel.keys().last().map_or(0, |k| k.0 + 1);
                    let rel = Arc::make_mut(&mut rel);
                    for k in from..from + n {
                        let row = index_row(k as i64 % 4, (k % 3) as u8);
                        rel.insert_vacant_from(Key(k), row).unwrap().unwrap();
                    }
                }
                IndexOp::Index(col) => {
                    rel.index(col);
                }
                IndexOp::Fork => held.push((Arc::clone(&rel), built(&rel))),
                IndexOp::CloneRows => {
                    rel = Arc::new(rel.clone_rows());
                    prop_assert!(built(&rel).iter().all(Option::is_none));
                }
            }
            indexes_match_rows(&rel);
        }
        for (copy, at_fork) in &held {
            indexes_match_rows(copy);
            for (now, then) in built(copy).iter().zip(at_fork) {
                if let Some(then) = then {
                    prop_assert!(now.as_ref() == Some(then), "a copy's change reached the original");
                }
            }
        }
    }
}

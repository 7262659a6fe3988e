//! `MATERIALIZE` keeps what it does not change: resolved snapshots are
//! carried across the physical/virtual swap — shown by the store's counters,
//! never by timing.
//!
//! The equivalence half of the contract (a carried snapshot is byte-identical
//! to its cold resolution, rows / registry / key sequence) is the job of
//! `snapshot_reuse_props` and `fusion_props`, which interleave `MATERIALIZE`
//! with writes against a store-disabled twin. This file pins the *decision*:
//! what is carried, what is not, and that indexes and pinned readers come
//! through.

mod common;

use common::{SPLIT_SCRIPT, TASKY_SCRIPT};
use inverda_core::{Inverda, ServingInverda};
use inverda_storage::{Expr, Value};

/// The column-level chain `fusion_props::build_chain(&[0, 2, 3, 0, 2])`
/// builds: ADD COLUMN, RENAME COLUMN, RENAME TABLE, ADD COLUMN, RENAME
/// COLUMN — every hop's round trip is exact by construction.
const COLUMN_CHAIN: &str = "CREATE SCHEMA VERSION G0 WITH CREATE TABLE T0(a, b, c); \
     CREATE SCHEMA VERSION G1 FROM G0 WITH ADD COLUMN x1 AS 0 INTO T0; \
     CREATE SCHEMA VERSION G2 FROM G1 WITH RENAME COLUMN x1 IN T0 TO x1r2; \
     CREATE SCHEMA VERSION G3 FROM G2 WITH RENAME TABLE T0 INTO T3; \
     CREATE SCHEMA VERSION G4 FROM G3 WITH ADD COLUMN x4 AS 0 INTO T3; \
     CREATE SCHEMA VERSION G5 FROM G4 WITH RENAME COLUMN x4 IN T3 TO x4r5;";

fn column_chain() -> Inverda {
    let db = Inverda::new();
    db.execute(COLUMN_CHAIN).unwrap();
    for i in 0..20i64 {
        let row = vec![
            Value::Int(i),
            Value::text(format!("b{}", i % 3)),
            Value::text("c"),
        ];
        db.insert("G0", "T0", row).unwrap();
    }
    db
}

/// Read `version.table` and report `(hits, misses)` the read added. A warm
/// read is exactly one hit; a cold one misses at least once (itself) and may
/// hit the inputs it resolves from.
fn read_delta(db: &Inverda, version: &str, table: &str) -> (u64, u64) {
    let before = db.snapshot_stats();
    db.scan(version, table).unwrap();
    let after = db.snapshot_stats();
    (after.hits - before.hits, after.misses - before.misses)
}

fn reads_cold(db: &Inverda, version: &str, table: &str) -> bool {
    read_delta(db, version, table).1 > 0
}

#[test]
fn column_level_chain_stays_warm_across_the_move() {
    let db = column_chain();
    let g3 = db.scan("G3", "T3").unwrap();
    let g0 = db.scan("G0", "T0").unwrap();
    assert_eq!(db.snapshot_stats().carried, 0);

    db.execute("MATERIALIZE 'G5';").unwrap();
    assert_eq!(db.storage_case("G0", "T0").unwrap(), "forward");
    assert!(db.snapshot_store_audit().is_empty());
    // G0…G4 are virtual now. What is carried was resolved before the swap —
    // G3 by the read above, whatever the flipped SMOs' slices and the
    // table entering `P` read on the way — or is the table that left `P`.
    // Planning evaluates only the slices deriving aux tables (none here:
    // every hop's target side has no aux table), so a version no read
    // resolved before the move may be cold after it. Every cold resolution
    // starts with a miss and, in this direction, stores one head.
    let stats = db.snapshot_stats();
    assert!(stats.carried >= 2, "{stats:?}");
    assert!(stats.carried <= stats.misses + 1, "{stats:?}");

    // The version that was warm before is a hit after — the same allocation.
    assert_eq!(read_delta(&db, "G3", "T3"), (1, 0));
    assert!(std::sync::Arc::ptr_eq(&db.scan("G3", "T3").unwrap(), &g3));
    // The table version that left `P` was never resolved by anyone: its
    // snapshot is the table `MATERIALIZE` dropped.
    assert_eq!(read_delta(&db, "G0", "T0"), (1, 0));
    assert!(std::sync::Arc::ptr_eq(&db.scan("G0", "T0").unwrap(), &g0));

    // And back: G5 leaves `P`, and G3 is carried again.
    let carried = db.snapshot_stats().carried;
    db.execute("MATERIALIZE 'G0';").unwrap();
    assert!(db.snapshot_store_audit().is_empty());
    assert!(db.snapshot_stats().carried >= carried + 2);
    assert_eq!(read_delta(&db, "G5", "T3"), (1, 0));
    assert_eq!(read_delta(&db, "G3", "T3"), (1, 0));

    // Carried entries are maintained like any other: a write through the
    // head patches the snapshots on its way to the data.
    let patches = db.snapshot_stats().patches;
    let cols = db.columns_of("G5", "T3").unwrap().len();
    db.insert("G5", "T3", vec![Value::Int(99); cols]).unwrap();
    assert!(db.snapshot_stats().patches > patches);
    assert_eq!(read_delta(&db, "G3", "T3"), (1, 0));
    assert_eq!(db.count("G3", "T3").unwrap(), 21);
    assert!(db.snapshot_store_audit().is_empty());
}

#[test]
fn nothing_is_carried_across_a_flipped_split() {
    let db = Inverda::new();
    db.execute(SPLIT_SCRIPT).unwrap();
    for a in 0..8i64 {
        db.insert("V1", "T", vec![a.into(), "b".into()]).unwrap();
    }
    let before = [("V1", "T"), ("V2", "R"), ("V2", "S")].map(|(v, t)| db.scan(v, t).unwrap());
    // (`R` and `S` are heads of one rule set: resolving either warms both.)
    for (target, (v, t)) in [("V2", ("V1", "T")), ("V1", ("V2", "S"))] {
        db.execute(&format!("MATERIALIZE '{target}';")).unwrap();
        assert_eq!(
            db.snapshot_stats().carried,
            0,
            "after MATERIALIZE '{target}'"
        );
        assert!(reads_cold(&db, v, t), "{v}.{t} must resolve cold");
        assert!(db.snapshot_store_audit().is_empty());
    }
    let after = [("V1", "T"), ("V2", "R"), ("V2", "S")].map(|(v, t)| db.scan(v, t).unwrap());
    assert_eq!(before, after);
}

#[test]
fn nothing_is_carried_across_a_flipped_or_minting_decompose() {
    let db = Inverda::new();
    db.execute(TASKY_SCRIPT).unwrap();
    for (author, task, prio) in [("Ann", "Organize party", 3), ("Ben", "Clean room", 1)] {
        db.insert(
            "TasKy",
            "Task",
            vec![author.into(), task.into(), prio.into()],
        )
        .unwrap();
    }
    let warm = |db: &Inverda| {
        for (v, t) in [("Do!", "Todo"), ("TasKy2", "Task"), ("TasKy2", "Author")] {
            db.scan(v, t).unwrap();
        }
        db.scan("TasKy", "Task").unwrap();
    };
    warm(&db);

    // DECOMPOSE and RENAME COLUMN flip. `TasKy.Task` and everything on the
    // `Do!` branch now resolve through the flipped DECOMPOSE: dropped. The
    // one survivor is the table version between DECOMPOSE and RENAME
    // COLUMN, which reads the now-physical `TasKy2.Author` through the
    // (flipped, column-level, skolem-free) rename alone.
    db.execute("MATERIALIZE 'TasKy2';").unwrap();
    assert_eq!(db.snapshot_stats().carried, 1);
    assert!(reads_cold(&db, "TasKy", "Task"));
    assert!(reads_cold(&db, "Do!", "Todo"));
    assert!(db.snapshot_store_audit().is_empty());

    // SPLIT and DROP COLUMN flip to materialized, DECOMPOSE and RENAME
    // COLUMN back to virtual. `TasKy2.*` resolve through the flipped
    // DECOMPOSE, whose γ_tgt mints; `TasKy.Task` through the flipped SPLIT.
    warm(&db);
    let carried = db.snapshot_stats().carried;
    db.execute("MATERIALIZE 'Do!';").unwrap();
    // (`TasKy2.Task` is a sibling head of the DECOMPOSE mapping: it warms
    // with the first cold read through it.)
    for (v, t) in [("TasKy", "Task"), ("TasKy2", "Author")] {
        assert!(reads_cold(&db, v, t), "{v}.{t} must resolve cold");
    }
    // Only the table version between SPLIT and DROP COLUMN survives.
    assert_eq!(db.snapshot_stats().carried - carried, 1);
    assert!(db.snapshot_store_audit().is_empty());
}

/// A carried entry keeps its column indexes: they live in the snapshot,
/// and the snapshot is the same allocation. A *range*
/// conjunct never builds an index — it probes only one that is already at
/// hand — so `index-probe` after the move proves the index came along.
#[test]
fn carried_entry_keeps_its_column_index() {
    let db = column_chain();
    let by_b = db
        .query("G3", "T3")
        .filter(Expr::col("b").eq(Expr::lit("b1")));
    let range = db
        .query("G3", "T3")
        .filter(Expr::col("b").lt(Expr::lit("b1")));
    db.scan("G3", "T3").unwrap();
    assert!(range.explain().unwrap().contains("scan"), "no index yet");
    assert_eq!(by_b.count().unwrap(), 7); // builds the index
    let probe = range.explain().unwrap();
    assert!(probe.contains("index-probe(b <"), "{probe}");

    db.execute("MATERIALIZE 'G5';").unwrap();
    assert_eq!(range.explain().unwrap(), probe);
    assert_eq!(by_b.count().unwrap(), 7);
    assert_eq!(range.count().unwrap(), 7);
}

/// A physical table's column index lives with the table in storage, so a
/// `MATERIALIZE` that leaves the table physical keeps it: a range conjunct,
/// which probes only an index already at hand, still plans `index-probe`
/// right after the move.
#[test]
fn an_index_outlives_a_materialize() {
    let db = Inverda::new();
    db.execute(
        "CREATE SCHEMA VERSION G0 WITH CREATE TABLE T0(a, b); CREATE TABLE U(n, tag); \
         CREATE SCHEMA VERSION G1 FROM G0 WITH ADD COLUMN x AS 0 INTO T0;",
    )
    .unwrap();
    for i in 0..20i64 {
        db.insert("G0", "U", vec![Value::Int(i), Value::text("u")])
            .unwrap();
        db.insert("G0", "T0", vec![Value::Int(i), Value::text("t")])
            .unwrap();
    }
    let by_n = db.query("G1", "U").filter(Expr::col("n").eq(Expr::lit(3)));
    let range = db.query("G1", "U").filter(Expr::col("n").lt(Expr::lit(5)));
    assert!(range.explain().unwrap().contains("scan"), "no index yet");
    assert_eq!(by_n.count().unwrap(), 1); // builds the index
    let probe = range.explain().unwrap();
    assert!(probe.contains("index-probe(n <"), "{probe}");

    db.execute("MATERIALIZE 'G1';").unwrap();
    assert_eq!(range.explain().unwrap(), probe);
    assert_eq!(range.count().unwrap(), 5);
    assert!(db.snapshot_store_audit().is_empty());
}

/// A reader pinned before a served `MATERIALIZE` keeps reading its own
/// epoch; a reader pinned after it starts warm on what was carried; and the
/// carry retires nothing that outlives the pins.
#[test]
fn pinned_reader_survives_a_served_materialize() {
    let serving = ServingInverda::over(column_chain());
    let db = serving.db();
    db.scan("G3", "T3").unwrap();
    let before = serving.pin();
    let seen = before.scan("G3", "T3").unwrap().to_string();

    serving.execute("MATERIALIZE 'G5';").outcome.unwrap();
    let row = vec![Value::Int(100), Value::text("b0"), Value::text("c")];
    serving.client().insert("G0", "T0", row).outcome.unwrap();

    assert_eq!(before.scan("G3", "T3").unwrap().to_string(), seen);
    assert_eq!(before.count("G0", "T0").unwrap(), 20);
    let after = serving.pin();
    assert_eq!(after.count("G3", "T3").unwrap(), 21);
    assert_eq!(db.count("G3", "T3").unwrap(), 21);

    drop(before);
    drop(after);
    assert!(db.snapshot_store_audit().is_empty());
}

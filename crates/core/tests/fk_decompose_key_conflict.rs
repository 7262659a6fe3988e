//! Regression test for the (formerly failing) twin-separated FK-DECOMPOSE
//! edge (ROADMAP "known engine edge", first documented by the PR-2
//! snapshot-reuse property tests; identical behavior since the seed).
//!
//! The five-statement repro: materialize the FK-DECOMPOSE branch, insert a
//! second task through the SPLIT branch (`Do!`), materialize back to the
//! source version, then update that todo's author through `Do!`. The update
//! replaces the source row's author payload — but the decompose's physical
//! `ID_Task(p, t)` assignment memo used to keep the *old* payload's
//! generated id for the row, so re-deriving `TasKy2` pinned two different
//! author payloads onto one generated key and failed with a `KeyConflict`.
//!
//! **Root cause & fix** (see DESIGN.md "The twin-separated FK-DECOMPOSE
//! conflict"): Appendix B.3's `ID_R(p, t)` memoizes `t = idT(payload(p))` —
//! a payload-*derived* assignment — so an update that changes row `p`'s
//! payload invalidates the entry. The write path now purges key-matching
//! `ID` rows on updates of adjacent (untraversed) FK-DECOMPOSE instances,
//! exactly like deletes always purged; re-derivation then re-mints through
//! the skolem registry, which returns the same id whenever the payload did
//! not actually change. This test asserts the repro now succeeds with the
//! correct decomposition — and that the outcome stays byte-identical across
//! write paths, the snapshot store, and the naive reference interpreter
//! (the old test pinned the *failure* to be equally stable).

mod common;

use common::visible;
use inverda_core::{Inverda, WritePath};
use inverda_datalog::eval::MapEdb;
use inverda_datalog::naive;
use inverda_storage::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;

const SCRIPT: &str = "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio); \
     CREATE SCHEMA VERSION Do! FROM TasKy WITH \
       SPLIT TABLE Task INTO Todo WITH prio = 1; \
       DROP COLUMN prio FROM Todo DEFAULT 1; \
     CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
       DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author; \
       RENAME COLUMN author IN Author TO name;";

/// The repro up to the separating update: two tasks of author `a0` — `k`,
/// returned, and a twin written through `Do!` while the data lived on the
/// decomposed side — with the data back at the source version.
fn twins(path: WritePath, snapshot_reuse: bool) -> (Inverda, inverda_storage::Key) {
    let db = Inverda::new();
    db.execute(SCRIPT).unwrap();
    db.set_write_path(path);
    db.set_snapshot_reuse(snapshot_reuse);
    let k = db
        .insert(
            "TasKy",
            "Task",
            vec![Value::text("a0"), Value::text("t"), Value::Int(1)],
        )
        .unwrap();
    db.materialize(&["TasKy2".to_string()]).unwrap();
    db.insert("Do!", "Todo", vec![Value::text("a0"), Value::text("d")])
        .unwrap();
    db.materialize(&["TasKy".to_string()]).unwrap();
    (db, k)
}

/// Replay the minimized repro and return the built database.
fn replay(path: WritePath, snapshot_reuse: bool) -> Inverda {
    let (db, k) = twins(path, snapshot_reuse);
    db.update("Do!", "Todo", k, vec![Value::text("a1"), Value::text("v")])
        .unwrap();
    db
}

#[test]
fn twin_separated_fk_decompose_resolves_identically_everywhere() {
    // Baseline: the repro must now succeed, with the updated
    // row re-pointed at a *fresh* author id and the surviving twin keeping
    // the original one.
    let db = replay(WritePath::Delta, true);
    let baseline = visible(&db);
    assert!(
        !baseline.contains("error"),
        "the twin-separated repro regressed to a failure:\n{baseline}"
    );
    let authors = db.scan("TasKy2", "Author").unwrap();
    let names: Vec<String> = authors.iter().map(|(_, row)| row[0].to_string()).collect();
    assert_eq!(
        names.len(),
        2,
        "expected both authors to survive:\n{authors}"
    );
    assert!(names.contains(&Value::text("a0").to_string()));
    assert!(names.contains(&Value::text("a1").to_string()));
    // Every Task fk resolves (no dangling generated ids).
    for (_, row) in db.scan("TasKy2", "Task").unwrap().iter() {
        let Value::Int(fk) = row[2] else {
            panic!("non-integer fk in {row:?}")
        };
        assert!(
            authors.contains_key(inverda_storage::Key(fk as u64)),
            "dangling fk {fk}"
        );
    }

    // Cold resolution (no snapshot store) and the recompute reference
    // write path must agree too.
    assert_eq!(baseline, visible(&replay(WritePath::Delta, false)));
    assert_eq!(baseline, visible(&replay(WritePath::Recompute, true)));
    assert_eq!(baseline, visible(&replay(WritePath::Recompute, false)));
}

/// The same separation written **through the decompose's target version**
/// while its snapshots are warm: the repro's memo state (both twins
/// memoized onto author `a0`'s id), then task `k` is re-pointed at another
/// author by an update of `TasKy2.Task`. That write departs through the
/// virtualized DECOMPOSE, so its minting γ_tgt is what maintains the
/// `TasKy2` snapshots — by delta-vs-stored when the store is on. Also
/// returns how many snapshots that last update patched.
fn replay_through_target(path: WritePath, snapshot_reuse: bool) -> (Inverda, u64) {
    let (db, k) = twins(path, snapshot_reuse);
    let a1 = db
        .insert("TasKy2", "Author", vec![Value::text("a1")])
        .unwrap();
    // Warm every version, then separate the twins through TasKy2.
    visible(&db);
    let patches_before = db.snapshot_stats().patches;
    db.update(
        "TasKy2",
        "Task",
        k,
        vec![Value::text("v"), Value::Int(1), Value::Int(a1.0 as i64)],
    )
    .unwrap();
    let patched = db.snapshot_stats().patches - patches_before;
    (db, patched)
}

#[test]
fn twin_separation_through_the_decompose_target_resolves_identically_everywhere() {
    let (db, patched) = replay_through_target(WritePath::Delta, true);
    // The separating update patched both TasKy2 snapshots by delta, not by
    // re-evaluating the decompose over the whole relation...
    assert!(patched >= 2, "only {patched} snapshots patched");
    assert_eq!(db.snapshot_stats().recomputes, 0);
    let baseline = visible(&db);
    // ...and every warm entry it left behind equals its cold resolution.
    let audit = db.snapshot_store_audit();
    assert!(audit.is_empty(), "{}", audit.join("\n"));
    assert!(
        !baseline.contains("error"),
        "separating the twins through TasKy2 failed:\n{baseline}"
    );
    let authors = db.scan("TasKy2", "Author").unwrap();
    let names: Vec<String> = authors.iter().map(|(_, row)| row[0].to_string()).collect();
    assert_eq!(names.len(), 2, "both authors survive:\n{authors}");
    let task2 = db.scan("TasKy2", "Task").unwrap();
    let fks: Vec<&Value> = task2.iter().map(|(_, row)| &row[2]).collect();
    assert_ne!(fks[0], fks[1], "the twins must point at different authors");
    for fk in fks {
        let Value::Int(fk) = fk else {
            panic!("non-integer fk {fk:?}")
        };
        assert!(authors.contains_key(inverda_storage::Key(*fk as u64)));
    }
    // The source version sees the re-pointed author.
    let tasky = db.scan("TasKy", "Task").unwrap().to_string();
    assert!(tasky.contains("a1") && tasky.contains("a0"), "{tasky}");

    for (path, reuse) in [
        (WritePath::Delta, true),
        (WritePath::Delta, false),
        (WritePath::Recompute, true),
        (WritePath::Recompute, false),
    ] {
        assert_eq!(
            baseline,
            visible(&replay_through_target(path, reuse).0),
            "diverged at {path:?}, snapshot reuse {reuse}"
        );
    }
}

#[test]
fn twin_separated_fk_decompose_matches_naive_interpreter() {
    // Rebuild the formerly-failing state, then re-derive the FK-DECOMPOSE
    // target side with the *naive* reference interpreter straight from the
    // physical tables: it must derive exactly the engine's state.
    let db = replay(WritePath::Delta, true);
    let task2 = db.scan("TasKy2", "Task").unwrap();

    // γ_tgt of the DECOMPOSE and the head column names, from the catalog.
    let (rules, head_columns, tgt_task_rel) = db.with_genealogy(|g| {
        let smo = g
            .smos()
            .find(|s| s.derived.kind.contains("DECOMPOSE"))
            .expect("decompose smo");
        let mut head_columns: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for tv in g.table_versions() {
            head_columns.insert(tv.rel.clone(), tv.columns.clone());
        }
        for s in g.smos() {
            for aux in s.derived.all_aux() {
                head_columns.insert(aux.rel.clone(), aux.columns.clone());
            }
            for shared in &s.derived.shared_aux {
                head_columns.insert(shared.new_name.clone(), shared.table.columns.clone());
            }
        }
        (
            smo.derived.to_tgt.clone(),
            head_columns,
            smo.derived.tgt_data[0].rel.clone(),
        )
    });
    // Physical state as a plain map-backed EDB; the registry clone carries
    // the engine's committed generator assignments (the physical `ID` memo
    // was purged by the update, so repeatability now rests on the registry
    // — exactly what the fix relies on).
    let mut edb = MapEdb::new();
    for (table, _) in db.physical_tables() {
        let rel = db.physical_snapshot(&table).unwrap();
        edb.add_shared(table, rel);
    }
    let ids = RefCell::new(db.registry_snapshot());
    let naive_out = naive::evaluate(&rules, &edb, &ids, &head_columns)
        .expect("the naive interpreter must accept the separated state too");
    assert_eq!(
        naive_out[&tgt_task_rel].to_string(),
        task2.to_string(),
        "naive re-derivation disagrees with the engine"
    );
}

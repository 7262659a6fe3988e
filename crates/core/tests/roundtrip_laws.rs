//! Property-based verification of the paper's bidirectionality laws
//! (Section 5) — *semantic* counterpart to the syntactic proofs in
//! `inverda-bidel::verify`, and the only verification path for the
//! id-generating SMOs.
//!
//! For every SMO type we build a two-version database, generate random data
//! and random write sequences, and check:
//!
//! * round trips (26)/(27): the state visible in each version is identical
//!   under every valid materialization schema (migrating back and forth
//!   loses and gains nothing);
//! * write law (48)/(49): writes through either version are reflected
//!   exactly, wherever the data lives;
//! * delta propagation ≡ state recomputation (the generated-trigger path
//!   agrees with the view-recomputation oracle);
//! * chain law (50)/(51): the same holds across chains of SMOs.

use inverda_core::{Inverda, WritePath};
use inverda_storage::{Key, Value};
use proptest::prelude::*;

/// A randomly generated logical write.
#[derive(Debug, Clone)]
enum Op {
    InsertSrc { a: i64, b: i64 },
    InsertTgt { a: i64, b: i64 },
    UpdateSrc { slot: usize, a: i64, b: i64 },
    UpdateTgt { slot: usize, a: i64, b: i64 },
    DeleteSrc { slot: usize },
    DeleteTgt { slot: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..10, 0i64..10).prop_map(|(a, b)| Op::InsertSrc { a, b }),
        (0i64..10, 0i64..10).prop_map(|(a, b)| Op::InsertTgt { a, b }),
        (0usize..8, 0i64..10, 0i64..10).prop_map(|(slot, a, b)| Op::UpdateSrc { slot, a, b }),
        (0usize..8, 0i64..10, 0i64..10).prop_map(|(slot, a, b)| Op::UpdateTgt { slot, a, b }),
        (0usize..8).prop_map(|slot| Op::DeleteSrc { slot }),
        (0usize..8).prop_map(|slot| Op::DeleteTgt { slot }),
    ]
}

/// An SMO scenario: evolution script from V1{T(a,b)} to V2, plus the write
/// surfaces (version, table, row-builder) for both sides.
struct Scenario {
    name: &'static str,
    script: &'static str,
    /// (version, table) pairs to snapshot for state comparison.
    observe: &'static [(&'static str, &'static str)],
    /// Tables writable on the source side: (table, arity).
    src_table: (&'static str, usize),
    /// Tables writable on the target side.
    tgt_table: (&'static str, usize),
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "split",
        script: "CREATE SCHEMA VERSION V2 FROM V1 WITH \
                 SPLIT TABLE T INTO R WITH a < 5, S WITH a >= 3;",
        observe: &[("V1", "T"), ("V2", "R"), ("V2", "S")],
        src_table: ("T", 2),
        tgt_table: ("R", 2),
    },
    Scenario {
        name: "add_column",
        script: "CREATE SCHEMA VERSION V2 FROM V1 WITH \
                 ADD COLUMN c AS a + b INTO T;",
        observe: &[("V1", "T"), ("V2", "T")],
        src_table: ("T", 2),
        tgt_table: ("T", 3),
    },
    Scenario {
        name: "drop_column",
        script: "CREATE SCHEMA VERSION V2 FROM V1 WITH \
                 DROP COLUMN b FROM T DEFAULT 7;",
        observe: &[("V1", "T"), ("V2", "T")],
        src_table: ("T", 2),
        tgt_table: ("T", 1),
    },
    Scenario {
        name: "decompose_pk",
        script: "CREATE SCHEMA VERSION V2 FROM V1 WITH \
                 DECOMPOSE TABLE T INTO A(a), B(b) ON PK;",
        observe: &[("V1", "T"), ("V2", "A"), ("V2", "B")],
        src_table: ("T", 2),
        tgt_table: ("A", 1),
    },
    Scenario {
        name: "decompose_fk",
        script: "CREATE SCHEMA VERSION V2 FROM V1 WITH \
                 DECOMPOSE TABLE T INTO A(a), B(b) ON FOREIGN KEY fk;",
        observe: &[("V1", "T"), ("V2", "A"), ("V2", "B")],
        src_table: ("T", 2),
        tgt_table: ("A", 2),
    },
    Scenario {
        name: "merge",
        script: "CREATE SCHEMA VERSION VMID FROM V1 WITH \
                 SPLIT TABLE T INTO R WITH a < 5, S WITH a >= 5; \
                 CREATE SCHEMA VERSION V2 FROM VMID WITH \
                 MERGE TABLE R (a < 5), S (a >= 5) INTO M;",
        observe: &[("V1", "T"), ("VMID", "R"), ("VMID", "S"), ("V2", "M")],
        src_table: ("T", 2),
        tgt_table: ("M", 2),
    },
];

fn build_db(s: &Scenario) -> Inverda {
    let db = Inverda::new();
    db.execute("CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b);")
        .unwrap();
    db.execute(s.script).unwrap();
    db
}

fn row_for(arity: usize, a: i64, b: i64) -> Vec<Value> {
    match arity {
        1 => vec![a.into()],
        2 => vec![a.into(), b.into()],
        3 => vec![a.into(), b.into(), (a + b).into()],
        _ => unreachable!(),
    }
}

/// Apply the random ops. Keys are tracked per side so updates/deletes hit
/// real rows; ops on empty sides are skipped.
fn apply_ops(db: &Inverda, s: &Scenario, ops: &[Op]) {
    let mut src_keys: Vec<Key> = Vec::new();
    let mut tgt_keys: Vec<Key> = Vec::new();
    let (src_v, tgt_v) = ("V1", "V2");
    for op in ops {
        match op {
            Op::InsertSrc { a, b } => {
                let k = db
                    .insert(src_v, s.src_table.0, row_for(s.src_table.1, *a, *b))
                    .unwrap();
                src_keys.push(k);
            }
            Op::InsertTgt { a, b } => {
                // FK-decompose target inserts need a valid fk; use NULL-free
                // payload rows only for plain targets, skip fk targets.
                if s.name == "decompose_fk" {
                    continue;
                }
                let k = db
                    .insert(tgt_v, s.tgt_table.0, row_for(s.tgt_table.1, *a, *b))
                    .unwrap();
                tgt_keys.push(k);
            }
            Op::UpdateSrc { slot, a, b } => {
                if src_keys.is_empty() {
                    continue;
                }
                let k = src_keys[slot % src_keys.len()];
                if let Some(old) = db.get(src_v, s.src_table.0, k).unwrap() {
                    let mut row = row_for(s.src_table.1, *a, *b);
                    if s.name == "decompose_fk" {
                        // Diverging updates to a deduplicated fk payload are
                        // outside the paper's defined semantics (the engine
                        // rejects them with KeyConflict); see DESIGN.md.
                        // Update only the non-shared column.
                        row[1] = old[1].clone();
                    }
                    db.update(src_v, s.src_table.0, k, row).unwrap();
                }
            }
            Op::UpdateTgt { slot, a, b } => {
                if tgt_keys.is_empty() || s.name == "decompose_fk" {
                    continue;
                }
                let k = tgt_keys[slot % tgt_keys.len()];
                if db.get(tgt_v, s.tgt_table.0, k).unwrap().is_some() {
                    db.update(tgt_v, s.tgt_table.0, k, row_for(s.tgt_table.1, *a, *b))
                        .unwrap();
                }
            }
            Op::DeleteSrc { slot } => {
                if src_keys.is_empty() {
                    continue;
                }
                let k = src_keys[slot % src_keys.len()];
                if db.get(src_v, s.src_table.0, k).unwrap().is_some() {
                    db.delete(src_v, s.src_table.0, k).unwrap();
                }
            }
            Op::DeleteTgt { slot } => {
                if tgt_keys.is_empty() {
                    continue;
                }
                let k = tgt_keys[slot % tgt_keys.len()];
                if db.get(tgt_v, s.tgt_table.0, k).unwrap().is_some() {
                    db.delete(tgt_v, s.tgt_table.0, k).unwrap();
                }
            }
        }
    }
}

fn snapshot(db: &Inverda, s: &Scenario) -> String {
    let mut out = String::new();
    for (v, t) in s.observe {
        out.push_str(&format!("{v}.{t}:\n{}", db.scan(v, t).unwrap()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round-trip laws: the visible state of every version is invariant
    /// under migrations between all materializations (26)(27)(50)(51).
    #[test]
    fn migration_preserves_visible_state(ops in prop::collection::vec(op_strategy(), 0..16)) {
        for s in SCENARIOS {
            let db = build_db(s);
            apply_ops(&db, s, &ops);
            let before = snapshot(&db, s);
            db.materialize(&["V2".to_string()]).unwrap();
            prop_assert_eq!(&snapshot(&db, s), &before, "{} after MATERIALIZE V2", s.name);
            db.materialize(&["V1".to_string()]).unwrap();
            prop_assert_eq!(&snapshot(&db, s), &before, "{} after MATERIALIZE V1", s.name);
        }
    }

    /// The delta write path (generated triggers) agrees exactly with the
    /// state-recomputation oracle, under both materializations.
    #[test]
    fn delta_path_equals_recompute_path(
        ops in prop::collection::vec(op_strategy(), 0..14),
        evolved in any::<bool>(),
    ) {
        for s in SCENARIOS {
            let run = |path: WritePath| {
                let db = build_db(s);
                if evolved {
                    db.materialize(&["V2".to_string()]).unwrap();
                }
                db.set_write_path(path);
                apply_ops(&db, s, &ops);
                snapshot(&db, s)
            };
            prop_assert_eq!(run(WritePath::Delta), run(WritePath::Recompute), "{}", s.name);
        }
    }

    /// Write law (48)/(49): a write through any version is visible through
    /// that same version exactly as written, wherever the data lives.
    #[test]
    fn writes_read_back_exactly(
        a in 0i64..10,
        b in 0i64..10,
        evolved in any::<bool>(),
    ) {
        for s in SCENARIOS {
            let db = build_db(s);
            if evolved {
                db.materialize(&["V2".to_string()]).unwrap();
            }
            let row = row_for(s.src_table.1, a, b);
            let k = db.insert("V1", s.src_table.0, row.clone()).unwrap();
            let read_back = db.get("V1", s.src_table.0, k).unwrap();
            prop_assert_eq!(
                read_back.as_ref(),
                Some(&row),
                "{} insert read-back", s.name
            );
            db.delete("V1", s.src_table.0, k).unwrap();
            prop_assert!(db.get("V1", s.src_table.0, k).unwrap().is_none());
            // Nothing is left anywhere.
            for (v, t) in s.observe {
                prop_assert!(
                    !db.scan(v, t).unwrap().contains_key(k),
                    "{}: ghost row in {v}.{t}", s.name
                );
            }
        }
    }
}

/// Deterministic cross-check: a three-hop chain (the paper's chain law) with
/// mixed writes at every version, migrated through several frontiers.
#[test]
fn chain_of_smos_preserves_state_across_frontiers() {
    let db = Inverda::new();
    db.execute("CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b);")
        .unwrap();
    db.execute(
        "CREATE SCHEMA VERSION V2 FROM V1 WITH SPLIT TABLE T INTO R WITH a < 5, S WITH a >= 5;",
    )
    .unwrap();
    db.execute("CREATE SCHEMA VERSION V3 FROM V2 WITH ADD COLUMN c AS a * 10 INTO R;")
        .unwrap();
    db.execute("CREATE SCHEMA VERSION V4 FROM V3 WITH RENAME COLUMN c IN R TO score;")
        .unwrap();

    for a in 0..10i64 {
        db.insert("V1", "T", vec![a.into(), (a * 2).into()])
            .unwrap();
    }
    db.insert("V4", "R", vec![1.into(), 1.into(), 99.into()])
        .unwrap();
    db.insert("V2", "S", vec![8.into(), 0.into()]).unwrap();

    let observe = [
        ("V1", "T"),
        ("V2", "R"),
        ("V2", "S"),
        ("V3", "R"),
        ("V4", "R"),
    ];
    let snap = |db: &Inverda| {
        observe
            .iter()
            .map(|(v, t)| format!("{v}.{t}:\n{}", db.scan(v, t).unwrap()))
            .collect::<String>()
    };
    let before = snap(&db);
    for target in ["V2", "V4", "V3", "V1", "V4", "V1"] {
        db.materialize(&[target.to_string()]).unwrap();
        assert_eq!(snap(&db), before, "after MATERIALIZE '{target}'");
    }
}

/// Updating one of two rows that share a deduplicated fk payload is
/// well-defined **un-sharing**: the payload-carrying `ID_R(p, t, B)` memo
/// (see DESIGN.md "The twin-separated FK-DECOMPOSE conflict") rejects the
/// now-stale pairing, so the updated row re-points at the id of its *new*
/// payload — minted fresh, or reused from the registry — while the other
/// sharer keeps the original target row. (Before the payload column, the
/// stale pairing pinned two contradictory payloads onto one generated key
/// and the write was rejected with a `KeyConflict`.)
#[test]
fn diverging_shared_payload_update_unshares_cleanly() {
    let db = Inverda::new();
    db.execute("CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b);")
        .unwrap();
    db.execute(
        "CREATE SCHEMA VERSION V2 FROM V1 WITH \
         DECOMPOSE TABLE T INTO A(a), B(b) ON FOREIGN KEY fk;",
    )
    .unwrap();
    db.execute("MATERIALIZE 'V2';").unwrap();
    let k1 = db.insert("V1", "T", vec![1.into(), 7.into()]).unwrap();
    let k2 = db.insert("V1", "T", vec![2.into(), 7.into()]).unwrap(); // shares B row
    assert_eq!(db.count("V2", "B").unwrap(), 1, "payload 7 deduplicates");
    db.update("V1", "T", k1, vec![1.into(), 8.into()])
        .expect("diverging shared update un-shares");
    // The sharers now reference distinct B rows carrying their payloads.
    assert_eq!(
        db.get("V1", "T", k1).unwrap().unwrap(),
        vec![1.into(), 8.into()]
    );
    assert_eq!(
        db.get("V1", "T", k2).unwrap().unwrap(),
        vec![2.into(), 7.into()]
    );
    let b = db.scan("V2", "B").unwrap();
    let payloads: Vec<Value> = b.iter().map(|(_, row)| row[0].clone()).collect();
    assert_eq!(b.len(), 2, "un-sharing creates a second B row:\n{b}");
    assert!(payloads.contains(&Value::Int(7)) && payloads.contains(&Value::Int(8)));
    let a_rel = db.scan("V2", "A").unwrap();
    let fk_of = |k| match a_rel.get(k).unwrap()[1] {
        Value::Int(fk) => inverda_storage::Key(fk as u64),
        ref other => panic!("non-id fk {other}"),
    };
    assert_ne!(fk_of(k1), fk_of(k2), "sharers must reference distinct rows");
    assert_eq!(b.get(fk_of(k1)).unwrap()[0], Value::Int(8));
    assert_eq!(b.get(fk_of(k2)).unwrap()[0], Value::Int(7));
    // Updating the shared row *through V2* still reaches its referents.
    db.update("V2", "B", fk_of(k2), vec![9.into()]).unwrap();
    assert_eq!(db.get("V1", "T", k2).unwrap().unwrap()[1], Value::Int(9));
    assert_eq!(db.get("V1", "T", k1).unwrap().unwrap()[1], Value::Int(8));
}

/// **Known deviation from condition (27)**, pinned so that it cannot change
/// unnoticed (DESIGN.md "The auxiliary-table purge", known deviation): a
/// `MATERIALIZE` across an *overlapping* SPLIT loses a visible row. A row
/// inserted through `S` inside the overlap gets no twin in `R` (`R⁻`
/// records that); updating it through `T` to a value that matches `cR` only
/// leaves it visible in `T` alone — `R⁻` still hides it from `R`, and `cS`
/// no longer holds. Moving the data to `V2` then stores `R`, `S` and `T'`,
/// and the row is in none of them: it matches `cR`, so `T'` does not keep
/// it. Condition (27) — γ_src(γ_tgt(D_src)) = D_src, "every schema version
/// exposes exactly the same logical state before and after" — fails for
/// this reachable state. The SPLIT rules are not changed here (the
/// Appendix-A proof in `formal` hangs on them); this is why a resolved
/// snapshot is not carried across a flipped SPLIT
/// (`Inverda::carry_snapshots`), and the first counterexample ROADMAP
/// item 7's chain generator must rediscover. When the rules are fixed this
/// test fails: flip the last assertion then.
#[test]
fn known_deviation_materialize_across_overlapping_split_loses_a_row() {
    let db = Inverda::new();
    db.execute(
        "CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b); \
         CREATE SCHEMA VERSION V2 FROM V1 WITH \
           SPLIT TABLE T INTO R WITH a < 5, S WITH a >= 3;",
    )
    .unwrap();
    let k = db.insert("V2", "S", vec![3.into(), "b2".into()]).unwrap();
    db.update("V1", "T", k, vec![2.into(), "b2".into()])
        .unwrap();
    assert_eq!(
        db.get("V1", "T", k).unwrap(),
        Some(vec![2.into(), "b2".into()])
    );
    assert_eq!(db.count("V2", "R").unwrap(), 0, "R⁻ hides the lost twin");
    assert_eq!(db.count("V2", "S").unwrap(), 0, "a = 2 fails cS");

    db.execute("MATERIALIZE 'V2';").unwrap();
    assert_eq!(db.count("V2", "R").unwrap(), 0);
    assert_eq!(db.count("V2", "S").unwrap(), 0);
    // Law (27) demands the row still be there.
    assert_eq!(db.get("V1", "T", k).unwrap(), None);
    assert_eq!(db.count("V1", "T").unwrap(), 0);
}

/// **Known deviation, the column-level aux gap** (DESIGN.md "Update
/// propagation"): PutGet fails for an update through the version that owns
/// an added column, with the data at the source, when the update leaves the
/// column as it read it, the column's value came from the default function
/// (its aux table `B` holds no row for the key), and the update changes a
/// column the function reads. The drain lands the mapping's minimal diff,
/// which writes no `B` row for a value that did not change, so the next read
/// computes the function of the new row. The PutGet path of reverse
/// maintenance does not patch such a write (`aux_keeps_what_was_written`).
/// When the drain lands what was written, this test fails: flip the last
/// assertion then.
#[test]
fn known_deviation_an_update_through_an_added_column_reads_back_its_default() {
    let db = Inverda::new();
    db.execute(
        "CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b); \
         CREATE SCHEMA VERSION V2 FROM V1 WITH ADD COLUMN c AS a INTO T;",
    )
    .unwrap();
    let k = db.insert("V1", "T", vec![1.into(), "x".into()]).unwrap();
    assert_eq!(
        db.get("V2", "T", k).unwrap(),
        Some(vec![1.into(), "x".into(), 1.into()])
    );
    db.update("V2", "T", k, vec![5.into(), "x".into(), 1.into()])
        .unwrap();
    // PutGet demands `[5, "x", 1]`.
    assert_eq!(
        db.get("V2", "T", k).unwrap(),
        Some(vec![5.into(), "x".into(), 5.into()])
    );
}

//! Cross-crate integration tests: the full TasKy lifecycle across every
//! valid materialization, the Wikimedia chain, SQL generation over a live
//! catalog, and concurrent readers against a writer.

use inverda::workloads::{tasky, wikimedia};
use inverda::{CoreError, Inverda, Value, WritePath};

fn tasky_db_with_data(n: usize) -> Inverda {
    let db = tasky::build();
    tasky::load_tasks(&db, n);
    db
}

fn full_snapshot(db: &Inverda) -> String {
    let mut out = String::new();
    for v in db.versions() {
        for t in db.tables_of(&v).unwrap() {
            out.push_str(&format!("{v}.{t}:\n{}", db.scan(&v, &t).unwrap()));
        }
    }
    out
}

#[test]
fn tasky_lifecycle_across_all_five_materializations() {
    let db = tasky_db_with_data(60);
    // Write through every version first.
    db.insert("Do!", "Todo", vec!["Eve".into(), "todo".into()])
        .unwrap();
    let author = db.scan("TasKy2", "Author").unwrap().keys().next().unwrap();
    db.insert(
        "TasKy2",
        "Task",
        vec!["t2 task".into(), 2.into(), Value::Int(author.0 as i64)],
    )
    .unwrap();
    let before = full_snapshot(&db);
    // Table 2's five materialization schemas, via their MATERIALIZE targets.
    for target in ["Do!", "TasKy", "TasKy2", "TasKy2.Task", "Do!.Todo", "TasKy"] {
        db.execute(&format!("MATERIALIZE '{target}';")).unwrap();
        assert_eq!(full_snapshot(&db), before, "state changed at '{target}'");
    }
}

#[test]
fn writes_after_each_migration_reach_every_version() {
    let db = tasky_db_with_data(30);
    for (i, target) in ["TasKy2", "Do!", "TasKy"].iter().enumerate() {
        db.execute(&format!("MATERIALIZE '{target}';")).unwrap();
        let k = db
            .insert(
                "TasKy",
                "Task",
                vec![
                    Value::text(format!("auth{i}")),
                    Value::text(format!("after-mig {i}")),
                    Value::Int(1),
                ],
            )
            .unwrap();
        assert!(
            db.scan("Do!", "Todo").unwrap().contains_key(k),
            "at {target}"
        );
        assert!(
            db.scan("TasKy2", "Task").unwrap().contains_key(k),
            "at {target}"
        );
        db.delete("TasKy2", "Task", k).unwrap();
        assert!(db.get("TasKy", "Task", k).unwrap().is_none(), "at {target}");
    }
}

#[test]
fn drop_schema_version_keeps_shared_data() {
    let db = tasky_db_with_data(10);
    db.execute("DROP SCHEMA VERSION Do!;").unwrap();
    assert!(!db.versions().contains(&"Do!".to_string()));
    assert_eq!(db.count("TasKy", "Task").unwrap(), 10);
    assert_eq!(db.count("TasKy2", "Task").unwrap(), 10);
    assert!(db.scan("Do!", "Todo").is_err());
}

/// Dropping the version that holds the materialized data used to return
/// `Ok`, delete the physical table (and 7 of 20 rows with it), and leave
/// the next read to panic. It is refused, typed, and changes nothing.
#[test]
fn drop_of_the_version_holding_the_data_is_refused() {
    use inverda::catalog::CatalogError;
    let db = tasky_db_with_data(20);
    db.execute("MATERIALIZE 'Do!';").unwrap();
    let before = full_snapshot(&db);
    let physical = db.physical_tables();
    let refused = db.execute("DROP SCHEMA VERSION Do!;").unwrap_err();
    assert!(
        matches!(
            &refused,
            CoreError::Catalog(CatalogError::VersionHoldsData { version, .. }) if version == "Do!"
        ),
        "{refused:?}"
    );
    assert!(refused.to_string().contains("MATERIALIZE another version"));
    assert_eq!(db.versions(), ["Do!", "TasKy", "TasKy2"]);
    assert_eq!(db.physical_tables(), physical);
    assert_eq!(full_snapshot(&db), before);
    assert_eq!(db.count("TasKy", "Task").unwrap(), 20);
    assert_eq!(db.count("TasKy2", "Task").unwrap(), 20);
    // The other leaf holds nothing and goes; once the data has moved away,
    // so does this one.
    db.execute("DROP SCHEMA VERSION TasKy2; MATERIALIZE 'TasKy'; DROP SCHEMA VERSION Do!;")
        .unwrap();
    assert_eq!(db.count("TasKy", "Task").unwrap(), 20);
    assert_eq!(db.physical_tables().len(), 1, "{:?}", db.physical_tables());
}

/// A root version nobody evolved from owns its tables: dropping it deletes
/// them.
#[test]
fn drop_of_a_root_version_deletes_its_own_tables() {
    let db = tasky_db_with_data(5);
    let physical = db.physical_tables();
    db.execute("CREATE SCHEMA VERSION Solo WITH CREATE TABLE Z(a);")
        .unwrap();
    db.insert("Solo", "Z", vec![1.into()]).unwrap();
    assert_eq!(db.physical_tables().len(), physical.len() + 1);
    db.execute("DROP SCHEMA VERSION Solo;").unwrap();
    assert_eq!(db.physical_tables(), physical);
    assert!(db.scan("Solo", "Z").is_err());
}

/// A `CREATE SCHEMA VERSION` whose second SMO fails used to leave the first
/// one registered without its aux table, and every later delete through the
/// parent failed with `UnknownTable { table: "smo5_aux_Task_extra" }`.
#[test]
fn a_failed_create_changes_nothing() {
    let db = tasky_db_with_data(10);
    let twin = tasky_db_with_data(10);
    let catalog = |db: &Inverda| {
        db.with_genealogy(|g| {
            let tables: Vec<_> = g.table_versions().map(|tv| tv.id).collect();
            (tables, g.smo_ids())
        })
    };
    let before = (catalog(&db), db.physical_tables(), full_snapshot(&db));
    let failed = db.execute(
        "CREATE SCHEMA VERSION Bad FROM TasKy WITH \
           ADD COLUMN extra AS 0 INTO Task; DROP TABLE NoSuch;",
    );
    assert!(failed.is_err());
    assert_eq!(db.versions(), ["Do!", "TasKy", "TasKy2"]);
    let after = (catalog(&db), db.physical_tables(), full_snapshot(&db));
    assert_eq!(after, before);
    let key = db.scan("TasKy", "Task").unwrap().keys().next().unwrap();
    db.delete("TasKy", "Task", key).unwrap();
    assert_eq!(db.count("TasKy2", "Task").unwrap(), 9);
    // The id counters did not move: the next CREATE gets the ids (and aux
    // table names) it gets on a database that never saw the failure.
    let next = "CREATE SCHEMA VERSION Good FROM TasKy WITH ADD COLUMN extra AS 0 INTO Task;";
    db.execute(next).unwrap();
    // (The twin reads where `db` read: reads of `TasKy2` mint author ids.)
    full_snapshot(&twin);
    twin.delete("TasKy", "Task", key).unwrap();
    twin.execute(next).unwrap();
    assert_eq!(catalog(&db), catalog(&twin));
    assert_eq!(db.physical_tables(), twin.physical_tables());
    assert_eq!(full_snapshot(&db), full_snapshot(&twin));
}

/// The catalog index is extended and trimmed in place by every DDL
/// statement; in this (debug) build the engine checks it against a fresh
/// build of the whole genealogy each time, so installing the 171-version
/// Wikimedia history and evolving its head exercises that on every shape of
/// SMO the history has.
#[test]
fn ddl_on_the_wikimedia_head_keeps_the_rest_of_the_history_warm() {
    let db = wikimedia::install();
    db.execute(&format!(
        "MATERIALIZE '{}';",
        wikimedia::version_name(wikimedia::LOAD_VERSION)
    ))
    .unwrap();
    wikimedia::load_akan(&db, wikimedia::LOAD_VERSION, 0.001);
    let head = wikimedia::version_name(171);
    let pages = db.count(&head, "page").unwrap();
    let links = db.scan(&head, "links").unwrap();
    let sizes = |db: &Inverda| {
        (
            db.with_genealogy(|g| (g.table_version_count(), g.smo_ids().len())),
            db.physical_tables().len(),
        )
    };
    let start = sizes(&db);
    for round in 0..3 {
        db.execute(&format!(
            "CREATE SCHEMA VERSION vtmp FROM {head} WITH ADD COLUMN extra AS 0 INTO page;"
        ))
        .unwrap();
        // `links` is untouched by the evolution: the new version shares the
        // head's table version, whose snapshot the CREATE kept.
        let before = db.snapshot_stats();
        let shared = db.scan("vtmp", "links").unwrap();
        assert!(std::sync::Arc::ptr_eq(&shared, &links), "round {round}");
        assert_eq!(db.snapshot_stats().misses, before.misses);
        assert_eq!(db.count("vtmp", "page").unwrap(), pages);
        db.execute("DROP SCHEMA VERSION vtmp;").unwrap();
        assert_eq!(sizes(&db), start, "round {round}");
    }
    assert_eq!(
        db.count(&wikimedia::version_name(1), "page").unwrap(),
        pages
    );
}

#[test]
fn sql_delta_code_generates_for_live_catalogs() {
    // The generated SQL artifact exists for every non-local table version
    // and flips when the materialization flips.
    use inverda::bidel::{parse_script, Statement};
    use inverda::catalog::{Genealogy, MaterializationSchema};
    let mut g = Genealogy::new();
    for script in [tasky::SCRIPT_TASKY, tasky::SCRIPT_DO, tasky::SCRIPT_TASKY2] {
        for stmt in parse_script(script).unwrap().statements {
            if let Statement::CreateSchemaVersion { name, from, smos } = stmt {
                g.create_schema_version(&name, from.as_deref(), &smos)
                    .unwrap();
            }
        }
    }
    for m in MaterializationSchema::enumerate_valid(&g) {
        let script = inverda::sqlgen::generate::full_script(&g, &m);
        assert!(script.contains("CREATE"), "empty delta code for {m}");
    }
}

#[test]
fn wikimedia_chain_end_to_end() {
    let db = wikimedia::install();
    db.execute(&format!(
        "MATERIALIZE '{}';",
        wikimedia::version_name(wikimedia::LOAD_VERSION)
    ))
    .unwrap();
    wikimedia::load_akan(&db, wikimedia::LOAD_VERSION, 0.001);
    let loaded = wikimedia::query_version(&db, wikimedia::LOAD_VERSION);
    assert!(loaded > 0);
    // Reads agree across the whole chain, before and after re-migration.
    assert_eq!(wikimedia::query_version(&db, 1), loaded);
    assert_eq!(wikimedia::query_version(&db, 171), loaded);
    db.execute(&format!("MATERIALIZE '{}';", wikimedia::version_name(171)))
        .unwrap();
    assert_eq!(wikimedia::query_version(&db, 1), loaded);
    assert_eq!(wikimedia::query_version(&db, 28), loaded);
}

/// `MATERIALIZE` carries resolved snapshots across its swap: on the
/// stationary Wikimedia round trip v109 ⇄ v171 the eight counts the
/// benchmark verifies each move with (`wiki_migrate`: four versions × two
/// tables) never resolve anything, and every carried entry equals its cold
/// resolution. Planning evaluates only the slices that derive the flipped
/// SMOs' aux tables, so a stationary move probes the snapshot store a
/// handful of times, not once per intermediate version of the 62 hops.
#[test]
fn wikimedia_round_trips_keep_every_checked_version_warm() {
    let db = wikimedia::install();
    let data = wikimedia::version_name(wikimedia::LOAD_VERSION);
    let head = wikimedia::version_name(171);
    db.execute(&format!("MATERIALIZE '{data}';")).unwrap();
    wikimedia::load_akan(&db, wikimedia::LOAD_VERSION, 0.002);
    let checked = [1, 28, wikimedia::LOAD_VERSION, 171].map(wikimedia::version_name);
    let counts = |db: &Inverda| -> Vec<usize> {
        checked
            .iter()
            .flat_map(|v| ["page", "links"].map(|t| db.count(v, t).unwrap()))
            .collect()
    };
    let expected = counts(&db);
    assert!(expected.iter().all(|n| *n > 0));
    for trip in 0..2 {
        for target in [&head, &data] {
            let before = db.snapshot_stats();
            db.execute(&format!("MATERIALIZE '{target}';")).unwrap();
            let planned = db.snapshot_stats();
            let probes = planned.hits + planned.misses - before.hits - before.misses;
            assert!(planned.carried > before.carried, "trip {trip} → {target}");
            if trip > 0 {
                // Stationary. Moving to the head derives no aux table for
                // its 30 ADD COLUMNs; moving back reads each one's target
                // version to derive its source-side aux table.
                let bound = if target == &head { 20 } else { 40 };
                assert!(
                    probes <= bound,
                    "trip {trip} → {target}: planning probed {probes} snapshots"
                );
            }
            assert_eq!(counts(&db), expected, "trip {trip} → {target}");
            let verified = db.snapshot_stats();
            assert_eq!(verified.misses, planned.misses, "trip {trip} → {target}");
            let audit = db.snapshot_store_audit();
            assert!(audit.is_empty(), "trip {trip} → {target}: {audit:?}");
        }
    }
}

/// Read-time catch-up on the paper's example: after a write through `Do!`,
/// the stale `TasKy2.Task` snapshot — one FK DECOMPOSE away from the data —
/// is patched from the physical change log by the next full read, in place,
/// with its index; what the log cannot bridge is resolved cold as before.
#[test]
fn a_foreign_write_is_caught_up_by_the_next_sibling_read() {
    use inverda::core::LogicalWrite;
    use inverda::Expr;
    use std::sync::Arc;
    let db = tasky_db_with_data(200);
    let filter = |text: &str| {
        db.query("TasKy2", "Task")
            .filter(Expr::col("task").eq(Expr::lit(text)))
    };
    // Warm: the snapshot (first read) and its `task` index (second).
    for _ in 0..2 {
        assert_eq!(filter("task number 7").count().unwrap(), 1);
    }
    let allocation = |db: &Inverda| Arc::as_ptr(&db.scan("TasKy2", "Task").unwrap());
    let snapshot = allocation(&db);

    let caught_up = |db: &Inverda, what: &str, write: &dyn Fn() -> String| {
        let before = db.snapshot_stats();
        let text = write();
        let plan = filter(&text).explain().unwrap();
        assert!(plan.contains("index-probe(task = "), "{what}: {plan}");
        let after = db.snapshot_stats();
        assert!(after.caught_up > before.caught_up, "{what}: {after:?}");
        assert_eq!(after.recomputes, before.recomputes, "{what}");
        assert_eq!(allocation(db), snapshot, "{what}: patched in place");
        assert!(db.snapshot_store_audit().is_empty(), "{what}");
    };
    let todo = std::cell::Cell::new(None);
    caught_up(&db, "insert", &|| {
        let row = vec!["author003".into(), "caught up".into()];
        todo.set(Some(db.insert("Do!", "Todo", row).unwrap()));
        "caught up".into()
    });
    let key = todo.get().unwrap();
    assert_eq!(filter("caught up").count().unwrap(), 1);
    caught_up(&db, "update", &|| {
        let row = vec!["author003".into(), "caught up twice".into()];
        db.update("Do!", "Todo", key, row).unwrap();
        "caught up twice".into()
    });
    assert_eq!(filter("caught up").count().unwrap(), 0);
    assert_eq!(filter("caught up twice").count().unwrap(), 1);
    caught_up(&db, "new author", &|| {
        let row = vec!["nobody yet".into(), "a first task".into()];
        db.insert("Do!", "Todo", row).unwrap();
        "a first task".into()
    });
    let authors = db.scan("TasKy2", "Author").unwrap();
    assert!(authors.iter().any(|(_, row)| row[0] == "nobody yet".into()));
    caught_up(&db, "delete", &|| {
        db.delete("Do!", "Todo", key).unwrap();
        "caught up twice".into()
    });
    assert_eq!(filter("caught up twice").count().unwrap(), 0);

    // A batch the log does not hold, and a MATERIALIZE round trip (which
    // swaps the tables under every footprint): gaps, read cold.
    let cold = |db: &Inverda, what: &str| {
        let before = db.snapshot_stats();
        assert_eq!(filter("a first task").count().unwrap(), 1, "{what}");
        let after = db.snapshot_stats();
        assert_eq!(after.caught_up, before.caught_up, "{what}");
        assert!(after.misses > before.misses, "{what}");
        assert!(db.snapshot_store_audit().is_empty(), "{what}");
    };
    let bulk = (0..5_000)
        .map(|i| LogicalWrite::Insert(vec!["author001".into(), format!("bulk {i}").into()]))
        .collect();
    db.apply_many("Do!", "Todo", bulk).unwrap();
    cold(&db, "5 000-row batch");
    db.insert("Do!", "Todo", vec!["author001".into(), "one more".into()])
        .unwrap();
    db.execute("MATERIALIZE 'TasKy2'; MATERIALIZE 'TasKy';")
        .unwrap();
    cold(&db, "MATERIALIZE round trip");
    // ... and from there on the log leads on again.
    let before = db.snapshot_stats().caught_up;
    db.insert("Do!", "Todo", vec!["author001".into(), "and on".into()])
        .unwrap();
    assert_eq!(filter("and on").count().unwrap(), 1);
    assert!(db.snapshot_stats().caught_up > before);
}

/// Read-time catch-up two hops out: after a write through `TasKy2`, the
/// stale `Do!.Todo` snapshot — a DROP COLUMN over a SPLIT over the data —
/// is patched at the very next point lookup, the SPLIT hop first and its
/// head deltas then through the DROP COLUMN hop, in place, with its index.
/// A point lookup through a minting closure still leaves its catch-up to
/// the next full read, and what the log cannot bridge is resolved cold.
#[test]
fn a_foreign_write_is_caught_up_two_hops_out() {
    use inverda::core::LogicalWrite;
    use inverda::{Expr, Key};
    use std::sync::Arc;
    let db = tasky_db_with_data(200);
    let filter = |version: &str, table: &str, text: &str| {
        db.query(version, table)
            .filter(Expr::col("task").eq(Expr::lit(text)))
    };
    let author = db.scan("TasKy2", "Author").unwrap().keys().next().unwrap();
    let task = |text: &str, author: Option<Key>| {
        let fk = author.map_or(Value::Null, |a| Value::Int(a.0 as i64));
        vec![text.into(), 1.into(), fk]
    };
    // Warm: the snapshot (first read) and its `task` index (second).
    for _ in 0..2 {
        assert_eq!(filter("Do!", "Todo", "task number 6").count().unwrap(), 1);
    }
    let allocation = |db: &Inverda| Arc::as_ptr(&db.scan("Do!", "Todo").unwrap());
    let snapshot = allocation(&db);
    // What one catch-up patches: the SPLIT's `Todo` and its `Task'` aux,
    // then `Do!.Todo` — not the DROP COLUMN's aux, since the fused
    // resolution stores only the head it was asked for.
    let heads = 3;

    // `write` returns the key the next get asks `Do!.Todo` for.
    let caught_up = |what: &str, task: Option<&str>, write: &dyn Fn() -> Key| {
        let before = db.snapshot_stats();
        let key = write();
        let row = db.get("Do!", "Todo", key).unwrap();
        assert_eq!(row.map(|r| r[1].clone()), task.map(Value::from), "{what}");
        let after = db.snapshot_stats();
        assert_eq!(
            after.caught_up - before.caught_up,
            heads,
            "{what}: {after:?}"
        );
        assert_eq!(after.recomputes, before.recomputes, "{what}");
        assert_eq!(allocation(&db), snapshot, "{what}: patched in place");
        let plan = filter("Do!", "Todo", "any").explain().unwrap();
        assert!(plan.contains("index-probe(task = "), "{what}: {plan}");
        assert!(db.snapshot_store_audit().is_empty(), "{what}");
        key
    };
    let key = caught_up("insert", Some("caught up"), &|| {
        let row = task("caught up", Some(author));
        db.insert("TasKy2", "Task", row).unwrap()
    });
    assert_eq!(filter("Do!", "Todo", "caught up").count().unwrap(), 1);
    caught_up("update", Some("caught up twice"), &|| {
        let row = task("caught up twice", Some(author));
        db.update("TasKy2", "Task", key, row).unwrap();
        key
    });
    assert_eq!(filter("Do!", "Todo", "caught up").count().unwrap(), 0);
    // `TasKy2.Author`, a RENAME over the DECOMPOSE's `Author` head, is
    // stale too, but the writes patched that head on their own path: the
    // two are stamped apart, and the RENAME resolves cold.
    let before = db.snapshot_stats();
    assert!(db.scan("TasKy2", "Author").unwrap().len() > 1);
    assert_eq!(db.snapshot_stats().caught_up, before.caught_up);
    let newcomer = caught_up("new author", Some("a first task"), &|| {
        let who = db
            .insert("TasKy2", "Author", vec!["nobody yet".into()])
            .unwrap();
        let row = task("a first task", Some(who));
        db.insert("TasKy2", "Task", row).unwrap()
    });
    assert_eq!(
        db.get("Do!", "Todo", newcomer).unwrap().unwrap()[0],
        "nobody yet".into()
    );
    caught_up("delete", None, &|| {
        db.delete("TasKy2", "Task", key).unwrap();
        key
    });
    assert_eq!(filter("Do!", "Todo", "caught up twice").count().unwrap(), 0);

    // Through a minting closure a point lookup pushes its key down and the
    // full read behind the next filter catches up.
    for _ in 0..2 {
        assert_eq!(
            filter("TasKy2", "Task", "task number 7").count().unwrap(),
            1
        );
    }
    let before = db.snapshot_stats();
    db.insert("Do!", "Todo", vec!["author003".into(), "via Do!".into()])
        .unwrap();
    assert!(db.get("TasKy2", "Task", newcomer).unwrap().is_some());
    assert_eq!(db.snapshot_stats().caught_up, before.caught_up);
    assert_eq!(filter("TasKy2", "Task", "via Do!").count().unwrap(), 1);
    assert!(db.snapshot_stats().caught_up > before.caught_up);

    // A batch the log does not hold, and a MATERIALIZE round trip (which
    // swaps the tables under every footprint): gaps, read cold.
    let cold = |db: &Inverda, what: &str| {
        let before = db.snapshot_stats();
        assert!(db.get("Do!", "Todo", newcomer).unwrap().is_some());
        assert_eq!(filter("Do!", "Todo", "a first task").count().unwrap(), 1);
        let after = db.snapshot_stats();
        assert_eq!(after.caught_up, before.caught_up, "{what}");
        assert!(after.misses > before.misses, "{what}");
        assert!(db.snapshot_store_audit().is_empty(), "{what}");
    };
    let bulk = (0..1_100)
        .map(|i| LogicalWrite::Insert(task(&format!("bulk {i}"), None)))
        .collect();
    db.apply_many("TasKy2", "Task", bulk).unwrap();
    cold(&db, "1 100-row batch");
    db.insert("TasKy2", "Task", task("one more", Some(author)))
        .unwrap();
    db.execute("MATERIALIZE 'TasKy2'; MATERIALIZE 'TasKy';")
        .unwrap();
    cold(&db, "MATERIALIZE round trip");
    // ... and once a full read has resolved it again, the log leads on.
    db.scan("Do!", "Todo").unwrap();
    let before = db.snapshot_stats().caught_up;
    let key = db
        .insert("TasKy2", "Task", task("and on", Some(author)))
        .unwrap();
    assert!(db.get("Do!", "Todo", key).unwrap().is_some());
    assert_eq!(db.snapshot_stats().caught_up - before, heads);
}

#[test]
fn delta_and_recompute_paths_agree_end_to_end() {
    let run = |path: WritePath| {
        let db = tasky_db_with_data(20);
        db.set_write_path(path);
        db.execute("MATERIALIZE 'TasKy2';").unwrap();
        let mut keys = db.scan("TasKy", "Task").unwrap().keys().collect::<Vec<_>>();
        let mut rng = tasky::rng(3);
        tasky::run_mix(
            &db,
            "Do!",
            inverda::workloads::Mix::STANDARD,
            15,
            &mut keys,
            &mut rng,
        );
        full_snapshot(&db)
    };
    assert_eq!(run(WritePath::Delta), run(WritePath::Recompute));
}

#[test]
fn concurrent_readers_see_consistent_states() {
    use std::sync::Arc;
    let db = Arc::new(tasky_db_with_data(50));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let mut handles = Vec::new();
    for _ in 0..3 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut reads = 0usize;
            barrier.wait();
            loop {
                // Every read must observe the invariant: Do! rows are a
                // subset of TasKy rows.
                let todo = db.scan("Do!", "Todo").unwrap();
                let task = db.scan("TasKy", "Task").unwrap();
                assert!(todo.len() <= task.len());
                reads += 1;
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
            }
            reads
        }));
    }
    barrier.wait();
    for i in 0..30 {
        db.insert(
            "TasKy",
            "Task",
            vec![
                Value::text(format!("c{i}")),
                Value::text(format!("concurrent {i}")),
                Value::Int((i % 3 + 1) as i64),
            ],
        )
        .unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        assert!(h.join().unwrap() > 0);
    }
    assert_eq!(db.count("TasKy", "Task").unwrap(), 80);
}

#[test]
fn scoped_writers_on_disjoint_versions() {
    // Writers on different versions serialize through the engine and all
    // writes land exactly once.
    let db = tasky_db_with_data(10);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..10 {
                db.insert(
                    "TasKy",
                    "Task",
                    vec![
                        Value::text(format!("w1-{i}")),
                        Value::text("x"),
                        Value::Int(1),
                    ],
                )
                .unwrap();
            }
        });
        s.spawn(|| {
            for i in 0..10 {
                db.insert(
                    "Do!",
                    "Todo",
                    vec![Value::text(format!("w2-{i}")), Value::text("y")],
                )
                .unwrap();
            }
        });
    });
    assert_eq!(db.count("TasKy", "Task").unwrap(), 30);
    assert_eq!(db.count("Do!", "Todo").unwrap(), 10 + 10 + 4); // prio-1 seeds
}

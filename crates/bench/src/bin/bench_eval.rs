//! Evaluator hot-path benchmark: compiled engine vs the naive reference
//! interpreter, plus an end-to-end TasKy write-propagation round.
//!
//! Emits `BENCH_eval.json` (current directory) so future PRs have a
//! regression baseline — see EXPERIMENTS.md. Scale knobs:
//! `INVERDA_EVAL_ROWS` (microbench relation size, default 2000),
//! `INVERDA_TASKS` (TasKy load, default 10 000), `INVERDA_EVAL_WRITES`
//! (writes per propagation round, default 100), `INVERDA_EVAL_REPS`
//! (median-of reps, default 5).

use inverda_bench::{banner, env_f64, env_usize, median_time};
use inverda_core::{LogicalWrite, WritePath};
use inverda_datalog::ast::{Atom, Literal, Rule, RuleSet, Term};
use inverda_datalog::eval::{evaluate_compiled, CompiledRuleSet, Evaluator, MapEdb};
use inverda_datalog::{naive, SkolemRegistry};
use inverda_storage::{Expr, Key, Relation, Value};
use inverda_workloads::tasky;
use parking_lot::Mutex;

use std::collections::BTreeMap;
use std::time::Duration;

fn registry() -> Mutex<SkolemRegistry> {
    Mutex::new(SkolemRegistry::new())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Full-scan join: H(q, n) ← B(q, n), A(_, n). The second atom never has a
/// bound key, so the naive engine scans A per B row (quadratic) while the
/// compiled engine probes a column index (linear).
fn bench_full_scan_join(rows: usize, reps: usize) -> (f64, f64, usize) {
    let distinct = (rows / 4).max(1) as i64;
    let mut a = Relation::with_columns("A", ["n"]);
    let mut b = Relation::with_columns("B", ["n"]);
    for i in 0..rows as u64 {
        a.insert(Key(i), vec![Value::Int(i as i64 % distinct)])
            .unwrap();
        b.insert(
            Key(1_000_000 + i),
            vec![Value::Int((i as i64 + 1) % distinct)],
        )
        .unwrap();
    }
    let mut edb = MapEdb::new();
    edb.add(a).add(b);
    let rules = RuleSet::new(vec![Rule::new(
        Atom::vars("H", &["q", "n"]),
        vec![
            Literal::Pos(Atom::vars("B", &["q", "n"])),
            Literal::Pos(Atom::new("A", vec![Term::Anon, Term::var("n")])),
        ],
    )]);
    let crs = CompiledRuleSet::compile(&rules).expect("safe rules");

    let ids = registry();
    let out = evaluate_compiled(&crs, &edb, &ids, &BTreeMap::new()).unwrap();
    let derived = out["H"].len();
    let ids2 = registry();
    let check = naive::evaluate(&rules, &edb, &ids2, &BTreeMap::new()).unwrap();
    assert_eq!(out, check, "engines disagree — bench would be meaningless");

    let naive_t = median_time(reps, || {
        let ids = registry();
        naive::evaluate(&rules, &edb, &ids, &BTreeMap::new()).unwrap()
    });
    let compiled_t = median_time(reps, || {
        let ids = registry();
        // Fresh EDB per rep so the index is rebuilt — charge the build cost.
        let edb = edb.clone();
        evaluate_compiled(&crs, &edb, &ids, &BTreeMap::new()).unwrap()
    });
    (ms(naive_t), ms(compiled_t), derived)
}

/// Key-seeded lookups through a SPLIT-shaped mapping: every lookup takes the
/// key-bound fast path in both engines; the compiled engine must not regress.
fn bench_key_seeded(rows: usize, reps: usize) -> (f64, f64) {
    let mut t = Relation::with_columns("T", ["a", "prio"]);
    for i in 0..rows as u64 {
        t.insert(
            Key(i),
            vec![Value::Int(i as i64), Value::Int((i % 3 + 1) as i64)],
        )
        .unwrap();
    }
    let mut edb = MapEdb::new();
    edb.add(t);
    let vars = ["p", "a", "prio"];
    let rules = RuleSet::new(vec![Rule::new(
        Atom::vars("R", &vars),
        vec![
            Literal::Pos(Atom::vars("T", &vars)),
            Literal::Cond(Expr::col("prio").eq(Expr::lit(1))),
        ],
    )]);
    let crs = CompiledRuleSet::compile(&rules).expect("safe rules");

    let naive_t = median_time(reps, || {
        let ids = registry();
        let mut ev = naive::Evaluator::new(&edb, &ids);
        let mut hits = 0usize;
        for k in 0..rows as u64 {
            if ev.head_row_for_key(&rules, "R", Key(k)).unwrap().is_some() {
                hits += 1;
            }
        }
        hits
    });
    let compiled_t = median_time(reps, || {
        let ids = registry();
        let mut ev = Evaluator::new(&edb, &ids);
        let mut hits = 0usize;
        for k in 0..rows as u64 {
            if ev.head_row_for_key(&crs, "R", Key(k)).unwrap().is_some() {
                hits += 1;
            }
        }
        hits
    });
    (ms(naive_t), ms(compiled_t))
}

/// End-to-end TasKy round: load `tasks` rows, then push `writes` logical
/// writes through the Do! version (two SMO hops each). `snapshot_reuse`
/// toggles the cross-statement snapshot store: disabled, every statement
/// re-resolves virtual relations from scratch (the pre-store behavior and
/// the PR-1 baseline); enabled, reads reuse delta-maintained snapshots.
fn bench_tasky_round(
    tasks: usize,
    writes: usize,
    path: WritePath,
    snapshot_reuse: bool,
) -> (f64, f64) {
    let db = tasky::build();
    db.set_write_path(path);
    db.set_snapshot_reuse(snapshot_reuse);
    let load = median_time(1, || tasky::load_tasks(&db, tasks));
    let round = median_time(1, || run_write_round(&db, writes));
    (ms(load), ms(round))
}

/// The canonical TasKy write round: insert/update pairs through `Do!`,
/// then delete everything inserted (shared by the cold/warm/durable
/// rounds so their timings compare like for like).
fn run_write_round(db: &inverda_core::Inverda, writes: usize) {
    let mut keys = Vec::new();
    for i in 0..writes {
        if i % 2 == 0 {
            let k = db
                .insert(
                    "Do!",
                    "Todo",
                    vec![
                        Value::text(format!("author{:03}", i % 200)),
                        Value::text(format!("bench todo {i}")),
                    ],
                )
                .unwrap();
            keys.push(k);
        } else if let Some(k) = keys.last().copied() {
            db.update(
                "Do!",
                "Todo",
                k,
                vec![
                    Value::text(format!("author{:03}", i % 200)),
                    Value::text(format!("edited {i}")),
                ],
            )
            .unwrap();
        }
    }
    for k in keys {
        db.delete("Do!", "Todo", k).unwrap();
    }
}

/// Durability cost of the write path, and crash-recovery speed.
struct DurableRound {
    off_ms: f64,
    commit_ms: f64,
    group_ms: f64,
    recovery_records: usize,
    recovery_log_bytes: u64,
    recovery_ms: f64,
}

/// The warm TasKy write round at the three durability modes — `off` (pure
/// in-memory), `commit` (fsync per record), `group` (amortized fsync) —
/// with byte-equality of the final state (scans, skolem registry, key
/// sequence) asserted across modes before any number is reported; plus
/// crash-recovery time of [`Inverda::open`] replaying a `records`-record
/// log.
///
/// [`Inverda::open`]: inverda_core::Inverda::open
fn bench_durable_write_round(
    tasks: usize,
    writes: usize,
    records: usize,
    reps: usize,
) -> DurableRound {
    use inverda_core::{DurabilityMode, DurabilityOptions, Inverda};
    let root = std::env::temp_dir().join(format!("inverda-bench-durable-{}", std::process::id()));
    let open_mode = |tag: &str, mode: DurabilityMode| -> (Inverda, std::path::PathBuf) {
        let dir = root.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let db = Inverda::open_in(
            &dir,
            DurabilityOptions {
                mode,
                group_size: 64,
                checkpoint_every: None,
            },
        )
        .expect("open durable db");
        for script in [tasky::SCRIPT_TASKY, tasky::SCRIPT_DO, tasky::SCRIPT_TASKY2] {
            db.execute(script).expect("genealogy");
        }
        (db, dir)
    };
    let state = |db: &Inverda| {
        format!(
            "{}{}{}{}{}{}",
            db.scan("TasKy", "Task").unwrap(),
            db.scan("Do!", "Todo").unwrap(),
            db.scan("TasKy2", "Task").unwrap(),
            db.scan("TasKy2", "Author").unwrap(),
            db.debug_registry(),
            db.debug_key_seq(),
        )
    };
    let mut times = Vec::new();
    let mut baseline: Option<String> = None;
    for (tag, mode) in [
        ("off", DurabilityMode::Off),
        ("commit", DurabilityMode::Commit),
        ("group", DurabilityMode::Group),
    ] {
        let (db, dir) = open_mode(tag, mode);
        tasky::load_tasks(&db, tasks);
        let round = median_time(1, || run_write_round(&db, writes));
        // Durability must not change a byte of the final state.
        let s = state(&db);
        match &baseline {
            None => baseline = Some(s),
            Some(b) => assert_eq!(b, &s, "durability mode {tag} changed the final state"),
        }
        times.push(ms(round));
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    // Recovery from a log of `records` single-insert records.
    let (db, dir) = open_mode("recovery", DurabilityMode::Group);
    for i in 0..records {
        db.insert("TasKy", "Task", tasky::task_row(i))
            .expect("insert");
    }
    db.flush().expect("flush");
    let recovery_log_bytes = db.wal_len().expect("durable db logs");
    let expect_count = db.count("TasKy", "Task").unwrap();
    let expect_seq = db.debug_key_seq();
    drop(db);
    let recovery = median_time(reps.min(3), || {
        let recovered = Inverda::open(&dir).expect("recovery");
        assert_eq!(recovered.count("TasKy", "Task").unwrap(), expect_count);
        assert_eq!(recovered.debug_key_seq(), expect_seq);
    });
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&root).ok();
    DurableRound {
        off_ms: times[0],
        commit_ms: times[1],
        group_ms: times[2],
        recovery_records: records,
        recovery_log_bytes,
        recovery_ms: ms(recovery),
    }
}

struct ServingBench {
    clients: Vec<usize>,
    reads_per_s: Vec<f64>,
    writes_per_s: Vec<f64>,
    write_p50_ms: Vec<f64>,
    write_p99_ms: Vec<f64>,
}

/// The concurrent serving layer vs client count: `c` writer clients push
/// single-insert requests through the commit pipeline while `c` reader
/// threads take epoch-pinned snapshots and scan a *virtual* version.
/// Reports pinned reads/s and the p50/p99 acknowledgement latency of a
/// write.
///
/// Before anything is timed, the same concurrent workload runs once with
/// every acknowledgement recorded, and a plain sequential
/// [`Inverda`](inverda_core::Inverda) replays the acknowledged ops in
/// epoch order: the final states (scans of
/// all three versions, skolem registry, key sequence) must be
/// byte-identical, or the numbers would describe a broken pipeline.
fn bench_concurrent_serving(tasks: usize, writes: usize) -> ServingBench {
    use inverda_core::{Inverda, ServingInverda, ServingOp, ServingOutcome};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    let state = |db: &Inverda| {
        format!(
            "{}{}{}{}{}{}",
            db.scan("TasKy", "Task").unwrap(),
            db.scan("Do!", "Todo").unwrap(),
            db.scan("TasKy2", "Task").unwrap(),
            db.scan("TasKy2", "Author").unwrap(),
            db.debug_registry(),
            db.debug_key_seq(),
        )
    };
    let mut out = ServingBench {
        clients: Vec::new(),
        reads_per_s: Vec::new(),
        writes_per_s: Vec::new(),
        write_p50_ms: Vec::new(),
        write_p99_ms: Vec::new(),
    };
    for clients in [1usize, 2, 4] {
        // Equivalence pass: concurrent, recorded, then replayed
        // single-threaded in epoch order.
        {
            let db = tasky::build();
            tasky::load_tasks(&db, tasks.min(500));
            let serving = ServingInverda::over(db);
            let recs: Mutex<Vec<(u64, ServingOp)>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for c in 0..clients {
                    let client = serving.client();
                    let recs = &recs;
                    scope.spawn(move || {
                        for i in 0..writes.min(50) {
                            let op = ServingOp::Apply {
                                version: "TasKy".to_string(),
                                table: "Task".to_string(),
                                writes: vec![LogicalWrite::Insert(tasky::task_row(
                                    100_000 + c * 10_000 + i,
                                ))],
                            };
                            let reply = client.submit(op.clone());
                            assert!(
                                matches!(reply.outcome, Ok(ServingOutcome::Applied(_))),
                                "serving write failed"
                            );
                            recs.lock().push((reply.epoch, op));
                        }
                    });
                }
            });
            let served = state(serving.db());
            let mut recs = recs.into_inner();
            recs.sort_by_key(|(epoch, _)| *epoch);
            let oracle = tasky::build();
            tasky::load_tasks(&oracle, tasks.min(500));
            for (_, op) in &recs {
                if let ServingOp::Apply {
                    version,
                    table,
                    writes,
                } = op
                {
                    oracle
                        .apply_many(version, table, writes.clone())
                        .expect("oracle apply");
                }
            }
            assert_eq!(
                state(&oracle),
                served,
                "{clients}-client serving diverged from sequential epoch-order replay"
            );
        }

        // Timed pass: writers measure per-acknowledgement latency, readers
        // count epoch-pinned scans of the virtual Do! version meanwhile.
        let db = tasky::build();
        tasky::load_tasks(&db, tasks);
        let serving = Arc::new(ServingInverda::over(db));
        let stop = AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..clients {
                let client = serving.client();
                let latencies = &latencies;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(writes);
                    for i in 0..writes {
                        let t = Instant::now();
                        let reply = client.insert(
                            "TasKy",
                            "Task",
                            tasky::task_row(200_000 + c * 10_000 + i),
                        );
                        local.push(ms(t.elapsed()));
                        assert!(reply.outcome.is_ok(), "serving write failed");
                    }
                    latencies.lock().extend(local);
                });
            }
            for _ in 0..clients {
                let reader = serving.reader();
                let stop = &stop;
                let reads = &reads;
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let pin = reader.pin();
                        let rel = pin.scan("Do!", "Todo").expect("pinned scan");
                        assert!(!rel.is_empty(), "loaded Do! version is empty");
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // Writers run to completion; readers are stopped when the last
            // writer's handle would join (the scope itself joins them), so
            // flag them down once all writes are acknowledged.
            while latencies.lock().len() < clients * writes {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let mut lats = latencies.into_inner();
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| lats[((lats.len() - 1) as f64 * p) as usize];
        out.clients.push(clients);
        out.reads_per_s
            .push(reads.load(Ordering::Relaxed) as f64 / elapsed);
        out.writes_per_s.push((clients * writes) as f64 / elapsed);
        out.write_p50_ms.push(pct(0.5));
        out.write_p99_ms.push(pct(0.99));
    }
    out
}

/// The same insert/update/delete shape as [`bench_tasky_round`]'s write
/// round, submitted as mixed [`LogicalWrite`] batches through `apply_many`
/// (one propagation round per batch of 10) — batching amortization on top
/// of the warm snapshot path. Returns `(elapsed_ms, ops_executed)`: updates
/// reference keys from a *previous* batch, so the first batch contributes
/// no updates and the op count differs slightly from the sequential round.
fn bench_tasky_round_batched(tasks: usize, writes: usize) -> (f64, usize, String) {
    let db = tasky::build();
    db.set_write_path(WritePath::Delta);
    tasky::load_tasks(&db, tasks);
    let mut ops = 0usize;
    let round = median_time(1, || {
        let mut keys = Vec::new();
        let mut pending: Vec<LogicalWrite> = Vec::new();
        ops = 0;
        for i in 0..writes {
            if i % 2 == 0 {
                pending.push(LogicalWrite::Insert(vec![
                    Value::text(format!("author{:03}", i % 200)),
                    Value::text(format!("batched todo {i}")),
                ]));
            } else if let Some(k) = keys.last().copied() {
                pending.push(LogicalWrite::Update(
                    k,
                    vec![
                        Value::text(format!("author{:03}", i % 200)),
                        Value::text(format!("edited {i}")),
                    ],
                ));
            }
            if pending.len() == 10 {
                ops += pending.len();
                let out = db
                    .apply_many("Do!", "Todo", std::mem::take(&mut pending))
                    .unwrap();
                keys.extend(out.into_iter().flatten());
            }
        }
        if !pending.is_empty() {
            ops += pending.len();
            let out = db.apply_many("Do!", "Todo", pending).unwrap();
            keys.extend(out.into_iter().flatten());
        }
        ops += keys.len();
        let deletes: Vec<LogicalWrite> = keys.into_iter().map(LogicalWrite::Delete).collect();
        for chunk in deletes.chunks(10) {
            db.apply_many("Do!", "Todo", chunk.to_vec()).unwrap();
        }
    });
    let state = format!(
        "{}{}{}{}",
        db.scan("TasKy", "Task").unwrap(),
        db.scan("Do!", "Todo").unwrap(),
        db.debug_registry(),
        db.debug_key_seq()
    );
    (ms(round), ops, state)
}

/// Whole-database Wikimedia migration: bulk-load at the load version, then
/// `MATERIALIZE` the head version (62 hops of whole-relation evaluation)
/// and migrate back. The paper's "relocate the physical schema"
/// story at workload scale — runnable at `INVERDA_WIKI_SCALE=1.0` (CI runs
/// the smoke scale).
struct WikiMaterialize {
    rows_page: usize,
    rows_links: usize,
    to_head_ms: f64,
    back_ms: f64,
}

fn bench_wiki_materialize(scale: f64) -> WikiMaterialize {
    use inverda_workloads::wikimedia;
    let db = wikimedia::install();
    let load_v = wikimedia::version_name(wikimedia::LOAD_VERSION);
    let head_v = wikimedia::version_name(171);
    db.execute(&format!("MATERIALIZE '{load_v}';"))
        .expect("materialize load version");
    wikimedia::load_akan(&db, wikimedia::LOAD_VERSION, scale);
    let to_head = median_time(1, || {
        db.materialize(std::slice::from_ref(&head_v))
            .expect("materialize head");
    });
    let rows_page = db.count(&head_v, "page").expect("count");
    let rows_links = db.count(&head_v, "links").expect("count");
    let back = median_time(1, || {
        db.materialize(std::slice::from_ref(&load_v))
            .expect("materialize back");
    });
    // The round-trip must land where it started.
    assert_eq!(db.count(&head_v, "page").expect("count"), rows_page);
    WikiMaterialize {
        rows_page,
        rows_links,
        to_head_ms: ms(to_head),
        back_ms: ms(back),
    }
}

/// The branching layer: branch-create latency over a loaded trunk (the
/// O(1) copy-on-write fork of storage, snapshot store, compiled caches,
/// and skolem registry), warm reads on a fresh fork vs the trunk (the
/// fork inherits the parent's warm snapshots), and a merge of N disjoint
/// writes back into `main`.
///
/// Before anything is timed, the whole fork/write/merge scenario runs
/// once and the merged trunk is asserted byte-identical — rows, registry
/// dump, key sequence — to a fresh single-branch engine replaying the
/// trunk's linear operation history; broken merge semantics would make
/// every number below meaningless.
struct BranchBench {
    create_us: f64,
    warm_read_main_ms: f64,
    warm_read_fork_ms: f64,
    merge_ops: usize,
    merge_ms: f64,
    merge_applied: usize,
}

fn branching_state(db: &inverda_core::Inverda) -> String {
    let mut out = String::new();
    for v in db.versions() {
        let mut tables = db.tables_of(&v).expect("tables");
        tables.sort();
        for t in tables {
            out.push_str(&format!("{v}.{t}:\n{}", db.scan(&v, &t).expect("scan")));
        }
    }
    out.push_str(&db.debug_registry());
    out.push_str(&format!("key_seq={}", db.debug_key_seq()));
    out
}

fn bench_branching(tasks: usize, writes: usize, reps: usize) -> BranchBench {
    use inverda_core::{BranchOp, BranchingInverda, LogicalWrite, MAIN_BRANCH};

    let build = || {
        let manager = BranchingInverda::new_in_memory();
        let main = manager.main();
        main.execute(tasky::SCRIPT_TASKY).expect("TasKy");
        main.execute(tasky::SCRIPT_DO).expect("Do!");
        let rows: Vec<LogicalWrite> = (0..tasks)
            .map(|i| LogicalWrite::Insert(tasky::task_row(i)))
            .collect();
        main.apply_many("TasKy", "Task", rows).expect("bulk load");
        main.scan("Do!", "Todo").expect("prime the Do! snapshot");
        (manager, main)
    };
    // N disjoint writes on the staging fork: each is its own logical op,
    // so the merge rebases N operations.
    let stage = |staging: &inverda_core::Branch| {
        for i in 0..writes {
            staging
                .insert("TasKy", "Task", tasky::task_row(tasks + i))
                .expect("staging insert");
        }
    };

    // Correctness pass (byte-equality before timing).
    {
        let (manager, main) = build();
        let staging = manager.branch("staging").expect("fork");
        stage(&staging);
        manager.merge("staging", MAIN_BRANCH).expect("merge");
        let replayed = inverda_core::Inverda::new_in_memory();
        for e in main.history().expect("history") {
            match &e.op {
                BranchOp::Execute(script) => {
                    replayed.execute(script).expect("replay");
                }
                BranchOp::ApplyMany {
                    version,
                    table,
                    writes,
                } => {
                    replayed
                        .apply_many(version, table, writes.clone())
                        .expect("replay");
                }
            }
        }
        assert_eq!(
            branching_state(&main.engine().expect("engine")),
            branching_state(&replayed),
            "merged trunk diverged from its linear replay"
        );
    }

    // Timing passes.
    let (manager, main) = build();
    let mut n = 0usize;
    let create = median_time(reps.max(10), || {
        n += 1;
        manager
            .branch_from(MAIN_BRANCH, &format!("bench-{n}"))
            .expect("fork")
    });
    for i in 1..=n {
        manager.drop_branch(&format!("bench-{i}")).ok();
    }

    let fork = manager.branch("reader").expect("fork");
    let trunk_rel = main.scan("Do!", "Todo").expect("scan");
    let fork_rel = fork.scan("Do!", "Todo").expect("scan");
    assert_eq!(
        trunk_rel.to_string(),
        fork_rel.to_string(),
        "a fresh fork must read exactly the trunk's bytes"
    );
    let warm_main = median_time(reps, || main.scan("Do!", "Todo").expect("scan"));
    let warm_fork = median_time(reps, || fork.scan("Do!", "Todo").expect("scan"));
    manager.drop_branch("reader").expect("drop reader");

    let staging = manager.branch("staging").expect("fork");
    stage(&staging);
    let mut applied = 0usize;
    let merge = median_time(1, || {
        applied = manager
            .merge("staging", MAIN_BRANCH)
            .expect("merge")
            .applied;
    });

    BranchBench {
        create_us: ms(create) * 1000.0,
        warm_read_main_ms: ms(warm_main),
        warm_read_fork_ms: ms(warm_fork),
        merge_ops: writes,
        merge_ms: ms(merge),
        merge_applied: applied,
    }
}

/// One query-pushdown measurement: the same filtered read answered by the
/// query layer (pushdown) and by scan + client-side filter, byte-equality
/// asserted before timing.
struct PushdownEntry {
    label: &'static str,
    scan_filter_ms: f64,
    pushdown_ms: f64,
    rows: usize,
}

impl PushdownEntry {
    fn speedup(&self) -> f64 {
        self.scan_filter_ms / self.pushdown_ms.max(f64::EPSILON)
    }

    fn json(&self) -> String {
        format!(
            r#""{}": {{ "scan_filter_ms": {:.3}, "pushdown_ms": {:.3}, "speedup": {:.2}, "rows": {} }}"#,
            self.label,
            self.scan_filter_ms,
            self.pushdown_ms,
            self.speedup(),
            self.rows
        )
    }
}

/// Time one (query, oracle) pair: assert byte-equality first, then take
/// medians. `warm` keeps the snapshot store on (primed by the equality
/// check); cold disables reuse so every run re-resolves or pushes down.
fn measure_pushdown(
    label: &'static str,
    reps: usize,
    query: &dyn Fn() -> inverda_storage::Relation,
    oracle: &dyn Fn() -> inverda_storage::Relation,
) -> PushdownEntry {
    let q = query();
    let o = oracle();
    assert_eq!(q.len(), o.len(), "{label}: pushdown row count diverged");
    for (k, row) in o.iter() {
        assert_eq!(
            q.get(k),
            Some(row),
            "{label}: pushdown rows diverged at {k}"
        );
    }
    let scan_filter = median_time(reps, || oracle().len());
    let pushdown = median_time(reps, || query().len());
    PushdownEntry {
        label,
        scan_filter_ms: ms(scan_filter),
        pushdown_ms: ms(pushdown),
        rows: q.len(),
    }
}

/// Scan + client-side filter oracle over `version.table` (the shape every
/// filtered read had before the query layer).
fn scan_filter(
    db: &inverda_core::Inverda,
    version: &str,
    table: &str,
    pred: &inverda_storage::BoundExpr,
    limit: Option<usize>,
) -> inverda_storage::Relation {
    let rel = db.scan(version, table).expect("scan");
    let mut out = inverda_storage::Relation::new(rel.schema().clone());
    let mut taken = 0usize;
    for (k, row) in rel.iter() {
        if pred.matches(row).unwrap() {
            out.upsert(k, row.clone()).unwrap();
            taken += 1;
            if limit.is_some_and(|n| taken >= n) {
                break;
            }
        }
    }
    out
}

/// The TasKy half of the query-pushdown section: point, selective, range,
/// and limit-k reads on the virtual `Do!`/`TasKy` versions, cold (snapshot
/// reuse off — pushdown seeds through the SPLIT/DROP chain, the oracle
/// re-materializes) and warm (store primed — pushdown probes cached
/// indexes).
fn bench_query_pushdown_tasky(
    tasks: usize,
    reps: usize,
) -> (Vec<PushdownEntry>, Vec<PushdownEntry>) {
    use inverda_storage::BoundExpr;
    let db = tasky::build();
    tasky::load_tasks(&db, tasks);
    type Spec = (
        &'static str,
        &'static str,
        &'static str,
        Expr,
        Option<usize>,
    );
    let specs: Vec<Spec> = vec![
        (
            "point",
            "Do!",
            "Todo",
            Expr::col("author").eq(Expr::lit("author007")),
            None,
        ),
        (
            "selective",
            "Do!",
            "Todo",
            Expr::col("task").eq(Expr::lit("task number 42")),
            None,
        ),
        (
            "range",
            "TasKy",
            "Task",
            Expr::col("prio").ge(Expr::lit(2)),
            None,
        ),
        (
            "limit_k",
            "Do!",
            "Todo",
            Expr::col("author").eq(Expr::lit("author007")),
            Some(10),
        ),
    ];
    let mut out = Vec::new();
    for warm in [false, true] {
        db.set_snapshot_reuse(warm);
        let mut entries = Vec::new();
        for (label, version, table, filter, limit) in &specs {
            let columns = db.columns_of(version, table).unwrap();
            let bound = BoundExpr::bind(filter, table, &columns).unwrap();
            if warm {
                // Prime the store (and its indexes) once.
                db.scan(version, table).unwrap();
            }
            let query = || {
                let mut q = db.query(version, table).filter(filter.clone());
                if let Some(n) = limit {
                    q = q.limit(*n);
                }
                q.collect().expect("query")
            };
            let oracle = || scan_filter(&db, version, table, &bound, *limit);
            entries.push(measure_pushdown(label, reps, &query, &oracle));
        }
        out.push(entries);
    }
    db.set_snapshot_reuse(true);
    let warm = out.pop().expect("two passes");
    let cold = out.pop().expect("two passes");
    (cold, warm)
}

/// The Wikimedia half: a selective point probe (`title = 'Page_7'`) on the
/// 171st version while the data physically lives at the load version — the
/// fig12 QET shape. Cold, pushdown walks the whole mapping chain touching
/// only the matching row; the oracle materializes it.
fn bench_query_pushdown_wiki(scale: f64, reps: usize) -> (Vec<PushdownEntry>, Vec<PushdownEntry>) {
    use inverda_storage::BoundExpr;
    use inverda_workloads::wikimedia;
    let db = wikimedia::install();
    // Like fig12: relocate the physical schema to the load version first so
    // the bulk load is local, then leave the queried 171st version virtual
    // behind the 62-hop mapping chain.
    db.execute(&format!(
        "MATERIALIZE '{}';",
        wikimedia::version_name(wikimedia::LOAD_VERSION)
    ))
    .expect("materialize load version");
    wikimedia::load_akan(&db, wikimedia::LOAD_VERSION, scale);
    let version = wikimedia::version_name(171);
    let filter = Expr::col("title").eq(Expr::lit(format!("Page_{}", wikimedia::PROBE_TITLE_I)));
    let columns = db.columns_of(&version, "page").unwrap();
    let bound = BoundExpr::bind(&filter, "page", &columns).unwrap();
    let mut out = Vec::new();
    for warm in [false, true] {
        db.set_snapshot_reuse(warm);
        if warm {
            db.scan(&version, "page").unwrap();
        }
        let query = || {
            db.query(&version, "page")
                .filter(filter.clone())
                .collect()
                .expect("query")
        };
        let oracle = || scan_filter(&db, &version, "page", &bound, None);
        out.push(vec![measure_pushdown("point_v171", reps, &query, &oracle)]);
    }
    db.set_snapshot_reuse(true);
    let warm = out.pop().expect("two passes");
    let cold = out.pop().expect("two passes");
    (cold, warm)
}

/// One γ-chain-fusion sweep (indices align with `versions`/`depths`).
struct ChainFusion {
    versions: Vec<usize>,
    depths: Vec<usize>,
    qet_fused_ms: Vec<f64>,
    qet_unfused_ms: Vec<f64>,
    probe_fused_ms: Vec<f64>,
    probe_unfused_ms: Vec<f64>,
}

impl ChainFusion {
    /// max/min ratio across depths — ~1 means flat in chain length.
    fn flatness(xs: &[f64]) -> f64 {
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(0.0f64, f64::max);
        max / min.max(f64::EPSILON)
    }
}

/// Fig12 vs chain depth, fusion on/off: cold full QET (scan `page` +
/// `links`) and the cold point probe at versions increasingly far above the
/// load version, on the Wikimedia genealogy. **Byte-equality is asserted
/// before timing**: both settings must produce identical rows at every
/// measured version *and* identical skolem registry / key-sequence dumps.
/// With fusion on, the whole ADD/DROP/RENAME run above the load version
/// composes into one fused rule set per queried version, so both curves
/// should be flat in depth instead of linear.
fn bench_chain_fusion(scale: f64, reps: usize) -> ChainFusion {
    use inverda_workloads::wikimedia;
    let db = wikimedia::install();
    db.execute(&format!(
        "MATERIALIZE '{}';",
        wikimedia::version_name(wikimedia::LOAD_VERSION)
    ))
    .expect("materialize load version");
    wikimedia::load_akan(&db, wikimedia::LOAD_VERSION, scale);
    db.set_snapshot_reuse(false); // every measurement below is cold
    let versions = vec![115usize, 130, 145, 160, 171];
    let fingerprint = |on: bool| -> String {
        inverda_datalog::fusion::set_enabled(Some(on));
        let mut s = String::new();
        for &v in &versions {
            let name = wikimedia::version_name(v);
            for table in ["page", "links"] {
                s.push_str(&db.scan(&name, table).expect("wiki scan").to_string());
            }
            s.push_str(&wikimedia::probe_version(&db, v).to_string());
        }
        s.push_str(&db.debug_registry());
        s.push_str(&db.debug_key_seq().to_string());
        s
    };
    let fused_state = fingerprint(true);
    let unfused_state = fingerprint(false);
    assert_eq!(
        fused_state, unfused_state,
        "γ-chain fusion changed resolved bytes (rows or registries)"
    );
    let mut out = ChainFusion {
        versions: versions.clone(),
        depths: versions
            .iter()
            .map(|v| v - wikimedia::LOAD_VERSION)
            .collect(),
        qet_fused_ms: Vec::new(),
        qet_unfused_ms: Vec::new(),
        probe_fused_ms: Vec::new(),
        probe_unfused_ms: Vec::new(),
    };
    for &v in &versions {
        for on in [true, false] {
            inverda_datalog::fusion::set_enabled(Some(on));
            let qet = median_time(reps, || wikimedia::query_version(&db, v));
            let probe = median_time(reps, || wikimedia::probe_version(&db, v));
            if on {
                out.qet_fused_ms.push(ms(qet));
                out.probe_fused_ms.push(ms(probe));
            } else {
                out.qet_unfused_ms.push(ms(qet));
                out.probe_unfused_ms.push(ms(probe));
            }
        }
    }
    inverda_datalog::fusion::set_enabled(None);
    db.set_snapshot_reuse(true);
    out
}

fn main() {
    banner(
        "Evaluator hot path: compiled vs naive",
        "the engine behind Figs. 8/11/13 read & write paths",
    );
    let rows = env_usize("INVERDA_EVAL_ROWS", 2_000);
    let tasks = env_usize("INVERDA_TASKS", 10_000);
    let writes = env_usize("INVERDA_EVAL_WRITES", 100);
    let reps = env_usize("INVERDA_EVAL_REPS", 5);

    println!("-- full-scan join ({rows} rows/side, median of {reps})");
    let (join_naive, join_compiled, derived) = bench_full_scan_join(rows, reps);
    let join_speedup = join_naive / join_compiled.max(f64::EPSILON);
    println!("   naive:    {join_naive:10.2} ms");
    println!("   compiled: {join_compiled:10.2} ms   ({derived} derived rows)");
    println!("   speedup:  {join_speedup:10.1}x");

    println!("-- key-seeded lookups ({rows} lookups, median of {reps})");
    let (key_naive, key_compiled) = bench_key_seeded(rows, reps);
    let key_speedup = key_naive / key_compiled.max(f64::EPSILON);
    println!("   naive:    {key_naive:10.2} ms");
    println!("   compiled: {key_compiled:10.2} ms");
    println!("   speedup:  {key_speedup:10.1}x");

    println!("-- TasKy write-propagation round ({tasks} tasks, {writes} writes)");
    let (load_delta, round_cold) = bench_tasky_round(tasks, writes, WritePath::Delta, false);
    let (_, round_recompute) = bench_tasky_round(tasks, writes, WritePath::Recompute, false);
    let (_, round_warm) = bench_tasky_round(tasks, writes, WritePath::Delta, true);
    let (batched_warm, batched_ops, _) = bench_tasky_round_batched(tasks, writes);
    // insert/update pairs plus the cleanup deletes.
    let ops = writes + writes / 2;
    let cold_wps = ops as f64 / (round_cold / 1e3);
    let warm_wps = ops as f64 / (round_warm / 1e3);
    let batched_wps = batched_ops as f64 / (batched_warm / 1e3);
    let warm_speedup = round_cold / round_warm.max(f64::EPSILON);
    println!("   bulk load (delta path):    {load_delta:10.2} ms");
    println!("   round, cold resolution:    {round_cold:10.2} ms ({cold_wps:.0} writes/s)");
    println!("   round via recompute:       {round_recompute:10.2} ms");
    println!("   round, warm snapshots:     {round_warm:10.2} ms ({warm_wps:.0} writes/s, {warm_speedup:.1}x)");
    println!("   round, warm + apply_many:  {batched_warm:10.2} ms ({batched_wps:.0} writes/s)");

    let durable_records = env_usize("INVERDA_DURABLE_RECORDS", 10_000);
    println!("-- durable write round ({tasks} tasks, {writes} writes; recovery from {durable_records} records)");
    let durable = bench_durable_write_round(tasks, writes, durable_records, reps);
    let commit_overhead = durable.commit_ms / durable.off_ms.max(f64::EPSILON);
    let group_overhead = durable.group_ms / durable.off_ms.max(f64::EPSILON);
    println!("   round, durability off:     {:10.2} ms", durable.off_ms);
    println!(
        "   round, per-record commit:  {:10.2} ms ({commit_overhead:.2}x off)",
        durable.commit_ms
    );
    println!(
        "   round, group commit:       {:10.2} ms ({group_overhead:.2}x off)",
        durable.group_ms
    );
    println!(
        "   recovery ({} records, {} KiB log): {:10.2} ms",
        durable.recovery_records,
        durable.recovery_log_bytes / 1024,
        durable.recovery_ms
    );

    println!(
        "-- concurrent serving ({tasks} tasks, {writes} writes/client, pinned readers on Do!)"
    );
    let serving = bench_concurrent_serving(tasks, writes);
    for (i, c) in serving.clients.iter().enumerate() {
        println!(
            "   {c} client(s): {:>9.0} pinned reads/s | {:>8.0} writes/s | ack p50 {:>7.3} ms, p99 {:>7.3} ms",
            serving.reads_per_s[i],
            serving.writes_per_s[i],
            serving.write_p50_ms[i],
            serving.write_p99_ms[i]
        );
    }

    let wiki_scale = env_f64("INVERDA_WIKI_SCALE", 0.1);
    println!("-- query pushdown (TasKy {tasks} tasks; Wikimedia scale {wiki_scale})");
    let (tasky_qp_cold, tasky_qp_warm) = bench_query_pushdown_tasky(tasks, reps);
    let (wiki_qp_cold, wiki_qp_warm) = bench_query_pushdown_wiki(wiki_scale, reps.min(3));
    let print_entries = |tag: &str, entries: &[PushdownEntry]| {
        for e in entries {
            println!(
                "   {tag:>12} {:<10} scan+filter {:>10.2} ms | pushdown {:>10.2} ms | {:>7.1}x ({} rows)",
                e.label,
                e.scan_filter_ms,
                e.pushdown_ms,
                e.speedup(),
                e.rows
            );
        }
    };
    print_entries("tasky/cold", &tasky_qp_cold);
    print_entries("tasky/warm", &tasky_qp_warm);
    print_entries("wiki/cold", &wiki_qp_cold);
    print_entries("wiki/warm", &wiki_qp_warm);

    println!("-- γ-chain fusion (Wikimedia scale {wiki_scale}, cold, fusion on/off)");
    let fusion = bench_chain_fusion(wiki_scale, reps.min(3));
    for (i, v) in fusion.versions.iter().enumerate() {
        println!(
            "   v{v:03} (depth {:>2}): QET {:>9.2} ms fused | {:>9.2} ms unfused || probe {:>8.2} ms fused | {:>8.2} ms unfused",
            fusion.depths[i],
            fusion.qet_fused_ms[i],
            fusion.qet_unfused_ms[i],
            fusion.probe_fused_ms[i],
            fusion.probe_unfused_ms[i]
        );
    }
    let qet_flat_fused = ChainFusion::flatness(&fusion.qet_fused_ms);
    let qet_flat_unfused = ChainFusion::flatness(&fusion.qet_unfused_ms);
    let probe_flat_fused = ChainFusion::flatness(&fusion.probe_fused_ms);
    let probe_flat_unfused = ChainFusion::flatness(&fusion.probe_unfused_ms);
    let last = fusion.versions.len() - 1;
    let qet_speedup_deep =
        fusion.qet_unfused_ms[last] / fusion.qet_fused_ms[last].max(f64::EPSILON);
    let probe_speedup_deep =
        fusion.probe_unfused_ms[last] / fusion.probe_fused_ms[last].max(f64::EPSILON);
    println!(
        "   flatness (max/min over depth): QET {qet_flat_fused:.2} fused vs {qet_flat_unfused:.2} unfused | probe {probe_flat_fused:.2} fused vs {probe_flat_unfused:.2} unfused"
    );
    println!(
        "   at depth {}: QET {qet_speedup_deep:.1}x, probe {probe_speedup_deep:.1}x",
        fusion.depths[last]
    );

    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "-- wikimedia materialize (scale {wiki_scale}, {} hops)",
        171 - 109
    );
    let wiki_mat = bench_wiki_materialize(wiki_scale);
    println!(
        "   to head:  {:10.2} ms ({} page rows, {} links rows)",
        wiki_mat.to_head_ms, wiki_mat.rows_page, wiki_mat.rows_links
    );
    println!("   back:     {:10.2} ms", wiki_mat.back_ms);

    println!("-- branching ({tasks}-task trunk; merge of {writes} disjoint writes)");
    let branching = bench_branching(tasks, writes, reps);
    println!("   branch create:     {:10.3} us", branching.create_us);
    println!(
        "   warm read, trunk:  {:10.3} ms | fork: {:10.3} ms",
        branching.warm_read_main_ms, branching.warm_read_fork_ms
    );
    println!(
        "   merge of {} ops:   {:10.2} ms ({} replayed)",
        branching.merge_ops, branching.merge_ms, branching.merge_applied
    );

    let fmt_list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let join_entries = |entries: &[PushdownEntry]| {
        entries
            .iter()
            .map(PushdownEntry::json)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let tasky_qp_cold_json = join_entries(&tasky_qp_cold);
    let tasky_qp_warm_json = join_entries(&tasky_qp_warm);
    let wiki_qp_cold_json = join_entries(&wiki_qp_cold);
    let wiki_qp_warm_json = join_entries(&wiki_qp_warm);

    let fusion_versions = fusion
        .versions
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let fusion_depths = fusion
        .depths
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let qet_fused_list = fmt_list(&fusion.qet_fused_ms);
    let qet_unfused_list = fmt_list(&fusion.qet_unfused_ms);
    let probe_fused_list = fmt_list(&fusion.probe_fused_ms);
    let probe_unfused_list = fmt_list(&fusion.probe_unfused_ms);

    let serving_clients = serving
        .clients
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let serving_reads = fmt_list(&serving.reads_per_s);
    let serving_writes = fmt_list(&serving.writes_per_s);
    let serving_p50 = fmt_list(&serving.write_p50_ms);
    let serving_p99 = fmt_list(&serving.write_p99_ms);

    let DurableRound {
        off_ms,
        commit_ms,
        group_ms,
        recovery_records,
        recovery_log_bytes,
        recovery_ms,
    } = durable;
    let WikiMaterialize {
        rows_page,
        rows_links,
        to_head_ms,
        back_ms,
    } = wiki_mat;
    let BranchBench {
        create_us,
        warm_read_main_ms,
        warm_read_fork_ms,
        merge_ops,
        merge_ms,
        merge_applied,
    } = branching;
    let json = format!(
        r#"{{
  "bench": "eval",
  "config": {{ "rows": {rows}, "tasks": {tasks}, "writes": {writes}, "reps": {reps} }},
  "full_scan_join": {{
    "naive_ms": {join_naive:.3},
    "compiled_ms": {join_compiled:.3},
    "speedup": {join_speedup:.2},
    "derived_rows": {derived}
  }},
  "key_seeded_lookup": {{
    "naive_ms": {key_naive:.3},
    "compiled_ms": {key_compiled:.3},
    "speedup": {key_speedup:.2}
  }},
  "tasky_write_round": {{
    "bulk_load_ms": {load_delta:.3},
    "delta_path_ms": {round_cold:.3},
    "recompute_path_ms": {round_recompute:.3},
    "delta_writes_per_s": {cold_wps:.0}
  }},
  "tasky_write_round_warm": {{
    "delta_path_ms": {round_warm:.3},
    "delta_writes_per_s": {warm_wps:.0},
    "speedup_over_cold": {warm_speedup:.2},
    "apply_many_ms": {batched_warm:.3},
    "apply_many_writes_per_s": {batched_wps:.0}
  }},
  "durable_write_round": {{
    "off_ms": {off_ms:.3},
    "commit_ms": {commit_ms:.3},
    "group_ms": {group_ms:.3},
    "commit_overhead": {commit_overhead:.2},
    "group_overhead": {group_overhead:.2},
    "recovery_records": {recovery_records},
    "recovery_log_bytes": {recovery_log_bytes},
    "recovery_ms": {recovery_ms:.3}
  }},
  "concurrent_serving": {{
    "clients": [{serving_clients}],
    "pinned_reads_per_s": [{serving_reads}],
    "writes_per_s": [{serving_writes}],
    "write_ack_p50_ms": [{serving_p50}],
    "write_ack_p99_ms": [{serving_p99}]
  }},
  "query_pushdown": {{
    "tasky": {{
      "cold": {{ {tasky_qp_cold_json} }},
      "warm": {{ {tasky_qp_warm_json} }}
    }},
    "wikimedia": {{
      "scale": {wiki_scale},
      "cold": {{ {wiki_qp_cold_json} }},
      "warm": {{ {wiki_qp_warm_json} }}
    }}
  }},
  "chain_fusion": {{
    "scale": {wiki_scale},
    "versions": [{fusion_versions}],
    "depths": [{fusion_depths}],
    "cold_qet_fused_ms": [{qet_fused_list}],
    "cold_qet_unfused_ms": [{qet_unfused_list}],
    "cold_probe_fused_ms": [{probe_fused_list}],
    "cold_probe_unfused_ms": [{probe_unfused_list}],
    "qet_flatness_fused": {qet_flat_fused:.2},
    "qet_flatness_unfused": {qet_flat_unfused:.2},
    "probe_flatness_fused": {probe_flat_fused:.2},
    "probe_flatness_unfused": {probe_flat_unfused:.2},
    "qet_speedup_at_max_depth": {qet_speedup_deep:.2},
    "probe_speedup_at_max_depth": {probe_speedup_deep:.2}
  }},
  "wiki_materialize": {{
    "available_parallelism": {avail},
    "scale": {wiki_scale},
    "rows_page": {rows_page},
    "rows_links": {rows_links},
    "to_head_ms": {to_head_ms:.3},
    "back_ms": {back_ms:.3}
  }},
  "branching": {{
    "create_us": {create_us:.3},
    "warm_read_main_ms": {warm_read_main_ms:.3},
    "warm_read_fork_ms": {warm_read_fork_ms:.3},
    "merge_ops": {merge_ops},
    "merge_applied": {merge_applied},
    "merge_ms": {merge_ms:.3}
  }}
}}
"#
    );
    std::fs::write("BENCH_eval.json", &json).expect("write BENCH_eval.json");
    println!("\nwrote BENCH_eval.json");
}

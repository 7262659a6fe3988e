//! Differential testing of the branching layer (`inverda_core::branch`).
//!
//! The standing invariant of the branch subsystem is *replay
//! equivalence*: a branch's visible state — every version's rows
//! (including tuple identifiers and skolem-minted ids), the registry
//! dump, and the key sequence — must be byte-identical to a **fresh
//! single-branch engine** replaying exactly that branch's stamped
//! operation history. Forks inherit the parent's history; a merge appends
//! the source's operations rewritten to be self-contained on the
//! destination; so the check holds across arbitrary fork/write/DDL/merge
//! interleavings, and comparing the (warm, cache-carrying) live branch
//! against the (cold, cache-free) oracle doubles as the warm ≡ cold
//! proof.
//!
//! Covered here:
//! * random fork trees with per-branch write/DDL interleavings, warm and
//!   cold, in memory or on a group-commit branch log — every branch ≡ its
//!   history replayed;
//! * random **disjoint** divergent writes on two forks merged back into
//!   `main` — the merge must commit, union the content, and leave `main`
//!   ≡ its (canonical linear order) history;
//! * deterministic conflict/fast-forward behavior, and the cache-scoping
//!   regression: `MATERIALIZE` on one branch must not cold-start a
//!   sibling's fused chains or snapshot entries.
//!
//! Every property opens its manager in memory or durable, drawn per case,
//! so the branch log and its residue records run under the random
//! workloads too, not only under the dedicated recovery test.

mod common;

use common::{group_commit, state, TempDir};
use inverda_core::branch::BranchOp;
use inverda_core::{Branch, BranchingInverda, CoreError, HistoryEntry, Inverda, MAIN_BRANCH};
use inverda_storage::{Key, Value};
use proptest::prelude::*;

/// A fresh manager with one empty `main` branch: in memory, or on a
/// group-commit branch log in a directory removed with the returned guard
/// (which must outlive the manager).
fn open_manager(durable: bool) -> (BranchingInverda, Option<TempDir>) {
    if !durable {
        return (BranchingInverda::new(), None);
    }
    let dir = TempDir::new("branch");
    let manager = BranchingInverda::open_in(dir.path(), group_commit()).expect("open durable");
    (manager, Some(dir))
}

/// The oracle: a fresh single-branch engine replaying `history` — each
/// entry's outcome must match what the live branch recorded.
fn replay(history: &[HistoryEntry], cold: bool) -> Inverda {
    let db = Inverda::new_in_memory();
    db.set_snapshot_reuse(!cold);
    for e in history {
        let ok = match &e.op {
            BranchOp::Execute(script) => db.execute(script).is_ok(),
            BranchOp::ApplyMany {
                version,
                table,
                writes,
            } => db.apply_many(version, table, writes.clone()).is_ok(),
        };
        assert_eq!(
            ok, e.ok,
            "replayed outcome diverged from recorded outcome at stamp {}: {:?}",
            e.stamp, e.op
        );
    }
    db
}

/// Every table-version and SMO id of an engine's genealogy, with the
/// relation names derived from them.
fn catalog_ids(db: &Inverda) -> String {
    db.with_genealogy(|g| {
        let tables: Vec<&str> = g.table_versions().map(|tv| tv.rel.as_str()).collect();
        let aux: Vec<&str> = g
            .smos()
            .flat_map(|smo| smo.derived.all_aux().map(|aux| aux.rel.as_str()))
            .collect();
        format!("{tables:?} {:?} {aux:?}", g.smo_ids())
    })
}

fn assert_branch_equals_replay(branch: &Branch, cold: bool, context: &str) {
    let engine = branch.engine().expect("engine");
    let live = state(&engine);
    let oracle = replay(&branch.history().expect("history"), cold);
    assert_eq!(
        live,
        state(&oracle),
        "branch '{}' diverged from its history replay ({context})",
        branch.name()
    );
    // Same catalog ids — dropped versions retire theirs without rewinding
    // the counters, on the live side and in replay alike — and the next
    // CREATE mints the same ones on both sides (tried on a scratch fork:
    // the branch itself must not move behind its history's back).
    assert_eq!(catalog_ids(&engine), catalog_ids(&oracle), "{context}");
    let scratch = engine.fork_detached();
    let next = "CREATE SCHEMA VERSION Next FROM G0 WITH ADD COLUMN next AS 0 INTO T0;";
    scratch.execute(next).expect("create on the fork");
    oracle.execute(next).expect("create on the replay");
    assert_eq!(catalog_ids(&scratch), catalog_ids(&oracle), "{context}");
}

// ---------------------------------------------------------------------
// Random fork trees with per-branch write/DDL interleavings.
// ---------------------------------------------------------------------

/// One generated action against the branch family. Branch/slot selectors
/// are reduced modulo the live population when applied.
#[derive(Debug, Clone)]
enum Action {
    /// Fork a new branch off an existing one.
    Fork { parent: usize },
    /// CREATE SCHEMA VERSION on a branch, one SMO ahead of its newest —
    /// or (`hop == 4`) a scratch version created on the newest and dropped
    /// again, which retires catalog ids mid-history.
    Ddl { branch: usize, hop: u8 },
    /// Insert through a branch's newest (or base) version.
    Insert {
        branch: usize,
        head: bool,
        vals: Vec<i64>,
    },
    /// Update a previously minted key on the branch.
    Update {
        branch: usize,
        head: bool,
        slot: usize,
        vals: Vec<i64>,
    },
    /// Delete a previously minted key on the branch.
    Delete { branch: usize, slot: usize },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0usize..4).prop_map(|parent| Action::Fork { parent }),
        (0usize..4, 0u8..5).prop_map(|(branch, hop)| Action::Ddl { branch, hop }),
        (
            0usize..4,
            any::<bool>(),
            prop::collection::vec(0i64..6, 3..4)
        )
            .prop_map(|(branch, head, vals)| Action::Insert { branch, head, vals }),
        (
            0usize..4,
            any::<bool>(),
            prop::collection::vec(0i64..6, 3..4)
        )
            .prop_map(|(branch, head, vals)| Action::Insert { branch, head, vals }),
        (
            0usize..4,
            any::<bool>(),
            0usize..10,
            prop::collection::vec(0i64..6, 3..4)
        )
            .prop_map(|(branch, head, slot, vals)| Action::Update {
                branch,
                head,
                slot,
                vals
            }),
        (0usize..4, 0usize..10).prop_map(|(branch, slot)| Action::Delete { branch, slot }),
    ]
}

/// Test-side model of one branch: its handle plus enough genealogy
/// bookkeeping to generate valid statements.
struct Model {
    branch: Branch,
    /// Newest schema version and its (tracked) table + columns.
    version: String,
    table: String,
    cols: Vec<String>,
    /// Keys minted through this lineage (inherited on fork).
    keys: Vec<Key>,
}

fn row_for(db: &Inverda, version: &str, table: &str, vals: &[i64]) -> Vec<Value> {
    let cols = db.columns_of(version, table).expect("columns");
    (0..cols.len())
        .map(|j| {
            let v = vals[j % vals.len()];
            if j == 0 {
                Value::Int(v)
            } else {
                Value::text(format!("p{j}v{}", v % 3))
            }
        })
        .collect()
}

fn apply_action(manager: &BranchingInverda, models: &mut Vec<Model>, i: usize, action: &Action) {
    match action {
        Action::Fork { parent } => {
            let parent = &models[parent % models.len()];
            let name = format!("b{i}");
            let branch = manager
                .branch_from(parent.branch.name(), &name)
                .expect("fork");
            let model = Model {
                branch,
                version: parent.version.clone(),
                table: parent.table.clone(),
                cols: parent.cols.clone(),
                keys: parent.keys.clone(),
            };
            models.push(model);
        }
        Action::Ddl { branch, hop } => {
            let idx = branch % models.len();
            let m = &mut models[idx];
            // Version names carry the branch name so sibling branches
            // never create the same version independently.
            let v = format!("V_{}_{i}", m.branch.name());
            if *hop == 4 {
                m.branch
                    .execute(&format!(
                        "CREATE SCHEMA VERSION {v} FROM {} WITH \
                           SPLIT TABLE {t} INTO X{i} WITH a < 3; DROP COLUMN a FROM X{i} DEFAULT 0; \
                         DROP SCHEMA VERSION {v};",
                        m.version,
                        t = m.table
                    ))
                    .expect("generated DDL is valid");
                return;
            }
            let smo = match hop % 4 {
                1 if m.cols.len() > 2 => {
                    let col = m.cols.pop().expect("guarded");
                    format!("DROP COLUMN {col} FROM {} DEFAULT 0", m.table)
                }
                2 => {
                    let new = format!("R{i}");
                    let smo = format!("RENAME TABLE {} INTO {new}", m.table);
                    m.table = new;
                    smo
                }
                3 => {
                    let new = format!("S{i}");
                    let smo = format!("SPLIT TABLE {} INTO {new} WITH a < 3", m.table);
                    m.table = new;
                    smo
                }
                _ => {
                    let col = format!("x{i}");
                    let smo = format!("ADD COLUMN {col} AS 0 INTO {}", m.table);
                    m.cols.push(col);
                    smo
                }
            };
            m.branch
                .execute(&format!(
                    "CREATE SCHEMA VERSION {v} FROM {} WITH {smo};",
                    m.version
                ))
                .expect("generated DDL is valid");
            m.version = v;
        }
        Action::Insert { branch, head, vals } => {
            let idx = branch % models.len();
            let m = &mut models[idx];
            let (v, t) = if *head {
                (m.version.clone(), m.table.clone())
            } else {
                ("G0".to_string(), "T0".to_string())
            };
            let row = row_for(&m.branch.engine().expect("engine"), &v, &t, vals);
            let key = m.branch.insert(&v, &t, row).expect("insert");
            m.keys.push(key);
        }
        Action::Update {
            branch,
            head,
            slot,
            vals,
        } => {
            let m = &models[branch % models.len()];
            if m.keys.is_empty() {
                return;
            }
            let key = m.keys[slot % m.keys.len()];
            let (v, t) = if *head {
                (m.version.clone(), m.table.clone())
            } else {
                ("G0".to_string(), "T0".to_string())
            };
            let row = row_for(&m.branch.engine().expect("engine"), &v, &t, vals);
            // Updating a key another lineage deleted (or that a SPLIT
            // filters out of the head) fails cleanly; the oracle must
            // fail alike, which `replay` asserts via the ok flags.
            let _ = m.branch.update(&v, &t, key, row);
        }
        Action::Delete { branch, slot } => {
            let m = &models[branch % models.len()];
            if m.keys.is_empty() {
                return;
            }
            let key = m.keys[slot % m.keys.len()];
            let _ = m.branch.delete("G0", "T0", key);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fork trees + per-branch write/DDL interleavings: every
    /// branch stays byte-identical to a fresh engine replaying its
    /// history, warm/cold, in memory or durable.
    #[test]
    fn every_branch_equals_its_history_replay(
        actions in prop::collection::vec(action_strategy(), 1..14),
        cold in any::<bool>(),
        durable in any::<bool>(),
    ) {
        let (manager, _dir) = open_manager(durable);
        let main = manager.main();
        main.execute("CREATE SCHEMA VERSION G0 WITH CREATE TABLE T0(a, b, c);")
            .expect("base");
        main.engine().expect("engine").set_snapshot_reuse(!cold);
        let mut models = vec![Model {
            branch: main,
            version: "G0".into(),
            table: "T0".into(),
            cols: vec!["a".into(), "b".into(), "c".into()],
            keys: Vec::new(),
        }];
        for (i, action) in actions.iter().enumerate() {
            apply_action(&manager, &mut models, i, action);
        }
        for m in &models {
            assert_branch_equals_replay(&m.branch, cold, "after all actions");
        }
    }

    /// Two branches fork off `main`, each makes disjoint writes (own
    /// inserts, updates/deletes of own rows only) while `main` keeps
    /// moving; both merge back. The merges must commit, `main` must stay
    /// ≡ the replay of its final (canonical linear order) history, and
    /// every surviving row payload from either side must be present.
    #[test]
    fn merge_of_disjoint_writes_is_deterministic_replay(
        a_ops in prop::collection::vec((0u8..4, prop::collection::vec(0i64..6, 3..4)), 1..6),
        b_ops in prop::collection::vec((0u8..4, prop::collection::vec(0i64..6, 3..4)), 1..6),
        main_rows in 0usize..3,
        durable in any::<bool>(),
    ) {
        let (manager, _dir) = open_manager(durable);
        let main = manager.main();
        main.execute("CREATE SCHEMA VERSION G0 WITH CREATE TABLE T0(a, b, c);")
            .expect("base");
        let base = main
            .insert("G0", "T0", vec![0.into(), Value::text("base"), Value::text("z")])
            .expect("base row");
        let a = manager.branch("a").expect("fork a");
        let b = manager.branch("b").expect("fork b");

        // Disjoint per-branch workloads: every payload is tagged with the
        // branch name; updates/deletes only ever touch own-minted rows.
        let mut surviving: Vec<String> = vec!["base".into()];
        let mut run = |branch: &Branch, tag: &str, ops: &[(u8, Vec<i64>)]| {
            let mut own: Vec<(Key, String)> = Vec::new();
            for (n, (sel, vals)) in ops.iter().enumerate() {
                match sel % 4 {
                    1 if !own.is_empty() => {
                        let slot = vals[0] as usize % own.len();
                        let (key, payload) = own[slot].clone();
                        let row = vec![vals[1 % vals.len()].into(), Value::text(payload), Value::text("u")];
                        branch.update("G0", "T0", key, row).expect("own update");
                    }
                    2 if !own.is_empty() => {
                        let slot = vals[0] as usize % own.len();
                        let (key, _) = own.remove(slot);
                        branch.delete("G0", "T0", key).expect("own delete");
                    }
                    _ => {
                        let payload = format!("{tag}-{n}");
                        let row = vec![vals[0].into(), Value::text(payload.clone()), Value::text("i")];
                        let key = branch.insert("G0", "T0", row).expect("insert");
                        own.push((key, payload));
                    }
                }
            }
            surviving.extend(own.into_iter().map(|(_, p)| p));
        };
        run(&a, "a", &a_ops);
        run(&b, "b", &b_ops);
        for n in 0..main_rows {
            let payload = format!("m-{n}");
            main.insert("G0", "T0", vec![1.into(), Value::text(payload.clone()), Value::text("i")])
                .expect("main insert");
            surviving.push(payload);
        }

        manager.merge("a", MAIN_BRANCH).expect("disjoint merge of a");
        manager.merge("b", MAIN_BRANCH).expect("disjoint merge of b");

        assert_branch_equals_replay(&main, false, "after merges");
        let rel = main.scan("G0", "T0").expect("scan");
        assert!(rel.get(base).is_some(), "base row survives");
        assert_eq!(rel.len(), surviving.len(), "merged row count is the union");
        let rendered = rel.to_string();
        for payload in &surviving {
            assert!(
                rendered.contains(payload.as_str()),
                "payload {payload} missing after merge:\n{rendered}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic behavior tests.
// ---------------------------------------------------------------------

fn base_manager() -> (BranchingInverda, Branch, Key) {
    let manager = BranchingInverda::new();
    let main = manager.main();
    main.execute("CREATE SCHEMA VERSION G0 WITH CREATE TABLE T0(a, b, c);")
        .expect("base");
    let key = main
        .insert(
            "G0",
            "T0",
            vec![1.into(), Value::text("base"), Value::text("z")],
        )
        .expect("base row");
    (manager, main, key)
}

#[test]
fn conflicting_writes_surface_as_typed_report_and_leave_dst_untouched() {
    let (manager, main, key) = base_manager();
    let a = manager.branch("a").expect("fork a");
    let b = manager.branch("b").expect("fork b");
    a.update(
        "G0",
        "T0",
        key,
        vec![1.into(), Value::text("from-a"), Value::text("z")],
    )
    .expect("a update");
    b.update(
        "G0",
        "T0",
        key,
        vec![1.into(), Value::text("from-b"), Value::text("z")],
    )
    .expect("b update");
    manager
        .merge("a", MAIN_BRANCH)
        .expect("first merge is clean");
    let before = state(&main.engine().expect("engine"));
    let err = manager.merge("b", MAIN_BRANCH).expect_err("conflict");
    match err {
        CoreError::MergeConflicts(report) => {
            assert_eq!(report.src, "b");
            assert_eq!(report.dst, MAIN_BRANCH);
            assert_eq!(report.conflicts.len(), 1);
            let rendered = report.to_string();
            assert!(rendered.contains("changed on both sides"), "{rendered}");
        }
        other => panic!("expected MergeConflicts, got {other:?}"),
    }
    assert_eq!(
        before,
        state(&main.engine().expect("engine")),
        "a refused merge must leave the destination untouched"
    );
    // Both sides deleting the same row is NOT a conflict.
    let c = manager.branch_from(MAIN_BRANCH, "c").expect("fork c");
    c.delete("G0", "T0", key).expect("c delete");
    main.delete("G0", "T0", key).expect("main delete");
    manager
        .merge("c", MAIN_BRANCH)
        .expect("both-sides delete merges cleanly");
    assert_branch_equals_replay(&main, false, "after both-sides-delete merge");
}

#[test]
fn same_version_created_on_both_sides_is_a_conflict() {
    let (manager, _main, _key) = base_manager();
    let a = manager.branch("a").expect("fork a");
    let b = manager.branch("b").expect("fork b");
    let ddl = "CREATE SCHEMA VERSION G1 FROM G0 WITH ADD COLUMN d AS 0 INTO T0;";
    a.execute(ddl).expect("a ddl");
    b.execute(ddl).expect("b ddl");
    manager
        .merge("a", MAIN_BRANCH)
        .expect("first merge is clean");
    let err = manager
        .merge("b", MAIN_BRANCH)
        .expect_err("version conflict");
    match err {
        CoreError::MergeConflicts(report) => {
            assert!(report.conflicts.iter().any(
                |c| matches!(c, inverda_core::MergeConflict::Version { name } if name == "G1")
            ));
        }
        other => panic!("expected MergeConflicts, got {other:?}"),
    }
}

#[test]
fn fast_forward_advances_only_undiverged_branches() {
    let (manager, main, _key) = base_manager();
    let feature = manager.branch("feature").expect("fork");
    feature
        .insert(
            "G0",
            "T0",
            vec![2.into(), Value::text("feat"), Value::text("y")],
        )
        .expect("feature insert");
    // main has not moved since the fork: fast-forward applies.
    let advanced = manager.fast_forward("feature", MAIN_BRANCH).expect("ff");
    assert_eq!(advanced, 1);
    let diff = manager.diff("feature", MAIN_BRANCH).expect("diff");
    assert!(
        diff.is_empty(),
        "fast-forwarded branches are identical: {diff:?}"
    );
    assert_branch_equals_replay(&main, false, "after fast-forward");
    // Diverge main; fast-forward must now refuse.
    main.insert(
        "G0",
        "T0",
        vec![3.into(), Value::text("trunk"), Value::text("x")],
    )
    .expect("main insert");
    feature
        .insert(
            "G0",
            "T0",
            vec![4.into(), Value::text("feat2"), Value::text("w")],
        )
        .expect("feature insert 2");
    let err = manager
        .fast_forward("feature", MAIN_BRANCH)
        .expect_err("diverged");
    assert!(
        matches!(err, CoreError::CannotFastForward { .. }),
        "{err:?}"
    );
}

#[test]
fn diff_reports_row_genealogy_and_registry_divergence() {
    let (manager, main, key) = base_manager();
    let a = manager.branch("a").expect("fork");
    assert!(manager.diff("a", MAIN_BRANCH).expect("diff").is_empty());
    a.execute("CREATE SCHEMA VERSION GA FROM G0 WITH ADD COLUMN d AS 0 INTO T0;")
        .expect("a ddl");
    a.update(
        "G0",
        "T0",
        key,
        vec![1.into(), Value::text("changed"), Value::text("z")],
    )
    .expect("a update");
    main.insert(
        "G0",
        "T0",
        vec![5.into(), Value::text("trunk-only"), Value::text("q")],
    )
    .expect("main insert");
    let diff = manager.diff("a", MAIN_BRANCH).expect("diff");
    assert_eq!(diff.only_in_a, vec!["GA".to_string()]);
    assert!(diff.only_in_b.is_empty());
    assert_eq!(diff.a_ahead, 2);
    assert_eq!(diff.b_ahead, 1);
    let t0 = diff
        .tables
        .iter()
        .find(|t| t.version == "G0" && t.table == "T0")
        .expect("T0 delta present");
    // a → main: a's update appears as an update, main's extra row as an
    // insert.
    assert_eq!(t0.delta.updates.len(), 1);
    assert_eq!(t0.delta.inserts.len(), 1);
    assert!(t0.delta.deletes.is_empty());
}

#[test]
fn branch_create_is_metadata_only_and_isolated() {
    let (manager, main, key) = base_manager();
    let a = manager.branch("a").expect("fork");
    // Fork shares the physical tables copy-on-write: no rows were copied
    // (both engines see the same Arc'd relation until either writes).
    a.update(
        "G0",
        "T0",
        key,
        vec![1.into(), Value::text("a-side"), Value::text("z")],
    )
    .expect("a update");
    let main_row = main.get("G0", "T0", key).expect("get").expect("row");
    let a_row = a.get("G0", "T0", key).expect("get").expect("row");
    assert_eq!(main_row[1], Value::text("base"), "main is undisturbed");
    assert_eq!(a_row[1], Value::text("a-side"));
    assert_eq!(
        manager.branch_names(),
        vec!["a".to_string(), MAIN_BRANCH.to_string()]
    );
    manager.drop_branch("a").expect("drop");
    assert!(manager.get("a").is_err());
    assert!(matches!(
        manager.drop_branch(MAIN_BRANCH),
        Err(CoreError::ProtectedBranch { .. })
    ));
}

/// The cache-scoping regression (branch-scoped invalidation): a
/// `MATERIALIZE` on one branch must clear only that branch's fused
/// chains and snapshot entries — a sibling's warm caches survive and its
/// visible state is untouched.
#[test]
fn materialize_on_one_branch_keeps_sibling_caches_warm() {
    let manager = BranchingInverda::new();
    let main = manager.main();
    main.execute(
        "CREATE SCHEMA VERSION G0 WITH CREATE TABLE T0(a, b, c); \
         CREATE SCHEMA VERSION G1 FROM G0 WITH ADD COLUMN d AS 0 INTO T0; \
         CREATE SCHEMA VERSION G2 FROM G1 WITH RENAME COLUMN d IN T0 TO e;",
    )
    .expect("chain");
    main.insert(
        "G0",
        "T0",
        vec![1.into(), Value::text("r"), Value::text("s")],
    )
    .expect("row");
    let a = manager.branch("a").expect("fork a");
    let b = manager.branch("b").expect("fork b");
    // Warm branch b: the cold scan through the two-hop chain caches a
    // fused chain and a resolved snapshot.
    let before = b.scan("G2", "T0").expect("warm scan").to_string();
    let b_eng = b.engine().expect("engine");
    let (chains, deepest) = b_eng.fused_chain_stats();
    assert!(
        chains >= 1 && deepest >= 2,
        "fusion engaged on b: {chains}/{deepest}"
    );
    let warm_before = b_eng.snapshot_stats();
    // Migrate branch a. Its own caches reset; b's survive.
    a.execute("MATERIALIZE 'G2';").expect("materialize a");
    assert_eq!(
        a.engine().expect("engine").fused_chain_stats().0,
        0,
        "a's own fused chains are cleared"
    );
    assert_eq!(
        b_eng.fused_chain_stats(),
        (chains, deepest),
        "b's fused chains survive a's MATERIALIZE"
    );
    let after = b.scan("G2", "T0").expect("rescan").to_string();
    assert_eq!(before, after, "b's visible state is untouched");
    let warm_after = b_eng.snapshot_stats();
    assert!(
        warm_after.hits > warm_before.hits,
        "b's rescan is served warm from its snapshot store \
         ({warm_before:?} -> {warm_after:?})"
    );
    assert_eq!(
        warm_after.invalidations, warm_before.invalidations,
        "no invalidation landed on b"
    );
}

/// A fork shares its origin's tables and snapshots but not its change
/// logs: the snapshot a write on the origin left stale is patched by the
/// origin's next read and resolved cold by the branch's.
#[test]
fn a_forked_branch_catches_nothing_up_from_before_the_fork() {
    let manager = BranchingInverda::new();
    let main = manager.main();
    main.execute(
        "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio); \
         CREATE SCHEMA VERSION Do! FROM TasKy WITH \
           SPLIT TABLE Task INTO Todo WITH prio = 1; \
           DROP COLUMN prio FROM Todo DEFAULT 1; \
         CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
           DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author;",
    )
    .expect("tasky");
    let todo = |text: &str| vec![Value::text("author0"), Value::text(text)];
    main.insert("Do!", "Todo", todo("first")).expect("row");
    main.scan("TasKy2", "Task").expect("warm");
    main.insert("Do!", "Todo", todo("stale now"))
        .expect("write");
    let a = manager.branch("a").expect("fork");
    let on_a = a.scan("TasKy2", "Task").expect("branch read");
    let stats = a.engine().expect("engine").snapshot_stats();
    assert_eq!(stats.caught_up, 0, "{stats:?}");
    assert!(stats.misses > 0, "{stats:?}");
    let on_main = main.scan("TasKy2", "Task").expect("origin read");
    assert!(main.engine().expect("engine").snapshot_stats().caught_up > 0);
    assert_eq!(*on_a, *on_main);
}

// ---------------------------------------------------------------------
// Crash recovery: the branch log's valid prefix is the whole truth.
// ---------------------------------------------------------------------

/// Copy every regular file of `src` into `dst` (branch dirs are flat).
fn copy_dir(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).expect("create crash-copy dir");
    for entry in std::fs::read_dir(src).expect("read durable dir") {
        let entry = entry.expect("dir entry");
        if entry.file_type().expect("file type").is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
        }
    }
}

/// Full-state dump of every branch of a manager, keyed by branch name.
fn snapshot_all(manager: &BranchingInverda) -> Vec<(String, String)> {
    manager
        .branch_names()
        .into_iter()
        .map(|name| {
            let engine = manager
                .get(&name)
                .expect("branch")
                .engine()
                .expect("engine");
            let dump = state(&engine);
            (name, dump)
        })
        .collect()
}

/// Drive a durable manager through its lifecycle — base DDL + writes,
/// branch-create, divergent writes, a merge, a fast-forward, a drop —
/// flushing after every step and recording `(log_len, full dump)` at each
/// boundary. Then crash at every boundary (exact cut) and *inside* the
/// record that follows it (torn cut, 3 bytes into the next frame): the
/// recovered copy must be byte-identical to the live state at that
/// boundary. This covers crashes landing during branch-create and during
/// merge: the torn record is discarded and recovery equals the replay of
/// the surviving prefix.
#[test]
fn crash_at_any_boundary_recovers_the_prefix_state() {
    let dir = TempDir::new("branch-live");
    let manager = BranchingInverda::open_in(dir.path(), inverda_core::DurabilityOptions::default())
        .expect("open");
    let main = manager.main();

    let mut boundaries: Vec<(u64, Vec<(String, String)>)> = Vec::new();
    let mut checkpoint = |manager: &BranchingInverda| {
        manager.flush().expect("flush");
        let len = manager.log_len().expect("durable manager has a log");
        boundaries.push((len, snapshot_all(manager)));
    };

    main.execute(
        "CREATE SCHEMA VERSION G0 WITH CREATE TABLE T0(a, b, c); \
         CREATE SCHEMA VERSION G1 FROM G0 WITH SPLIT TABLE T0 INTO S0 WITH a < 3;",
    )
    .expect("base");
    let key = main
        .insert(
            "G0",
            "T0",
            vec![1.into(), Value::text("base"), Value::text("z")],
        )
        .expect("base row");
    checkpoint(&manager);

    let a = manager.branch("a").expect("fork");
    checkpoint(&manager);

    a.update(
        "G0",
        "T0",
        key,
        vec![1.into(), Value::text("a-side"), Value::text("z")],
    )
    .expect("a update");
    a.execute("CREATE SCHEMA VERSION GA FROM G1 WITH ADD COLUMN d AS 0 INTO S0;")
        .expect("a ddl");
    main.insert(
        "G0",
        "T0",
        vec![4.into(), Value::text("trunk"), Value::text("y")],
    )
    .expect("main insert");
    checkpoint(&manager);

    manager.merge("a", MAIN_BRANCH).expect("merge");
    checkpoint(&manager);

    let b = manager.branch("b").expect("fork b");
    b.insert(
        "G0",
        "T0",
        vec![2.into(), Value::text("b-row"), Value::text("x")],
    )
    .expect("b insert");
    manager.fast_forward("b", MAIN_BRANCH).expect("ff");
    manager.drop_branch("a").expect("drop");
    checkpoint(&manager);

    for (i, (len, expected)) in boundaries.iter().enumerate() {
        // Torn cuts only make sense while more log follows this boundary.
        let cuts: &[u64] = if i + 1 < boundaries.len() {
            &[0, 3]
        } else {
            &[0]
        };
        for delta in cuts {
            let scratch = TempDir::new("branch-crash");
            copy_dir(dir.path(), scratch.path());
            let log = scratch.path().join("branch-0.log");
            std::fs::OpenOptions::new()
                .write(true)
                .open(&log)
                .expect("open log copy")
                .set_len(len + delta)
                .expect("truncate log copy");
            let recovered = BranchingInverda::open_in(
                scratch.path(),
                inverda_core::DurabilityOptions::default(),
            )
            .expect("recover");
            assert_eq!(
                &snapshot_all(&recovered),
                expected,
                "recovery at boundary {i} (cut +{delta}) must equal the live prefix state"
            );
        }
    }

    // A recovered manager is fully live: it keeps the replay invariant
    // through further writes.
    let scratch = TempDir::new("branch-resume");
    copy_dir(dir.path(), scratch.path());
    let recovered =
        BranchingInverda::open_in(scratch.path(), inverda_core::DurabilityOptions::default())
            .expect("recover final");
    let rmain = recovered.main();
    rmain
        .insert(
            "G0",
            "T0",
            vec![5.into(), Value::text("post"), Value::text("w")],
        )
        .expect("post-recovery insert");
    assert_branch_equals_replay(&rmain, false, "after recovery + write");
}

//! Crash-recovery equivalence: a durable database recovered from a
//! (possibly torn) write-ahead log must be byte-identical to an in-memory
//! oracle that executed exactly the statements the surviving log prefix
//! covers.
//!
//! Each case runs a random statement sequence (writes, DDL, MATERIALIZE,
//! id-minting chains) against a durable [`Inverda`], recording the log
//! length after every statement as the statement's commit boundary. A
//! crash is simulated by copying the durable directory and truncating the
//! copied log at some byte — a record boundary, the middle of a record,
//! inside the file header, or nowhere at all — then recovering the copy
//! with [`Inverda::open_in`]. The oracle is a fresh in-memory database
//! replaying the prefix of statements whose boundary survived the cut;
//! recovery must reproduce its visible state across every schema version,
//! its physical tables, its skolem registry dump, and its key-sequence
//! position. Statements the harness issues can fail (duplicate DDL,
//! missing rows, twin-separated `KeyConflict` migrations); the oracle
//! replays those failures too, so even the registry deltas and consumed
//! keys of *rejected* statements must survive a crash exactly as they
//! survive in memory.
//!
//! Randomized over warm/cold snapshot stores and per-record vs. group
//! commit; checkpoints rotate the log mid-run so cuts also land in
//! post-rotation logs.

mod common;

use common::visible;
use inverda_core::{DurabilityMode, DurabilityOptions, Inverda};
use inverda_storage::{Key, Value};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "inverda-recprops-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Copy every regular file of `src` into `dst` (durable dirs are flat).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create crash-copy dir");
    for entry in std::fs::read_dir(src).expect("read durable dir") {
        let entry = entry.expect("dir entry");
        if entry.file_type().expect("file type").is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
        }
    }
}

/// The log file of the newest generation in `dir` — the one recovery
/// replays (rotation removes stale generations, but a crash mid-rotation
/// can leave two).
fn newest_wal(dir: &Path) -> PathBuf {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).expect("read crash-copy dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(gen_text) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
        else {
            continue;
        };
        let Ok(generation) = gen_text.parse::<u64>() else {
            continue;
        };
        if best.as_ref().map(|(g, _)| generation > *g).unwrap_or(true) {
            best = Some((generation, entry.path()));
        }
    }
    best.expect("a wal file in the durable dir").1
}

/// A randomly generated logical statement against a named version.table.
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
    /// One statement from the genealogy's extra-DDL pool (create/drop of a
    /// scratch version); repeats fail cleanly and must replay as failures.
    Ddl {
        which: usize,
    },
}

fn op_strategy(n_targets: usize, n_versions: usize, n_ddl: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
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
        (0..n_ddl).prop_map(|which| Op::Ddl { which }),
    ]
}

/// What the harness records per executed statement, replayable verbatim on
/// the oracle.
#[derive(Debug, Clone)]
enum Event {
    /// A BiDEL statement executed via [`Inverda::execute`].
    Stmt(String),
    /// A logical write / migration op.
    Write(Op),
}

/// A fixed genealogy under test: setup statements (one BiDEL statement
/// each, so each maps to exactly one log record), writable targets,
/// materializable versions, and an extra-DDL pool.
struct Genealogy {
    statements: &'static [&'static str],
    targets: &'static [(&'static str, &'static str)],
    versions: &'static [&'static str],
    ddl: &'static [&'static str],
}

/// The paper's TasKy triple: SPLIT + DROP COLUMN branch and the staged,
/// id-generating FK-DECOMPOSE + RENAME branch.
static TASKY: Genealogy = Genealogy {
    statements: &[
        "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio);",
        "CREATE SCHEMA VERSION Do! FROM TasKy WITH \
           SPLIT TABLE Task INTO Todo WITH prio = 1; \
           DROP COLUMN prio FROM Todo DEFAULT 1;",
        "CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
           DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author; \
           RENAME COLUMN author IN Author TO name;",
    ],
    targets: &[("TasKy", "Task"), ("Do!", "Todo")],
    versions: &["TasKy", "Do!", "TasKy2"],
    ddl: &[
        "CREATE SCHEMA VERSION Xtra FROM TasKy WITH RENAME COLUMN prio IN Task TO rank;",
        "DROP SCHEMA VERSION Xtra;",
    ],
};

/// An id-minting SMO chain (FK-DECOMPOSE with a SPLIT stacked on top):
/// skolem minting order and registry dumps are the recovery-critical state.
static MINT_CHAIN: Genealogy = Genealogy {
    statements: &[
        "CREATE SCHEMA VERSION V1 WITH CREATE TABLE D(a, b, c);",
        "CREATE SCHEMA VERSION V2 FROM V1 WITH \
           DECOMPOSE TABLE D INTO D(a, b), U(c) ON FOREIGN KEY c;",
        "CREATE SCHEMA VERSION V3 FROM V2 WITH SPLIT TABLE D INTO W WITH a < 3;",
    ],
    targets: &[("V1", "D"), ("V3", "W")],
    versions: &["V1", "V2", "V3"],
    ddl: &[
        "CREATE SCHEMA VERSION Xtra FROM V1 WITH RENAME COLUMN b IN D TO bb;",
        "DROP SCHEMA VERSION Xtra;",
    ],
};

/// Build a row for `table` from the generated values (house shapes shared
/// with the snapshot-reuse suite).
fn row_for(table: &str, vals: &[i64]) -> Vec<Value> {
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

/// Execute one event, tracking minted keys exactly as the harness does —
/// deterministic, so replaying a prefix reconstructs the same key choices.
fn apply_event(db: &Inverda, keys: &mut Vec<Key>, g: &Genealogy, event: &Event) {
    match event {
        Event::Stmt(text) => {
            let _ = db.execute(text);
        }
        Event::Write(op) => match op {
            Op::Insert { target, vals } => {
                let (v, t) = g.targets[*target];
                if let Ok(k) = db.insert(v, t, row_for(t, vals)) {
                    keys.push(k);
                }
            }
            Op::Update { target, slot, vals } => {
                if keys.is_empty() {
                    return;
                }
                let key = keys[*slot % keys.len()];
                let (v, t) = g.targets[*target];
                let _ = db.update(v, t, key, row_for(t, vals));
            }
            Op::Delete { target, slot } => {
                if keys.is_empty() {
                    return;
                }
                let key = keys[*slot % keys.len()];
                let (v, t) = g.targets[*target];
                let _ = db.delete(v, t, key);
            }
            Op::Materialize { version } => {
                let _ = db.materialize(&[g.versions[*version].to_string()]);
            }
            Op::Ddl { .. } => unreachable!("resolved to Event::Stmt by the harness"),
        },
    }
}

/// Every physical table, sorted by name, as text.
fn physical(db: &Inverda) -> String {
    let mut names: Vec<String> = db.physical_tables().into_iter().map(|(n, _)| n).collect();
    names.sort();
    names
        .iter()
        .map(|n| format!("{n}:\n{}", db.debug_physical(n)))
        .collect()
}

/// Every table-version and SMO id of the genealogy, with the relation names
/// derived from them.
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

/// One durable database under test, with per-statement commit boundaries.
struct Harness {
    durable: Inverda,
    dir: PathBuf,
    opts: DurabilityOptions,
    reuse: bool,
    genealogy: &'static Genealogy,
    /// Everything executed so far, replayable on the oracle.
    events: Vec<Event>,
    /// Log length (within the live generation) after each event: the byte
    /// up to which the event's record — if it wrote one — is complete.
    boundaries: Vec<u64>,
    /// Events covered by the last checkpoint; they survive any truncation
    /// of the live log.
    floor: usize,
    keys: Vec<Key>,
}

impl Harness {
    fn new(genealogy: &'static Genealogy, opts: DurabilityOptions, reuse: bool) -> Harness {
        let dir = fresh_dir("db");
        let durable = Inverda::open_in(&dir, opts.clone()).expect("open durable db");
        durable.set_snapshot_reuse(reuse);
        let mut h = Harness {
            durable,
            dir,
            opts,
            reuse,
            genealogy,
            events: Vec::new(),
            boundaries: Vec::new(),
            floor: 0,
            keys: Vec::new(),
        };
        for stmt in genealogy.statements {
            h.run(Event::Stmt((*stmt).to_string()));
        }
        h
    }

    fn run(&mut self, event: Event) {
        apply_event(&self.durable, &mut self.keys, self.genealogy, &event);
        self.events.push(event);
        self.boundaries
            .push(self.durable.wal_len().expect("durable db has a log"));
    }

    fn op(&mut self, op: &Op) {
        match op {
            Op::Ddl { which } => {
                let stmt = self.genealogy.ddl[*which % self.genealogy.ddl.len()];
                self.run(Event::Stmt(stmt.to_string()));
            }
            other => self.run(Event::Write(other.clone())),
        }
    }

    /// Explicit checkpoint: rotates the log, so earlier events can no
    /// longer be lost to truncation.
    fn checkpoint(&mut self) {
        self.durable.checkpoint().expect("checkpoint");
        self.floor = self.events.len();
    }

    /// Crash by truncating a *copy* of the durable directory's log at byte
    /// `cut` and verify recovery against the surviving-prefix oracle.
    fn crash_and_check(&self, cut: u64, context: &str) {
        let survivors = self.floor
            + self.boundaries[self.floor..]
                .iter()
                .filter(|b| **b <= cut)
                .count();
        self.crash_and_check_with(
            |wal| {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(wal)
                    .expect("open wal copy")
                    .set_len(cut)
                    .expect("truncate wal copy");
            },
            survivors,
            &format!("{context}, cut at byte {cut}"),
        );
    }

    /// Crash with an arbitrary mutation of the copied log file; the caller
    /// states how many events the damaged log still covers.
    fn crash_and_check_with(&self, damage: impl FnOnce(&Path), survivors: usize, context: &str) {
        let scratch = fresh_dir("crash");
        copy_dir(&self.dir, &scratch);
        damage(&newest_wal(&scratch));
        let recovered = Inverda::open_in(&scratch, self.opts.clone()).expect("recovery");
        recovered.set_snapshot_reuse(self.reuse);
        let oracle = Inverda::new_in_memory();
        oracle.set_snapshot_reuse(self.reuse);
        let mut keys = Vec::new();
        for event in &self.events[..survivors] {
            apply_event(&oracle, &mut keys, self.genealogy, event);
        }
        let context = format!(
            "{context} ({survivors}/{} events survive)",
            self.events.len()
        );
        assert_eq!(
            recovered.debug_key_seq(),
            oracle.debug_key_seq(),
            "key sequence diverged after recovery: {context}"
        );
        assert_eq!(
            recovered.debug_registry(),
            oracle.debug_registry(),
            "skolem registry diverged after recovery: {context}"
        );
        assert_eq!(
            physical(&recovered),
            physical(&oracle),
            "physical state diverged after recovery: {context}"
        );
        assert_eq!(
            visible(&recovered),
            visible(&oracle),
            "visible state diverged after recovery: {context}"
        );
        // The reads above can mint (cold resolution of staged mappings);
        // identical states must have minted identically.
        assert_eq!(
            recovered.debug_registry(),
            oracle.debug_registry(),
            "post-read registry diverged: {context}"
        );
        // The catalog ids too: a dropped version retires its ids without
        // rewinding the counters, whether it was dropped live, replayed
        // from the log or restored from a checkpoint's DDL history — so the
        // next CREATE mints the same ids on every side.
        assert_eq!(catalog_ids(&recovered), catalog_ids(&oracle), "{context}");
        if survivors == self.events.len() {
            assert_eq!(
                catalog_ids(&recovered),
                catalog_ids(&self.durable),
                "{context}"
            );
        }
        let (version, table) = self.genealogy.targets[0];
        let next = format!(
            "CREATE SCHEMA VERSION PostCrash FROM {version} WITH ADD COLUMN post AS 0 INTO {table};"
        );
        assert_eq!(
            recovered.execute(&next).is_ok(),
            oracle.execute(&next).is_ok(),
            "{context}"
        );
        assert_eq!(catalog_ids(&recovered), catalog_ids(&oracle), "{context}");
        drop(recovered);
        std::fs::remove_dir_all(&scratch).ok();
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// The three cut shapes every case is checked under: a random byte (header
/// tears, mid-record tears and clean cuts all reachable), an exact record
/// boundary, and no loss at all.
fn run_cuts(h: &Harness, cut_seed: u64) {
    let total = h.durable.wal_len().expect("durable db has a log");
    h.crash_and_check(cut_seed % (total + 1), "random cut");
    let live = &h.boundaries[h.floor..];
    if !live.is_empty() {
        h.crash_and_check(live[(cut_seed as usize) % live.len()], "boundary cut");
    }
    h.crash_and_check(total, "full-length cut");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// TasKy genealogy: random writes through two versions, migrations,
    /// scratch DDL, and mid-run checkpoints, then three crash shapes.
    #[test]
    fn recovery_matches_surviving_prefix_oracle_tasky(
        ops in prop::collection::vec(op_strategy(2, 3, 2), 1..14),
        cold in 0usize..2,
        msel in 0usize..2,
        ckpt_at in 0usize..24,
        cut_seed in any::<u64>(),
    ) {
        let opts = DurabilityOptions {
            mode: [DurabilityMode::Commit, DurabilityMode::Group][msel],
            group_size: 3,
            checkpoint_every: None,
        };
        let mut h = Harness::new(&TASKY, opts, cold == 0);
        for (i, op) in ops.iter().enumerate() {
            if i == ckpt_at {
                h.checkpoint();
            }
            h.op(op);
        }
        run_cuts(&h, cut_seed);
    }

    /// Id-minting chain: crash recovery must reproduce skolem minting
    /// order and registry dumps exactly, across migrations that re-mint.
    #[test]
    fn recovery_matches_surviving_prefix_oracle_minting_chain(
        ops in prop::collection::vec(op_strategy(2, 3, 2), 1..14),
        cold in 0usize..2,
        msel in 0usize..2,
        ckpt_at in 0usize..24,
        cut_seed in any::<u64>(),
    ) {
        let opts = DurabilityOptions {
            mode: [DurabilityMode::Commit, DurabilityMode::Group][msel],
            group_size: 3,
            checkpoint_every: None,
        };
        let mut h = Harness::new(&MINT_CHAIN, opts, cold == 0);
        for (i, op) in ops.iter().enumerate() {
            if i == ckpt_at {
                h.checkpoint();
            }
            h.op(op);
        }
        run_cuts(&h, cut_seed);
    }
}

/// A flipped bit inside a mid-log record truncates recovery at the last
/// intact record before it — CRC catches the damage, nothing panics, and
/// the prefix is intact.
#[test]
fn bit_flip_mid_log_recovers_the_intact_prefix() {
    let opts = DurabilityOptions {
        mode: DurabilityMode::Commit,
        group_size: 1,
        checkpoint_every: None,
    };
    let mut h = Harness::new(&TASKY, opts, true);
    for i in 0..6 {
        h.op(&Op::Insert {
            target: 0,
            vals: vec![i, i + 1, i + 2, 0],
        });
    }
    // Corrupt one byte inside the record of the 4th insert (event index 6:
    // 3 setup statements + 3 intact inserts precede it).
    let intact = h.genealogy.statements.len() + 3;
    let pos = h.boundaries[intact - 1] + 10;
    assert!(pos < h.boundaries[intact], "flip lands inside the record");
    h.crash_and_check_with(
        |wal| {
            let mut bytes = std::fs::read(wal).expect("read wal copy");
            bytes[pos as usize] ^= 0x40;
            std::fs::write(wal, &bytes).expect("write damaged wal");
        },
        intact,
        "bit flip in 4th insert record",
    );
}

/// Losing the entire live log still recovers the last checkpoint: the
/// missing file reads as an empty log, not an error.
#[test]
fn wal_loss_after_checkpoint_recovers_checkpoint_state() {
    let opts = DurabilityOptions {
        mode: DurabilityMode::Commit,
        group_size: 1,
        checkpoint_every: None,
    };
    let mut h = Harness::new(&TASKY, opts, true);
    for i in 0..4 {
        h.op(&Op::Insert {
            target: 0,
            vals: vec![i, i, i, 0],
        });
    }
    h.op(&Op::Materialize { version: 2 });
    h.checkpoint();
    for i in 0..3 {
        h.op(&Op::Insert {
            target: 1,
            vals: vec![i, i, i, 0],
        });
    }
    h.crash_and_check_with(
        |wal| std::fs::remove_file(wal).expect("remove wal copy"),
        h.floor,
        "live log deleted",
    );
}

/// Auto-checkpointing (`checkpoint_every`) rotates the log unprompted,
/// prunes stale generations, and recovery of the rotated directory equals
/// the live database.
#[test]
fn auto_checkpoint_rotates_prunes_and_recovers() {
    let dir = fresh_dir("autockpt");
    let opts = DurabilityOptions {
        mode: DurabilityMode::Commit,
        group_size: 1,
        checkpoint_every: Some(4),
    };
    let db = Inverda::open_in(&dir, opts).expect("open durable db");
    for stmt in TASKY.statements {
        db.execute(stmt).expect("setup");
    }
    for i in 0..10 {
        db.insert("TasKy", "Task", row_for("Task", &[i, i, i, 0]))
            .expect("insert");
    }
    assert!(
        dir.join("checkpoint.bin").exists(),
        "auto-checkpoint never fired"
    );
    let wals: Vec<String> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().to_str().map(str::to_string))
        .filter(|n| n.starts_with("wal-"))
        .collect();
    assert_eq!(wals.len(), 1, "stale generations not pruned: {wals:?}");
    assert_ne!(wals[0], "wal-1.log", "log never rotated");
    // Recovery of a copy equals the live instance.
    let scratch = fresh_dir("autockpt-copy");
    copy_dir(&dir, &scratch);
    let recovered = Inverda::open(&scratch).expect("recovery");
    assert_eq!(recovered.debug_key_seq(), db.debug_key_seq());
    assert_eq!(recovered.debug_registry(), db.debug_registry());
    assert_eq!(physical(&recovered), physical(&db));
    assert_eq!(visible(&recovered), visible(&db));
    drop(recovered);
    std::fs::remove_dir_all(&scratch).ok();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// `DurabilityMode::Off` through `open_in` is a purely in-memory database:
/// no log, no durable dir, nothing written.
#[test]
fn off_mode_touches_no_disk() {
    let dir = fresh_dir("off");
    let opts = DurabilityOptions {
        mode: DurabilityMode::Off,
        group_size: 64,
        checkpoint_every: None,
    };
    let db = Inverda::open_in(&dir, opts).expect("open");
    db.execute(TASKY.statements[0]).expect("ddl");
    db.insert("TasKy", "Task", row_for("Task", &[1, 2, 3, 0]))
        .expect("insert");
    assert_eq!(db.wal_len(), None);
    assert_eq!(db.durable_dir(), None);
    let entries = std::fs::read_dir(&dir).expect("read dir").count();
    assert_eq!(entries, 0, "Off mode wrote into the directory");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash under concurrent load: a durable Group-mode serving pipeline takes
/// writes from concurrent clients, and every acknowledgement carries the
/// log length at which that statement's records end. Truncating a copy of
/// the log at any such boundary — or just past one, tearing the next
/// record — and recovering must equal an in-memory oracle replaying, in
/// epoch order, exactly the acknowledged operations whose records fit the
/// cut. This is the admitted-but-uncommitted case: under group commit the
/// tail of the log is written but not yet fsynced, and a crash may keep
/// any record-aligned prefix of it.
#[test]
fn crash_under_concurrent_load_recovers_acknowledged_prefix() {
    use inverda_core::{LogicalWrite, ServingInverda, ServingOp};
    use std::sync::Mutex;

    let dir = fresh_dir("serving");
    let opts = DurabilityOptions {
        mode: DurabilityMode::Group,
        group_size: 3,
        checkpoint_every: None,
    };
    let db = Inverda::open_in(&dir, opts.clone()).expect("open durable db");
    for stmt in TASKY.statements {
        db.execute(stmt).expect("setup");
    }
    let setup_len = db.wal_len().expect("durable db has a log");
    let serving = ServingInverda::over(db);

    // (epoch, log length after the op, the op itself) for every
    // acknowledged request, gathered across threads.
    let recs: Mutex<Vec<(u64, u64, ServingOp)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..2u64 {
            let client = serving.client();
            let recs = &recs;
            scope.spawn(move || {
                let mut keys: Vec<Key> = Vec::new();
                for i in 0..6u64 {
                    let (version, table) = TASKY.targets[((w + i) % 2) as usize];
                    let mut writes = vec![LogicalWrite::Insert(row_for(
                        table,
                        &[(w * 7 + i) as i64, i as i64, (w + i) as i64, 0],
                    ))];
                    match i % 3 {
                        1 if !keys.is_empty() => {
                            let key = keys[i as usize % keys.len()];
                            writes.push(LogicalWrite::Update(
                                key,
                                row_for(table, &[9, (w + i) as i64, 1, 0]),
                            ));
                        }
                        2 if !keys.is_empty() => {
                            let key = keys.remove(i as usize % keys.len());
                            writes.push(LogicalWrite::Delete(key));
                        }
                        _ => {}
                    }
                    let op = ServingOp::Apply {
                        version: version.to_string(),
                        table: table.to_string(),
                        writes,
                    };
                    let reply = client.submit(op.clone());
                    if let Ok(inverda_core::ServingOutcome::Applied(minted)) = &reply.outcome {
                        keys.extend(minted.iter().flatten());
                    }
                    recs.lock().unwrap().push((
                        reply.epoch,
                        reply.wal_len.expect("durable serving reports log length"),
                        op,
                    ));
                }
            });
        }
        // A DDL client racing the writers: migrations and scratch schema
        // versions, all serialized by the same pipeline.
        let client = serving.client();
        let recs = &recs;
        scope.spawn(move || {
            for stmt in [
                TASKY.ddl[0],
                "MATERIALIZE 'Do!';",
                TASKY.ddl[1],
                "MATERIALIZE 'TasKy';",
            ] {
                let op = ServingOp::Execute(stmt.to_string());
                let reply = client.execute(stmt);
                recs.lock().unwrap().push((
                    reply.epoch,
                    reply.wal_len.expect("durable serving reports log length"),
                    op,
                ));
            }
        });
    });
    serving.shutdown();

    let mut recs = recs.into_inner().unwrap();
    recs.sort_by_key(|(epoch, _, _)| *epoch);
    for (i, (epoch, _, _)) in recs.iter().enumerate() {
        assert_eq!(*epoch, i as u64 + 1, "commit epochs are dense");
    }
    assert!(
        recs.windows(2).all(|w| w[0].1 <= w[1].1),
        "log boundaries are monotone in epoch order"
    );

    // Every boundary is a cut; where there is room, also cut one byte past
    // it to tear the next record's header.
    let total = recs.last().expect("ops ran").1;
    let mut cuts: Vec<u64> = vec![setup_len];
    for w in recs.windows(2) {
        cuts.push(w[0].1);
        if w[0].1 + 1 < w[1].1 {
            cuts.push(w[0].1 + 1);
        }
    }
    cuts.push(total);
    cuts.dedup();

    for cut in cuts {
        let scratch = fresh_dir("serving-crash");
        copy_dir(&dir, &scratch);
        std::fs::OpenOptions::new()
            .write(true)
            .open(newest_wal(&scratch))
            .expect("open wal copy")
            .set_len(cut)
            .expect("truncate wal copy");
        let recovered = Inverda::open_in(&scratch, opts.clone()).expect("recovery");
        let oracle = Inverda::new_in_memory();
        for stmt in TASKY.statements {
            oracle.execute(stmt).expect("oracle setup");
        }
        let survivors = recs.iter().filter(|(_, len, _)| *len <= cut).count();
        for (_, _, op) in recs.iter().filter(|(_, len, _)| *len <= cut) {
            match op {
                ServingOp::Apply {
                    version,
                    table,
                    writes,
                } => {
                    let _ = oracle.apply_many(version, table, writes.clone());
                }
                ServingOp::Execute(stmt) => {
                    let _ = oracle.execute(stmt);
                }
                ServingOp::Checkpoint => unreachable!("no checkpoints in this load"),
            }
        }
        let context = format!("cut at byte {cut} ({survivors}/{} ops survive)", recs.len());
        assert_eq!(
            recovered.debug_key_seq(),
            oracle.debug_key_seq(),
            "key sequence diverged after crash under load: {context}"
        );
        assert_eq!(
            recovered.debug_registry(),
            oracle.debug_registry(),
            "skolem registry diverged after crash under load: {context}"
        );
        assert_eq!(
            physical(&recovered),
            physical(&oracle),
            "physical state diverged after crash under load: {context}"
        );
        assert_eq!(
            visible(&recovered),
            visible(&oracle),
            "visible state diverged after crash under load: {context}"
        );
        drop(recovered);
        std::fs::remove_dir_all(&scratch).ok();
    }
    drop(serving);
    std::fs::remove_dir_all(&dir).ok();
}

/// A reopened database starts with an empty snapshot store and empty change
/// logs: its first read of every version is cold, and read-time catch-up
/// resumes with the first write after it.
#[test]
fn a_reopened_database_catches_nothing_up() {
    let dir = fresh_dir("reopen-cold");
    let opts = || DurabilityOptions {
        mode: DurabilityMode::Commit,
        group_size: 1,
        checkpoint_every: None,
    };
    let todo = |text: &str| vec![Value::text("author0"), Value::text(text)];
    {
        let db = Inverda::open_in(&dir, opts()).expect("open");
        db.execute(
            "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio); \
             CREATE SCHEMA VERSION Do! FROM TasKy WITH \
               SPLIT TABLE Task INTO Todo WITH prio = 1; \
               DROP COLUMN prio FROM Todo DEFAULT 1; \
             CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
               DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author;",
        )
        .expect("setup");
        db.insert("Do!", "Todo", todo("first")).expect("row");
        db.scan("TasKy2", "Task").expect("warm");
        db.insert("Do!", "Todo", todo("stale now")).expect("write");
    }
    let db = Inverda::open_in(&dir, opts()).expect("reopen");
    assert_eq!(db.scan("TasKy2", "Task").expect("read").len(), 2);
    let stats = db.snapshot_stats();
    assert_eq!(stats.caught_up, 0, "{stats:?}");
    assert!(stats.misses > 0, "{stats:?}");
    db.insert("Do!", "Todo", todo("and on")).expect("write");
    assert_eq!(db.scan("TasKy2", "Task").expect("read").len(), 3);
    assert!(db.snapshot_stats().caught_up > 0);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

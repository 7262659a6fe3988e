//! The serving layer's differential concurrency oracle.
//!
//! Each history runs N reader threads and M writer clients against one
//! [`ServingInverda`]: writers race mixed `apply_many` batches, DDL,
//! MATERIALIZE migrations, and checkpoints through the admission queue;
//! readers continuously take epoch-pinned views on mixed schema versions
//! and record every read (scans and key lookups, successes and errors)
//! together with the pin's commit epoch, key sequence, and committed
//! registry dump. Writers record every acknowledged request with its
//! assigned epoch and concrete statement (including the actual keys used).
//!
//! Afterwards the committed sequence is replayed **single-threaded** on a
//! fresh in-memory database in epoch order, asserting:
//!
//! * the epochs acknowledged to writers are exactly the dense sequence
//!   `1..=total` — a linearizable commit order with no lost or duplicated
//!   slot (failed statements consume an epoch too: they can consume keys
//!   and registry state);
//! * every statement outcome (minted keys, script outcomes, errors) is
//!   byte-identical to the sequential replay;
//! * every concurrent read is byte-identical — rows, registry dump, key
//!   sequence — to a pin of the sequential state at its epoch, with the
//!   pin's reads replayed in the pin's own order (read-path scratch mints
//!   are deterministic per pin history).
//!
//! Histories are swept deterministically over serving width (concurrent
//! writer clients) {1, 2, 4} × durability {off, group} × 43 seeds = 258
//! histories (the three width sweeps run as separate tests so `cargo test`
//! parallelizes them).

use inverda_core::{
    DurabilityMode, DurabilityOptions, Inverda, LogicalWrite, PinnedView, ServingInverda,
    ServingOp, ServingOutcome, ServingReply,
};
use inverda_storage::{Key, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const SEEDS_PER_CONFIG: u64 = 43;
const READERS: usize = 2;
const OPS_PER_WRITER: usize = 8;
const MAX_PINS_PER_READER: usize = 12;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "inverda-servprops-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Deterministic splitmix-style generator: every thread derives its own
/// stream from (seed, role), so histories replay identically per seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(stream.wrapping_mul(0xbf58476d1ce4e5b9))
            | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The paper's TasKy genealogy: a SPLIT + DROP COLUMN branch and the
/// staged, id-minting FK-DECOMPOSE branch — the same shape the recovery
/// suite uses, so serving histories cover minting, twins, and migrations.
const SETUP: &[&str] = &[
    "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio);",
    "CREATE SCHEMA VERSION Do! FROM TasKy WITH \
       SPLIT TABLE Task INTO Todo WITH prio = 1; \
       DROP COLUMN prio FROM Todo DEFAULT 1;",
    "CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
       DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author; \
       RENAME COLUMN author IN Author TO name;",
];

/// Writable targets for `apply_many`.
const TARGETS: &[(&str, &str)] = &[("TasKy", "Task"), ("Do!", "Todo")];

/// Read targets, including versions/tables that may not (yet/ever) exist —
/// errors must replay byte-identically too.
const READS: &[(&str, &str)] = &[
    ("TasKy", "Task"),
    ("Do!", "Todo"),
    ("TasKy2", "Task"),
    ("TasKy2", "Author"),
    ("Xtra", "Task"),
    ("Nope", "Task"),
];

/// Scripts the writer pool races (repeats fail cleanly; failures are part
/// of the committed sequence).
const SCRIPTS: &[&str] = &[
    "CREATE SCHEMA VERSION Xtra FROM TasKy WITH RENAME COLUMN prio IN Task TO rank;",
    "DROP SCHEMA VERSION Xtra;",
    "MATERIALIZE 'Do!';",
    "MATERIALIZE 'TasKy';",
    "MATERIALIZE 'TasKy2';",
];

fn row_for(table: &str, rng: &mut Rng) -> Vec<Value> {
    match table {
        "Task" => vec![
            Value::text(format!("author{}", rng.below(4))),
            Value::text(format!("task{}", rng.below(6))),
            Value::Int((rng.below(3) + 1) as i64),
        ],
        _ => vec![
            Value::text(format!("author{}", rng.below(4))),
            Value::text(format!("todo{}", rng.below(6))),
        ],
    }
}

/// One acknowledged writer request: the concrete statement (with the keys
/// actually used) plus the pipeline's reply, replayable verbatim.
struct WriteRec {
    epoch: u64,
    op: ServingOp,
    outcome: String,
}

/// One epoch-pinned view a reader took, with its ordered reads.
struct PinRec {
    epoch: u64,
    key_seq: u64,
    registry: String,
    /// `(read-kind, version, table, result)`, in the pin's own order.
    reads: Vec<(u8, String, String, String)>,
}

fn outcome_string(outcome: &inverda_core::Result<ServingOutcome>) -> String {
    match outcome {
        Ok(o) => format!("ok:{o:?}"),
        Err(e) => format!("err:{e}"),
    }
}

fn reply_string(reply: &ServingReply) -> String {
    outcome_string(&reply.outcome)
}

/// Perform one read on a pin and render the result (shared verbatim by the
/// concurrent readers and the oracle replay). Kinds `>= 2` are key lookups
/// of `Key(kind - 1)`.
fn read_on(pin: &PinnedView, kind: u8, version: &str, table: &str) -> String {
    match kind {
        0 => match pin.scan(version, table) {
            Ok(rel) => format!("rows:{rel}"),
            Err(e) => format!("err:{e}"),
        },
        1 => match pin.count(version, table) {
            Ok(n) => format!("count:{n}"),
            Err(e) => format!("err:{e}"),
        },
        _ => match pin.get(version, table, Key(u64::from(kind) - 1)) {
            Ok(row) => format!("get:{row:?}"),
            Err(e) => format!("err:{e}"),
        },
    }
}

/// The deterministic per-writer statement stream. Updates and deletes use
/// keys the same writer minted earlier, so every statement is concrete at
/// submission time and the record replays verbatim.
fn writer_ops(client: &inverda_core::Client, seed: u64, writer: u64) -> Vec<WriteRec> {
    let mut rng = Rng::new(seed, 100 + writer);
    let mut keys: Vec<Key> = Vec::new();
    let mut recs = Vec::new();
    for _ in 0..OPS_PER_WRITER {
        let (op, reply) = match rng.below(10) {
            // Mixed apply_many batch: inserts plus (when possible) an
            // update or delete of an own earlier key.
            0..=5 => {
                let (version, table) = TARGETS[rng.below(TARGETS.len() as u64) as usize];
                let mut writes = Vec::new();
                for _ in 0..=rng.below(2) {
                    writes.push(LogicalWrite::Insert(row_for(table, &mut rng)));
                }
                if !keys.is_empty() && rng.below(2) == 0 {
                    let key = keys[rng.below(keys.len() as u64) as usize];
                    if rng.below(2) == 0 {
                        writes.push(LogicalWrite::Update(key, row_for(table, &mut rng)));
                    } else {
                        writes.push(LogicalWrite::Delete(key));
                    }
                }
                let op = ServingOp::Apply {
                    version: version.to_string(),
                    table: table.to_string(),
                    writes,
                };
                let reply = client.submit(op.clone());
                if let Ok(ServingOutcome::Applied(minted)) = &reply.outcome {
                    keys.extend(minted.iter().flatten());
                }
                (op, reply)
            }
            // An arity-mismatch statement: failures consume an epoch (and
            // possibly keys) and must replay as failures.
            6 => {
                let op = ServingOp::Apply {
                    version: "TasKy".to_string(),
                    table: "Task".to_string(),
                    writes: vec![LogicalWrite::Insert(vec![Value::Int(1)])],
                };
                (op.clone(), client.submit(op))
            }
            7 | 8 => {
                let script = SCRIPTS[rng.below(SCRIPTS.len() as u64) as usize];
                let op = ServingOp::Execute(script.to_string());
                (op.clone(), client.submit(op))
            }
            _ => {
                let op = ServingOp::Checkpoint;
                (op.clone(), client.submit(op))
            }
        };
        recs.push(WriteRec {
            epoch: reply.epoch,
            op,
            outcome: reply_string(&reply),
        });
    }
    recs
}

/// The reader loop: pin the latest epoch, assert epoch monotonicity, run a
/// few deterministic reads, record everything.
fn reader_pins(
    reader: &inverda_core::Reader,
    seed: u64,
    id: u64,
    done: &AtomicBool,
) -> Vec<PinRec> {
    let mut rng = Rng::new(seed, 200 + id);
    let mut pins = Vec::new();
    let mut last_epoch = 0;
    while pins.len() < MAX_PINS_PER_READER {
        let pin = reader.pin();
        assert!(
            pin.epoch() >= last_epoch,
            "published epochs must be monotone: {} then {}",
            last_epoch,
            pin.epoch()
        );
        last_epoch = pin.epoch();
        let mut reads = Vec::new();
        for _ in 0..=rng.below(2) {
            let (version, table) = READS[rng.below(READS.len() as u64) as usize];
            let kind = match rng.below(4) {
                0 => 0,
                1 => 1,
                _ => 2 + rng.below(30) as u8,
            };
            let result = read_on(&pin, kind, version, table);
            reads.push((kind, version.to_string(), table.to_string(), result));
        }
        pins.push(PinRec {
            epoch: pin.epoch(),
            key_seq: pin.key_seq(),
            registry: pin.registry_dump(),
            reads,
        });
        if done.load(Ordering::Relaxed) {
            break;
        }
    }
    pins
}

/// Check every pin recorded at `epoch` against a fresh pin of the oracle,
/// replaying the pin's reads in its own order.
fn check_pins(oracle: &Arc<Inverda>, pins: &BTreeMap<u64, Vec<PinRec>>, epoch: u64, ctx: &str) {
    let Some(records) = pins.get(&epoch) else {
        return;
    };
    for rec in records {
        let opin = oracle.pin();
        assert_eq!(
            opin.key_seq(),
            rec.key_seq,
            "pinned key sequence diverged at epoch {epoch} ({ctx})"
        );
        assert_eq!(
            opin.registry_dump(),
            rec.registry,
            "pinned registry diverged at epoch {epoch} ({ctx})"
        );
        for (kind, version, table, expected) in &rec.reads {
            let actual = read_on(&opin, *kind, version, table);
            assert_eq!(
                &actual, expected,
                "read {kind} on {version}.{table} diverged at epoch {epoch} ({ctx})"
            );
        }
    }
}

/// One full history: concurrent run with `writers` writer clients, then
/// single-threaded oracle replay.
fn run_history(writers: usize, group: bool, seed: u64) {
    let ctx = format!("writers {writers}, group {group}, seed {seed}");

    let (db, dir) = if group {
        let dir = fresh_dir("db");
        let db = Inverda::open_in(
            &dir,
            DurabilityOptions {
                mode: DurabilityMode::Group,
                group_size: 3,
                checkpoint_every: None,
            },
        )
        .expect("open durable db");
        (db, Some(dir))
    } else {
        (Inverda::new_in_memory(), None)
    };
    for stmt in SETUP {
        db.execute(stmt).expect("setup");
    }
    let serving = ServingInverda::over(db);

    let done = Arc::new(AtomicBool::new(false));
    let (writer_recs, pin_recs) = std::thread::scope(|scope| {
        let mut writer_handles = Vec::new();
        for w in 0..writers {
            let client = serving.client();
            writer_handles.push(scope.spawn(move || writer_ops(&client, seed, w as u64)));
        }
        let mut reader_handles = Vec::new();
        for r in 0..READERS {
            let reader = serving.reader();
            let done = Arc::clone(&done);
            reader_handles.push(scope.spawn(move || reader_pins(&reader, seed, r as u64, &done)));
        }
        let mut writer_recs = Vec::new();
        for h in writer_handles {
            writer_recs.extend(h.join().expect("writer thread"));
        }
        done.store(true, Ordering::Relaxed);
        let mut pin_recs = Vec::new();
        for h in reader_handles {
            pin_recs.extend(h.join().expect("reader thread"));
        }
        (writer_recs, pin_recs)
    });
    serving.shutdown();

    // Linearizable commit order: the acknowledged epochs are exactly the
    // dense sequence 1..=total, no slot lost or duplicated.
    let mut writer_recs = writer_recs;
    writer_recs.sort_by_key(|r| r.epoch);
    let total = writers * OPS_PER_WRITER;
    assert_eq!(
        writer_recs.len(),
        total,
        "every request acknowledged ({ctx})"
    );
    for (i, rec) in writer_recs.iter().enumerate() {
        assert_eq!(rec.epoch, i as u64 + 1, "dense commit epochs ({ctx})");
    }

    let mut pins: BTreeMap<u64, Vec<PinRec>> = BTreeMap::new();
    for rec in pin_recs {
        pins.entry(rec.epoch).or_default().push(rec);
    }

    // Single-threaded replay on a fresh in-memory oracle.
    let oracle = Arc::new(Inverda::new_in_memory());
    for stmt in SETUP {
        oracle.execute(stmt).expect("oracle setup");
    }
    check_pins(&oracle, &pins, 0, &ctx);
    for rec in &writer_recs {
        let outcome = match &rec.op {
            ServingOp::Apply {
                version,
                table,
                writes,
            } => oracle
                .apply_many(version, table, writes.clone())
                .map(ServingOutcome::Applied),
            ServingOp::Execute(script) => oracle.execute(script).map(ServingOutcome::Executed),
            ServingOp::Checkpoint => oracle.checkpoint().map(|()| ServingOutcome::Checkpointed),
        };
        assert_eq!(
            outcome_string(&outcome),
            rec.outcome,
            "statement outcome diverged at epoch {} ({ctx})",
            rec.epoch
        );
        check_pins(&oracle, &pins, rec.epoch, &ctx);
    }

    drop(serving);
    if let Some(dir) = dir {
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn sweep(writers: usize) {
    for seed in 0..SEEDS_PER_CONFIG {
        for group in [false, true] {
            run_history(writers, group, seed);
        }
    }
}

#[test]
fn serving_oracle_width_1() {
    sweep(1);
}

#[test]
fn serving_oracle_width_2() {
    sweep(2);
}

#[test]
fn serving_oracle_width_4() {
    sweep(4);
}

/// Read-time catch-up belongs to the live database: a pin reads a `Storage`
/// of its own, which carries no change log, so the stale snapshot the live
/// store goes on to patch is resolved cold by the pin.
#[test]
fn a_fresh_pin_catches_nothing_up() {
    let db = Arc::new(Inverda::new_in_memory());
    for script in SETUP {
        db.execute(script).expect("setup");
    }
    for i in 0..6 {
        let row = vec![
            Value::text(format!("author{}", i % 2)),
            Value::text(format!("task{i}")),
            Value::Int(1),
        ];
        db.insert("TasKy", "Task", row).expect("row");
    }
    db.scan("TasKy2", "Task").expect("warm");
    db.insert("Do!", "Todo", vec!["author0".into(), "stale now".into()])
        .expect("sibling write");
    let pin = db.pin();
    let pinned = pin.scan("TasKy2", "Task").expect("pinned read");
    let stats = pin.snapshot_stats();
    assert_eq!(stats.caught_up, 0, "{stats:?}");
    assert!(stats.misses > 0, "{stats:?}");
    let live = db.scan("TasKy2", "Task").expect("live read");
    assert!(db.snapshot_stats().caught_up > 0);
    assert_eq!(*pinned, *live);
}

/// A published epoch holds the snapshots the statement before it
/// maintained: a pin taken after a served write through `Do!.Todo` reads
/// that relation warm, without resolving anything.
#[test]
fn a_pin_after_a_served_write_reads_warm() {
    let db = Inverda::new_in_memory();
    for script in SETUP {
        db.execute(script).expect("setup");
    }
    for i in 0..6 {
        let row = vec![
            Value::text(format!("author{}", i % 2)),
            Value::text(format!("task{i}")),
            Value::Int(1),
        ];
        db.insert("TasKy", "Task", row).expect("row");
    }
    db.scan("Do!", "Todo").expect("warm");
    let serving = ServingInverda::over(db);
    let reply = serving
        .client()
        .insert("Do!", "Todo", vec!["author0".into(), "served".into()]);
    let Ok(ServingOutcome::Applied(keys)) = reply.outcome else {
        panic!("served write failed: {reply:?}");
    };
    let key = keys[0].expect("an insert mints its key");

    let pin = serving.reader().pin();
    assert_eq!(pin.count("Do!", "Todo").expect("pinned count"), 7);
    let row = pin.get("Do!", "Todo", key).expect("pinned get");
    assert_eq!(row.expect("the served row")[1], Value::text("served"));
    let stats = pin.snapshot_stats();
    assert_eq!(stats.misses, 0, "{stats:?}");
    assert!(stats.hits >= 1, "{stats:?}");
}

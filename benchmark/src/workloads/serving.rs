//! `serving_pinned`: the served request. A durable TasKy database (group
//! commit, group size 64) behind `ServingInverda`; one client thread in a
//! closed loop plus the engine's own pipeline thread.
//!
//! Iteration: pin the latest epoch; one logical write through `Do!.Todo`,
//! blocking until the pipeline's ack (with a single client every request is a
//! group of its own, so every ack includes one fsync); sixteen `get`s and one
//! `count` through the pin taken *before* the write, which must still show the
//! state of its own epoch; drop the pin.
//!
//! ISSUE.md asked for `client.insert`. The write kinds cycle I,U,I,U,D here as
//! in the TasKy workloads: an ack costs O(rows) while a pin is outstanding, and
//! insert-only rounds would grow the table 18 % across the window.

use super::tasky::{Stream, Via, SEED_ROWS};
use super::{Plan, Scale, Workload};
use crate::harness::{Class, Fnv, Recorder};
use inverda_core::{
    Client, DurabilityMode, DurabilityOptions, Inverda, LogicalWrite, Reader, ServingInverda,
    ServingOutcome,
};
use inverda_storage::Key;
use inverda_workloads::tasky as gen;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const OPTIONS: DurabilityOptions = DurabilityOptions {
    mode: DurabilityMode::Group,
    group_size: 64,
    checkpoint_every: None,
};
pub const FLUSH_POLICY: &str = "group commit, group_size 64, one fsync per drained pipeline group";

/// Keys read through the pin per version; two versions make sixteen `get`s.
const RECENT: usize = 8;
const PINNED_GETS: [(&str, &str, &str); 2] = [
    ("TasKy", "Task", "pinned.get"),
    ("Do!", "Todo", "pinned.get"),
];
/// Writes of each after-window probe stream.
const PROBE_WRITES: usize = 100;

fn ack(client: &Client, write: LogicalWrite) -> inverda_core::Result<Vec<Option<Key>>> {
    match client.apply_many("Do!", "Todo", vec![write]).outcome? {
        ServingOutcome::Applied(keys) => Ok(keys),
        other => panic!("an Apply request was answered with {other:?}"),
    }
}

/// The three TasKy versions over `tasks` loaded rows, every version resolved once.
/// Returns the rows visible through `Do!.Todo`.
fn install(db: &Inverda, tasks: usize, rec: &mut Recorder) -> usize {
    for script in [gen::SCRIPT_TASKY, gen::SCRIPT_DO, gen::SCRIPT_TASKY2] {
        rec.call("setup.execute", || db.execute(script));
    }
    gen::load_tasks(db, tasks);
    for version in ["TasKy", "TasKy2"] {
        rec.call("setup.cold_scan", || db.scan(version, "Task"));
    }
    rec.call("setup.cold_scan", || db.scan("Do!", "Todo"))
        .map_or(0, |todo| todo.len())
}

fn state_digest(db: &Inverda, rec: &mut Recorder) -> u64 {
    let mut h = Fnv::default();
    for (version, table) in [
        ("TasKy", "Task"),
        ("Do!", "Todo"),
        ("TasKy2", "Task"),
        ("TasKy2", "Author"),
    ] {
        if let Some(rel) = rec.call("verify.scan", || db.scan(version, table)) {
            h.relation(&format!("{version}.{table}"), &rel);
        }
    }
    h.finish()
}

/// A directory of this process's own under `benchmark/out/`.
fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("serving-{}", std::process::id()))
}

pub struct Serving {
    dir: PathBuf,
    tasks: usize,
    seed: u64,
    /// Dropped in this order by `verify`: the handles, the pipeline, the engine.
    client: Option<Client>,
    reader: Option<Reader>,
    serving: Option<ServingInverda>,
    db: Option<Arc<Inverda>>,
    stream: Stream,
    /// Rows visible through Do!.Todo before the stream started.
    base: usize,
    /// Statements logged since the directory was created.
    records: u64,
    wal_start: u64,
    epochs: u64,
    wal_bytes_per_write: f64,
}

pub fn build(
    seed: u64,
    scale: Scale,
    rounds: usize,
    rec: &mut Recorder,
) -> (Box<dyn Workload>, Plan) {
    let tasks = if scale == Scale::Smoke { 300 } else { 10_000 };
    let plan = Plan::of(scale, rounds, 150, 700, 10);
    let dir = scratch_dir();
    // A left-over directory would be recovered from, not created.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory under benchmark/out");

    let db = Arc::new(Inverda::open_in(&dir, OPTIONS).expect("open a fresh durable database"));
    let base = install(&db, tasks, rec);
    let serving = ServingInverda::new(Arc::clone(&db));
    let mut w = Serving {
        client: Some(serving.client()),
        reader: Some(serving.reader()),
        serving: Some(serving),
        stream: Stream::new(Via::Do, seed, &[], plan.warmup + plan.rounds * plan.round),
        base,
        records: 4,
        wal_start: 0,
        epochs: 0,
        wal_bytes_per_write: 0.0,
        dir,
        tasks,
        seed,
        db: Some(db),
    };
    let client = w.client.as_ref().expect("set above");
    w.stream.drive(SEED_ROWS, |write| {
        rec.call("setup.seed", || ack(client, write))
    });
    w.wal_start = w.db.as_ref().and_then(|db| db.wal_len()).unwrap_or(0);
    (Box::new(w), plan)
}

impl Workload for Serving {
    fn iterate(&mut self, rec: &mut Recorder, n: usize) {
        let client = self.client.as_ref().expect("the pipeline is running");
        let reader = self.reader.as_ref().expect("the pipeline is running");
        for _ in 0..n {
            let (pin, _) = rec.timed("pin", |rec| {
                rec.call("pin.acquire", || Ok::<_, String>(reader.pin()))
            });
            let Some(pin) = pin else { return };

            let step = self.stream.next();
            let key = rec.txn(Class::Write, step.txn, |rec| {
                rec.call("ack", || ack(client, step.write))
            });

            // The pin predates the write: it must show the model as it was.
            let (live, base) = (&self.stream.live, self.base);
            rec.txn(Class::Read, "txn.read", |rec| {
                for (version, table, span) in PINNED_GETS {
                    for (key, text) in live.iter().rev().take(RECENT) {
                        let row = rec.call(span, || pin.get(version, table, *key));
                        let seen = row
                            .flatten()
                            .is_some_and(|r| r[1].as_text() == Some(text.as_str()));
                        rec.check(seen, "pinned get shows the pinned epoch");
                    }
                }
                let n = rec.call("pinned.count", || pin.count("Do!", "Todo"));
                rec.check(
                    n == Some(base + live.len()),
                    "pinned count shows the pinned epoch",
                );
            });
            rec.timed("unpin", |rec| {
                rec.call("pin.release", || {
                    drop(pin);
                    Ok::<_, String>(())
                });
            });
            self.stream.commit(step.effect, key);
        }
    }

    /// The live state, then the state a fresh process recovers from the
    /// directory: the two must be equal.
    fn verify(&mut self, rec: &mut Recorder) -> u64 {
        self.epochs = self.reader.as_ref().map_or(0, Reader::epoch);
        self.client = None;
        self.reader = None;
        if let Some(serving) = self.serving.take() {
            serving.shutdown();
        }
        let db = self.db.take().expect("verify runs once");
        rec.call("verify.flush", || db.flush());
        let window_writes = self.stream.writes - SEED_ROWS as u64;
        let wal_end = db.wal_len().unwrap_or(0);
        self.wal_bytes_per_write = (wal_end - self.wal_start) as f64 / window_writes as f64;
        self.records += self.stream.writes;

        for (key, text) in &self.stream.live {
            for (version, table, _) in PINNED_GETS {
                let row = rec.call("verify.get", || db.get(version, table, *key));
                let seen = row
                    .flatten()
                    .is_some_and(|r| r[1].as_text() == Some(text.as_str()));
                rec.check(seen, "live row readable after the window");
            }
        }
        let live = state_digest(&db, rec);
        // The last handle: dropping it closes the log before it is reopened.
        rec.check(
            Arc::into_inner(db).is_some(),
            "no handle outlives the pipeline",
        );

        let recovered = rec
            .call("verify.recover", || Inverda::open(&self.dir))
            .map(|db| state_digest(&db, rec));
        rec.check(recovered == Some(live), "recovered state equals live state");
        let mut h = self.stream.minted;
        h.u64(live);
        h.finish()
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
        // The same kind of write stream three more times: acknowledged by the
        // pipeline with no pin outstanding, applied directly to a durable
        // engine, and applied to an in-memory engine.
        let Some(db) = rec.call("probe.open", || Inverda::open_in(&self.dir, OPTIONS)) else {
            return;
        };
        let serving = ServingInverda::over(db);
        let client = serving.client();
        Stream::new(Via::Do, self.seed + 1, &[], PROBE_WRITES)
            .drive(SEED_ROWS + PROBE_WRITES, |write| {
                rec.call("probe.ack_unpinned", || ack(&client, write))
            });
        drop(client);
        drop(serving);

        let Some(db) = rec.call("probe.open", || Inverda::open_in(&self.dir, OPTIONS)) else {
            return;
        };
        let memory = Inverda::new_in_memory();
        install(&memory, self.tasks, rec);
        for (engine, span) in [(&db, "probe.direct_write"), (&memory, "probe.memory_write")] {
            Stream::new(Via::Do, self.seed + 2, &[], PROBE_WRITES)
                .drive(SEED_ROWS + PROBE_WRITES, |write| {
                    rec.call(span, || engine.apply_many("Do!", "Todo", vec![write]))
                });
        }
        Stream::new(Via::Do, self.seed + 3, &[], 0).drive(SEED_ROWS, |write| {
            let key = rec.call("probe.write", || db.apply_many("Do!", "Todo", vec![write]));
            rec.call("probe.flush", || db.flush());
            key
        });
        rec.call("probe.checkpoint", || db.checkpoint());

        let pinned = rec.p50_us("ack");
        let unpinned = rec.p50_outside_us("probe.ack_unpinned");
        let direct = rec.p50_outside_us("probe.direct_write");
        let memory = rec.p50_outside_us("probe.memory_write");
        out.extend([
            (
                "core.durability.wal_bytes_per_write",
                self.wal_bytes_per_write,
            ),
            ("core.durability.memory_write_us", memory),
            ("core.durability.direct_write_us", direct),
            ("core.durability.overhead_us", direct - memory),
            (
                "core.durability.flush_us",
                rec.p50_outside_us("probe.flush"),
            ),
            (
                "core.durability.checkpoint_ms",
                rec.p50_outside_us("probe.checkpoint") / 1e3,
            ),
            (
                "core.durability.recovery_ms",
                rec.p50_outside_us("verify.recover") / 1e3,
            ),
            ("core.durability.recovery_records", self.records as f64),
            ("core.serving.ack_pinned_us", pinned),
            ("core.serving.ack_unpinned_us", unpinned),
            ("core.serving.pin_retention_us", pinned - unpinned),
            ("core.serving.pipeline_overhead_us", unpinned - direct),
            ("core.serving.pin_us", rec.p50_us("pin.acquire")),
            ("core.serving.pinned_get_us", rec.p50_us("pinned.get")),
            ("core.serving.pinned_count_us", rec.p50_us("pinned.count")),
            ("core.serving.epochs", self.epochs as f64),
        ]);
    }
}

impl Drop for Serving {
    fn drop(&mut self) {
        self.client = None;
        self.reader = None;
        self.serving = None;
        self.db = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

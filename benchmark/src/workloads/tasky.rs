//! `tasky_do_mix` and `tasky2_mint_mix`: the paper's TasKy / Do! / TasKy2
//! genealogy with the data materialized at TasKy.
//!
//! Both run the same strictly alternating (write txn, read txn) loop and the
//! same read txn; they differ only in the version written through. A write
//! through `Do!.Todo` (SPLIT + DROP COLUMN) takes the mint-free delta path and
//! patches every sibling snapshot. A write through `TasKy2.Task`
//! (FK DECOMPOSE) takes the skolem-minting staged path and invalidates the
//! `Do!.Todo` snapshot, which the following read resolves cold.
//!
//! Sizing (10 000 tasks, reference box): a `Do!` write is ~0.3 ms and the read
//! txn ~17 ms, nearly all of it the `TasKy2` filter, which is O(rows) after a
//! foreign write. ISSUE.md proposed 100 000 tasks for `tasky_do_mix`; there
//! the read txn is ~170 ms and a four-second round would hold ~20 pairs, too
//! few for a per-round p90. A `TasKy2` write is ~19 ms, its read txn ~8.5 ms.

use super::{Plan, Scale, Workload};
use crate::harness::{Class, Fnv, Recorder, Rng};
use inverda_core::{Inverda, LogicalWrite};
use inverda_storage::{Expr, Key, Relation, Value};
use inverda_workloads::tasky as gen;
use std::collections::VecDeque;
use std::sync::Arc;

/// The version a write stream goes through, by its place in `VERSIONS`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Via {
    Tasky = 0,
    Do = 1,
    Tasky2 = 2,
}

struct Version {
    name: &'static str,
    table: &'static str,
    /// Position of the task text in this version's row.
    task_col: usize,
    get: &'static str,
    filter: &'static str,
    scan: &'static str,
}

const VERSIONS: [Version; 3] = [
    Version {
        name: "TasKy",
        table: "Task",
        task_col: 1,
        get: "get.tasky",
        filter: "filter.tasky",
        scan: "scan.tasky",
    },
    Version {
        name: "Do!",
        table: "Todo",
        task_col: 1,
        get: "get.do",
        filter: "filter.do",
        scan: "scan.do",
    },
    Version {
        name: "TasKy2",
        table: "Task",
        task_col: 0,
        get: "get.tasky2",
        filter: "filter.tasky2",
        scan: "scan.tasky2",
    },
];

/// Rows written before the warm-up round, so that the four most recent keys
/// a read txn fetches are always the workload's own.
pub(super) const SEED_ROWS: usize = 8;
const RECENT: usize = 4;

enum Kind {
    Insert,
    /// Update the `back`-th most recently inserted live row.
    Update {
        back: usize,
    },
    /// Delete the oldest live row.
    Delete,
}

/// The paper's 20/20/10 insert/update/delete mix as a fixed cycle, so every
/// round holds exactly the same kinds.
const CYCLE: [fn(&mut Rng) -> Kind; 5] = [
    |_| Kind::Insert,
    |rng| Kind::Update {
        back: rng.below(RECENT),
    },
    |_| Kind::Insert,
    |rng| Kind::Update {
        back: rng.below(RECENT),
    },
    |_| Kind::Delete,
];

struct Op {
    kind: Kind,
    /// The row written (empty for a delete) and its task text.
    row: Vec<Value>,
    text: String,
    /// `task = <text of the latest live write>`, counted through each version
    /// by the read txn that follows; exactly one row matches.
    probe: Expr,
}

fn generate(via: Via, rng: &mut Rng, authors: &[Key], pairs: usize) -> Vec<Op> {
    let mut live: VecDeque<String> = VecDeque::new();
    let mut ops = Vec::with_capacity(SEED_ROWS + pairs);
    for i in 0..SEED_ROWS + pairs {
        let kind = if i < SEED_ROWS {
            Kind::Insert
        } else {
            CYCLE[(i - SEED_ROWS) % CYCLE.len()](rng)
        };
        let text = format!("bench {i:07} {:08x}", rng.next_u64() as u32);
        let row = match (&kind, via) {
            (Kind::Delete, _) => Vec::new(),
            (_, Via::Tasky) => vec![
                Value::text(format!("author{:03}", rng.below(gen::AUTHOR_POOL))),
                Value::text(&text),
                Value::Int(1),
            ],
            (_, Via::Do) => vec![
                Value::text(format!("author{:03}", rng.below(gen::AUTHOR_POOL))),
                Value::text(&text),
            ],
            (_, Via::Tasky2) => vec![
                Value::text(&text),
                Value::Int(1),
                Value::Int(authors[rng.below(authors.len())].0 as i64),
            ],
        };
        match kind {
            Kind::Insert => live.push_back(text.clone()),
            Kind::Update { back } => {
                let at = live.len() - 1 - back;
                live[at] = text.clone();
            }
            Kind::Delete => {
                live.pop_front();
            }
        }
        let latest = match kind {
            Kind::Delete => live.back().expect("live rows remain").clone(),
            _ => text.clone(),
        };
        ops.push(Op {
            kind,
            row,
            text,
            probe: Expr::col("task").eq(Expr::lit(latest)),
        });
    }
    ops
}

/// A generated write stream and the model of the rows it has left alive.
pub(super) struct Stream {
    ops: std::vec::IntoIter<Op>,
    /// Rows the stream wrote and has not deleted, oldest first, with the task
    /// text last written to each.
    pub(super) live: VecDeque<(Key, String)>,
    /// Digest of the keys the engine minted for our inserts, in order.
    pub(super) minted: Fnv,
    pub(super) writes: u64,
}

/// One logical statement of a stream, ready to be applied.
pub(super) struct Step {
    pub(super) write: LogicalWrite,
    /// Names of the transaction's root span and of the engine call inside it.
    pub(super) txn: &'static str,
    pub(super) call: &'static str,
    /// `task = <text of the latest live write>`: exactly one row matches.
    pub(super) probe: Expr,
    pub(super) effect: Effect,
}

/// What a write does to the model once it is committed.
pub(super) enum Effect {
    Inserted(String),
    Updated(usize, String),
    Deleted,
}

impl Stream {
    /// `SEED_ROWS` inserts, then `pairs` writes of the I,U,I,U,D cycle.
    pub(super) fn new(via: Via, seed: u64, authors: &[Key], pairs: usize) -> Stream {
        Stream {
            ops: generate(via, &mut Rng::new(seed), authors, pairs).into_iter(),
            live: VecDeque::new(),
            minted: Fnv::default(),
            writes: 0,
        }
    }

    pub(super) fn next(&mut self) -> Step {
        let op = self
            .ops
            .next()
            .expect("operations were generated for every round");
        self.writes += 1;
        let (write, effect, txn, call) = match op.kind {
            Kind::Insert => (
                LogicalWrite::Insert(op.row),
                Effect::Inserted(op.text),
                "txn.write.insert",
                "write.insert",
            ),
            Kind::Update { back } => {
                let at = self.live.len() - 1 - back;
                (
                    LogicalWrite::Update(self.live[at].0, op.row),
                    Effect::Updated(at, op.text),
                    "txn.write.update",
                    "write.update",
                )
            }
            Kind::Delete => (
                LogicalWrite::Delete(self.live[0].0),
                Effect::Deleted,
                "txn.write.delete",
                "write.delete",
            ),
        };
        Step {
            write,
            txn,
            call,
            probe: op.probe,
            effect,
        }
    }

    /// Apply a step's effect to the model; `minted` is what the engine
    /// answered (the key of an insert).
    pub(super) fn commit(&mut self, effect: Effect, minted: Option<Vec<Option<Key>>>) {
        match effect {
            Effect::Inserted(text) => {
                if let Some(key) = minted.and_then(|keys| keys.first().copied().flatten()) {
                    self.minted.u64(key.0);
                    self.live.push_back((key, text));
                }
            }
            Effect::Updated(at, text) => self.live[at].1 = text,
            Effect::Deleted => {
                self.live.pop_front();
            }
        }
    }

    /// Drive `n` writes through `apply`, which performs one and returns the
    /// engine's answer.
    pub(super) fn drive(
        &mut self,
        n: usize,
        mut apply: impl FnMut(LogicalWrite) -> Option<Vec<Option<Key>>>,
    ) {
        for _ in 0..n {
            let step = self.next();
            let minted = apply(step.write);
            self.commit(step.effect, minted);
        }
    }
}

pub struct Tasky {
    db: Inverda,
    via: Via,
    stream: Stream,
    /// Loaded rows visible through each version.
    base: [usize; 3],
    read_txns: u64,
    rows_read: u64,
    tasks: usize,
}

pub fn build(
    via: Via,
    seed: u64,
    scale: Scale,
    rounds: usize,
    rec: &mut Recorder,
) -> (Box<dyn Workload>, Plan) {
    let tasks = if scale == Scale::Smoke { 300 } else { 10_000 };
    let plan = match via {
        Via::Tasky2 => Plan::of(scale, rounds, 40, 150, 10),
        _ => Plan::of(scale, rounds, 60, 240, 10),
    };

    let db = Inverda::new_in_memory();
    for script in [gen::SCRIPT_TASKY, gen::SCRIPT_DO, gen::SCRIPT_TASKY2] {
        rec.call("setup.execute", || db.execute(script));
    }
    let loaded = rec
        .call("setup.load", || {
            Ok::<_, String>(gen::load_tasks(&db, tasks))
        })
        .unwrap_or_default();

    // First cold resolution of every version, its column index and its
    // point-lookup path.
    let mut base = [0usize; 3];
    for (v, seen) in VERSIONS.iter().zip(&mut base) {
        *seen = rec
            .call("setup.cold_scan", || db.scan(v.name, v.table))
            .map_or(0, |rel| rel.len());
        let probe = Expr::col("task").eq(Expr::lit("task number 0"));
        rec.call("setup.cold_filter", || {
            db.query(v.name, v.table).filter(probe).count()
        });
        rec.call("setup.cold_get", || db.get(v.name, v.table, loaded[0]));
    }
    rec.check(base[0] == tasks && base[2] == tasks, "loaded rows visible");
    let authors: Vec<Key> = rec
        .call("setup.cold_scan", || db.scan("TasKy2", "Author"))
        .map_or_else(Vec::new, |rel| rel.keys().collect());
    rec.check(authors.len() == gen::AUTHOR_POOL.min(tasks), "author pool");

    let pairs = plan.warmup + plan.rounds * plan.round;
    let mut w = Tasky {
        db,
        via,
        stream: Stream::new(via, seed, &authors, pairs),
        base,
        read_txns: 0,
        rows_read: 0,
        tasks,
    };
    for _ in 0..SEED_ROWS {
        w.write(rec);
    }
    (Box::new(w), plan)
}

impl Tasky {
    /// One logical statement through the written version; returns the probe
    /// of the read txn that follows.
    fn write(&mut self, rec: &mut Recorder) -> Expr {
        let v = &VERSIONS[self.via as usize];
        let db = &self.db;
        let step = self.stream.next();
        let minted = rec.txn(Class::Write, step.txn, |rec| {
            rec.call(step.call, || {
                db.apply_many(v.name, v.table, vec![step.write])
            })
        });
        self.stream.commit(step.effect, minted);
        step.probe
    }

    /// Through each version: the four most recently inserted rows by key, a
    /// filtered count, and a full scan. Every result is checked.
    fn read(&mut self, rec: &mut Recorder, probe: &Expr) {
        let (db, live, base) = (&self.db, &self.stream.live, &self.base);
        let rows = rec.txn(Class::Read, "txn.read", |rec| {
            let mut rows = 0;
            for (v, base) in VERSIONS.iter().zip(base) {
                for (key, text) in live.iter().rev().take(RECENT) {
                    let row = rec.call(v.get, || db.get(v.name, v.table, *key));
                    let seen = row
                        .flatten()
                        .is_some_and(|r| r[v.task_col].as_text() == Some(text.as_str()));
                    rec.check(seen, "written row readable by key");
                }
                let hits = rec.call(v.filter, || {
                    db.query(v.name, v.table).filter(probe.clone()).count()
                });
                rec.check(hits == Some(1), "latest write found by filter");
                let len = rec
                    .call(v.scan, || db.scan(v.name, v.table))
                    .map_or(0, |rel| rel.len());
                rec.check(len == base + live.len(), "scan length");
                rows += len;
            }
            rows
        });
        self.read_txns += 1;
        self.rows_read += rows as u64;
    }

    fn scan(&self, rec: &mut Recorder, version: &str, table: &str) -> Arc<Relation> {
        let db = &self.db;
        rec.call("verify.scan", || db.scan(version, table))
            .unwrap_or_else(|| Arc::new(Relation::with_columns("missing", Vec::<String>::new())))
    }
}

impl Workload for Tasky {
    fn iterate(&mut self, rec: &mut Recorder, n: usize) {
        for _ in 0..n {
            let probe = self.write(rec);
            self.read(rec, &probe);
        }
    }

    fn verify(&mut self, rec: &mut Recorder) -> u64 {
        let tasky = self.scan(rec, "TasKy", "Task");
        let todo = self.scan(rec, "Do!", "Todo");
        let task2 = self.scan(rec, "TasKy2", "Task");
        let author = self.scan(rec, "TasKy2", "Author");

        // Do!.Todo is exactly the prio-1 tasks, without the prio column.
        let mut prio1 = 0;
        let mut todo_ok = true;
        // TasKy2 holds every task, its author behind the foreign key.
        let mut task2_ok = tasky.len() == task2.len();
        for (key, row) in tasky.iter() {
            if row[2] == Value::Int(1) {
                prio1 += 1;
                todo_ok &= todo.get(key).is_some_and(|t| t[..] == row[..2]);
            }
            task2_ok &= task2.get(key).is_some_and(|t| {
                let name = t[2]
                    .as_int()
                    .and_then(|fk| author.get(Key(fk as u64)))
                    .map(|a| &a[0]);
                t[0] == row[1] && t[1] == row[2] && name == Some(&row[0])
            });
        }
        rec.check(todo_ok && prio1 == todo.len(), "Do!.Todo == prio-1 tasks");
        rec.check(task2_ok, "TasKy2.Task + Author == TasKy.Task");

        let db = &self.db;
        for (key, text) in &self.stream.live {
            for v in &VERSIONS {
                let row = rec.call("verify.get", || db.get(v.name, v.table, *key));
                let seen = row
                    .flatten()
                    .is_some_and(|r| r[v.task_col].as_text() == Some(text.as_str()));
                rec.check(seen, "live row readable through every version");
            }
        }

        let mut h = self.stream.minted;
        h.relation("TasKy.Task", &tasky);
        h.relation("Do!.Todo", &todo);
        h.relation("TasKy2.Task", &task2);
        h.relation("TasKy2.Author", &author);
        h.finish()
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, out: &mut Vec<(&'static str, f64)>) {
        match self.via {
            Via::Do => {
                // The floor under every logical write: the same statements
                // against the materialized table version.
                let db = &self.db;
                Stream::new(Via::Tasky, 0, &[], 25).drive(SEED_ROWS + 25, |write| {
                    rec.call("probe.physical", || {
                        db.apply_many("TasKy", "Task", vec![write])
                    })
                });
                let physical: usize = self.db.physical_tables().iter().map(|(_, n)| n).sum();
                let logical = rec
                    .call("probe.count", || db.count("TasKy", "Task"))
                    .unwrap_or(1);
                out.extend([
                    (
                        "storage.load_rows_per_s",
                        self.tasks as f64 / (rec.p50_outside_us("setup.load") / 1e6),
                    ),
                    ("storage.physical_rows", physical as f64),
                    (
                        "storage.rows_per_logical_row",
                        physical as f64 / logical as f64,
                    ),
                    (
                        "core.write.physical_apply_us",
                        rec.p50_outside_us("probe.physical"),
                    ),
                    ("core.write.delta_insert_us", rec.p50_us("write.insert")),
                    ("core.write.delta_update_us", rec.p50_us("write.update")),
                    ("core.write.delta_delete_us", rec.p50_us("write.delete")),
                    // Per read txn, summed over the three versions: the
                    // three add up to `read_p50_us`.
                    ("core.query.get_us", rec.p50_per_txn_us("get.")),
                    ("core.query.filter_us", rec.p50_per_txn_us("filter.")),
                    ("core.query.scan_us", rec.p50_per_txn_us("scan.")),
                    (
                        "core.query.rows_per_read",
                        self.rows_read as f64 / self.read_txns as f64,
                    ),
                ]);
            }
            Via::Tasky => {}
            Via::Tasky2 => out.extend([
                ("core.write.mint_insert_us", rec.p50_us("write.insert")),
                ("core.write.mint_update_us", rec.p50_us("write.update")),
                ("core.write.mint_delete_us", rec.p50_us("write.delete")),
                ("core.edb.cold_scan_us", rec.p50_us("scan.do")),
            ]),
        }
    }
}

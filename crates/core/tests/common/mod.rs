//! The twin harness of the core differential suites.
//!
//! A differential suite runs a *subject* database beside a *reference*
//! twin: every statement runs on both, outcomes and minted keys must agree,
//! and after each statement the two are compared by a text dump of every
//! version ([`visible`], or [`state`] with the id-minting state). What a
//! suite varies is the pair of [`Side`]s — snapshot reuse on against off
//! (which is also fused γ-chains against hop by hop), in memory or on a
//! group-commit log — the [`Genealogy`] and what it checks on top.
//!
//! Generated writes are one [`Op`] enum with one strategy per op kind
//! ([`insert`], [`update`], [`delete`], [`materialize`]): a suite composes
//! its own `prop_oneof!` from them, in its own arm order, and repeats an arm
//! to weight it.

// Every test binary compiles this module as its own `mod common;` and uses
// only part of it; the rest would be dead code in that binary.
#![allow(dead_code)]

use inverda_core::{DurabilityMode, DurabilityOptions, Inverda, Result};
use inverda_storage::{Key, Value};
use proptest::prelude::*;
use std::convert::Infallible;
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The paper's TasKy triple: SPLIT + DROP COLUMN to `Do!`, the id-minting
/// FK-DECOMPOSE + RENAME to `TasKy2`.
pub const TASKY_SCRIPT: &str =
    "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio); \
     CREATE SCHEMA VERSION Do! FROM TasKy WITH \
       SPLIT TABLE Task INTO Todo WITH prio = 1; \
       DROP COLUMN prio FROM Todo DEFAULT 1; \
     CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
       DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author; \
       RENAME COLUMN author IN Author TO name;";

/// An overlapping two-arm SPLIT: rows with `3 <= a < 5` are twins.
pub const SPLIT_SCRIPT: &str = "CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b); \
     CREATE SCHEMA VERSION V2 FROM V1 WITH \
       SPLIT TABLE T INTO R WITH a < 5, S WITH a >= 3;";

/// An id-minting SMO *chain*: FK-DECOMPOSE (the generator) with a SPLIT
/// stacked on the decomposed side, so staged/minting mappings sit in the
/// middle of multi-hop drains and of the backward maintenance walk.
pub const MINT_CHAIN_SCRIPT: &str = "CREATE SCHEMA VERSION V1 WITH CREATE TABLE D(a, b, c); \
     CREATE SCHEMA VERSION V2 FROM V1 WITH \
       DECOMPOSE TABLE D INTO D(a, b), U(c) ON FOREIGN KEY c; \
     CREATE SCHEMA VERSION V3 FROM V2 WITH \
       SPLIT TABLE D INTO W WITH a < 3;";

/// A genealogy under test: the script that builds it, the `version.table`s
/// generated writes go through, the versions migrations move the data to,
/// and how generated values become a row of a target.
pub struct Genealogy {
    pub script: String,
    pub targets: Vec<(String, String)>,
    pub versions: Vec<String>,
    pub row: fn(&Inverda, &str, &str, &[i64]) -> Vec<Value>,
}

impl Genealogy {
    /// A genealogy of the scripts above, whose rows [`row`] builds.
    fn new(script: &str, targets: &[(&str, &str)], versions: &[&str]) -> Self {
        Genealogy {
            script: script.to_string(),
            targets: targets
                .iter()
                .map(|&(v, t)| (v.to_string(), t.to_string()))
                .collect(),
            versions: versions.iter().map(|v| v.to_string()).collect(),
            row,
        }
    }
}

/// TasKy, written through `TasKy.Task` and `Do!.Todo`.
pub fn tasky() -> Genealogy {
    Genealogy::new(
        TASKY_SCRIPT,
        &[("TasKy", "Task"), ("Do!", "Todo")],
        &["TasKy", "Do!", "TasKy2"],
    )
}

/// The overlapping SPLIT, written through its source and both arms.
pub fn split() -> Genealogy {
    Genealogy::new(
        SPLIT_SCRIPT,
        &[("V1", "T"), ("V2", "R"), ("V2", "S")],
        &["V1", "V2"],
    )
}

/// The minting chain, written through its source and its far end.
pub fn mint_chain() -> Genealogy {
    Genealogy::new(
        MINT_CHAIN_SCRIPT,
        &[("V1", "D"), ("V3", "W")],
        &["V1", "V2", "V3"],
    )
}

/// A row for `table` of the genealogies above from the generated values.
fn row(_: &Inverda, _: &str, table: &str, vals: &[i64]) -> Vec<Value> {
    match table {
        // TasKy genealogy rows.
        "Task" => vec![
            Value::text(format!("author{}", vals[0])),
            Value::text(format!("task{}", vals[1])),
            Value::Int(vals[2] % 3 + 1),
        ],
        "Todo" => vec![
            Value::text(format!("author{}", vals[0])),
            Value::text(format!("todo{}", vals[1])),
        ],
        // Minting-chain genealogy rows: D/W carry (a, b, c) where c is
        // the to-be-decomposed payload — few distinct values, so the
        // generated ids deduplicate and get reused across writes.
        "D" | "W" => vec![
            Value::Int(vals[0] % 5),
            Value::text(format!("b{}", vals[1])),
            Value::text(format!("c{}", vals[2] % 3)),
        ],
        // Overlapping-split genealogy rows: T/R/S carry (a, b).
        _ => vec![Value::Int(vals[0]), Value::text(format!("b{}", vals[1]))],
    }
}

/// A generated statement: a write through `target` (an index into
/// [`Genealogy::targets`]), a migration to `version` (modulo
/// [`Genealogy::versions`]), or a suite's own read `Q`, which
/// [`Twin::apply`] hands back rather than applies. Slots index the keys
/// minted so far, modulo their number.
#[derive(Debug, Clone)]
pub enum Op<Q = Infallible> {
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
    Query(Q),
}

/// The generated values a row is built from.
fn vals() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0i64..6, 4..5)
}

/// An [`Op::Insert`] through a target drawn from `target`.
pub fn insert<Q: Debug + 'static>(
    target: impl Strategy<Value = usize> + 'static,
) -> impl Strategy<Value = Op<Q>> {
    (target, vals()).prop_map(|(target, vals)| Op::Insert { target, vals })
}

/// An [`Op::Update`] through a target drawn from `target`.
pub fn update<Q: Debug + 'static>(
    target: impl Strategy<Value = usize> + 'static,
) -> impl Strategy<Value = Op<Q>> {
    (target, 0usize..12, vals()).prop_map(|(target, slot, vals)| Op::Update { target, slot, vals })
}

/// An [`Op::Delete`] through a target drawn from `target`.
pub fn delete<Q: Debug + 'static>(
    target: impl Strategy<Value = usize> + 'static,
) -> impl Strategy<Value = Op<Q>> {
    (target, 0usize..12).prop_map(|(target, slot)| Op::Delete { target, slot })
}

/// An [`Op::Materialize`] to a version drawn from `version`.
pub fn materialize<Q: Debug + 'static>(
    version: impl Strategy<Value = usize> + 'static,
) -> impl Strategy<Value = Op<Q>> {
    version.prop_map(|version| Op::Materialize { version })
}

/// How one database of a [`Twin`] runs.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// Whether it keeps its snapshot store across statements (the default;
    /// off, it also resolves every chain hop by hop, never fused).
    pub reuse: bool,
    /// Whether it logs every statement to a group-commit write-ahead log,
    /// in a directory the twin removes when dropped.
    pub durable: bool,
}

/// The engine as it ships: snapshot reuse on, in memory.
pub const WARM: Side = Side {
    reuse: true,
    durable: false,
};

/// The store-disabled twin: every statement re-resolves what it reads, hop
/// by hop.
pub const COLD: Side = Side {
    reuse: false,
    durable: false,
};

/// [`WARM`] on a group-commit log.
pub const DURABLE: Side = Side {
    reuse: true,
    durable: true,
};

/// The write-ahead log options of a durable [`Side`]: group commit, the
/// mode a served database runs in.
pub fn group_commit() -> DurabilityOptions {
    DurabilityOptions {
        mode: DurabilityMode::Group,
        ..DurabilityOptions::default()
    }
}

/// A fresh directory under the system temp dir, removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "inverda-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Side {
    /// A fresh database of this side, with the directory of its log if it
    /// is durable.
    pub fn open(self) -> (Inverda, Option<TempDir>) {
        let dir = self.durable.then(|| TempDir::new("twin"));
        let db = match &dir {
            Some(dir) => Inverda::open_in(dir.path(), group_commit()).expect("open durable side"),
            None => Inverda::new(),
        };
        if !self.reuse {
            db.set_snapshot_reuse(false);
        }
        (db, dir)
    }
}

/// A subject database beside its reference twin, both built from one
/// genealogy; every statement runs on both in lockstep.
pub struct Twin {
    pub subject: Inverda,
    pub reference: Inverda,
    genealogy: Genealogy,
    /// Keys minted so far (identical in both databases by construction).
    pub keys: Vec<Key>,
    /// The log directories of durable sides; the last field, so removed
    /// after the databases are dropped.
    _dirs: Vec<TempDir>,
}

impl Twin {
    pub fn new(genealogy: Genealogy, subject: Side, reference: Side) -> Self {
        let mut dirs = Vec::new();
        let mut build = |side: Side| {
            let (db, dir) = side.open();
            db.execute(&genealogy.script).expect("script");
            dirs.extend(dir);
            db
        };
        let (subject, reference) = (build(subject), build(reference));
        Twin {
            subject,
            reference,
            genealogy,
            keys: Vec::new(),
            _dirs: dirs,
        }
    }

    /// Run `f` on the subject, then on the reference.
    pub fn each<T>(&self, f: impl Fn(&Inverda) -> T) -> (T, T) {
        (f(&self.subject), f(&self.reference))
    }

    /// Run `f` on both databases; the outcomes — and the results, a minted
    /// key for one — must agree.
    pub fn both<T: Debug + PartialEq>(
        &self,
        what: &str,
        f: impl Fn(&Inverda) -> Result<T>,
    ) -> Option<T> {
        match self.each(f) {
            (Ok(s), Ok(r)) => {
                assert_eq!(s, r, "{what}: results diverged");
                Some(s)
            }
            (rs, rr) => {
                assert_eq!(
                    rs.is_ok(),
                    rr.is_ok(),
                    "{what}: outcome diverged: {rs:?} vs {rr:?}"
                );
                None
            }
        }
    }

    /// The minted key `slot` picks (modulo their number), none before the
    /// first.
    pub fn slot_key(&self, slot: usize) -> Option<Key> {
        (!self.keys.is_empty()).then(|| self.keys[slot % self.keys.len()])
    }

    /// Write target `i` of the genealogy.
    pub fn target(&self, i: usize) -> (&str, &str) {
        let (v, t) = &self.genealogy.targets[i];
        (v, t)
    }

    /// Apply a generated write or migration to both databases; a query is
    /// handed back for the suite to check.
    pub fn apply<'q, Q>(&mut self, op: &'q Op<Q>) -> Option<&'q Q> {
        match op {
            Op::Insert { target, vals } => {
                let (v, t) = self.target(*target);
                let row = (self.genealogy.row)(&self.subject, v, t, vals);
                let key = self.both("insert", |db| db.insert(v, t, row.clone()));
                self.keys.extend(key);
            }
            Op::Update { target, slot, vals } => {
                let key = self.slot_key(*slot)?;
                let (v, t) = self.target(*target);
                let row = (self.genealogy.row)(&self.subject, v, t, vals);
                self.both("update", |db| db.update(v, t, key, row.clone()));
            }
            Op::Delete { target, slot } => {
                let key = self.slot_key(*slot)?;
                let (v, t) = self.target(*target);
                self.both("delete", |db| db.delete(v, t, key));
            }
            Op::Materialize { version } => {
                // Some reachable twin-separated states make a migration
                // fail with a clean KeyConflict (a pre-existing engine
                // limit, identical since the seed); both sides must agree,
                // and a failed migration leaves both databases untouched.
                let versions = &self.genealogy.versions;
                let v = &versions[version % versions.len()];
                self.both("materialize", |db| db.materialize(std::slice::from_ref(v)));
            }
            Op::Query(q) => return Some(q),
        }
        None
    }
}

/// Every version.table, in version order and table name order within a
/// version.
pub fn tables(db: &Inverda) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for v in db.versions() {
        let mut tables = db.tables_of(&v).unwrap();
        tables.sort();
        out.extend(tables.into_iter().map(|t| (v.clone(), t)));
    }
    out
}

/// Visible state of every version.table, as text. A scan that fails
/// (reachable twin-separated corners can make the id-generating mappings
/// report a clean KeyConflict) is recorded as its error text, so both
/// sides must fail alike.
pub fn visible(db: &Inverda) -> String {
    let mut out = String::new();
    for (v, t) in tables(db) {
        match db.scan(&v, &t) {
            Ok(rel) => out.push_str(&format!("{v}.{t}:\n{rel}")),
            Err(e) => out.push_str(&format!("{v}.{t}: error {e:?}\n")),
        }
    }
    out
}

/// [`visible`] plus the id-minting state: the skolem registry dump and the
/// key sequence.
pub fn state(db: &Inverda) -> String {
    let mut out = visible(db);
    out.push_str(&db.debug_registry());
    out.push_str(&format!("key_seq={}", db.debug_key_seq()));
    out
}

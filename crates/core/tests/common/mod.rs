//! The twin harness of the core differential suites.
//!
//! A differential suite runs a *subject* database beside a *reference*
//! twin: every statement runs on both, outcomes and minted keys must agree,
//! and after each statement the two are compared by a text dump of every
//! version ([`visible`], or [`state`] with the id-minting state). What a
//! suite varies is the pair of [`Side`]s — snapshot reuse on against off,
//! fusion on against off — the [`Genealogy`] and what it checks on top.
//!
//! Generated writes are one [`Op`] enum with one strategy per op kind
//! ([`insert`], [`update`], [`delete`], [`materialize`]): a suite composes
//! its own `prop_oneof!` from them, in its own arm order, and repeats an arm
//! to weight it.

// Every test binary compiles this module as its own `mod common;` and uses
// only part of it; the rest would be dead code in that binary.
#![allow(dead_code)]

use inverda_core::{Inverda, Result};
use inverda_datalog::fusion;
use inverda_storage::{Key, Value};
use proptest::prelude::*;
use std::convert::Infallible;
use std::fmt::Debug;
use std::sync::{Mutex, MutexGuard};

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
    /// Whether it keeps its snapshot store across statements (the default).
    pub reuse: bool,
    /// The γ-chain fusion override every call on it runs under; `None`
    /// leaves the process setting alone. A twin with one must be driven
    /// while a [`fusion_override`] guard is held.
    pub fusion: Option<bool>,
}

/// The engine as it ships: snapshot reuse on.
pub const WARM: Side = Side {
    reuse: true,
    fusion: None,
};

/// The store-disabled twin: every statement re-resolves what it reads.
pub const COLD: Side = Side {
    reuse: false,
    fusion: None,
};

impl Side {
    fn run<T>(self, f: impl FnOnce() -> T) -> T {
        if let Some(on) = self.fusion {
            fusion::set_enabled(Some(on));
        }
        f()
    }
}

/// A subject database beside its reference twin, both built from one
/// genealogy; every statement runs on both in lockstep.
pub struct Twin {
    pub subject: Inverda,
    pub reference: Inverda,
    sides: [Side; 2],
    genealogy: Genealogy,
    /// Keys minted so far (identical in both databases by construction).
    pub keys: Vec<Key>,
}

impl Twin {
    pub fn new(genealogy: Genealogy, subject: Side, reference: Side) -> Self {
        let build = |side: Side| {
            side.run(|| {
                let db = Inverda::new();
                db.execute(&genealogy.script).expect("script");
                if side.reuse {
                    assert!(db.snapshot_reuse());
                } else {
                    db.set_snapshot_reuse(false);
                }
                db
            })
        };
        Twin {
            subject: build(subject),
            reference: build(reference),
            sides: [subject, reference],
            genealogy,
            keys: Vec::new(),
        }
    }

    /// Run `f` on the subject, then on the reference, each under its side.
    pub fn each<T>(&self, f: impl Fn(&Inverda) -> T) -> (T, T) {
        let [s, r] = self.sides;
        (s.run(|| f(&self.subject)), r.run(|| f(&self.reference)))
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

/// A held [`fusion_override`]: restores the override to `None` (the
/// `INVERDA_FUSION` default) when dropped, by a failing assertion too.
pub struct FusionOverride {
    _lock: MutexGuard<'static, ()>,
}

/// Set the process-global γ-chain fusion override to `on` while the guard
/// lives, serialized against every other guard of the test binary: every
/// resolution reads the override, so a case that sets it, or asserts a
/// snapshot or fused-chain counter that depends on it, holds one.
pub fn fusion_override(on: Option<bool>) -> FusionOverride {
    static LOCK: Mutex<()> = Mutex::new(());
    let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fusion::set_enabled(on);
    FusionOverride { _lock: lock }
}

impl Drop for FusionOverride {
    fn drop(&mut self) {
        fusion::set_enabled(None);
    }
}

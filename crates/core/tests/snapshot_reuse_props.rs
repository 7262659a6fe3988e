//! Warm/cold equivalence of the cross-statement snapshot store.
//!
//! Two databases run *identical* statement sequences: one with snapshot
//! reuse enabled (the default — reads are served from delta-maintained
//! [`SnapshotStore`] entries whenever their footprints are epoch-valid),
//! one with reuse disabled (every statement re-resolves virtual relations
//! from scratch, the pre-store behavior). After **every** write, every
//! version's visible state must be byte-identical between the two — the
//! `Display` form includes tuple identifiers and skolem-minted ids (the
//! TasKy2 `Author` keys), so any divergence in id minting order, delta
//! patching, footprint invalidation, or aux-table purging shows up as a
//! mismatch.
//!
//! Genealogies under test:
//! * the full TasKy triple (SPLIT + DROP COLUMN branch, FK-DECOMPOSE +
//!   RENAME branch — the latter id-generating, and *maintained* rather
//!   than invalidated: by delta-vs-stored patching, which the stream of
//!   writes through `TasKy2` itself drives);
//! * an overlapping two-arm SPLIT, whose twins can be separated by
//!   one-sided updates and whose deletes trigger the auxiliary-table purge
//!   (DESIGN.md) — purges bypass delta propagation and must force
//!   invalidation, not patching;
//! * an id-minting SMO *chain* (FK-DECOMPOSE with a SPLIT stacked on top),
//!   driving two-phase minting, hop arenas, and minting-hop maintenance
//!   at widths {1, 2, 4, 8};
//! * TasKy **under DDL**: leaves created on and dropped from every version
//!   (column-level SMOs, SPLIT, a two-hop leaf, leaves over the FK-DECOMPOSE
//!   targets, leaves over leaves) between the writes and migrations. The
//!   warm database keeps its stores across `CREATE` / `DROP SCHEMA VERSION`
//!   while the twin re-resolves everything, which pins "a DDL statement
//!   changes only what it adds or retires" — by equivalence and by counters.
//!
//! * TasKy **read through the siblings of the written version**: writes
//!   through `TasKy` / `Do!` / `TasKy2` (several rows at once, new author
//!   names or ω among them, a batch too large for the storage change log now
//!   and then), point lookups and filters through the other versions in
//!   between, full reads of everything at random points. The warm database
//!   brings its stale snapshots up to date from the change log, hop by hop
//!   (read-time catch-up): `Do!.Todo` at its first touch, `TasKy2` at the
//!   first *full* read — where it must mint what the twin's cold resolution
//!   mints, in its order.
//!
//! [`SnapshotStore`]: inverda_core::SnapshotStore

use inverda_core::{Inverda, LogicalWrite};
use inverda_storage::{Expr, Key, Value};
use proptest::prelude::*;

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
}

fn op_strategy(n_targets: usize, n_versions: usize) -> impl Strategy<Value = Op> {
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
    ]
}

/// One database pair under a fixed genealogy and target list.
struct Harness {
    warm: Inverda,
    cold: Inverda,
    /// (version, table, row builder) — how to write each target.
    targets: Vec<(&'static str, &'static str)>,
    versions: Vec<&'static str>,
    /// Keys minted so far (identical in both databases by construction).
    keys: Vec<Key>,
}

impl Harness {
    fn new(
        script: &str,
        targets: Vec<(&'static str, &'static str)>,
        versions: Vec<&'static str>,
    ) -> Self {
        let warm = Inverda::new();
        warm.execute(script).expect("script");
        assert!(warm.snapshot_reuse());
        let cold = Inverda::new();
        cold.execute(script).expect("script");
        cold.set_snapshot_reuse(false);
        Harness {
            warm,
            cold,
            targets,
            versions,
            keys: Vec::new(),
        }
    }

    /// Visible state of every version.table of the genealogy, as text. A
    /// scan that fails (reachable twin-separated corners can make the
    /// id-generating mappings report a clean KeyConflict — pre-existing
    /// engine behavior) is recorded as its error text, so warm and cold
    /// must fail identically too.
    fn visible(db: &Inverda) -> String {
        let mut out = String::new();
        for v in db.versions() {
            let mut tables = db.tables_of(&v).unwrap();
            tables.sort();
            for t in tables {
                match db.scan(&v, &t) {
                    Ok(rel) => out.push_str(&format!("{v}.{t}:\n{rel}")),
                    Err(e) => out.push_str(&format!("{v}.{t}: error {e:?}\n")),
                }
            }
        }
        out
    }

    /// Build a row for `table` from the generated values.
    fn row(&self, target: usize, vals: &[i64]) -> Vec<Value> {
        let (_, table) = self.targets[target];
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
            // Overlapping-split genealogy rows: R/S carry (a, b).
            _ => vec![Value::Int(vals[0]), Value::text(format!("b{}", vals[1]))],
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert { target, vals } => {
                let (v, t) = self.targets[*target];
                let row = self.row(*target, vals);
                let rw = self.warm.insert(v, t, row.clone());
                let rc = self.cold.insert(v, t, row);
                match (rw, rc) {
                    (Ok(kw), Ok(kc)) => {
                        assert_eq!(kw, kc, "key sequences must stay in lockstep");
                        self.keys.push(kw);
                    }
                    (rw, rc) => assert_eq!(
                        rw.is_ok(),
                        rc.is_ok(),
                        "insert outcome diverged: {rw:?} vs {rc:?}"
                    ),
                }
            }
            Op::Update { target, slot, vals } => {
                if self.keys.is_empty() {
                    return;
                }
                let key = self.keys[slot % self.keys.len()];
                let (v, t) = self.targets[*target];
                let row = self.row(*target, vals);
                let rw = self.warm.update(v, t, key, row.clone());
                let rc = self.cold.update(v, t, key, row);
                assert_eq!(
                    rw.is_ok(),
                    rc.is_ok(),
                    "update outcome diverged: {rw:?} vs {rc:?}"
                );
            }
            Op::Delete { target, slot } => {
                if self.keys.is_empty() {
                    return;
                }
                let key = self.keys[slot % self.keys.len()];
                let (v, t) = self.targets[*target];
                let rw = self.warm.delete(v, t, key);
                let rc = self.cold.delete(v, t, key);
                assert_eq!(
                    rw.is_ok(),
                    rc.is_ok(),
                    "delete outcome diverged: {rw:?} vs {rc:?}"
                );
            }
            Op::Materialize { version } => {
                // Some reachable twin-separated states make a migration
                // fail with a clean KeyConflict (a pre-existing engine
                // limit, identical since the seed); warm and cold must
                // agree on the outcome, and a failed migration leaves both
                // databases untouched.
                let v = self.versions[*version];
                let rw = self.warm.materialize(&[v.to_string()]);
                let rc = self.cold.materialize(&[v.to_string()]);
                assert_eq!(
                    rw.is_ok(),
                    rc.is_ok(),
                    "materialize outcome diverged: {rw:?} vs {rc:?}"
                );
            }
        }
    }

    fn check(&self, context: &str) {
        assert_eq!(
            Self::visible(&self.warm),
            Self::visible(&self.cold),
            "warm snapshot store diverged from cold resolution after {context}"
        );
        // Stronger than the visible-state check: every valid store entry —
        // including intermediate table versions and virtual aux tables that
        // no scan reads directly — must equal its cold resolution.
        let audit = self.warm.snapshot_store_audit();
        assert!(
            audit.is_empty(),
            "snapshot store entries diverged after {context}:\n{}",
            audit.join("\n")
        );
    }
}

const TASKY_SCRIPT: &str =
    "CREATE SCHEMA VERSION TasKy WITH CREATE TABLE Task(author, task, prio); \
     CREATE SCHEMA VERSION Do! FROM TasKy WITH \
       SPLIT TABLE Task INTO Todo WITH prio = 1; \
       DROP COLUMN prio FROM Todo DEFAULT 1; \
     CREATE SCHEMA VERSION TasKy2 FROM TasKy WITH \
       DECOMPOSE TABLE Task INTO Task(task, prio), Author(author) ON FOREIGN KEY author; \
       RENAME COLUMN author IN Author TO name;";

const SPLIT_SCRIPT: &str = "CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b); \
     CREATE SCHEMA VERSION V2 FROM V1 WITH \
       SPLIT TABLE T INTO R WITH a < 5, S WITH a >= 3;";

/// An id-minting SMO *chain*: FK-DECOMPOSE (the generator) with a SPLIT
/// stacked on the decomposed side, so staged/minting mappings sit in the
/// middle of multi-hop drains and of the backward maintenance walk.
const MINT_CHAIN_SCRIPT: &str = "CREATE SCHEMA VERSION V1 WITH CREATE TABLE D(a, b, c); \
     CREATE SCHEMA VERSION V2 FROM V1 WITH \
       DECOMPOSE TABLE D INTO D(a, b), U(c) ON FOREIGN KEY c; \
     CREATE SCHEMA VERSION V3 FROM V2 WITH \
       SPLIT TABLE D INTO W WITH a < 3;";

proptest! {
    /// TasKy: random writes through all three versions, with occasional
    /// migrations. Covers the SPLIT/DROP COLUMN delta-patched path, the
    /// id-minting FK-DECOMPOSE mapping (maintained against the stored
    /// snapshots), skolem id order (Author keys appear in the visible
    /// state), and store clears on materialization.
    #[test]
    fn warm_reads_equal_cold_resolution_tasky(
        ops in prop::collection::vec(op_strategy(2, 3), 1..25),
        tsel in 0usize..3,
    ) {
        // Randomize the parallel width: warm ≡ cold must hold — including
        // skolem id assignment — whether the engine evaluates sequentially
        // or fans out on the pool.
        inverda_core::set_threads(Some([1usize, 2, 4][tsel]));
        let mut h = Harness::new(
            TASKY_SCRIPT,
            vec![("TasKy", "Task"), ("Do!", "Todo")],
            vec!["TasKy", "Do!", "TasKy2"],
        );
        for (i, op) in ops.iter().enumerate() {
            h.apply(op);
            h.check(&format!("op {i}: {op:?}"));
        }
    }

    /// Overlapping SPLIT: twins, separated twins (one-sided updates), and
    /// deletes whose aux purge must invalidate rather than patch.
    #[test]
    fn warm_reads_equal_cold_resolution_overlapping_split(
        ops in prop::collection::vec(op_strategy(3, 2), 1..25),
        tsel in 0usize..3,
    ) {
        inverda_core::set_threads(Some([1usize, 2, 4][tsel]));
        let mut h = Harness::new(
            SPLIT_SCRIPT,
            vec![("V1", "T"), ("V2", "R"), ("V2", "S")],
            vec!["V1", "V2"],
        );
        for (i, op) in ops.iter().enumerate() {
            h.apply(op);
            h.check(&format!("op {i}: {op:?}"));
        }
    }

    /// Id-minting SMO chain (FK-DECOMPOSE + stacked SPLIT): random writes
    /// through the source and the far end of the chain, with migrations
    /// relocating the data across all three frontiers. This drives the
    /// staged/minting mappings through every maintained path — two-phase
    /// minting at widths 1/2/4/8, sequential drains, and the
    /// delta-vs-stored maintenance that *patches* the minting mapping's
    /// snapshots — and the visible states (which include the generated `U` keys) must
    /// stay byte-identical between the warm and cold databases after every
    /// single op.
    #[test]
    fn warm_reads_equal_cold_resolution_minting_chain(
        ops in prop::collection::vec(op_strategy(2, 3), 1..25),
        tsel in 0usize..4,
    ) {
        inverda_core::set_threads(Some([1usize, 2, 4, 8][tsel]));
        let mut h = Harness::new(
            MINT_CHAIN_SCRIPT,
            vec![("V1", "D"), ("V3", "W")],
            vec!["V1", "V2", "V3"],
        );
        for (i, op) in ops.iter().enumerate() {
            h.apply(op);
            h.check(&format!("op {i}: {op:?}"));
        }
    }
}

/// A statement against the FK-DECOMPOSE *target* version (`TasKy2`) or one
/// of its siblings. Slots index the keys inserted so far / the `Author`
/// rows currently visible.
#[derive(Debug, Clone)]
enum Fk {
    /// An existing author's generated key.
    Author(usize),
    /// ω: the task references no author.
    Null,
}

#[derive(Debug, Clone)]
enum Tasky2Op {
    InsertTask {
        text: u8,
        prio: i64,
        fk: Fk,
    },
    UpdateTask {
        slot: usize,
        text: u8,
        prio: i64,
        fk: Fk,
    },
    DeleteTask {
        slot: usize,
    },
    /// A new (orphaned) author row.
    InsertAuthor {
        name: u8,
    },
    RenameAuthor {
        author: usize,
        name: u8,
    },
    DeleteAuthor {
        author: usize,
    },
    /// A write through a sibling version: the `TasKy2` snapshots go stale
    /// and the next read mints for any new author name.
    InsertViaTasky {
        name: u8,
        text: u8,
        prio: i64,
    },
    UpdateViaDo {
        slot: usize,
        name: u8,
        text: u8,
    },
}

fn arb_fk() -> impl Strategy<Value = Fk> {
    prop_oneof![(0usize..8).prop_map(Fk::Author), Just(Fk::Null)]
}

fn tasky2_op_strategy() -> impl Strategy<Value = Tasky2Op> {
    prop_oneof![
        (0u8..6, 1i64..4, arb_fk()).prop_map(|(text, prio, fk)| Tasky2Op::InsertTask {
            text,
            prio,
            fk
        }),
        (0u8..6, 1i64..4, arb_fk()).prop_map(|(text, prio, fk)| Tasky2Op::InsertTask {
            text,
            prio,
            fk
        }),
        (0usize..12, 0u8..6, 1i64..4, arb_fk()).prop_map(|(slot, text, prio, fk)| {
            Tasky2Op::UpdateTask {
                slot,
                text,
                prio,
                fk,
            }
        }),
        (0usize..12).prop_map(|slot| Tasky2Op::DeleteTask { slot }),
        (0u8..5).prop_map(|name| Tasky2Op::InsertAuthor { name }),
        (0usize..8, 0u8..5).prop_map(|(author, name)| Tasky2Op::RenameAuthor { author, name }),
        (0usize..8).prop_map(|author| Tasky2Op::DeleteAuthor { author }),
        (0u8..5, 0u8..6, 1i64..4).prop_map(|(name, text, prio)| Tasky2Op::InsertViaTasky {
            name,
            text,
            prio
        }),
        (0usize..12, 0u8..5, 0u8..6).prop_map(|(slot, name, text)| Tasky2Op::UpdateViaDo {
            slot,
            name,
            text
        }),
    ]
}

impl Harness {
    /// Run `f` on both databases; the outcomes — and the results, a minted
    /// key for one — must agree.
    fn both<T: std::fmt::Debug + PartialEq>(
        &self,
        what: &str,
        f: impl Fn(&Inverda) -> inverda_core::Result<T>,
    ) -> Option<T> {
        match (f(&self.warm), f(&self.cold)) {
            (Ok(w), Ok(c)) => {
                assert_eq!(w, c, "{what}: results diverged");
                Some(w)
            }
            (rw, rc) => {
                assert_eq!(
                    rw.is_ok(),
                    rc.is_ok(),
                    "{what}: outcome diverged: {rw:?} vs {rc:?}"
                );
                None
            }
        }
    }

    /// Run one statement against both databases; outcomes (including the
    /// minted key of an insert) must agree.
    fn apply_tasky2(&mut self, op: &Tasky2Op) {
        let authors: Vec<Key> = match self.warm.scan("TasKy2", "Author") {
            Ok(rel) => rel.keys().collect(),
            Err(_) => Vec::new(),
        };
        let fk_value = |fk: &Fk| match fk {
            Fk::Author(slot) if !authors.is_empty() => {
                Value::Int(authors[slot % authors.len()].0 as i64)
            }
            _ => Value::Null,
        };
        let task = |text: u8, prio: i64, fk: &Fk| {
            vec![
                Value::text(format!("task{text}")),
                Value::Int(prio),
                fk_value(fk),
            ]
        };
        let name = |n: u8| Value::text(format!("author{n}"));
        let slot_key =
            |slot: usize| (!self.keys.is_empty()).then(|| self.keys[slot % self.keys.len()]);
        let author_key = |slot: usize| (!authors.is_empty()).then(|| authors[slot % authors.len()]);
        let both = |f: &dyn Fn(&Inverda) -> inverda_core::Result<Option<Key>>| {
            self.both("statement", f).flatten()
        };
        let minted = match op {
            Tasky2Op::InsertTask { text, prio, fk } => both(&|db| {
                db.insert("TasKy2", "Task", task(*text, *prio, fk))
                    .map(Some)
            }),
            Tasky2Op::UpdateTask {
                slot,
                text,
                prio,
                fk,
            } => slot_key(*slot).and_then(|key| {
                both(&|db| {
                    db.update("TasKy2", "Task", key, task(*text, *prio, fk))
                        .map(|()| None)
                })
            }),
            Tasky2Op::DeleteTask { slot } => slot_key(*slot)
                .and_then(|key| both(&|db| db.delete("TasKy2", "Task", key).map(|()| None))),
            Tasky2Op::InsertAuthor { name: n } => {
                both(&|db| db.insert("TasKy2", "Author", vec![name(*n)]).map(Some))
            }
            Tasky2Op::RenameAuthor { author, name: n } => author_key(*author).and_then(|key| {
                both(&|db| {
                    db.update("TasKy2", "Author", key, vec![name(*n)])
                        .map(|()| None)
                })
            }),
            Tasky2Op::DeleteAuthor { author } => author_key(*author)
                .and_then(|key| both(&|db| db.delete("TasKy2", "Author", key).map(|()| None))),
            Tasky2Op::InsertViaTasky {
                name: n,
                text,
                prio,
            } => both(&|db| {
                let row = vec![
                    name(*n),
                    Value::text(format!("task{text}")),
                    Value::Int(*prio),
                ];
                db.insert("TasKy", "Task", row).map(Some)
            }),
            Tasky2Op::UpdateViaDo {
                slot,
                name: n,
                text,
            } => slot_key(*slot).and_then(|key| {
                both(&|db| {
                    let row = vec![name(*n), Value::text(format!("todo{text}"))];
                    db.update("Do!", "Todo", key, row).map(|()| None)
                })
            }),
        };
        self.keys.extend(minted);
    }
}

proptest! {
    /// Writes **through the FK-DECOMPOSE target version** — explicit and ω
    /// foreign keys, new and orphaned authors, an author's last task
    /// deleted, authors renamed and deleted under their tasks — interleaved
    /// with sibling writes and with reads through every version after each
    /// statement. The minting γ_tgt is maintained by delta-vs-stored: the
    /// warm database must stay byte-identical to its store-disabled twin —
    /// visible states, skolem registry and key sequence — and must never
    /// have fallen back to recompute-vs-stored on the way.
    #[test]
    fn warm_writes_through_fk_decompose_equal_cold_twin(
        ops in prop::collection::vec(tasky2_op_strategy(), 1..30),
        tsel in 0usize..3,
    ) {
        inverda_core::set_threads(Some([1usize, 2, 4][tsel]));
        let mut h = Harness::new(TASKY_SCRIPT, vec![], vec![]);
        for (i, op) in ops.iter().enumerate() {
            h.apply_tasky2(op);
            h.check(&format!("op {i}: {op:?}"));
            prop_assert_eq!(
                h.warm.debug_registry(),
                h.cold.debug_registry(),
                "registries diverged after op {}: {:?}", i, op
            );
            prop_assert_eq!(
                h.warm.debug_key_seq(),
                h.cold.debug_key_seq(),
                "key sequences diverged after op {}: {:?}", i, op
            );
        }
        let stats = h.warm.snapshot_stats();
        prop_assert_eq!(stats.recomputes, 0, "recompute fallback taken: {:?}", stats);
    }
}

/// A statement of the sibling-read stream: writes go through one version,
/// and the snapshots of the others are brought up to date only by their
/// own readers.
#[derive(Debug, Clone)]
enum SiblingOp {
    /// One `apply_many` of one to three writes through one version.
    Write { via: Via, writes: Vec<SiblingWrite> },
    /// More rows in one batch than the storage change log holds, followed —
    /// before anything is read — by one more write it does hold.
    Bulk,
    /// One batch of prio-1 tasks through `TasKy`: more rows than the
    /// `Do!.Todo` snapshots hold early on, fewer than the SPLIT's under
    /// them. A catch-up of the two hops gets through the lower one and gives
    /// up on the upper one as bulk, which leaves them stamped apart.
    Burst,
    /// `get` by key through a sibling version (index into [`SIBLINGS`]).
    Get { sibling: usize, slot: usize },
    /// `task = …` counted through a sibling version.
    Filter { sibling: usize, text: u8 },
    /// Scan every version of both databases and audit the store.
    ReadAll,
}

/// The version a [`SiblingOp::Write`] goes through.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Via {
    Tasky,
    Do,
    /// `TasKy2.Task`, whose rows name their author by key.
    Tasky2,
}

#[derive(Debug, Clone)]
enum SiblingWrite {
    /// `author` ≥ 4 names an author nobody has had yet — through `TasKy2`,
    /// where a task names its author by key, no author (ω).
    Insert {
        author: u8,
        text: u8,
        prio: i64,
    },
    Update {
        slot: usize,
        author: u8,
        text: u8,
        prio: i64,
    },
    Delete {
        slot: usize,
    },
}

const SIBLINGS: [(&str, &str); 3] = [("TasKy2", "Task"), ("TasKy2", "Author"), ("Do!", "Todo")];

fn sibling_op_strategy() -> impl Strategy<Value = SiblingOp> {
    let write = || {
        prop_oneof![
            (0u8..8, 0u8..6, 1i64..4).prop_map(|(author, text, prio)| SiblingWrite::Insert {
                author,
                text,
                prio
            }),
            (0u8..8, 0u8..6, 1i64..4).prop_map(|(author, text, prio)| SiblingWrite::Insert {
                author,
                text,
                prio
            }),
            (0usize..12, 0u8..8, 0u8..6, 1i64..4).prop_map(|(slot, author, text, prio)| {
                SiblingWrite::Update {
                    slot,
                    author,
                    text,
                    prio,
                }
            }),
            (0usize..12).prop_map(|slot| SiblingWrite::Delete { slot }),
        ]
    };
    let via = || prop_oneof![Just(Via::Tasky), Just(Via::Do), Just(Via::Tasky2)];
    let write_op = || {
        (via(), prop::collection::vec(write(), 1..4))
            .prop_map(|(via, writes)| SiblingOp::Write { via, writes })
    };
    prop_oneof![
        write_op(),
        write_op(),
        write_op(),
        (0usize..3, 0usize..12).prop_map(|(sibling, slot)| SiblingOp::Get { sibling, slot }),
        (0usize..3, 0usize..12).prop_map(|(sibling, slot)| SiblingOp::Get { sibling, slot }),
        (0usize..3, 0u8..6).prop_map(|(sibling, text)| SiblingOp::Filter { sibling, text }),
        Just(SiblingOp::ReadAll),
        Just(SiblingOp::ReadAll),
        Just(SiblingOp::Burst),
    ]
}

/// What the sibling stream carries from one statement to the next.
#[derive(Default)]
struct Siblings {
    /// New author names handed out so far.
    fresh_authors: usize,
    /// `TasKy2.Author`'s keys at the last full read, for the tasks written
    /// through `TasKy2` to name.
    authors: Vec<Key>,
}

impl Harness {
    fn apply_sibling(&mut self, op: &SiblingOp, s: &mut Siblings) {
        match op {
            SiblingOp::Write { via, writes } => {
                let mut row = |a: u8, text: u8, prio: i64| {
                    let text = Value::text(format!("task{text}"));
                    if *via == Via::Tasky2 {
                        let fk = match s.authors.len() {
                            n if a < 4 && n > 0 => Value::Int(s.authors[a as usize % n].0 as i64),
                            _ => Value::Null,
                        };
                        return vec![text, Value::Int(prio), fk];
                    }
                    let author = if a < 4 {
                        Value::text(format!("author{a}"))
                    } else {
                        s.fresh_authors += 1;
                        Value::text(format!("fresh{}", s.fresh_authors))
                    };
                    let mut row = vec![author, text];
                    if *via == Via::Tasky {
                        row.push(Value::Int(prio));
                    }
                    row
                };
                let slot_key = |slot: usize| self.keys.get(slot % self.keys.len().max(1)).copied();
                let batch: Vec<LogicalWrite> = writes
                    .iter()
                    .filter_map(|w| match w {
                        SiblingWrite::Insert { author, text, prio } => {
                            Some(LogicalWrite::Insert(row(*author, *text, *prio)))
                        }
                        SiblingWrite::Update {
                            slot,
                            author,
                            text,
                            prio,
                        } => Some(LogicalWrite::Update(
                            slot_key(*slot)?,
                            row(*author, *text, *prio),
                        )),
                        SiblingWrite::Delete { slot } => {
                            Some(LogicalWrite::Delete(slot_key(*slot)?))
                        }
                    })
                    .collect();
                let (version, table) = match via {
                    Via::Tasky => ("TasKy", "Task"),
                    Via::Do => ("Do!", "Todo"),
                    Via::Tasky2 => ("TasKy2", "Task"),
                };
                let minted = self.both("write", |db| db.apply_many(version, table, batch.clone()));
                self.keys.extend(minted.into_iter().flatten().flatten());
            }
            SiblingOp::Burst => {
                // One row past the statement-sized bound: bulk against
                // `Do!.Todo` and the DROP COLUMN's aux beside it (two rows
                // per task at most) while they hold fewer than 17 tasks,
                // never against the SPLIT's heads (every task, the filler's
                // included).
                let burst: Vec<LogicalWrite> = (0..33)
                    .map(|i| {
                        LogicalWrite::Insert(vec![
                            Value::text(format!("author{}", i % 4)),
                            Value::text(format!("burst{i}")),
                            Value::Int(1),
                        ])
                    })
                    .collect();
                self.both("burst", |db| db.apply_many("TasKy", "Task", burst.clone()));
            }
            SiblingOp::Bulk => {
                let bulk: Vec<LogicalWrite> = (0..1100)
                    .map(|i| {
                        LogicalWrite::Insert(vec![
                            Value::text(format!("author{}", i % 4)),
                            Value::text(format!("bulk{i}")),
                            Value::Int(i % 3 + 1),
                        ])
                    })
                    .collect();
                self.both("bulk", |db| db.apply_many("TasKy", "Task", bulk.clone()));
                let one = vec!["after the bulk".into(), "task0".into()];
                let key = self.both("write", |db| db.insert("Do!", "Todo", one.clone()));
                self.keys.extend(key);
            }
            SiblingOp::Get { sibling, slot } => {
                let (Some(key), (version, table)) = (
                    self.keys.get(slot % self.keys.len().max(1)).copied(),
                    SIBLINGS[*sibling],
                ) else {
                    return;
                };
                self.both("get", |db| db.get(version, table, key));
            }
            SiblingOp::Filter { sibling, text } => {
                let (version, table) = SIBLINGS[*sibling];
                if table == "Author" {
                    return;
                }
                let probe = Expr::col("task").eq(Expr::lit(format!("task{text}")));
                self.both("filter", |db| {
                    db.query(version, table).filter(probe.clone()).count()
                });
            }
            SiblingOp::ReadAll => {
                self.check("a full read");
                // (Read in full just now: a hit, with nothing to mint.)
                if let Ok(authors) = self.warm.scan("TasKy2", "Author") {
                    s.authors = authors.keys().collect();
                }
            }
        }
    }
}

proptest! {
    /// Writes through one version, reads through its siblings: the warm
    /// database patches its stale snapshots from the storage change log,
    /// hop by hop — `Do!.Todo` (DROP COLUMN over SPLIT) at its first touch,
    /// point lookups included, and the minting `TasKy2` closures only when a
    /// statement first reads one in full, while point lookups in between
    /// keep pushing their key down. It stays byte-identical to the
    /// store-disabled twin on rows, registry and key sequence after every
    /// statement, whatever order new authors' ids are asked for in. Never by
    /// recompute, never with a wrong store entry. Fails with each of:
    /// (a) `ChangeLog::link_from` taking the first link on a miss — a chain
    ///     is then composed across the bulk batch's gap;
    /// (b) a first-touch catch-up through a *minting* closure (`by_key`
    ///     catching `TasKy2.Task` up), which mints a batch's new authors in
    ///     key order where the twin mints the one whose task is looked up
    ///     first;
    /// (c) the stamp-alignment check of `VersionedEdb::catch_up` dropped —
    ///     an input hop is then brought up to date without the hop above
    ///     it, and that hop's next catch-up takes the input's later delta
    ///     for its whole gap. Two ways in: a write through `TasKy2.Task`
    ///     patches the DECOMPOSE's `Author` head but not the RENAME above
    ///     it, and after a burst a `Do!.Todo` lookup catches the SPLIT hop
    ///     up while its own hop gives up as bulk.
    #[test]
    fn sibling_reads_catch_up_and_equal_cold_twin(
        ops in prop::collection::vec(sibling_op_strategy(), 1..30),
        // (Past the prologue, whose own catch-up the test counts on.)
        bulk_at in prop::option::of(8usize..38),
        tsel in 0usize..3,
    ) {
        inverda_core::set_threads(Some([1usize, 2, 4][tsel]));
        let mut h = Harness::new(TASKY_SCRIPT, vec![], vec![]);
        let mut s = Siblings::default();
        // Filler: tasks `Do!.Todo` does not show, whose keys no op picks —
        // enough that a burst is never bulk against the SPLIT's heads.
        let filler: Vec<LogicalWrite> = (0..32)
            .map(|i| {
                LogicalWrite::Insert(vec![
                    Value::text(format!("author{}", i % 4)),
                    Value::text(format!("filler{i}")),
                    Value::Int(2 + i % 2),
                ])
            })
            .collect();
        h.both("filler", |db| db.apply_many("TasKy", "Task", filler.clone()));
        // Something to be stale about: data, warm snapshots with their
        // `task` indexes, then a write through a sibling; then a write
        // through `TasKy2` and a lookup in `Do!.Todo`, two hops away.
        let prologue = [
            SiblingOp::Write {
                via: Via::Tasky,
                writes: (0..6).map(|i| SiblingWrite::Insert { author: i % 3, text: i, prio: 1 }).collect(),
            },
            SiblingOp::ReadAll,
            SiblingOp::Filter { sibling: 0, text: 0 },
            SiblingOp::Filter { sibling: 2, text: 0 },
            SiblingOp::Write {
                via: Via::Do,
                writes: vec![SiblingWrite::Insert { author: 7, text: 1, prio: 1 }],
            },
            SiblingOp::ReadAll,
            SiblingOp::Write {
                via: Via::Tasky2,
                writes: vec![SiblingWrite::Update { slot: 0, author: 1, text: 2, prio: 1 }],
            },
            SiblingOp::Get { sibling: 2, slot: 0 },
        ];
        let two_hops = prologue.len() - 1;
        let ops = prologue.iter().chain(&ops);
        for (i, op) in ops.enumerate() {
            if bulk_at == Some(i) {
                h.apply_sibling(&SiblingOp::Bulk, &mut s);
            }
            let before = h.warm.snapshot_stats();
            h.apply_sibling(op, &mut s);
            if i == two_hops {
                let after = h.warm.snapshot_stats();
                prop_assert!(
                    after.caught_up >= before.caught_up + 2,
                    "no two-hop catch-up: {:?} → {:?}", before, after
                );
            }
            prop_assert_eq!(
                h.warm.debug_registry(),
                h.cold.debug_registry(),
                "registries diverged after op {}: {:?}", i, op
            );
            prop_assert_eq!(
                h.warm.debug_key_seq(),
                h.cold.debug_key_seq(),
                "key sequences diverged after op {}: {:?}", i, op
            );
        }
        h.check("the last statement");
        let stats = h.warm.snapshot_stats();
        prop_assert_eq!(stats.recomputes, 0, "recompute fallback taken: {:?}", stats);
        prop_assert!(stats.caught_up > 0, "nothing was caught up: {:?}", stats);
    }
}

/// The kind of value a column of the DDL stream's tables carries.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Col {
    Author,
    Text,
    Prio,
    /// A column some leaf added (`ADD COLUMN … AS 0`).
    Int,
    /// `TasKy2.Task`'s foreign key: an existing `Author` key or ω.
    Fk,
}

/// A writable `version.table` of the DDL stream with its columns.
#[derive(Debug, Clone)]
struct Target {
    version: String,
    table: String,
    cols: Vec<(String, Col)>,
}

/// A statement of the DDL-bearing stream. Targets index the writable tables
/// alive at that point (modulo their number); version names come from a
/// small pool, so names are reused after a drop and collide before one.
#[derive(Debug, Clone)]
enum DdlOp {
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
    /// `CREATE SCHEMA VERSION X<name> FROM <the target's version> WITH …`.
    Create {
        parent: usize,
        shape: u8,
        name: usize,
    },
    Drop {
        version: usize,
    },
    Materialize {
        target: usize,
    },
}

fn ddl_op_strategy() -> impl Strategy<Value = DdlOp> {
    let vals = || prop::collection::vec(0i64..6, 4..5);
    prop_oneof![
        (0usize..16, vals()).prop_map(|(target, vals)| DdlOp::Insert { target, vals }),
        (0usize..16, vals()).prop_map(|(target, vals)| DdlOp::Insert { target, vals }),
        (0usize..16, 0usize..12, vals()).prop_map(|(target, slot, vals)| DdlOp::Update {
            target,
            slot,
            vals
        }),
        (0usize..16, 0usize..12).prop_map(|(target, slot)| DdlOp::Delete { target, slot }),
        (0usize..16, 0u8..5, 0usize..4).prop_map(|(parent, shape, name)| DdlOp::Create {
            parent,
            shape,
            name
        }),
        (0usize..16, 0u8..5, 0usize..4).prop_map(|(parent, shape, name)| DdlOp::Create {
            parent,
            shape,
            name
        }),
        (0usize..6).prop_map(|version| DdlOp::Drop { version }),
        (0usize..6).prop_map(|version| DdlOp::Drop { version }),
        (0usize..16).prop_map(|target| DdlOp::Materialize { target }),
    ]
}

/// The versions `DdlOp::Drop` addresses: the leaf pool and the two base
/// leaves (`TasKy` stays, so something is always writable).
const DROPPABLE: [&str; 6] = ["X0", "X1", "X2", "X3", "Do!", "TasKy2"];

/// The SMO list and resulting table of the leaf `version` over `parent`, and
/// whether the leaf is a single column-level SMO directly over the parent's
/// table (then reading it over a warm parent must not build a fused chain).
fn leaf_over(parent: &Target, version: String, shape: u8, n: usize) -> (String, Target, bool) {
    let t = &parent.table;
    let mut cols = parent.cols.clone();
    let has_prio = cols.iter().any(|(name, _)| name == "prio");
    let (smos, table, single_hop) = match shape {
        1 => {
            let (first, _) = &mut cols[0];
            let renamed = format!("{first}n{n}");
            let smo = format!("RENAME COLUMN {first} IN {t} TO {renamed}");
            *first = renamed;
            (smo, t.clone(), true)
        }
        2 if has_prio => (
            format!("SPLIT TABLE {t} INTO Hot{n} WITH prio = 1"),
            format!("Hot{n}"),
            false,
        ),
        3 if has_prio => {
            cols.retain(|(name, _)| name != "prio");
            (
                format!(
                    "SPLIT TABLE {t} INTO Low{n} WITH prio = 1; \
                     DROP COLUMN prio FROM Low{n} DEFAULT 1"
                ),
                format!("Low{n}"),
                false,
            )
        }
        4 if cols.last().is_some_and(|(_, kind)| *kind == Col::Int) => {
            let (dropped, _) = cols.pop().expect("checked");
            (
                format!("DROP COLUMN {dropped} FROM {t} DEFAULT 0"),
                t.clone(),
                true,
            )
        }
        _ => {
            cols.push((format!("x{n}"), Col::Int));
            (format!("ADD COLUMN x{n} AS 0 INTO {t}"), t.clone(), true)
        }
    };
    (
        smos,
        Target {
            version,
            table,
            cols,
        },
        single_hop,
    )
}

/// The warm/cold pair plus the stream's view of what is writable.
struct DdlHarness {
    h: Harness,
    targets: Vec<Target>,
    created: usize,
}

impl DdlHarness {
    fn new() -> Self {
        let target = |version: &str, table: &str, cols: &[(&str, Col)]| Target {
            version: version.to_string(),
            table: table.to_string(),
            cols: cols.iter().map(|(n, k)| (n.to_string(), *k)).collect(),
        };
        DdlHarness {
            h: Harness::new(TASKY_SCRIPT, vec![], vec![]),
            targets: vec![
                target(
                    "TasKy",
                    "Task",
                    &[
                        ("author", Col::Author),
                        ("task", Col::Text),
                        ("prio", Col::Prio),
                    ],
                ),
                target(
                    "Do!",
                    "Todo",
                    &[("author", Col::Author), ("task", Col::Text)],
                ),
                target(
                    "TasKy2",
                    "Task",
                    &[
                        ("task", Col::Text),
                        ("prio", Col::Prio),
                        ("author", Col::Fk),
                    ],
                ),
                target("TasKy2", "Author", &[("name", Col::Author)]),
            ],
            created: 0,
        }
    }

    fn row(&self, target: &Target, vals: &[i64]) -> Vec<Value> {
        let authors: Vec<Key> = match self.h.warm.scan("TasKy2", "Author") {
            Ok(rel) => rel.keys().collect(),
            Err(_) => Vec::new(),
        };
        target
            .cols
            .iter()
            .enumerate()
            .map(|(i, (_, kind))| {
                let v = vals[i % vals.len()];
                match kind {
                    Col::Author => Value::text(format!("author{v}")),
                    Col::Text => Value::text(format!("task{v}")),
                    Col::Prio => Value::Int(v % 3 + 1),
                    Col::Int => Value::Int(v),
                    Col::Fk if authors.is_empty() || v == 0 => Value::Null,
                    Col::Fk => Value::Int(authors[v as usize % authors.len()].0 as i64),
                }
            })
            .collect()
    }

    /// Every `version.table` that currently scans cleanly — read on both
    /// databases, which leaves each of them warm in the warm one.
    fn readable(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for v in self.h.warm.versions() {
            for t in self.h.warm.tables_of(&v).unwrap() {
                let ok = self.h.warm.scan(&v, &t).is_ok();
                let _ = self.h.cold.scan(&v, &t);
                if ok {
                    out.push((v.clone(), t));
                }
            }
        }
        out
    }

    /// Re-read `pairs` (warm before the DDL statement that just ran): every
    /// one of them must be served from the store it was left in.
    fn assert_still_warm(&self, pairs: &[(String, String)], after: &str) {
        let before = self.h.warm.snapshot_stats();
        for (v, t) in pairs {
            if self.h.warm.tables_of(v).is_ok_and(|ts| ts.contains(t)) {
                self.h.warm.scan(v, t).unwrap();
                let _ = self.h.cold.scan(v, t);
            }
        }
        let now = self.h.warm.snapshot_stats();
        assert_eq!(
            now.misses, before.misses,
            "a version that was warm went cold across {after}"
        );
    }

    fn apply(&mut self, op: &DdlOp) {
        let pick = |i: usize| self.targets[i % self.targets.len()].clone();
        let slot_key =
            |slot: usize| (!self.h.keys.is_empty()).then(|| self.h.keys[slot % self.h.keys.len()]);
        match op {
            DdlOp::Insert { target, vals } => {
                let t = pick(*target);
                let row = self.row(&t, vals);
                let key = self
                    .h
                    .both("insert", |db| db.insert(&t.version, &t.table, row.clone()));
                self.h.keys.extend(key);
            }
            DdlOp::Update { target, slot, vals } => {
                let (t, Some(key)) = (pick(*target), slot_key(*slot)) else {
                    return;
                };
                let row = self.row(&t, vals);
                self.h.both("update", |db| {
                    db.update(&t.version, &t.table, key, row.clone())
                });
            }
            DdlOp::Delete { target, slot } => {
                let (t, Some(key)) = (pick(*target), slot_key(*slot)) else {
                    return;
                };
                self.h
                    .both("delete", |db| db.delete(&t.version, &t.table, key));
            }
            DdlOp::Materialize { target } => {
                let v = pick(*target).version;
                self.h
                    .both("materialize", |db| db.materialize(std::slice::from_ref(&v)));
            }
            DdlOp::Create {
                parent,
                shape,
                name,
            } => {
                let parent = pick(*parent);
                self.created += 1;
                let (smos, leaf, single_hop) =
                    leaf_over(&parent, format!("X{name}"), *shape, self.created);
                let script = format!(
                    "CREATE SCHEMA VERSION {} FROM {} WITH {smos};",
                    leaf.version, parent.version
                );
                let warm_before = self.readable();
                // Warm *snapshot*: a physical parent has none to end a run at.
                let parent_warm = self
                    .h
                    .warm
                    .storage_case(&parent.version, &parent.table)
                    .is_ok_and(|case| case != "local")
                    && warm_before.contains(&(parent.version.clone(), parent.table));
                if self
                    .h
                    .both("create", |db| db.execute(&script).map(drop))
                    .is_none()
                {
                    return;
                }
                self.assert_still_warm(&warm_before, &script);
                // The new version over a warm parent: one hop, no chain.
                let chains = self.h.warm.fused_chain_stats().0;
                let read = self.h.warm.scan(&leaf.version, &leaf.table);
                let _ = self.h.cold.scan(&leaf.version, &leaf.table);
                if single_hop && parent_warm && read.is_ok() {
                    assert_eq!(
                        self.h.warm.fused_chain_stats().0,
                        chains,
                        "a fused chain was built over a warm parent by {script}"
                    );
                }
                self.targets.push(leaf);
            }
            DdlOp::Drop { version } => {
                let version = DROPPABLE[*version];
                let script = format!("DROP SCHEMA VERSION {version};");
                let warm_before = self.readable();
                if self
                    .h
                    .both("drop", |db| db.execute(&script).map(drop))
                    .is_none()
                {
                    return;
                }
                self.targets.retain(|t| t.version != version);
                self.assert_still_warm(&warm_before, &script);
            }
        }
    }
}

proptest! {
    /// TasKy under DDL: random interleavings of leaf creation (on every
    /// version, leaves included), leaf and base-version drops (refused ones
    /// too: a parent, the version holding the data), writes through anything
    /// writable, migrations, and — after every statement — reads of every
    /// version. The warm database, which keeps its compiled rules, fused
    /// chains and snapshots across DDL, must stay byte-identical to its
    /// store-disabled twin (rows, registry, key sequence), its store must
    /// audit clean, and the counters must show the stores were actually
    /// kept: no read of a version that was warm before a `CREATE` or `DROP`
    /// misses after it, and a one-hop leaf over a warm parent builds no
    /// fused chain. Fusion on and off.
    #[test]
    fn warm_database_under_ddl_equals_cold_twin(
        ops in prop::collection::vec(ddl_op_strategy(), 1..30),
        tsel in 0usize..3,
        fused in any::<bool>(),
    ) {
        inverda_core::set_threads(Some([1usize, 2, 4][tsel]));
        inverda_datalog::fusion::set_enabled(Some(fused));
        let mut d = DdlHarness::new();
        for (i, op) in ops.iter().enumerate() {
            d.apply(op);
            d.h.check(&format!("op {i}: {op:?}"));
            prop_assert_eq!(
                d.h.warm.debug_registry(),
                d.h.cold.debug_registry(),
                "registries diverged after op {}: {:?}", i, op
            );
            prop_assert_eq!(
                d.h.warm.debug_key_seq(),
                d.h.cold.debug_key_seq(),
                "key sequences diverged after op {}: {:?}", i, op
            );
        }
        inverda_datalog::fusion::set_enabled(None);
    }
}

/// Staged / id-minting mappings are now **delta-maintained**, not
/// invalidated: with the FK-DECOMPOSE branch materialized, a write through
/// the virtualized source side must leave every warm snapshot patched in
/// place (zero invalidations), and the next reads of the source and SPLIT
/// versions must be served warm — while still agreeing with cold
/// re-resolution (store audit).
#[test]
fn staged_mappings_are_maintained_not_invalidated() {
    let db = Inverda::new();
    db.execute(TASKY_SCRIPT).unwrap();
    let mut keys = Vec::new();
    for i in 0..8 {
        keys.push(
            db.insert(
                "TasKy",
                "Task",
                vec![
                    Value::text(format!("a{}", i % 3)),
                    Value::text(format!("t{i}")),
                    Value::Int(i % 3 + 1),
                ],
            )
            .unwrap(),
        );
    }
    // Relocate onto the FK-DECOMPOSE side: TasKy and Do! now resolve
    // through the staged γ_src of the DECOMPOSE (plus the SPLIT chain).
    db.execute("MATERIALIZE 'TasKy2';").unwrap();
    for v in db.versions() {
        for t in db.tables_of(&v).unwrap() {
            db.scan(&v, &t).unwrap();
        }
    }
    let before = db.snapshot_stats();
    // Write through the far end of the virtual chain: the drain traverses
    // the SPLIT/DROP hops *and* the staged FK-DECOMPOSE hop, so maintenance
    // must walk all of them back.
    db.update(
        "Do!",
        "Todo",
        keys[0],
        vec![Value::text("a0"), Value::text("edited")],
    )
    .unwrap();
    let after_write = db.snapshot_stats();
    assert_eq!(
        after_write.invalidations, before.invalidations,
        "a staged-mapping write must patch, not invalidate: {before:?} -> {after_write:?}"
    );
    assert!(
        after_write.patches > before.patches,
        "no maintenance patches recorded: {before:?} -> {after_write:?}"
    );
    // The maintained snapshots serve the next reads warm...
    db.scan("TasKy", "Task").unwrap();
    db.scan("Do!", "Todo").unwrap();
    let after_read = db.snapshot_stats();
    assert!(
        after_read.hits > after_write.hits,
        "maintained entries were not served warm: {after_write:?} -> {after_read:?}"
    );
    assert_eq!(after_read.misses, after_write.misses, "reads went cold");
    // ...and they are byte-identical to cold resolution.
    let audit = db.snapshot_store_audit();
    assert!(
        audit.is_empty(),
        "maintained entries diverged:\n{}",
        audit.join("\n")
    );
}

/// A warm write through the FK-DECOMPOSE target version keeps both of its
/// snapshots patched in place — by delta-vs-stored, never by re-evaluating
/// the minting γ_tgt over the whole relation — and the next reads of
/// `TasKy2.Task` is served warm.
#[test]
fn fk_decompose_target_writes_are_delta_maintained() {
    let db = Inverda::new();
    db.execute(TASKY_SCRIPT).unwrap();
    for i in 0..40 {
        let row = vec![
            Value::text(format!("a{}", i % 5)),
            Value::text(format!("t{i}")),
            Value::Int(i % 3 + 1),
        ];
        db.insert("TasKy", "Task", row).unwrap();
    }
    let authors: Vec<Key> = db.scan("TasKy2", "Author").unwrap().keys().collect();
    db.scan("TasKy2", "Task").unwrap();
    let before = db.snapshot_stats();
    let fk = |i: usize| Value::Int(authors[i % authors.len()].0 as i64);
    let key = db
        .insert("TasKy2", "Task", vec!["new".into(), 1.into(), fk(0)])
        .unwrap();
    db.update("TasKy2", "Task", key, vec!["moved".into(), 2.into(), fk(1)])
        .unwrap();
    db.update(
        "TasKy2",
        "Task",
        key,
        vec!["orphan".into(), 2.into(), Value::Null],
    )
    .unwrap();
    db.delete("TasKy2", "Task", key).unwrap();
    let after_writes = db.snapshot_stats();
    assert_eq!(after_writes.recomputes, 0, "{after_writes:?}");
    assert_eq!(after_writes.invalidations, before.invalidations);
    assert!(
        after_writes.patches >= before.patches + 8,
        "both TasKy2 snapshots are patched by every write: {before:?} -> {after_writes:?}"
    );
    // (`TasKy2.Author` sits one RENAME beyond the decomposed relation, off
    // the write's path: it re-resolves — from the warm decomposed side.)
    db.scan("TasKy2", "Task").unwrap();
    let after_read = db.snapshot_stats();
    assert_eq!(after_read.misses, after_writes.misses, "read went cold");
    assert!(after_read.hits > after_writes.hits);
    let audit = db.snapshot_store_audit();
    assert!(audit.is_empty(), "{}", audit.join("\n"));
}

/// The warm database must actually serve warm reads on this workload —
/// otherwise the differential tests above prove nothing.
#[test]
fn warm_path_is_exercised() {
    let db = Inverda::new();
    db.execute(TASKY_SCRIPT).unwrap();
    for i in 0..20 {
        db.insert(
            "TasKy",
            "Task",
            vec![
                Value::text(format!("a{i}")),
                Value::text(format!("t{i}")),
                Value::Int(i % 3 + 1),
            ],
        )
        .unwrap();
    }
    let _ = db.scan("Do!", "Todo").unwrap();
    let _ = db.scan("TasKy2", "Author").unwrap();
    let before = db.snapshot_stats();
    let keys: Vec<Key> = db.scan("Do!", "Todo").unwrap().keys().collect();
    for (n, k) in keys.iter().enumerate() {
        db.update(
            "Do!",
            "Todo",
            *k,
            vec![Value::text(format!("a{n}")), Value::text("edited")],
        )
        .unwrap();
        let _ = db.scan("Do!", "Todo").unwrap();
    }
    let after = db.snapshot_stats();
    assert!(
        after.hits > before.hits,
        "no warm hits recorded: {before:?} -> {after:?}"
    );
    assert!(
        after.patches > before.patches,
        "no delta patches recorded: {before:?} -> {after:?}"
    );
}

/// A non-overlapping SPLIT with one column-level SMO on each side.
const SPLIT_LEAVES_SCRIPT: &str = "CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b, c); \
     CREATE SCHEMA VERSION V2 FROM V1 WITH \
       SPLIT TABLE T INTO R WITH a < 3, S WITH a >= 3; \
     CREATE SCHEMA VERSION V3 FROM V2 WITH \
       ADD COLUMN d AS a INTO R; \
       RENAME COLUMN b IN S TO bb;";

/// The same shape over an FK DECOMPOSE, whose forward hop mints `U` ids.
const DECOMPOSE_LEAVES_SCRIPT: &str = "CREATE SCHEMA VERSION V1 WITH CREATE TABLE T(a, b, c); \
     CREATE SCHEMA VERSION V2 FROM V1 WITH \
       DECOMPOSE TABLE T INTO T(a, b), U(c) ON FOREIGN KEY c; \
     CREATE SCHEMA VERSION V3 FROM V2 WITH \
       ADD COLUMN d AS a INTO T; \
       RENAME COLUMN c IN U TO cc;";

/// Rows, registry dump and key sequence after every statement of a fixed
/// sequence of batches through `V1.T`, with the data materialized at both
/// leaves of `V3`: every batch leaves the first hop with deltas on both of
/// its destination tables, so the drain holds two independent hop groups
/// at once, and reverse maintenance has two hops ready in one round.
fn two_group_drain_states(script: &str, reuse: bool, width: usize) -> Vec<(String, String, u64)> {
    inverda_core::set_threads(Some(width));
    let db = Inverda::new();
    db.execute(script).unwrap();
    db.set_snapshot_reuse(reuse);
    let row =
        |a: i64, b: &str, c: i64| vec![Value::Int(a), Value::text(b), Value::text(format!("c{c}"))];
    let mut keys = db
        .insert_many(
            "V1",
            "T",
            (0..6).map(|a| row(a, &format!("b{a}"), a % 2)).collect(),
        )
        .unwrap();
    db.materialize(&["V3".to_string()]).unwrap();
    let mut states = Vec::new();
    let mut record = |db: &Inverda| {
        states.push((
            Harness::visible(db),
            db.debug_registry(),
            db.debug_key_seq(),
        ));
        let audit = db.snapshot_store_audit();
        assert!(audit.is_empty(), "{}", audit.join("\n"));
    };
    record(&db);
    let batches = [
        // Inserts on both sides of the first hop.
        vec![
            LogicalWrite::Insert(row(1, "x", 2)),
            LogicalWrite::Insert(row(4, "y", 3)),
        ],
        // Updates across the partition line and of the decomposed payload,
        // deletes on both sides.
        vec![
            LogicalWrite::Update(keys[0], row(4, "b0", 0)),
            LogicalWrite::Update(keys[4], row(1, "b4", 0)),
            LogicalWrite::Update(keys[1], row(1, "b1", 5)),
            LogicalWrite::Delete(keys[2]),
            LogicalWrite::Delete(keys[5]),
        ],
        // Everything at once.
        vec![
            LogicalWrite::Insert(row(2, "z", 6)),
            LogicalWrite::Update(keys[3], row(0, "b3", 1)),
            LogicalWrite::Delete(keys[4]),
            LogicalWrite::Insert(row(5, "w", 1)),
        ],
    ];
    for batch in batches {
        let minted = db.apply_many("V1", "T", batch).unwrap();
        keys.extend(minted.into_iter().flatten());
        record(&db);
    }
    inverda_core::set_threads(None);
    states
}

/// The drain's multi-group case, deterministically: the suites above reach
/// two independent hop groups pending at once only by chance. Over a SPLIT
/// and over a minting FK DECOMPOSE, the warm database equals a
/// store-disabled twin and a width-1 run after every statement.
#[test]
fn two_group_drains_equal_cold_twin_and_width_1() {
    for script in [SPLIT_LEAVES_SCRIPT, DECOMPOSE_LEAVES_SCRIPT] {
        let baseline = two_group_drain_states(script, true, 1);
        for width in [2, 4] {
            for reuse in [true, false] {
                let states = two_group_drain_states(script, reuse, width);
                for (i, (got, want)) in states.iter().zip(&baseline).enumerate() {
                    assert_eq!(
                        got, want,
                        "statement {i} diverged (width {width}, reuse {reuse}):\n{script}"
                    );
                }
                assert_eq!(states.len(), baseline.len());
            }
        }
    }
}

//! Differential testing of γ-chain fusion (`INVERDA_FUSION`).
//!
//! Two databases run *identical* statement sequences: one with chain
//! fusion enabled (the default — runs of adjacent column-level γ mappings
//! are statically inlined into a single compiled rule set), one with
//! fusion disabled (every hop evaluates separately, the pre-fusion
//! behavior). After **every** op, the visible state of every version —
//! whose `Display` form includes tuple identifiers and skolem-minted
//! ids — plus the skolem registry dump and the global key sequence must
//! be byte-identical between the two databases. Any divergence in the
//! inlined rule bodies, the emptiness assumptions, condition hoisting,
//! or fusion-barrier placement shows up as a mismatch.
//!
//! Genealogies under test:
//! * **randomly generated chains** mixing fusable hops (ADD COLUMN /
//!   DROP COLUMN / RENAME COLUMN / RENAME TABLE) with SPLIT and
//!   FK-DECOMPOSE fusion barriers, so fused segments start and stop at
//!   arbitrary points of the chain;
//! * a **fixed JOIN-barrier genealogy** (fusable run, JOIN of two
//!   tables, fusable run on the joined result).
//!
//! Both run warm and cold (snapshot reuse toggled per case), with
//! occasional `MATERIALIZE` relocations (which must drop cached fused
//! chains — their hop structure follows the storage cases).
//!
//! The fusion knob is process-global, so every case serializes on one
//! mutex and scopes the knob around each database's operations.

use inverda_core::Inverda;
use inverda_datalog::fusion;
use inverda_storage::{Expr, Key, Value};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes cases across the (parallel) test harness threads: the
/// fusion knob is process-global.
static GLOBAL: Mutex<()> = Mutex::new(());

/// Run `f` with the fusion override pinned to `on`, restoring the
/// environment-driven default afterwards.
fn with_fusion<T>(on: bool, f: impl FnOnce() -> T) -> T {
    fusion::set_enabled(Some(on));
    let out = f();
    fusion::set_enabled(None);
    out
}

/// A randomly generated logical statement. `head` selects between the
/// chain's source version and its newest version.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        head: bool,
        vals: Vec<i64>,
    },
    Update {
        head: bool,
        slot: usize,
        vals: Vec<i64>,
    },
    Delete {
        head: bool,
        slot: usize,
    },
    /// Column-seeded point query (`col = value`) — drives the seeded
    /// pushdown probe through the fused chain when cold.
    Query {
        head: bool,
        col: usize,
        val: i64,
    },
    Materialize {
        version: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<bool>(), prop::collection::vec(0i64..6, 4..5))
            .prop_map(|(head, vals)| Op::Insert { head, vals }),
        (
            any::<bool>(),
            0usize..12,
            prop::collection::vec(0i64..6, 4..5)
        )
            .prop_map(|(head, slot, vals)| Op::Update { head, slot, vals }),
        (any::<bool>(), 0usize..12).prop_map(|(head, slot)| Op::Delete { head, slot }),
        (any::<bool>(), 0usize..4, 0i64..6).prop_map(|(head, col, val)| Op::Query {
            head,
            col,
            val
        }),
        (0usize..8).prop_map(|version| Op::Materialize { version }),
    ]
}

/// Build a random genealogy chain from hop selectors. Returns the BiDEL
/// script, the version names, and the (version, table) write targets.
///
/// The chain starts at `G0.T0(a, b, c)` and applies one SMO per hop:
/// fusable column-level hops (ADD/DROP/RENAME COLUMN, RENAME TABLE) mixed
/// with SPLIT and FK-DECOMPOSE barriers. Column bookkeeping only ever
/// touches the *last* column, so `a` (the split-condition column) always
/// survives, and decomposing the last column keeps the visible column
/// order unchanged (the engine re-exposes the fk column at the end).
fn build_chain(hops: &[u8]) -> (String, Vec<String>, (String, String)) {
    let mut script = String::from("CREATE SCHEMA VERSION G0 WITH CREATE TABLE T0(a, b, c);");
    let mut versions = vec!["G0".to_string()];
    let mut table = "T0".to_string();
    let mut cols: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
    for (i, sel) in hops.iter().enumerate() {
        let i = i + 1;
        // Guarded choices fall back to ADD COLUMN (always legal).
        let smo = match sel % 6 {
            1 if cols.len() > 2 => {
                let col = cols.pop().expect("guarded");
                format!("DROP COLUMN {col} FROM {table} DEFAULT 0")
            }
            2 if cols.len() > 1 => {
                let col = cols.pop().expect("guarded");
                let new = format!("{col}r{i}");
                let smo = format!("RENAME COLUMN {col} IN {table} TO {new}");
                cols.push(new);
                smo
            }
            3 => {
                let new = format!("T{i}");
                let smo = format!("RENAME TABLE {table} INTO {new}");
                table = new;
                smo
            }
            4 => {
                let new = format!("S{i}");
                let smo = format!("SPLIT TABLE {table} INTO {new} WITH a < 3");
                table = new;
                smo
            }
            5 if cols.len() > 2 => {
                let fk = cols.last().expect("guarded").clone();
                let kept = cols[..cols.len() - 1].join(", ");
                format!(
                    "DECOMPOSE TABLE {table} INTO {table}({kept}), F{i}({fk}) ON FOREIGN KEY {fk}"
                )
            }
            _ => {
                let col = format!("x{i}");
                let smo = format!("ADD COLUMN {col} AS 0 INTO {table}");
                cols.push(col);
                smo
            }
        };
        let v = format!("G{i}");
        script.push_str(&format!(
            " CREATE SCHEMA VERSION {v} FROM {} WITH {smo};",
            versions.last().expect("non-empty")
        ));
        versions.push(v);
    }
    let head = (versions.last().expect("non-empty").clone(), table);
    (script, versions, head)
}

/// A fusable run, a JOIN barrier, then another fusable run on the joined
/// table — fused segments must stop at (and restart after) the JOIN.
const JOIN_SCRIPT: &str = "CREATE SCHEMA VERSION G0 WITH \
       CREATE TABLE T0(a, b); CREATE TABLE Q(c, d); \
     CREATE SCHEMA VERSION G1 FROM G0 WITH ADD COLUMN x1 AS 0 INTO T0; \
     CREATE SCHEMA VERSION G2 FROM G1 WITH RENAME COLUMN x1 IN T0 TO y; \
     CREATE SCHEMA VERSION G3 FROM G2 WITH JOIN TABLE T0, Q INTO R ON PK; \
     CREATE SCHEMA VERSION G4 FROM G3 WITH ADD COLUMN z AS 0 INTO R; \
     CREATE SCHEMA VERSION G5 FROM G4 WITH RENAME TABLE R INTO Rx;";

/// One database pair under a fixed script: `fused` evaluates with chain
/// fusion on, `plain` with fusion off; every op runs on both in lockstep.
struct Harness {
    fused: Inverda,
    plain: Inverda,
    versions: Vec<String>,
    source: (String, String),
    head: (String, String),
    /// Keys minted so far (identical in both databases by construction).
    keys: Vec<Key>,
}

impl Harness {
    fn new(
        script: &str,
        versions: Vec<String>,
        source: (String, String),
        head: (String, String),
        cold: bool,
    ) -> Self {
        let fused = with_fusion(true, || {
            let db = Inverda::new();
            db.execute(script).expect("script");
            db
        });
        let plain = with_fusion(false, || {
            let db = Inverda::new();
            db.execute(script).expect("script");
            db
        });
        fused.set_snapshot_reuse(!cold);
        plain.set_snapshot_reuse(!cold);
        Harness {
            fused,
            plain,
            versions,
            source,
            head,
            keys: Vec::new(),
        }
    }

    fn target(&self, head: bool) -> (&str, &str) {
        let (v, t) = if head { &self.head } else { &self.source };
        (v, t)
    }

    /// Build a row for `version.table` from the generated values, sized to
    /// the table's current arity. Column 0 (`a`, the split-condition
    /// column) carries a small integer; the rest carry few-valued text so
    /// FK-DECOMPOSE generators deduplicate and reuse minted ids.
    fn row(&self, version: &str, table: &str, vals: &[i64]) -> Vec<Value> {
        let cols = self.fused.columns_of(version, table).expect("columns");
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

    /// Visible state plus id-minting state of one database, as text.
    /// Reachable corners of minting genealogies can fail a scan with a
    /// clean error — recorded as text, so both sides must fail alike.
    fn state(db: &Inverda) -> String {
        let mut out = String::new();
        for v in db.versions() {
            let mut tables = db.tables_of(&v).expect("tables");
            tables.sort();
            for t in tables {
                match db.scan(&v, &t) {
                    Ok(rel) => out.push_str(&format!("{v}.{t}:\n{rel}")),
                    Err(e) => out.push_str(&format!("{v}.{t}: error {e:?}\n")),
                }
            }
        }
        out.push_str(&db.debug_registry());
        out.push_str(&format!("key_seq={}", db.debug_key_seq()));
        out
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert { head, vals } => {
                let (v, t) = self.target(*head);
                let row = self.row(v, t, vals);
                let rf = with_fusion(true, || self.fused.insert(v, t, row.clone()));
                let rp = with_fusion(false, || self.plain.insert(v, t, row));
                match (rf, rp) {
                    (Ok(kf), Ok(kp)) => {
                        assert_eq!(kf, kp, "key sequences must stay in lockstep");
                        self.keys.push(kf);
                    }
                    (rf, rp) => assert_eq!(
                        rf.is_ok(),
                        rp.is_ok(),
                        "insert outcome diverged: {rf:?} vs {rp:?}"
                    ),
                }
            }
            Op::Update { head, slot, vals } => {
                if self.keys.is_empty() {
                    return;
                }
                let key = self.keys[slot % self.keys.len()];
                let (v, t) = self.target(*head);
                let row = self.row(v, t, vals);
                let rf = with_fusion(true, || self.fused.update(v, t, key, row.clone()));
                let rp = with_fusion(false, || self.plain.update(v, t, key, row));
                assert_eq!(
                    rf.is_ok(),
                    rp.is_ok(),
                    "update outcome diverged: {rf:?} vs {rp:?}"
                );
            }
            Op::Delete { head, slot } => {
                if self.keys.is_empty() {
                    return;
                }
                let key = self.keys[slot % self.keys.len()];
                let (v, t) = self.target(*head);
                let rf = with_fusion(true, || self.fused.delete(v, t, key));
                let rp = with_fusion(false, || self.plain.delete(v, t, key));
                assert_eq!(
                    rf.is_ok(),
                    rp.is_ok(),
                    "delete outcome diverged: {rf:?} vs {rp:?}"
                );
            }
            Op::Query { head, col, val } => {
                let (v, t) = self.target(*head);
                let cols = self.fused.columns_of(v, t).expect("columns");
                let idx = *col % cols.len();
                let col = &cols[idx];
                let probe = if idx == 0 {
                    Expr::lit(*val)
                } else {
                    // Matches the text payload written into position `idx`
                    // (for a third of the generated values).
                    Expr::lit(format!("p{idx}v{}", val % 3))
                };
                let filter = Expr::col(col.as_str()).eq(probe);
                let run = |db: &Inverda| {
                    db.query(v, t)
                        .filter(filter.clone())
                        .collect()
                        .map(|rel| rel.to_string())
                };
                let rf = with_fusion(true, || run(&self.fused));
                let rp = with_fusion(false, || run(&self.plain));
                assert_eq!(rf, rp, "seeded query diverged on {v}.{t} {col}");
            }
            Op::Materialize { version } => {
                // Reachable corners can fail a migration with a clean
                // KeyConflict; both sides must agree, and a failed
                // migration leaves both databases untouched.
                let v = &self.versions[*version % self.versions.len()];
                let rf = with_fusion(true, || self.fused.materialize(&[v.to_string()]));
                let rp = with_fusion(false, || self.plain.materialize(&[v.to_string()]));
                assert_eq!(
                    rf.is_ok(),
                    rp.is_ok(),
                    "materialize outcome diverged: {rf:?} vs {rp:?}"
                );
            }
        }
    }

    fn check(&self, context: &str) {
        let fused = with_fusion(true, || Self::state(&self.fused));
        let plain = with_fusion(false, || Self::state(&self.plain));
        assert_eq!(
            fused, plain,
            "fused evaluation diverged from hop-by-hop after {context}"
        );
    }
}

proptest! {
    /// Random genealogy chains (fusable runs broken by SPLIT and
    /// FK-DECOMPOSE barriers), random writes/queries through the source
    /// and the chain head, occasional migrations — fused ≡ unfused after
    /// every op, warm and cold.
    #[test]
    fn fused_equals_hop_by_hop_random_chains(
        hops in prop::collection::vec(0u8..6, 2..8),
        ops in prop::collection::vec(op_strategy(), 1..12),
        cold in any::<bool>(),
    ) {
        let _serial = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let (script, versions, head) = build_chain(&hops);
        let source = ("G0".to_string(), "T0".to_string());
        let mut h = Harness::new(&script, versions, source, head, cold);
        for (i, op) in ops.iter().enumerate() {
            h.apply(op);
            h.check(&format!("op {i}: {op:?}"));
        }
    }

    /// The JOIN-barrier genealogy: fused segments must stop at the JOIN
    /// hop and restart beyond it.
    #[test]
    fn fused_equals_hop_by_hop_join_barrier(
        ops in prop::collection::vec(op_strategy(), 1..12),
        cold in any::<bool>(),
    ) {
        let _serial = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let versions = (0..6).map(|i| format!("G{i}")).collect();
        let mut h = Harness::new(
            JOIN_SCRIPT,
            versions,
            ("G0".to_string(), "T0".to_string()),
            ("G5".to_string(), "Rx".to_string()),
            cold,
        );
        for (i, op) in ops.iter().enumerate() {
            h.apply(op);
            h.check(&format!("op {i}: {op:?}"));
        }
    }
}

/// Fusion must actually engage on a fusable chain — otherwise the
/// differential tests above prove nothing. A pure column-level chain
/// read cold from the head must cache one fused chain spanning every
/// hop, and `MATERIALIZE` must drop it (the hop structure follows the
/// storage cases).
#[test]
fn fusion_engages_and_materialize_invalidates() {
    let _serial = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    with_fusion(true, || {
        let (script, _, (head_v, head_t)) = build_chain(&[0, 2, 3, 0, 2]);
        let db = Inverda::new();
        db.execute(&script).unwrap();
        db.insert(
            "G0",
            "T0",
            vec![Value::Int(1), Value::text("b0"), Value::text("c0")],
        )
        .unwrap();
        assert_eq!(db.fused_chain_stats(), (0, 0), "no reads yet");
        let rel = db.scan(&head_v, &head_t).unwrap();
        assert_eq!(rel.len(), 1);
        let (chains, deepest) = db.fused_chain_stats();
        assert!(chains >= 1, "no fused chain was cached");
        assert!(
            deepest >= 4,
            "chain was not fused across the hops: {deepest}"
        );
        db.execute(&format!("MATERIALIZE '{head_v}';")).unwrap();
        assert_eq!(
            db.fused_chain_stats(),
            (0, 0),
            "MATERIALIZE must drop cached fused chains"
        );
    });
}

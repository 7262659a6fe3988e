//! Differential testing of γ-chain fusion.
//!
//! Two databases run *identical* statement sequences: a warm subject with
//! its snapshot store on, whose cold resolutions fuse runs of adjacent
//! column-level γ mappings into a single compiled rule set, and a
//! store-off reference, which resolves every hop separately (the engine's
//! one hop-by-hop configuration: a view bound to no snapshot store fuses
//! nothing). After **every** op, the visible state of every version —
//! whose `Display` form includes tuple identifiers and skolem-minted ids —
//! plus the skolem registry dump and the global key sequence must be
//! byte-identical between the two databases. Any divergence in the inlined
//! rule bodies, the emptiness assumptions, condition hoisting, or
//! fusion-barrier placement shows up as a mismatch.
//!
//! Genealogies under test:
//! * **randomly generated chains** mixing fusable hops (ADD COLUMN /
//!   DROP COLUMN / RENAME COLUMN / RENAME TABLE) with SPLIT and
//!   FK-DECOMPOSE fusion barriers, so fused segments start and stop at
//!   arbitrary points of the chain;
//! * a **fixed JOIN-barrier genealogy** (fusable run, JOIN of two
//!   tables, fusable run on the joined result).
//!
//! The subject runs in memory or on a group-commit log (drawn per case),
//! with occasional `MATERIALIZE` relocations (which must drop cached fused
//! chains — their hop structure follows the storage cases).
//!
//! The twin harness — genealogy, generated writes, lockstep apply, the
//! `state` dump — is `common`'s. What is this file's own: the chain
//! generator, the JOIN genealogy, the `Probe` query and the checks that
//! fusion engages on a store-on database and never on a store-off one.

mod common;

use common::{delete, insert, materialize, state, update, Genealogy, Twin, COLD, DURABLE, WARM};
use inverda_core::Inverda;
use inverda_storage::{Expr, Value};
use proptest::prelude::*;

/// Equality point query (`col = value`) through write target `target` —
/// cold, it resolves the version through the fused chain and scans it;
/// warm, it probes the stored snapshot's index.
#[derive(Debug, Clone)]
struct Probe {
    target: usize,
    col: usize,
    val: i64,
}

type Op = common::Op<Probe>;

/// A write target drawn by coin flip: the chain's source version (0) or its
/// newest version (1).
fn end() -> impl Strategy<Value = usize> {
    any::<bool>().prop_map(usize::from)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        insert(end()),
        update(end()),
        delete(end()),
        (end(), 0usize..4, 0i64..6).prop_map(|(target, col, val)| Op::Query(Probe {
            target,
            col,
            val
        })),
        materialize(0usize..8),
    ]
}

/// Build a random genealogy chain from hop selectors, written through its
/// source `G0.T0` and its head.
///
/// The chain starts at `G0.T0(a, b, c)` and applies one SMO per hop:
/// fusable column-level hops (ADD/DROP/RENAME COLUMN, RENAME TABLE) mixed
/// with SPLIT and FK-DECOMPOSE barriers. Column bookkeeping only ever
/// touches the *last* column, so `a` (the split-condition column) always
/// survives, and decomposing the last column keeps the visible column
/// order unchanged (the engine re-exposes the fk column at the end).
fn build_chain(hops: &[u8]) -> Genealogy {
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
    Genealogy {
        script,
        targets: vec![("G0".to_string(), "T0".to_string()), head],
        versions,
        row: chain_row,
    }
}

/// Build a row for `version.table` from the generated values, sized to the
/// table's current arity. Column 0 (`a`, the split-condition column)
/// carries a small integer; the rest carry few-valued text so FK-DECOMPOSE
/// generators deduplicate and reuse minted ids.
fn chain_row(db: &Inverda, version: &str, table: &str, vals: &[i64]) -> Vec<Value> {
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

/// A fusable run, a JOIN barrier, then another fusable run on the joined
/// table — fused segments must stop at (and restart after) the JOIN.
const JOIN_SCRIPT: &str = "CREATE SCHEMA VERSION G0 WITH \
       CREATE TABLE T0(a, b); CREATE TABLE Q(c, d); \
     CREATE SCHEMA VERSION G1 FROM G0 WITH ADD COLUMN x1 AS 0 INTO T0; \
     CREATE SCHEMA VERSION G2 FROM G1 WITH RENAME COLUMN x1 IN T0 TO y; \
     CREATE SCHEMA VERSION G3 FROM G2 WITH JOIN TABLE T0, Q INTO R ON PK; \
     CREATE SCHEMA VERSION G4 FROM G3 WITH ADD COLUMN z AS 0 INTO R; \
     CREATE SCHEMA VERSION G5 FROM G4 WITH RENAME TABLE R INTO Rx;";

/// Every op against a fused database, durable or not, and its hop-by-hop
/// twin, compared after each one — rows, registry and key sequence.
fn run(genealogy: Genealogy, durable: bool, ops: &[Op]) {
    let subject = if durable { DURABLE } else { WARM };
    let mut h = Twin::new(genealogy, subject, COLD);
    for (i, op) in ops.iter().enumerate() {
        if let Some(probe) = h.apply(op) {
            query(&h, probe);
        }
        let (fused, plain) = h.each(state);
        assert_eq!(
            fused, plain,
            "fused evaluation diverged from hop-by-hop after op {i}: {op:?}"
        );
    }
}

fn query(h: &Twin, probe: &Probe) {
    let (v, t) = h.target(probe.target);
    let cols = h.subject.columns_of(v, t).expect("columns");
    let idx = probe.col % cols.len();
    let col = &cols[idx];
    let lit = if idx == 0 {
        Expr::lit(probe.val)
    } else {
        // Matches the text payload written into position `idx` (for a
        // third of the generated values).
        Expr::lit(format!("p{idx}v{}", probe.val % 3))
    };
    let filter = Expr::col(col.as_str()).eq(lit);
    let (fused, plain) = h.each(|db| {
        db.query(v, t)
            .filter(filter.clone())
            .collect()
            .map(|rel| rel.to_string())
    });
    assert_eq!(fused, plain, "seeded query diverged on {v}.{t} {col}");
}

proptest! {
    /// Random genealogy chains (fusable runs broken by SPLIT and
    /// FK-DECOMPOSE barriers), random writes/queries through the source
    /// and the chain head, occasional migrations — fused ≡ unfused after
    /// every op, the fused side in memory or durable.
    #[test]
    fn fused_equals_hop_by_hop_random_chains(
        hops in prop::collection::vec(0u8..6, 2..8),
        ops in prop::collection::vec(op_strategy(), 1..12),
        durable in any::<bool>(),
    ) {
        run(build_chain(&hops), durable, &ops);
    }

    /// The JOIN-barrier genealogy: fused segments must stop at the JOIN
    /// hop and restart beyond it.
    #[test]
    fn fused_equals_hop_by_hop_join_barrier(
        ops in prop::collection::vec(op_strategy(), 1..12),
        durable in any::<bool>(),
    ) {
        let join = Genealogy {
            script: JOIN_SCRIPT.to_string(),
            targets: vec![("G0".into(), "T0".into()), ("G5".into(), "Rx".into())],
            versions: (0..6).map(|i| format!("G{i}")).collect(),
            row: chain_row,
        };
        run(join, durable, &ops);
    }
}

/// Fusion must actually engage on a fusable chain — otherwise the
/// differential tests above prove nothing. A pure column-level chain
/// read cold from the head must cache one fused chain spanning every
/// hop, and `MATERIALIZE` must drop it (the hop structure follows the
/// storage cases).
#[test]
fn fusion_engages_and_materialize_invalidates() {
    let chain = build_chain(&[0, 2, 3, 0, 2]);
    let (head_v, head_t) = &chain.targets[1];
    let db = Inverda::new();
    db.execute(&chain.script).unwrap();
    db.insert(
        "G0",
        "T0",
        vec![Value::Int(1), Value::text("b0"), Value::text("c0")],
    )
    .unwrap();
    assert_eq!(db.fused_chain_stats(), (0, 0), "no reads yet");
    let rel = db.scan(head_v, head_t).unwrap();
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
}

/// Fusion is a property of the snapshot store: a store-off database builds
/// no fused chain, cold reads across a column-level run included, while its
/// store-on twin builds one for the same reads, and both return the same
/// bytes.
#[test]
fn a_store_off_database_resolves_hop_by_hop() {
    let chain = build_chain(&[0, 2, 3, 0, 2]);
    let twin = Twin::new(chain, WARM, COLD);
    twin.both("insert", |db| {
        db.insert(
            "G0",
            "T0",
            vec![Value::Int(1), Value::text("b0"), Value::text("c0")],
        )
    });
    // The head, five hops above the data, then two versions below it.
    for (version, table) in [("G5", "T3"), ("G3", "T3"), ("G1", "T0")] {
        let (on, off) = twin.each(|db| db.scan(version, table).map(|rel| rel.to_string()));
        assert_eq!(on.expect("store-on scan"), off.expect("store-off scan"));
    }
    let (on, off) = twin.each(Inverda::fused_chain_stats);
    assert!(on.0 >= 1, "the store-on twin fused nothing: {on:?}");
    assert_eq!(off, (0, 0), "the store-off twin fused");
}

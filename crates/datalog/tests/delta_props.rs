//! Property tests: the incremental delta engine agrees with full two-state
//! recomputation on the SPLIT rule shapes, for arbitrary states and writes.

use inverda_datalog::ast::{Atom, Literal, Rule, RuleSet, Term};
use inverda_datalog::delta::{propagate, propagate_by_recompute, Delta, DeltaMap};
use inverda_datalog::eval::MapEdb;
use inverda_datalog::SkolemRegistry;
use inverda_storage::{BinaryOp, Expr, Key, Relation, Value};
use proptest::prelude::*;
use std::cell::RefCell;

use std::collections::BTreeMap;

/// γ_tgt of a two-arm SPLIT with overlapping conditions and aux guards —
/// the richest non-staged rule shape (Rules 12–17).
fn split_gamma_tgt() -> RuleSet {
    let vars = ["p", "a"];
    let c_r = Expr::col("a").lt(Expr::lit(6));
    let c_s = Expr::col("a").ge(Expr::lit(3));
    RuleSet::new(vec![
        Rule::new(
            Atom::vars("R", &vars),
            vec![
                Literal::Pos(Atom::vars("T", &vars)),
                Literal::Cond(c_r.clone()),
                Literal::Neg(Atom::vars("Rminus", &["p"])),
            ],
        ),
        Rule::new(
            Atom::vars("R", &vars),
            vec![
                Literal::Pos(Atom::vars("T", &vars)),
                Literal::Pos(Atom::vars("Rstar", &["p"])),
            ],
        ),
        Rule::new(
            Atom::vars("S", &vars),
            vec![
                Literal::Pos(Atom::vars("T", &vars)),
                Literal::Cond(c_s.clone()),
                Literal::Neg(Atom::vars("Sminus", &["p"])),
                Literal::Neg(Atom::new("Splus", vec![Term::var("p"), Term::Anon])),
            ],
        ),
        Rule::new(
            Atom::vars("S", &vars),
            vec![Literal::Pos(Atom::vars("Splus", &vars))],
        ),
        Rule::new(
            Atom::vars("Tprime", &vars),
            vec![
                Literal::Pos(Atom::vars("T", &vars)),
                Literal::Cond(c_r.negate()),
                Literal::Cond(c_s.negate()),
            ],
        ),
    ])
}

fn keyed_rel(name: &str, cols: &[&str], rows: &BTreeMap<u64, Vec<Value>>) -> Relation {
    let mut rel = Relation::with_columns(name, cols.to_vec());
    for (k, row) in rows {
        rel.insert(Key(*k), row.clone()).unwrap();
    }
    rel
}

type Rows = BTreeMap<u64, Vec<Value>>;

fn arb_state() -> impl Strategy<Value = (Rows, Vec<u64>, Rows)> {
    (
        prop::collection::btree_map(
            0u64..24,
            (0i64..10).prop_map(|a| vec![Value::Int(a)]),
            0..16,
        ),
        prop::collection::vec(0u64..24, 0..4),
        prop::collection::btree_map(0u64..24, (0i64..10).prop_map(|a| vec![Value::Int(a)]), 0..4),
    )
}

#[derive(Debug, Clone)]
enum W {
    Ins(u64, i64),
    Del(u64),
    Upd(u64, i64),
}

fn arb_writes() -> impl Strategy<Value = Vec<W>> {
    prop::collection::vec(
        prop_oneof![
            (24u64..40, 0i64..10).prop_map(|(k, a)| W::Ins(k, a)),
            (0u64..24).prop_map(W::Del),
            (0u64..24, 0i64..10).prop_map(|(k, a)| W::Upd(k, a)),
        ],
        1..6,
    )
}

proptest! {
    #[test]
    fn delta_equals_recompute_on_split_rules(
        (t_rows, rminus_keys, splus_rows) in arb_state(),
        writes in arb_writes(),
    ) {
        // EDB: T plus aux tables in an arbitrary (even inconsistent) state.
        let mut edb = MapEdb::new();
        edb.add(keyed_rel("T", &["a"], &t_rows));
        let mut rminus = Relation::with_columns("Rminus", [] as [&str; 0]);
        for k in &rminus_keys {
            let _ = rminus.insert(Key(*k), vec![]);
        }
        edb.add(rminus);
        edb.add(keyed_rel("Splus", &["a"], &splus_rows));
        edb.add(Relation::with_columns("Sminus", [] as [&str; 0]));
        edb.add(Relation::with_columns("Rstar", [] as [&str; 0]));

        // Build the input delta on T from the write list.
        let mut delta = Delta::new();
        for w in &writes {
            match w {
                W::Ins(k, a) => {
                    if !t_rows.contains_key(k) && !delta.inserts.contains_key(&Key(*k)) {
                        delta.inserts.insert(Key(*k), vec![Value::Int(*a)]);
                    }
                }
                W::Del(k) => {
                    if let Some(row) = t_rows.get(k) {
                        delta.deletes.entry(Key(*k)).or_insert_with(|| row.clone());
                    }
                }
                W::Upd(k, a) => {
                    if let Some(row) = t_rows.get(k) {
                        if let std::collections::btree_map::Entry::Vacant(e) = delta.deletes.entry(Key(*k)) {
                            e.insert(row.clone());
                            delta.inserts.insert(Key(*k), vec![Value::Int(*a)]);
                        }
                    }
                }
            }
        }
        let mut input = DeltaMap::new();
        input.insert("T".to_string(), delta);

        let rules = split_gamma_tgt();
        let ids1 = RefCell::new(SkolemRegistry::new());
        let fast = propagate(&rules, &edb, &input, &ids1, &BTreeMap::new()).unwrap();
        let ids2 = RefCell::new(SkolemRegistry::new());
        let slow =
            propagate_by_recompute(&rules, &edb, &input, &ids2, &BTreeMap::new()).unwrap();
        let slow: DeltaMap = slow.into_iter().filter(|(_, d)| !d.is_empty()).collect();
        let fast: DeltaMap = fast.into_iter().filter(|(_, d)| !d.is_empty()).collect();
        prop_assert_eq!(fast, slow);
    }
}

// ---------------------------------------------------------------------------
// Minting (non-staged) rule sets: propagation reserves in exploration
// order and commits once.
// ---------------------------------------------------------------------------

/// Non-staged, id-minting rule set: `H(t, x) ← In(p, x), t = gen#H(x)` —
/// the head key itself is a generated id, so probes and re-derivations both
/// mint.
fn minting_rules() -> RuleSet {
    RuleSet::new(vec![Rule::new(
        Atom::vars("H", &["t", "x"]),
        vec![
            Literal::Pos(Atom::vars("In", &["p", "x"])),
            Literal::Skolem {
                var: "t".into(),
                generator: "gen#H".into(),
                args: vec![Term::var("x")],
            },
        ],
    )])
}

/// Hundreds of probe tuples over a registry that knows every stored
/// payload (as it would: their ids were minted when they were first
/// derived), so the deletes re-derive known ids and the 100 fresh inserts
/// mint. The probe path must equal the two-state recompute: same delta,
/// same registry, ids minted in the same order.
#[test]
fn large_minting_propagation_agrees_with_recompute() {
    let mut in_rel = Relation::with_columns("In", ["x"]);
    for i in 0..300u64 {
        in_rel
            .insert(Key(i), vec![Value::text(format!("x{i}"))])
            .unwrap();
    }
    let mut edb = MapEdb::new();
    edb.add(in_rel);
    let mut delta = Delta::new();
    for i in 0..100u64 {
        delta
            .inserts
            .insert(Key(1000 + i), vec![Value::text(format!("fresh{i}"))]);
    }
    for i in 0..80u64 {
        delta
            .deletes
            .insert(Key(i), vec![Value::text(format!("x{i}"))]);
    }
    let mut input = DeltaMap::new();
    input.insert("In".into(), delta);
    let rules = minting_rules();
    let seeded = || {
        let sk = RefCell::new(SkolemRegistry::new());
        for i in 0..300u64 {
            sk.borrow_mut()
                .get_or_create("gen#H", &[Value::text(format!("x{i}"))]);
        }
        sk
    };
    let ids1 = seeded();
    let fast = propagate(&rules, &edb, &input, &ids1, &BTreeMap::new()).unwrap();
    let ids2 = seeded();
    let slow = propagate_by_recompute(&rules, &edb, &input, &ids2, &BTreeMap::new()).unwrap();
    let dump = ids1.borrow().dump();
    assert!(dump.contains("fresh99"), "the workload must actually mint");
    assert_eq!(dump, ids2.borrow().dump(), "minted ids diverged");
    let slow: DeltaMap = slow.into_iter().filter(|(_, d)| !d.is_empty()).collect();
    let fast: DeltaMap = fast.into_iter().filter(|(_, d)| !d.is_empty()).collect();
    assert_eq!(fast, slow);
}

#[test]
fn minting_propagation_agrees_with_recompute() {
    // With every payload's id pre-observed, neither path mints fresh ids,
    // so the incremental probe path and the full two-state recompute must
    // produce identical deltas (the mint-free analogue holds by the
    // differential proptest above; this pins the minting code path).
    let mut in_rel = Relation::with_columns("In", ["x"]);
    for i in 0..40u64 {
        in_rel
            .insert(Key(i), vec![Value::text(format!("x{i}"))])
            .unwrap();
    }
    let mut edb = MapEdb::new();
    edb.add(in_rel);
    let mut delta = Delta::new();
    // Insert a payload known to the registry but absent from In, delete one
    // present, update one to another known payload.
    delta.inserts.insert(Key(900), vec![Value::text("known-a")]);
    delta.deletes.insert(Key(3), vec![Value::text("x3")]);
    delta.deletes.insert(Key(7), vec![Value::text("x7")]);
    delta.inserts.insert(Key(7), vec![Value::text("known-b")]);
    let mut input = DeltaMap::new();
    input.insert("In".into(), delta);
    let rules = minting_rules();
    let seeded = || {
        let sk = RefCell::new(SkolemRegistry::new());
        {
            let mut reg = sk.borrow_mut();
            for i in 0..40u64 {
                reg.observe("gen#H", &[Value::text(format!("x{i}"))], 500 + i);
            }
            reg.observe("gen#H", &[Value::text("known-a")], 600);
            reg.observe("gen#H", &[Value::text("known-b")], 601);
        }
        sk
    };
    let ids1 = seeded();
    let fast = propagate(&rules, &edb, &input, &ids1, &BTreeMap::new()).unwrap();
    let ids2 = seeded();
    let slow = propagate_by_recompute(&rules, &edb, &input, &ids2, &BTreeMap::new()).unwrap();
    let slow: DeltaMap = slow.into_iter().filter(|(_, d)| !d.is_empty()).collect();
    let fast: DeltaMap = fast.into_iter().filter(|(_, d)| !d.is_empty()).collect();
    assert_eq!(fast, slow);
    assert!(!fast.is_empty(), "the write must be visible in H");
    assert_eq!(ids1.borrow().dump(), ids2.borrow().dump());
}

/// A minting set keyed by a body key, `H(p, t) ← In(p, x), t = gen#H(x)`:
/// its changed tuples name their own keys, but the set mints, so every
/// change is probed. A deleted payload the registry has not seen is
/// reserved by its old-state probe, before the new-state ones, which is
/// the order the two-state recompute mints in.
#[test]
fn key_keyed_minting_propagation_agrees_with_recompute() {
    let rules = RuleSet::new(vec![Rule::new(
        Atom::vars("H", &["p", "t"]),
        vec![
            Literal::Pos(Atom::vars("In", &["p", "x"])),
            Literal::Skolem {
                var: "t".into(),
                generator: "gen#H".into(),
                args: vec![Term::var("x")],
            },
        ],
    )]);
    let mut in_rel = Relation::with_columns("In", ["x"]);
    for i in 0..10u64 {
        in_rel
            .insert(Key(i), vec![Value::text(format!("x{i}"))])
            .unwrap();
    }
    let mut edb = MapEdb::new();
    edb.add(in_rel);
    let mut delta = Delta::delete(Key(3), vec![Value::text("x3")]);
    delta.inserts.insert(Key(1), vec![Value::text("fresh")]);
    delta.deletes.insert(Key(1), vec![Value::text("x1")]);
    let mut input = DeltaMap::new();
    input.insert("In".into(), delta);
    // Every old payload but the deleted one has its id already.
    let seeded = || {
        let sk = RefCell::new(SkolemRegistry::new());
        for i in (0..10u64).filter(|i| *i != 3) {
            sk.borrow_mut()
                .get_or_create("gen#H", &[Value::text(format!("x{i}"))]);
        }
        sk
    };
    let ids1 = seeded();
    let fast = propagate(&rules, &edb, &input, &ids1, &BTreeMap::new()).unwrap();
    let ids2 = seeded();
    let slow = propagate_by_recompute(&rules, &edb, &input, &ids2, &BTreeMap::new()).unwrap();
    let slow: DeltaMap = slow.into_iter().filter(|(_, d)| !d.is_empty()).collect();
    assert_eq!(fast, slow);
    assert_eq!(
        ids1.borrow().dump(),
        ids2.borrow().dump(),
        "minted ids diverged"
    );
}

// ---------------------------------------------------------------------------
// Delta-vs-stored ≡ recompute-vs-stored on random non-staged minting sets:
// same head deltas, same registry, same minted-id order.
// ---------------------------------------------------------------------------

use inverda_datalog::delta::{propagate_vs_stored, PatchedEdb};
use inverda_datalog::eval::{evaluate_compiled, CompiledRuleSet, IdSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every rule of the SPLIT shape is key-local, so each changed tuple of
/// `delta_equals_recompute_on_split_rules` names its own key as the
/// candidate, without a probe join.
#[test]
fn split_rules_are_key_local() {
    let crs = CompiledRuleSet::compile(&split_gamma_tgt()).unwrap();
    assert!(crs.rules.iter().all(|rule| rule.key_local));
}

/// Which rule shapes a generated set holds. The FK-DECOMPOSE γ_tgt shapes
/// (memo path / skolem path, head keyed by a body key or by the generated
/// id) plus a two-argument generator behind a negation and a generator
/// behind a payload join.
#[derive(Debug, Clone)]
struct MintSpec {
    memo_rules: bool,
    s_rules: bool,
    pair_gen: bool,
    joined_gen: bool,
    /// The joined rule scans `Side` first instead of `In`: its firings are
    /// then met in a different order than every other rule's.
    side_first: bool,
    threshold: i64,
}

fn arb_mint_spec() -> impl Strategy<Value = MintSpec> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0i64..4,
    )
        .prop_map(
            |(memo_rules, s_rules, pair_gen, joined_gen, side_first, threshold)| MintSpec {
                memo_rules,
                s_rules,
                pair_gen,
                joined_gen,
                side_first,
                threshold,
            },
        )
}

/// `In(p; a, b)`, `Memo(p; t, a)`, `Block(p;)`, `Side(q; b, c)`.
fn minting_set(spec: &MintSpec) -> RuleSet {
    let v = Term::var;
    let input = || Literal::Pos(Atom::vars("In", &["p", "a", "b"]));
    let memo = |t: Term| Atom::new("Memo", vec![v("p"), t, v("a")]);
    let gen_t = || Literal::Skolem {
        var: "t".into(),
        generator: "gen#T".into(),
        args: vec![v("a")],
    };
    let big = Expr::col("b").ge(Expr::lit(spec.threshold));
    let mut rules = Vec::new();
    if spec.memo_rules {
        rules.push(Rule::new(
            Atom::vars("T", &["t", "a"]),
            vec![input(), Literal::Pos(memo(v("t")))],
        ));
    }
    rules.push(Rule::new(
        Atom::vars("T", &["t", "a"]),
        vec![
            input(),
            Literal::Neg(memo(Term::Anon)),
            Literal::Cond(big.clone()),
            gen_t(),
        ],
    ));
    if spec.s_rules {
        if spec.memo_rules {
            rules.push(Rule::new(
                Atom::vars("S", &["p", "b", "t"]),
                vec![input(), Literal::Pos(memo(v("t")))],
            ));
        }
        rules.push(Rule::new(
            Atom::vars("S", &["p", "b", "t"]),
            vec![
                input(),
                Literal::Neg(memo(Term::Anon)),
                Literal::Cond(big.clone()),
                gen_t(),
            ],
        ));
        rules.push(Rule::new(
            Atom::new("S", vec![v("p"), v("b"), Term::Const(Value::Null)]),
            vec![
                input(),
                Literal::Neg(memo(Term::Anon)),
                Literal::Cond(big.negate()),
            ],
        ));
    }
    if spec.pair_gen {
        rules.push(Rule::new(
            Atom::vars("U", &["u", "a", "b"]),
            vec![
                input(),
                Literal::Neg(Atom::vars("Block", &["p"])),
                Literal::Skolem {
                    var: "u".into(),
                    generator: "gen#U".into(),
                    args: vec![v("a"), v("b")],
                },
            ],
        ));
    }
    if spec.joined_gen {
        let mut body = vec![
            input(),
            Literal::Pos(Atom::vars("Side", &["q", "b", "c"])),
            // The same generator as the T rules, on another rule's terms.
            Literal::Skolem {
                var: "w".into(),
                generator: "gen#T".into(),
                args: vec![v("c")],
            },
        ];
        if spec.side_first {
            body.swap(0, 1);
        }
        rules.push(Rule::new(Atom::vars("V", &["w", "c"]), body));
    }
    RuleSet::new(rules)
}

const MINT_RELS: [(&str, &[&str]); 4] = [
    ("In", &["a", "b"]),
    ("Memo", &["t", "a"]),
    ("Block", &[]),
    ("Side", &["b", "c"]),
];

/// One generated change: relation index, key, and the values a row is
/// built from (`None` = delete).
type Change = (usize, u64, Option<(i64, i64)>);

fn mint_row(rel: usize, (x, y): (i64, i64)) -> Vec<Value> {
    match rel {
        0 => vec![Value::Int(x % 4), Value::Int(y % 6)],
        // The memoized id is a function of the memoized payload, except for
        // the occasional wild one (x ≥ 5) that can collide.
        1 if x < 5 => vec![Value::Int(500 + y % 4), Value::Int(y % 4)],
        1 => vec![Value::Int(500 + x % 4), Value::Int(y % 4)],
        2 => vec![],
        _ => vec![Value::Int(x % 6), Value::Int(y % 3)],
    }
}

fn arb_changes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Change>> {
    prop::collection::vec(
        (
            // In changes most often: it is every rule's scan.
            prop_oneof![Just(0usize), Just(0usize), Just(1usize), 0usize..4],
            0u64..14,
            prop::option::of((0i64..6, 0i64..12)),
        ),
        len,
    )
}

/// Fold `changes` into the exact delta against `state`, and apply it.
fn exact_delta(state: &mut [Rows; 4], changes: &[Change]) -> DeltaMap {
    let mut out = DeltaMap::new();
    for &(rel, key, vals) in changes {
        let old = state[rel].get(&key).cloned();
        let new = vals.map(|v| mint_row(rel, v));
        if old == new {
            continue;
        }
        let mut step = Delta::new();
        step.deletes.extend(old.map(|row| (Key(key), row)));
        step.inserts.extend(new.clone().map(|row| (Key(key), row)));
        out.entry(MINT_RELS[rel].0.to_string())
            .or_default()
            .merge(&step);
        match new {
            Some(row) => state[rel].insert(key, row),
            None => state[rel].remove(&key),
        };
    }
    drop_unchanged(&mut out);
    out
}

/// A key changed and changed back nets to an update onto itself: drop it,
/// and the deltas left empty.
fn drop_unchanged(deltas: &mut DeltaMap) {
    for delta in deltas.values_mut() {
        let Delta { deletes, inserts } = delta;
        inserts.retain(|key, row| {
            let unchanged = deletes.get(key) == Some(row);
            if unchanged {
                deletes.remove(key);
            }
            !unchanged
        });
    }
    deltas.retain(|_, d| !d.is_empty());
}

fn mint_edb(state: &[Rows; 4]) -> MapEdb {
    let mut edb = MapEdb::new();
    for ((name, cols), rows) in MINT_RELS.iter().zip(state) {
        edb.add(keyed_rel(name, cols, rows));
    }
    edb
}

/// Ids the way the engine mints them: every generator draws from one
/// sequence (so the order of mints *across* generators and rules shows in
/// the registry), starting far above the row keys (so a minted id is fresh).
struct SeqIds {
    registry: RefCell<SkolemRegistry>,
    next: AtomicU64,
}

impl SeqIds {
    fn new() -> SeqIds {
        SeqIds {
            registry: RefCell::new(SkolemRegistry::new()),
            next: AtomicU64::new(1000),
        }
    }

    fn fork(&self) -> SeqIds {
        SeqIds {
            registry: RefCell::new(self.registry.borrow().clone()),
            next: AtomicU64::new(self.next.load(Ordering::Relaxed)),
        }
    }

    fn dump(&self) -> String {
        self.registry.borrow().dump()
    }
}

impl IdSource for SeqIds {
    fn generate(&self, generator: &str, args: &[Value]) -> u64 {
        self.registry
            .borrow_mut()
            .get_or_create_with(generator, args, || {
                self.next.fetch_add(1, Ordering::Relaxed)
            })
    }

    fn peek(&self, generator: &str, args: &[Value]) -> Option<u64> {
        self.registry.borrow().peek(generator, args)
    }
}

/// Recompute-vs-stored: evaluate the new state in full, diff against the
/// stored heads. Returns the deltas and the new heads.
fn recompute_vs_stored(
    crs: &CompiledRuleSet,
    old: &MapEdb,
    input: &DeltaMap,
    ids: &SeqIds,
    stored: &BTreeMap<String, Relation>,
) -> inverda_datalog::Result<(DeltaMap, BTreeMap<String, Relation>)> {
    let patched = PatchedEdb::new(old, input);
    let new_out = evaluate_compiled(crs, &patched, ids, &BTreeMap::new())?;
    let mut deltas = DeltaMap::new();
    for (head, new_rel) in &new_out {
        let delta = Delta::from(new_rel.diff(&stored[head]));
        if !delta.is_empty() {
            deltas.insert(head.clone(), delta);
        }
    }
    Ok((deltas, new_out))
}

/// Drive a sequence of deltas through both maintenance paths from one
/// start state; `Err` carries the first divergence.
fn check_vs_stored(
    rules: &RuleSet,
    start: &[Change],
    steps: &[Vec<Change>],
) -> Result<usize, String> {
    let crs = CompiledRuleSet::compile(rules).expect("safe rules");
    assert!(crs.mints_ids() && !crs.staged());
    let mut state: [Rows; 4] = Default::default();
    exact_delta(&mut state, start);
    let ids = SeqIds::new();
    let Ok(mut stored) = evaluate_compiled(&crs, &mint_edb(&state), &ids, &BTreeMap::new()) else {
        // The start state itself conflicts (wild memo ids): nothing stored.
        return Ok(0);
    };
    let mut compared = 0;
    for step in steps {
        let old = mint_edb(&state);
        let input = exact_delta(&mut state, step);
        let slow_ids = ids.fork();
        let slow = recompute_vs_stored(&crs, &old, &input, &slow_ids, &stored);
        let mut stored_edb = MapEdb::new();
        for rel in stored.values() {
            stored_edb.add_shared(rel.name().to_string(), Arc::new(rel.clone()));
        }
        let fast = propagate_vs_stored(
            &crs,
            &PatchedEdb::new(&old, &input),
            &input,
            &ids,
            &stored_edb,
        );
        match (slow, fast) {
            (Ok((slow, new_heads)), Ok(fast)) => {
                if slow != fast {
                    return Err(format!("deltas differ:\n{slow:#?}\nvs\n{fast:#?}"));
                }
                let (slow_reg, fast_reg) = (slow_ids.dump(), ids.dump());
                if slow_reg != fast_reg {
                    return Err(format!("registries differ:\n{slow_reg}\nvs\n{fast_reg}"));
                }
                stored = new_heads;
                compared += 1;
            }
            // A conflicting new state: both refuse; nothing stays stored.
            (Err(_), Err(_)) => return Ok(compared),
            (slow, fast) => {
                return Err(format!(
                    "one path failed: recompute {:?}, delta {:?}",
                    slow.map(|(d, _)| d),
                    fast
                ))
            }
        }
    }
    Ok(compared)
}

proptest! {
    #[test]
    fn delta_vs_stored_equals_recompute_vs_stored(
        spec in arb_mint_spec(),
        start in arb_changes(0..24),
        steps in prop::collection::vec(arb_changes(1..5), 1..5),
    ) {
        let rules = minting_set(&spec);
        if let Err(why) = check_vs_stored(&rules, &start, &steps) {
            prop_assert!(false, "{}\non:\n{}", why, rules);
        }
    }
}

// ---------------------------------------------------------------------------
// Survive checks with many witnesses: the `In` rows share one payload, so a
// stored `T` row that may have lost its derivation is still derived by many
// others, and one arm divides by a difference a seeded head value takes part
// in, so the witness search meets a division by zero the full evaluation
// never does.
// ---------------------------------------------------------------------------

/// The FK-DECOMPOSE `Author` shapes over `In(p; a, b)` and `Memo(p; t, a)`,
/// plus `Q(p, t) ← In(p, a, b), Memo(_, t, a), d = 12 / (t − 500 − b)`. A
/// survive check of `Q(p, t)` reads `In` by key and divides before `Memo`
/// confirms `t`: once `In(p)` moves to a payload no memo has, it can divide
/// by zero on a branch no firing completes.
fn fan_out_set() -> RuleSet {
    let v = Term::var;
    let input = || Literal::Pos(Atom::vars("In", &["p", "a", "b"]));
    let t_minus_b = Expr::Binary(
        Box::new(Expr::Binary(
            Box::new(Expr::col("t")),
            BinaryOp::Sub,
            Box::new(Expr::lit(500)),
        )),
        BinaryOp::Sub,
        Box::new(Expr::col("b")),
    );
    RuleSet::new(vec![
        Rule::new(
            Atom::vars("T", &["t", "a"]),
            vec![
                input(),
                Literal::Pos(Atom::vars("Memo", &["p", "t", "a"])),
                Literal::Cond(Expr::IsNull(Box::new(Expr::col("t"))).negate()),
            ],
        ),
        Rule::new(
            Atom::vars("T", &["t", "a"]),
            vec![
                input(),
                Literal::Neg(Atom::new("Memo", vec![v("p"), Term::Anon, v("a")])),
                Literal::Skolem {
                    var: "t".into(),
                    generator: "gen#T".into(),
                    args: vec![v("a")],
                },
            ],
        ),
        Rule::new(
            Atom::vars("Q", &["p", "t"]),
            vec![
                input(),
                Literal::Pos(Atom::new("Memo", vec![Term::Anon, v("t"), v("a")])),
                Literal::Assign {
                    var: "d".into(),
                    expr: Expr::Binary(Box::new(Expr::lit(12)), BinaryOp::Div, Box::new(t_minus_b)),
                },
            ],
        ),
    ])
}

/// Changes to `In` and `Memo` only. Most `In` rows get payload a = 1, and
/// most `b` lie past every memoized `t − 500` (0–3), so a division by zero
/// is the exception, not the rule.
fn arb_shared_changes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Change>> {
    prop::collection::vec(
        prop_oneof![
            (
                Just(0usize),
                0u64..14,
                prop::option::of((
                    prop_oneof![Just(1i64), Just(1i64), Just(1i64), 0i64..4],
                    prop_oneof![Just(4i64), Just(5i64), 0i64..6],
                )),
            ),
            (Just(1usize), 0u64..14, prop::option::of((0i64..6, 0i64..4))),
        ],
        len,
    )
}

proptest! {
    #[test]
    fn delta_vs_stored_equals_recompute_vs_stored_with_many_witnesses(
        start in arb_shared_changes(0..24),
        steps in prop::collection::vec(arb_shared_changes(1..5), 1..5),
    ) {
        let rules = fan_out_set();
        if let Err(why) = check_vs_stored(&rules, &start, &steps) {
            prop_assert!(false, "{}\non:\n{}", why, rules);
        }
    }
}

/// The three payload life cycles the random streams only sometimes hit, on
/// the full rule mix: a payload vanishes (nothing may be minted for it),
/// reappears (its memoized id is reused), and a row moves between two
/// payloads other rows still share (both generated rows survive).
#[test]
fn delta_vs_stored_payload_life_cycles() {
    let spec = MintSpec {
        memo_rules: true,
        s_rules: true,
        pair_gen: true,
        joined_gen: true,
        side_first: true,
        threshold: 0,
    };
    let row = |a: i64, b: i64| Some((a, b));
    // Payload a=1 on keys 1 and 2, a=2 on keys 3 and 4, a=3 only on key 5.
    let start: Vec<Change> = vec![
        (0, 1, row(1, 1)),
        (0, 2, row(1, 2)),
        (0, 3, row(2, 1)),
        (0, 4, row(2, 2)),
        (0, 5, row(3, 3)),
        (3, 0, row(1, 7)),
        (3, 1, row(3, 8)),
    ];
    let steps: Vec<Vec<Change>> = vec![
        vec![(0, 5, None)],                         // a=3 vanishes
        vec![(0, 6, row(3, 3))],                    // ... and reappears under a new key
        vec![(0, 2, row(2, 2))],                    // key 2 moves from a=1 to a=2
        vec![(0, 2, row(0, 2))],                    // ... on to a payload nobody has yet
        vec![(0, 1, None), (0, 7, row(1, 1))],      // last a=1 row replaced in one delta
        vec![(1, 3, row(0, 2)), (2, 4, row(0, 0))], // a memo and a block appear
        vec![(1, 3, None), (2, 4, None), (3, 1, None)],
    ];
    let compared = check_vs_stored(&minting_set(&spec), &start, &steps).unwrap();
    assert_eq!(compared, steps.len(), "every step must be comparable");
}

/// Nothing the vanished payload was *about* to get is minted: a delta that
/// only removes the last row of a payload leaves the registry untouched.
#[test]
fn delta_vs_stored_mints_nothing_for_a_vanished_payload() {
    let spec = MintSpec {
        memo_rules: false,
        s_rules: false,
        pair_gen: false,
        joined_gen: false,
        side_first: false,
        threshold: 0,
    };
    let crs = CompiledRuleSet::compile(&minting_set(&spec)).unwrap();
    let mut state: [Rows; 4] = Default::default();
    exact_delta(&mut state, &[(0, 1, Some((1, 1))), (0, 2, Some((2, 1)))]);
    // The stored heads were derived by a registry that has since forgotten
    // payload a=2 — the delete side may only peek, so it stays forgotten.
    let ids = SeqIds::new();
    let old = mint_edb(&state);
    let stored = evaluate_compiled(&crs, &old, &ids, &BTreeMap::new()).unwrap();
    ids.registry
        .borrow_mut()
        .unobserve("gen#T", &[Value::Int(2)]);
    let before = ids.dump();
    let input = exact_delta(&mut state, &[(0, 2, None)]);
    let mut stored_edb = MapEdb::new();
    stored_edb.add(stored["T"].clone());
    let new_state = PatchedEdb::new(&old, &input);
    let out = propagate_vs_stored(&crs, &new_state, &input, &ids, &stored_edb).unwrap();
    assert_eq!(out["T"].deletes.len(), 1);
    assert!(out["T"].inserts.is_empty());
    assert_eq!(ids.dump(), before);
}

// ---------------------------------------------------------------------------
// Delta-vs-stored over the **merged delta of several statements against the
// live new state** ≡ the diff of two full evaluations — what a reader does
// when it catches a stale snapshot up from a change log: no overlay, no
// intermediate state ever evaluated. Same rows, same registry, same
// minted-id order; minting and mint-free sets.
// ---------------------------------------------------------------------------

/// Compose per-statement deltas the way a change log does: later changes
/// win, and a key that ends where it started drops out.
fn merge_statements(steps: impl IntoIterator<Item = DeltaMap>) -> DeltaMap {
    let mut merged = DeltaMap::new();
    for step in steps {
        for (rel, delta) in step {
            merged.entry(rel).or_default().merge(&delta);
        }
    }
    drop_unchanged(&mut merged);
    merged
}

/// `stored` = heads over `old`; then the heads over `live` two ways.
/// `Ok(false)`: one of the two states conflicts and both paths refuse.
fn check_merged_against_live(
    crs: &CompiledRuleSet,
    old: &MapEdb,
    live: &MapEdb,
    merged: &DeltaMap,
) -> Result<bool, String> {
    assert!(!crs.staged());
    let ids = SeqIds::new();
    let Ok(stored) = evaluate_compiled(crs, old, &ids, &BTreeMap::new()) else {
        return Ok(false);
    };
    let slow_ids = ids.fork();
    let slow = evaluate_compiled(crs, live, &slow_ids, &BTreeMap::new()).map(|new_out| {
        let mut deltas = DeltaMap::new();
        for (head, new_rel) in &new_out {
            let delta = Delta::from(new_rel.diff(&stored[head]));
            if !delta.is_empty() {
                deltas.insert(head.clone(), delta);
            }
        }
        deltas
    });
    let mut stored_edb = MapEdb::new();
    for rel in stored.values() {
        stored_edb.add(rel.clone());
    }
    let fast = propagate_vs_stored(crs, live, merged, &ids, &stored_edb);
    match (slow, fast) {
        (Ok(slow), Ok(fast)) => {
            if slow != fast {
                return Err(format!("deltas differ:\n{slow:#?}\nvs\n{fast:#?}"));
            }
            let (slow_reg, fast_reg) = (slow_ids.dump(), ids.dump());
            if slow_reg != fast_reg {
                return Err(format!("registries differ:\n{slow_reg}\nvs\n{fast_reg}"));
            }
            let (slow_seq, fast_seq) = (
                slow_ids.next.load(Ordering::Relaxed),
                ids.next.load(Ordering::Relaxed),
            );
            if slow_seq != fast_seq {
                return Err(format!("id sequences differ: {slow_seq} vs {fast_seq}"));
            }
            Ok(true)
        }
        (Err(_), Err(_)) => Ok(false),
        (slow, fast) => Err(format!(
            "one path failed: full evaluation {slow:?}, delta {fast:?}"
        )),
    }
}

proptest! {
    #[test]
    fn merged_statements_against_the_live_state_equal_a_full_evaluation_minting(
        spec in arb_mint_spec(),
        start in arb_changes(0..24),
        statements in prop::collection::vec(arb_changes(1..4), 2..7),
    ) {
        let crs = CompiledRuleSet::compile(&minting_set(&spec)).expect("safe rules");
        prop_assert!(crs.mints_ids());
        let mut state: [Rows; 4] = Default::default();
        exact_delta(&mut state, &start);
        let old = mint_edb(&state);
        let merged = merge_statements(
            statements.iter().map(|step| exact_delta(&mut state, step)),
        );
        if let Err(why) = check_merged_against_live(&crs, &old, &mint_edb(&state), &merged) {
            prop_assert!(false, "{}\non:\n{}", why, minting_set(&spec));
        }
    }

    #[test]
    fn merged_statements_against_the_live_state_equal_a_full_evaluation_mint_free(
        (t_rows, rminus_keys, splus_rows) in arb_state(),
        // (relation, key, value; `None` deletes): T, Rminus, Splus.
        statements in prop::collection::vec(
            prop::collection::vec((0usize..3, 0u64..30, prop::option::of(0i64..10)), 1..4),
            2..7,
        ),
    ) {
        const RELS: [(&str, &[&str]); 3] = [("T", &["a"]), ("Rminus", &[]), ("Splus", &["a"])];
        let crs = CompiledRuleSet::compile(&split_gamma_tgt()).expect("safe rules");
        prop_assert!(!crs.mints_ids());
        let mut state: [Rows; 3] = [
            t_rows,
            rminus_keys.into_iter().map(|k| (k, vec![])).collect(),
            splus_rows,
        ];
        let edb_of = |state: &[Rows; 3]| {
            let mut edb = MapEdb::new();
            for ((name, cols), rows) in RELS.iter().zip(state) {
                edb.add(keyed_rel(name, cols, rows));
            }
            edb.add(Relation::with_columns("Sminus", [] as [&str; 0]));
            edb.add(Relation::with_columns("Rstar", [] as [&str; 0]));
            edb
        };
        let old = edb_of(&state);
        let mut per_statement = Vec::new();
        for statement in &statements {
            let mut step = DeltaMap::new();
            for &(rel, key, value) in statement {
                let new = value.map(|a| if rel == 1 { vec![] } else { vec![Value::Int(a)] });
                let old_row = match &new {
                    Some(row) => state[rel].insert(key, row.clone()),
                    None => state[rel].remove(&key),
                };
                let mut change = Delta::new();
                change.deletes.extend(old_row.map(|row| (Key(key), row)));
                change.inserts.extend(new.map(|row| (Key(key), row)));
                step.entry(RELS[rel].0.to_string()).or_default().merge(&change);
            }
            per_statement.push(step);
        }
        let merged = merge_statements(per_statement);
        let checked = check_merged_against_live(&crs, &old, &edb_of(&state), &merged);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

//! Differential property tests: the compiled evaluator (`eval`) must agree
//! **exactly** with the naive reference interpreter (`naive`) on randomized
//! rule sets and EDBs — full evaluation, key-seeded evaluation, and delta
//! propagation. "Exactly" includes the memoized skolem identifiers, whose
//! assignment depends on evaluation order: both engines are required to
//! explore joins in the same order.
//!
//! The generated rule shapes cover everything the paper's γ mappings use:
//! full-scan joins on unbound keys (the index path), key-bound joins (the
//! point-lookup path), cross joins with nothing bound, duplicate variables,
//! negation with bound keys, bound payloads and nothing bound (pure
//! existence), condition predicates, function assignments both binding a
//! fresh variable and re-checking a bound one, skolem generators, and
//! skolem-generated head keys (the non-pushable fallback of
//! `head_row_for_key`), plus multi-rule staging where later rules read
//! earlier heads. Errors must be canonical too: the first error in
//! sequential exploration order wins at every width.

use inverda_datalog::ast::{Atom, Literal, Rule, RuleSet, Term};
use inverda_datalog::delta::{propagate, Delta, DeltaMap, PatchedEdb};
use inverda_datalog::eval::{evaluate_compiled, CompiledRuleSet, Evaluator, IdSource, MapEdb};
use inverda_datalog::{naive, SkolemRegistry};
use inverda_storage::{BinaryOp, Expr, Key, Relation, Value};
use parking_lot::Mutex;
use proptest::prelude::*;

use std::collections::BTreeMap;

/// Everything needed to deterministically build one rule.
#[derive(Debug, Clone)]
struct RuleSpec {
    /// First atom: 0 = T0(p,a,b), 1 = T1(p,a), 2 = T0(p,a,a) (dup var).
    base: u8,
    /// Extra atom: 0 = T1(q,a) (join on payload — index path),
    /// 1 = T0(p,_,c) (key join — point-lookup path), 2 = T1(p,c),
    /// 3 = T1(q,c) (nothing bound — cross join).
    join: Option<u8>,
    /// Negation: 0 = ¬T1(p,_) (keyed), 1 = ¬T0(_,a,_) (payload-probed),
    /// 2 = ¬T1(_,a), 3 = ¬T1(_,_) (nothing bound — pure existence).
    neg: Option<u8>,
    /// Condition on `a`: 0 = a < t, 1 = a >= t, 2 = a ≠ t.
    cond: Option<(u8, i64)>,
    /// Assignment: 0 = none, 1 = `d = a + 1` (binds `d`, usable in the head
    /// payload), 2 = `a = a + 0` (an equality check on the bound `a`).
    assign: u8,
    /// Skolem `s = gen(a)`; when `keyed` the head key becomes `s`
    /// (non-pushable — exercises the full-eval fallback).
    skolem: Option<SkolemSpec>,
    /// Head payload variable choice.
    payload: u8,
    /// For rules after the first: read the previous rule's head instead of
    /// T0/T1 (staged rule set).
    use_prev_head: bool,
}

#[derive(Debug, Clone)]
struct SkolemSpec {
    keyed: bool,
    two_args: bool,
}

fn arb_rule_spec() -> impl Strategy<Value = RuleSpec> {
    (
        (
            0u8..3,
            prop::option::of(0u8..4),
            prop::option::of(0u8..4),
            prop::option::of((0u8..3, 0i64..6)),
            0u8..3,
        ),
        (
            prop::option::of((prop::bool::ANY, prop::bool::ANY)),
            0u8..4,
            prop::bool::ANY,
        ),
    )
        .prop_map(
            |((base, join, neg, cond, assign), (skolem, payload, use_prev_head))| RuleSpec {
                base,
                join,
                neg,
                cond,
                assign,
                skolem: skolem.map(|(keyed, two_args)| SkolemSpec { keyed, two_args }),
                payload,
                use_prev_head,
            },
        )
}

/// Build the concrete rule for a spec. `prev_head` is the head of the
/// previous rule (for staging), `head` this rule's head relation.
fn build_rule(spec: &RuleSpec, head: &str, prev_head: Option<&str>) -> Rule {
    let mut body: Vec<Literal> = Vec::new();
    let mut avail: Vec<&str> = vec!["p"];
    match (spec.use_prev_head, prev_head) {
        (true, Some(prev)) => {
            // Previous heads have arity 2: H(p, x).
            body.push(Literal::Pos(Atom::vars(prev, &["p", "a"])));
            avail.push("a");
        }
        _ => match spec.base {
            0 => {
                body.push(Literal::Pos(Atom::vars("T0", &["p", "a", "b"])));
                avail.extend(["a", "b"]);
            }
            1 => {
                body.push(Literal::Pos(Atom::vars("T1", &["p", "a"])));
                avail.push("a");
            }
            _ => {
                body.push(Literal::Pos(Atom::vars("T0", &["p", "a", "a"])));
                avail.push("a");
            }
        },
    }
    if avail.contains(&"a") {
        if let Some(j) = &spec.join {
            match j % 4 {
                0 => {
                    body.push(Literal::Pos(Atom::vars("T1", &["q", "a"])));
                    avail.push("q");
                }
                1 => {
                    body.push(Literal::Pos(Atom::new(
                        "T0",
                        vec![Term::var("p"), Term::Anon, Term::var("c")],
                    )));
                    avail.push("c");
                }
                2 => {
                    body.push(Literal::Pos(Atom::vars("T1", &["p", "c"])));
                    avail.push("c");
                }
                _ => {
                    body.push(Literal::Pos(Atom::vars("T1", &["q", "c"])));
                    avail.extend(["q", "c"]);
                }
            }
        }
        if let Some(n) = &spec.neg {
            match n % 4 {
                0 => body.push(Literal::Neg(Atom::new(
                    "T1",
                    vec![Term::var("p"), Term::Anon],
                ))),
                1 => body.push(Literal::Neg(Atom::new(
                    "T0",
                    vec![Term::Anon, Term::var("a"), Term::Anon],
                ))),
                2 => body.push(Literal::Neg(Atom::new(
                    "T1",
                    vec![Term::Anon, Term::var("a")],
                ))),
                _ => body.push(Literal::Neg(Atom::new("T1", vec![Term::Anon, Term::Anon]))),
            }
        }
        if let Some((op, t)) = &spec.cond {
            let col = Expr::col("a");
            let lit = Expr::lit(*t);
            body.push(Literal::Cond(match op % 3 {
                0 => col.lt(lit),
                1 => col.ge(lit),
                _ => col.ne(lit),
            }));
        }
        match spec.assign {
            1 => {
                body.push(Literal::Assign {
                    var: "d".into(),
                    expr: Expr::Binary(
                        Box::new(Expr::col("a")),
                        BinaryOp::Add,
                        Box::new(Expr::lit(1)),
                    ),
                });
                avail.push("d");
            }
            2 => body.push(Literal::Assign {
                var: "a".into(),
                expr: Expr::Binary(
                    Box::new(Expr::col("a")),
                    BinaryOp::Add,
                    Box::new(Expr::lit(0)),
                ),
            }),
            _ => {}
        }
        if let Some(sk) = &spec.skolem {
            let mut args = vec![Term::var("a")];
            if sk.two_args {
                args.push(Term::var("p"));
            }
            body.push(Literal::Skolem {
                var: "s".into(),
                generator: "gen".into(),
                args,
            });
            avail.push("s");
        }
    }
    let key_var = match &spec.skolem {
        Some(sk) if sk.keyed && avail.contains(&"s") => "s",
        _ => "p",
    };
    let payload_var = avail[spec.payload as usize % avail.len()];
    Rule::new(Atom::vars(head, &[key_var, payload_var]), body)
}

fn build_rule_set(specs: &[RuleSpec]) -> RuleSet {
    let mut rules = Vec::new();
    let mut prev: Option<String> = None;
    for (i, spec) in specs.iter().enumerate() {
        // Two head names so multi-rule sets can both union and stage.
        let head = if i % 2 == 0 { "H0" } else { "H1" };
        rules.push(build_rule(spec, head, prev.as_deref()));
        prev = Some(head.to_string());
    }
    RuleSet::new(rules)
}

type T0Rows = BTreeMap<u64, (i64, i64)>;
type T1Rows = BTreeMap<u64, i64>;

fn arb_edb() -> impl Strategy<Value = (T0Rows, T1Rows)> {
    (
        prop::collection::btree_map(0u64..12, (0i64..6, 0i64..6), 0..10),
        prop::collection::btree_map(0u64..12, 0i64..6, 0..8),
    )
}

fn build_edb(t0: &T0Rows, t1: &T1Rows) -> MapEdb {
    let mut rel0 = Relation::with_columns("T0", ["a", "b"]);
    for (k, (a, b)) in t0 {
        rel0.insert(Key(*k), vec![Value::Int(*a), Value::Int(*b)])
            .unwrap();
    }
    let mut rel1 = Relation::with_columns("T1", ["a"]);
    for (k, a) in t1 {
        rel1.insert(Key(*k), vec![Value::Int(*a)]).unwrap();
    }
    let mut edb = MapEdb::new();
    edb.add(rel0).add(rel1);
    edb
}

fn registry() -> Mutex<SkolemRegistry> {
    Mutex::new(SkolemRegistry::new())
}

/// One mint: generator, arguments, id.
type Mint = (String, Vec<Value>, u64);

/// A registry that also records every mint, in minting order.
#[derive(Default)]
struct Recording(Mutex<(SkolemRegistry, Vec<Mint>)>);

impl Recording {
    /// The registry dump and the minting sequence.
    fn finish(self) -> (String, Vec<Mint>) {
        let (registry, minted) = self.0.into_inner();
        (registry.dump(), minted)
    }
}

impl IdSource for Recording {
    fn generate(&self, generator: &str, args: &[Value]) -> u64 {
        let mut guard = self.0.lock();
        let (registry, minted) = &mut *guard;
        if let Some(id) = registry.peek(generator, args) {
            return id;
        }
        let id = registry.get_or_create(generator, args);
        minted.push((generator.to_string(), args.to_vec(), id));
        id
    }

    fn peek(&self, generator: &str, args: &[Value]) -> Option<u64> {
        self.0.lock().0.peek(generator, args)
    }
}

proptest! {
    /// Full bottom-up evaluation: identical derived relations (and identical
    /// skolem id assignment), or both engines reject the rule set.
    #[test]
    fn full_evaluation_matches_naive(
        specs in prop::collection::vec(arb_rule_spec(), 1..4),
        (t0, t1) in arb_edb(),
        tsel in 0usize..4,
    ) {
        // Parallel ≡ sequential ≡ naive: the compiled engine must produce
        // byte-identical output (including skolem id order) at any width —
        // staged and id-minting rule sets included, now that minting goes
        // through the reserve-then-commit cycle.
        inverda_datalog::parallel::set_threads(Some([1usize, 2, 4, 8][tsel]));
        let rules = build_rule_set(&specs);
        let edb = build_edb(&t0, &t1);
        let naive_ids = registry();
        let naive_out = naive::evaluate(&rules, &edb, &naive_ids, &BTreeMap::new());
        let compiled_ids = registry();
        let compiled_out = CompiledRuleSet::compile(&rules).and_then(|crs| {
            evaluate_compiled(&crs, &edb, &compiled_ids, &BTreeMap::new())
        });
        match (naive_out, compiled_out) {
            (Ok(n), Ok(c)) => prop_assert_eq!(n, c, "diverged on:\n{}", rules),
            (Err(_), Err(_)) => {}
            (n, c) => prop_assert!(
                false,
                "one engine failed on:\n{}\nnaive: {:?}\ncompiled: {:?}",
                rules, n.err(), c.err()
            ),
        }
    }

    /// Key-seeded evaluation (`head_row_for_key`): identical per-key rows
    /// across pushable and non-pushable (skolem-keyed) head keys, with the
    /// memo warm in both engines.
    #[test]
    fn key_seeded_evaluation_matches_naive(
        specs in prop::collection::vec(arb_rule_spec(), 1..3),
        (t0, t1) in arb_edb(),
    ) {
        let rules = build_rule_set(&specs);
        let edb = build_edb(&t0, &t1);
        let Ok(crs) = CompiledRuleSet::compile(&rules) else {
            // Unsafe rule set: covered by `full_evaluation_matches_naive`.
            return Ok(());
        };
        let naive_ids = registry();
        let compiled_ids = registry();
        let mut naive_ev = naive::Evaluator::new(&edb, &naive_ids);
        let mut compiled_ev = Evaluator::new(&edb, &compiled_ids);
        for head in ["H0", "H1"] {
            for k in 0..18u64 {
                let n = naive_ev.head_row_for_key(&rules, head, Key(k));
                let c = compiled_ev.head_row_for_key(&crs, head, Key(k));
                match (n, c) {
                    (Ok(n), Ok(c)) => prop_assert_eq!(
                        n, c, "diverged at {}#{} on:\n{}", head, k, rules
                    ),
                    (Err(_), Err(_)) => return Ok(()),
                    (n, c) => prop_assert!(
                        false,
                        "one engine failed at {}#{} on:\n{}\nnaive: {:?}\ncompiled: {:?}",
                        head, k, rules, n.err(), c.err()
                    ),
                }
            }
        }
    }

    /// Delta propagation through the compiled probe path agrees with an
    /// independent oracle: evaluate both states with the *naive* engine and
    /// diff the heads. (Skolem-free rule sets: the oracle evaluates twice,
    /// which would legitimately mint ids in a different order.)
    #[test]
    fn propagation_matches_naive_two_state_diff(
        specs in prop::collection::vec(arb_rule_spec(), 1..3),
        (t0, t1) in arb_edb(),
        inserts in prop::collection::btree_map(12u64..18, 0i64..6, 0..3),
        deletes in prop::collection::vec(0u64..12, 0..3),
        updates in prop::collection::btree_map(0u64..12, 0i64..6, 0..3),
        tsel in 0usize..4,
    ) {
        inverda_datalog::parallel::set_threads(Some([1usize, 2, 4, 8][tsel]));
        let specs: Vec<RuleSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.skolem = None;
                s
            })
            .collect();
        let rules = build_rule_set(&specs);
        let edb = build_edb(&t0, &t1);
        if CompiledRuleSet::compile(&rules).is_err() {
            return Ok(());
        }

        // Input delta on T1.
        let mut delta = Delta::new();
        for (k, a) in &inserts {
            delta.inserts.insert(Key(*k), vec![Value::Int(*a)]);
        }
        for k in &deletes {
            if let Some(a) = t1.get(k) {
                delta.deletes.entry(Key(*k)).or_insert_with(|| vec![Value::Int(*a)]);
            }
        }
        for (k, a) in &updates {
            if let Some(old) = t1.get(k) {
                if let std::collections::btree_map::Entry::Vacant(e) =
                    delta.deletes.entry(Key(*k))
                {
                    e.insert(vec![Value::Int(*old)]);
                    delta.inserts.insert(Key(*k), vec![Value::Int(*a)]);
                }
            }
        }
        let mut input = DeltaMap::new();
        input.insert("T1".to_string(), delta);

        let ids = registry();
        let fast = propagate(&rules, &edb, &input, &ids, &BTreeMap::new());

        // Oracle: naive two-state evaluation and diff.
        let oracle_ids = registry();
        let old_out = naive::evaluate(&rules, &edb, &oracle_ids, &BTreeMap::new());
        let patched = PatchedEdb::new(&edb, &input);
        let oracle_ids2 = registry();
        let new_out = naive::evaluate(&rules, &patched, &oracle_ids2, &BTreeMap::new());
        let (Ok(fast), Ok(old_out), Ok(new_out)) = (fast, old_out, new_out) else {
            return Ok(());
        };
        let mut slow = DeltaMap::new();
        for (head, new_rel) in &new_out {
            let d = new_rel.diff(&old_out[head]);
            let mut delta = Delta::new();
            for (k, row) in d.deletes {
                delta.deletes.insert(k, row);
            }
            for (k, row) in d.inserts {
                delta.inserts.insert(k, row);
            }
            for (k, old_row, new_row) in d.updates {
                delta.deletes.insert(k, old_row);
                delta.inserts.insert(k, new_row);
            }
            if !delta.is_empty() {
                slow.insert(head.clone(), delta);
            }
        }
        let fast: DeltaMap = fast.into_iter().filter(|(_, d)| !d.is_empty()).collect();
        prop_assert_eq!(fast, slow, "diverged on:\n{}", rules);
    }

    /// A rule set's **slice** (`RuleSet::slice`) for a random non-empty
    /// head subset, wherever the rules it leaves out are skolem-free: if
    /// the whole set evaluates, so does the slice, to the whole result on
    /// the kept heads — rows in order, registry dump and minting sequence —
    /// at widths 1, 2 and 4; a slice fails only where the whole set fails.
    #[test]
    fn slice_evaluation_matches_whole_set(
        specs in prop::collection::vec(arb_rule_spec(), 1..5),
        (t0, t1) in arb_edb(),
        pick in 1usize..4,
    ) {
        let rules = build_rule_set(&specs);
        let picked: Vec<&str> = ["H0", "H1"]
            .into_iter()
            .enumerate()
            .filter(|(bit, _)| pick & (1 << bit) != 0)
            .map(|(_, head)| head)
            .collect();
        let slice = rules.slice(picked.iter().copied());
        let sliced = slice.head_relations();
        let minting_left_out = rules
            .rules
            .iter()
            .filter(|r| !sliced.contains(&r.head.relation))
            .flat_map(|r| &r.body)
            .any(|lit| matches!(lit, Literal::Skolem { .. }));
        if minting_left_out {
            return Ok(());
        }
        let edb = build_edb(&t0, &t1);
        for width in [1usize, 2, 4] {
            inverda_datalog::parallel::set_threads(Some(width));
            let run = |rules: &RuleSet| {
                let ids = Recording::default();
                let out = CompiledRuleSet::compile(rules)
                    .and_then(|crs| evaluate_compiled(&crs, &edb, &ids, &BTreeMap::new()));
                (out, ids.finish())
            };
            let (whole, whole_ids) = run(&rules);
            let (part, part_ids) = run(&slice);
            match (whole, part) {
                (Ok(whole), Ok(part)) => {
                    let kept = |out: &BTreeMap<String, Relation>| -> Vec<(String, Vec<_>)> {
                        out.iter()
                            .filter(|(head, _)| picked.contains(&head.as_str()))
                            .map(|(head, rel)| {
                                let rows = rel.iter().map(|(k, row)| (k, row.clone()));
                                (head.clone(), rows.collect())
                            })
                            .collect()
                    };
                    prop_assert_eq!(kept(&whole), kept(&part), "width {} on:\n{}", width, rules);
                    prop_assert_eq!(&whole_ids, &part_ids, "width {} on:\n{}", width, rules);
                }
                (Err(_), _) => {}
                (Ok(_), Err(e)) => prop_assert!(
                    false, "only the slice failed at width {}: {:?} on:\n{}", width, e, rules
                ),
            }
        }
        inverda_datalog::parallel::set_threads(None);
    }
}

/// Large-input differential check that actually crosses the parallel
/// gates (the proptest cases above are small, so chunked scans may fall
/// below their work thresholds): a multi-rule
/// unbound join over a few thousand rows and a several-hundred-tuple
/// delta, evaluated at widths 1/2/4/8, must be byte-identical — results,
/// insertion order, and the naive oracle all agree.
#[test]
fn parallel_widths_agree_on_large_inputs() {
    use inverda_datalog::ast::Atom;
    use inverda_storage::Expr;

    let mut a = Relation::with_columns("A", ["n"]);
    let mut b = Relation::with_columns("B", ["n"]);
    for i in 0..3_000u64 {
        a.insert(Key(i), vec![Value::Int((i % 97) as i64)]).unwrap();
        b.insert(Key(10_000 + i), vec![Value::Int((i % 89) as i64)])
            .unwrap();
    }
    let mut edb = MapEdb::new();
    edb.add(a).add(b);
    // Two independent rules: an unbound join (chunked scan + index probe)
    // and a filter (chunked scan).
    let rules = RuleSet::new(vec![
        Rule::new(
            Atom::vars("H0", &["q", "n"]),
            vec![
                Literal::Pos(Atom::vars("B", &["q", "n"])),
                Literal::Pos(Atom::new("A", vec![Term::Anon, Term::var("n")])),
            ],
        ),
        Rule::new(
            Atom::vars("H1", &["p", "n"]),
            vec![
                Literal::Pos(Atom::vars("A", &["p", "n"])),
                Literal::Cond(Expr::col("n").ge(Expr::lit(50))),
            ],
        ),
    ]);
    let crs = CompiledRuleSet::compile(&rules).unwrap();

    // A several-hundred-tuple delta.
    let mut delta = Delta::new();
    for i in 0..400u64 {
        delta
            .inserts
            .insert(Key(20_000 + i), vec![Value::Int((i % 97) as i64)]);
    }
    for i in 0..200u64 {
        delta
            .deletes
            .insert(Key(10_000 + i), vec![Value::Int((i % 89) as i64)]);
    }
    let mut input = DeltaMap::new();
    input.insert("B".to_string(), delta);

    let mut eval_outputs = Vec::new();
    let mut prop_outputs = Vec::new();
    for width in [1usize, 2, 4, 8] {
        inverda_datalog::parallel::set_threads(Some(width));
        let ids = registry();
        eval_outputs.push(evaluate_compiled(&crs, &edb, &ids, &BTreeMap::new()).unwrap());
        let ids2 = registry();
        prop_outputs.push(propagate(&rules, &edb, &input, &ids2, &BTreeMap::new()).unwrap());
    }
    inverda_datalog::parallel::set_threads(None);
    let naive_ids = registry();
    let oracle = naive::evaluate(&rules, &edb, &naive_ids, &BTreeMap::new()).unwrap();
    for (out, prop_out) in eval_outputs.iter().zip(&prop_outputs) {
        assert_eq!(out, &eval_outputs[0], "evaluation diverged across widths");
        assert_eq!(out, &oracle, "parallel evaluation diverged from naive");
        assert_eq!(
            prop_out, &prop_outputs[0],
            "propagation diverged across widths"
        );
    }
}

/// The staged/minting analogue of [`parallel_widths_agree_on_large_inputs`]:
/// a rule set that mints skolem ids (including as head keys), stages a later
/// rule over the minted head, and is large enough to cross the chunked
/// fan-out thresholds. At widths 1/2/4/8 the derived relations *and* the
/// final skolem registry (assignment order included — the dump is
/// order-sensitive through the id values) must be byte-identical to each
/// other and to the naive oracle.
#[test]
fn staged_minting_widths_agree_on_large_inputs() {
    use inverda_datalog::ast::Atom;
    use inverda_storage::Expr;

    let mut a = Relation::with_columns("A", ["n"]);
    for i in 0..3_000u64 {
        a.insert(Key(i), vec![Value::Int((i % 37) as i64)]).unwrap();
    }
    let mut edb = MapEdb::new();
    edb.add(a);
    let rules = RuleSet::new(vec![
        // Minted head key (non-pushable; payload dedup collapses 3000 rows
        // onto 37 authors).
        Rule::new(
            Atom::vars("Author", &["s", "n"]),
            vec![
                Literal::Pos(Atom::vars("A", &["p", "n"])),
                Literal::Skolem {
                    var: "s".into(),
                    generator: "gen_author".into(),
                    args: vec![Term::var("n")],
                },
            ],
        ),
        // Minted payload cell, keyed by the source key.
        Rule::new(
            Atom::vars("H", &["p", "n", "s"]),
            vec![
                Literal::Pos(Atom::vars("A", &["p", "n"])),
                Literal::Skolem {
                    var: "s".into(),
                    generator: "gen_author".into(),
                    args: vec![Term::var("n")],
                },
            ],
        ),
        // Staged: scans the minted head (its chunked depth-0 scan runs over
        // a placeholder-keyed derived relation).
        Rule::new(
            Atom::vars("J", &["s", "n"]),
            vec![
                Literal::Pos(Atom::vars("Author", &["s", "n"])),
                Literal::Cond(Expr::col("n").ge(Expr::lit(5))),
            ],
        ),
    ]);
    let crs = CompiledRuleSet::compile(&rules).unwrap();
    assert!(crs.staged() && crs.mints_ids());

    let mut outputs = Vec::new();
    for width in [1usize, 2, 4, 8] {
        inverda_datalog::parallel::set_threads(Some(width));
        let ids = registry();
        let out = evaluate_compiled(&crs, &edb, &ids, &BTreeMap::new()).unwrap();
        outputs.push((out, ids.lock().dump()));
    }
    inverda_datalog::parallel::set_threads(None);
    let naive_ids = registry();
    let oracle = naive::evaluate(&rules, &edb, &naive_ids, &BTreeMap::new()).unwrap();
    let oracle_dump = naive_ids.lock().dump();
    assert_eq!(oracle["Author"].len(), 37);
    assert_eq!(oracle["H"].len(), 3_000);
    for (out, dump) in &outputs {
        assert_eq!(
            out, &outputs[0].0,
            "minting evaluation diverged across widths"
        );
        assert_eq!(out, &oracle, "minting evaluation diverged from naive");
        assert_eq!(dump, &oracle_dump, "skolem assignment diverged");
    }
}

/// Error precedence is canonical at every width: a rule whose assignment
/// fails on *some* rows of a large, chunked scan (every 7th row holds text,
/// first at `Key(0)`) must report the byte-identical error (`Debug` form)
/// at widths 1/2/4/8 and agree with the naive oracle — the parallel merge
/// drains each rule's fragment errors in chunk order, so the first error in
/// sequential exploration order wins regardless of chunking.
#[test]
fn error_precedence_is_canonical_across_widths() {
    let mut a = Relation::with_columns("A", ["n"]);
    for i in 0..2_000u64 {
        let v = if i % 7 == 0 {
            Value::text(format!("x{i}"))
        } else {
            Value::Int(i as i64)
        };
        a.insert(Key(i), vec![v]).unwrap();
    }
    let mut edb = MapEdb::new();
    edb.add(a);
    let rules = RuleSet::new(vec![Rule::new(
        Atom::vars("H", &["p", "d"]),
        vec![
            Literal::Pos(Atom::vars("A", &["p", "n"])),
            Literal::Assign {
                var: "d".into(),
                expr: Expr::Binary(
                    Box::new(Expr::col("n")),
                    BinaryOp::Add,
                    Box::new(Expr::lit(1)),
                ),
            },
        ],
    )]);
    let crs = CompiledRuleSet::compile(&rules).unwrap();
    let mut errors = Vec::new();
    for width in [1usize, 2, 4, 8] {
        inverda_datalog::parallel::set_threads(Some(width));
        let ids = registry();
        let err = evaluate_compiled(&crs, &edb, &ids, &BTreeMap::new()).unwrap_err();
        errors.push((width, format!("{err:?}")));
    }
    inverda_datalog::parallel::set_threads(None);
    let naive_ids = registry();
    let oracle = naive::evaluate(&rules, &edb, &naive_ids, &BTreeMap::new()).unwrap_err();
    let oracle = format!("{oracle:?}");
    for (width, err) in &errors {
        assert_eq!(err, &errors[0].1, "error diverged at width {width}");
        assert_eq!(err, &oracle, "error diverged from naive at width {width}");
    }
}

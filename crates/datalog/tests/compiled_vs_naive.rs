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
//! earlier heads. Errors must be canonical too. The naive interpreter joins
//! a rule fully before it builds any head tuple, so a rule's first join
//! error wins; failing that, its first head-tuple error (`BadKey`) or key
//! conflict in exploration order. Full evaluation draws its inputs from a
//! wider strategy that produces all three.
//!
//! Heads of one payload variable rarely copy more than one column, so one
//! property widens every rule's head to two or three payload variables
//! drawn from its atoms: a variable read only to be copied into the head
//! is read from the matched row, not bound, and each such column must come
//! from its own atom's row on every path.
//!
//! Full evaluation of a column-level set (a projection set, or a
//! lookup-or-default pair: ADD COLUMN's γ_tgt, DROP COLUMN's γ_src) is a
//! row map that hands anything but success to the join; one property per
//! shape runs it on every path, and a companion counts the maps and the
//! fallbacks their generated inputs reach.

use inverda_datalog::ast::{Atom, Literal, Rule, RuleSet, Term};
use inverda_datalog::delta::{propagate, propagate_vs_stored, Delta, DeltaMap, PatchedEdb};
use inverda_datalog::eval::{
    evaluate_compiled, evaluate_row_map, CompiledRuleSet, EdbView, Evaluator, IdSource, MapEdb,
    RowMap,
};
use inverda_datalog::{naive, SkolemRegistry};
use inverda_storage::{BinaryOp, Expr, Key, Relation, Value};
use proptest::prelude::*;
use std::cell::RefCell;

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
    /// payload), 2 = `a = a + 0` (an equality check on the bound `a`),
    /// 3 = `d = 6 / a` (fails where `a` is 0).
    assign: u8,
    /// Skolem `s = gen(a)`; when `keyed` the head key becomes `s`
    /// (non-pushable — exercises the full-eval fallback).
    skolem: Option<SkolemSpec>,
    /// Head payload variable choice.
    payload: u8,
    /// Head key variable choice among the bound variables, payload ones
    /// included (a negative value is no key; equal values can conflict);
    /// `None` keys by `p`, or by `s` when the skolem is keyed.
    key: Option<u8>,
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
                key: None,
                use_prev_head,
            },
        )
}

/// [`arb_rule_spec`] with the assignment that divides by `a` among the
/// choices: rules whose cold evaluation can fail, and whose probes can reach
/// the division before an atom the cold order matches first.
fn arb_dividing_rule_spec() -> impl Strategy<Value = RuleSpec> {
    (arb_rule_spec(), 0u8..4).prop_map(|(spec, assign)| RuleSpec { assign, ..spec })
}

/// [`arb_dividing_rule_spec`], one time in eight stripped to the bare copy
/// rule `H(p, a) ← T1(p, a)`: RENAME's mapping, whose delta propagation
/// passes through when it is the whole set.
fn arb_propagated_rule_spec() -> impl Strategy<Value = RuleSpec> {
    (arb_dividing_rule_spec(), 0u8..8).prop_map(|(spec, pick)| match pick {
        0 => RuleSpec {
            base: 1,
            join: None,
            neg: None,
            cond: None,
            assign: 0,
            payload: 1,
            ..spec
        },
        _ => spec,
    })
}

/// [`arb_rule_spec`] widened to rules that can fail: a head key drawn from
/// the bound variables, and the assignment that divides by `a`.
fn arb_failing_rule_spec() -> impl Strategy<Value = RuleSpec> {
    (arb_rule_spec(), prop::option::of(0u8..6), 0u8..4).prop_map(|(spec, key, assign)| RuleSpec {
        key,
        assign,
        ..spec
    })
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
            3 => {
                body.push(Literal::Assign {
                    var: "d".into(),
                    expr: Expr::Binary(
                        Box::new(Expr::lit(6)),
                        BinaryOp::Div,
                        Box::new(Expr::col("a")),
                    ),
                });
                avail.push("d");
            }
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
    let key_var = match (&spec.key, &spec.skolem) {
        (Some(key), _) => avail[*key as usize % avail.len()],
        (None, Some(sk)) if sk.keyed && avail.contains(&"s") => "s",
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

/// A rule spec plus the extra head payload variables of its wide twin, as
/// picks among the payload variables of the rule's positive atoms.
#[derive(Debug, Clone)]
struct WideSpec {
    rule: RuleSpec,
    extra: Vec<u8>,
}

fn arb_wide_spec() -> impl Strategy<Value = WideSpec> {
    (
        arb_dividing_rule_spec(),
        prop::collection::vec(0u8..6, 1..3),
    )
        .prop_map(|(rule, extra)| WideSpec { rule, extra })
}

/// [`build_rule_set`] with every rule followed by its wide twin: the same
/// body under head `W0` / `W1`, whose payload is the rule's head payload
/// and then one or two more payload variables of the rule's positive atoms
/// (a pick can repeat a head variable). The narrow rules keep the staging
/// of the original set, which reads arity-2 heads.
fn build_wide_rule_set(specs: &[WideSpec]) -> RuleSet {
    let narrow: Vec<RuleSpec> = specs.iter().map(|s| s.rule.clone()).collect();
    let mut rules = Vec::new();
    for (i, (rule, spec)) in build_rule_set(&narrow)
        .rules
        .into_iter()
        .zip(specs)
        .enumerate()
    {
        let mut picks: Vec<String> = Vec::new();
        for lit in &rule.body {
            if let Literal::Pos(atom) = lit {
                for v in atom.terms[1..].iter().filter_map(Term::as_var) {
                    if !picks.iter().any(|p| p == v) {
                        picks.push(v.to_string());
                    }
                }
            }
        }
        let mut terms = rule.head.terms.clone();
        for e in &spec.extra {
            terms.push(Term::var(picks[*e as usize % picks.len()].as_str()));
        }
        let wide = Rule::new(Atom::new(format!("W{}", i % 2), terms), rule.body.clone());
        rules.extend([rule, wide]);
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

/// [`arb_edb`] with negative values, which are no keys.
fn arb_failing_edb() -> impl Strategy<Value = (T0Rows, T1Rows)> {
    (
        prop::collection::btree_map(0u64..12, (-3i64..6, -3i64..6), 0..10),
        prop::collection::btree_map(0u64..12, -3i64..6, 0..8),
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

fn registry() -> RefCell<SkolemRegistry> {
    RefCell::new(SkolemRegistry::new())
}

/// One mint: generator, arguments, id.
type Mint = (String, Vec<Value>, u64);

/// A registry that also records every mint, in minting order.
#[derive(Default)]
struct Recording(RefCell<(SkolemRegistry, Vec<Mint>)>);

impl Recording {
    /// The registry dump and the minting sequence.
    fn finish(self) -> (String, Vec<Mint>) {
        let (registry, minted) = self.0.into_inner();
        (registry.dump(), minted)
    }
}

impl IdSource for Recording {
    fn generate(&self, generator: &str, args: &[Value]) -> u64 {
        let mut guard = self.0.borrow_mut();
        let (registry, minted) = &mut *guard;
        if let Some(id) = registry.peek(generator, args) {
            return id;
        }
        let id = registry.get_or_create(generator, args);
        minted.push((generator.to_string(), args.to_vec(), id));
        id
    }

    fn peek(&self, generator: &str, args: &[Value]) -> Option<u64> {
        self.0.borrow().0.peek(generator, args)
    }
}

proptest! {
    /// Full bottom-up evaluation: identical derived relations (and identical
    /// skolem id assignment), or the identical error. A set the compiled
    /// engine rejects as unsafe at compile time only has to fail in the
    /// naive one, which may meet an earlier rule's error first.
    #[test]
    fn full_evaluation_matches_naive(
        specs in prop::collection::vec(arb_failing_rule_spec(), 1..4),
        (t0, t1) in arb_failing_edb(),
    ) {
        // The compiled engine must produce byte-identical output (including
        // skolem id order) — staged and id-minting rule sets included.
        let rules = build_rule_set(&specs);
        let edb = build_edb(&t0, &t1);
        let naive_ids = registry();
        let naive_out = naive::evaluate(&rules, &edb, &naive_ids, &BTreeMap::new());
        let compiled_ids = registry();
        let compiled_out = match CompiledRuleSet::compile(&rules) {
            Ok(crs) => evaluate_compiled(&crs, &edb, &compiled_ids, &BTreeMap::new()),
            Err(_) => {
                prop_assert!(naive_out.is_err(), "only the compiled engine failed on:\n{}", rules);
                return Ok(());
            }
        };
        match (naive_out, compiled_out) {
            (Ok(n), Ok(c)) => prop_assert_eq!(n, c, "diverged on:\n{}", rules),
            (Err(n), Err(c)) => prop_assert_eq!(
                format!("{n:?}"), format!("{c:?}"), "errors diverged on:\n{}", rules
            ),
            (n, c) => prop_assert!(
                false,
                "one engine failed on:\n{}\nnaive: {:?}\ncompiled: {:?}",
                rules, n.err(), c.err()
            ),
        }
        prop_assert_eq!(naive_ids.borrow().dump(), compiled_ids.borrow().dump());
    }

    /// Key-seeded evaluation (`head_row_for_key`): identical per-key rows
    /// across pushable and non-pushable (skolem-keyed) head keys, one
    /// evaluator per engine answering every key (naive's memo warm).
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
        let compiled_ev = Evaluator::new(&edb, &compiled_ids);
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
    /// diff the heads. Wherever both evaluations succeed, so must
    /// propagation, rules that divide by zero on some branch included.
    /// (Skolem-free rule sets: the oracle evaluates twice, which would
    /// legitimately mint ids in a different order.)
    #[test]
    fn propagation_matches_naive_two_state_diff(
        specs in prop::collection::vec(arb_propagated_rule_spec(), 1..3),
        (t0, t1) in arb_edb(),
        inserts in prop::collection::btree_map(12u64..18, 0i64..6, 0..3),
        deletes in prop::collection::vec(0u64..12, 0..3),
        updates in prop::collection::btree_map(0u64..12, 0i64..6, 0..3),
    ) {
        let rules = build_rule_set(&mint_free(specs));
        let edb = build_edb(&t0, &t1);
        if CompiledRuleSet::compile(&rules).is_err() {
            return Ok(());
        }
        let input = t1_input(&t1, &inserts, &deletes, &updates);

        let ids = registry();
        let fast = propagate(&rules, &edb, &input, &ids, &BTreeMap::new());

        let Some(slow) = naive_two_state_diff(&rules, &edb, &input) else {
            return Ok(());
        };
        let fast = fast.map(|out| -> DeltaMap {
            out.into_iter().filter(|(_, d)| !d.is_empty()).collect()
        });
        prop_assert_eq!(fast, Ok(slow), "diverged on:\n{}", rules);
    }

    /// A rule set's **slice** (`RuleSet::slice`) for a random non-empty
    /// head subset, wherever the rules it leaves out are skolem-free: if
    /// the whole set evaluates, so does the slice, to the whole result on
    /// the kept heads — rows in order, registry dump and minting sequence;
    /// a slice fails only where the whole set fails.
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
                            let rows = rel.iter().map(|(k, row)| (k, row.to_vec()));
                            (head.clone(), rows.collect())
                        })
                        .collect()
                };
                prop_assert_eq!(kept(&whole), kept(&part), "on:\n{}", rules);
                prop_assert_eq!(&whole_ids, &part_ids, "on:\n{}", rules);
            }
            (Err(_), _) => {}
            (Ok(_), Err(e)) => prop_assert!(
                false, "only the slice failed: {:?} on:\n{}", e, rules
            ),
        }
    }
}

proptest! {
    /// Wide heads ([`build_wide_rule_set`]) through every evaluation path
    /// against naive. Full evaluation (rows in order, registry, or the same
    /// error) and, where it succeeds, key-seeded evaluation of every head
    /// and key run on the set as generated. Propagation of a `T0` / `T1`
    /// delta and, unstaged, delta-vs-stored maintenance from naive's old
    /// heads (its scan-key replay and its head-seeded survive checks) run
    /// on the set with its skolem literals dropped, against the naive
    /// two-state diff. Rules may divide by `a`: where a path meets the
    /// division on a branch no firing completes, it must still succeed.
    #[test]
    fn wide_heads_match_naive_on_every_path(
        specs in prop::collection::vec(arb_wide_spec(), 1..4),
        (t0, t1) in arb_edb(),
        t0_changes in prop::collection::btree_map(0u64..14, prop::option::of((0i64..6, 0i64..6)), 0..4),
        t1_changes in prop::collection::btree_map(0u64..14, prop::option::of(0i64..6), 0..4),
    ) {
        let rules = build_wide_rule_set(&specs);
        let edb = build_edb(&t0, &t1);
        let naive_ids = registry();
        let naive_out = naive::evaluate(&rules, &edb, &naive_ids, &BTreeMap::new());
        let Ok(crs) = CompiledRuleSet::compile(&rules) else {
            prop_assert!(naive_out.is_err(), "only the compiled engine failed on:\n{}", rules);
            return Ok(());
        };
        let compiled_ids = registry();
        let compiled_out = evaluate_compiled(&crs, &edb, &compiled_ids, &BTreeMap::new());
        prop_assert_eq!(
            naive_out.map(|out| rows_in_order(&out)),
            compiled_out.map(|out| rows_in_order(&out)),
            "diverged on:\n{}", rules
        );
        prop_assert_eq!(naive_ids.borrow().dump(), compiled_ids.borrow().dump());
        let naive_ids = registry();
        let compiled_ids = registry();
        let mut naive_ev = naive::Evaluator::new(&edb, &naive_ids);
        let compiled_ev = Evaluator::new(&edb, &compiled_ids);
        for head in ["H0", "H1", "W0", "W1"] {
            for k in 0..14u64 {
                let n = naive_ev.head_row_for_key(&rules, head, Key(k));
                let c = compiled_ev.head_row_for_key(&crs, head, Key(k));
                prop_assert_eq!(n, c, "diverged at {}#{} on:\n{}", head, k, rules);
            }
        }

        let mint_free: Vec<WideSpec> = specs
            .into_iter()
            .map(|mut s| {
                s.rule.skolem = None;
                s
            })
            .collect();
        let rules = build_wide_rule_set(&mint_free);
        let Ok(crs) = CompiledRuleSet::compile(&rules) else {
            return Ok(());
        };
        let mut input = DeltaMap::new();
        let (mut d0, mut d1) = (Delta::new(), Delta::new());
        for (k, change) in &t0_changes {
            let row = |(a, b): (i64, i64)| vec![Value::Int(a), Value::Int(b)];
            d0.deletes.extend(t0.get(k).map(|ab| (Key(*k), row(*ab))));
            d0.inserts.extend(change.map(|ab| (Key(*k), row(ab))));
        }
        for (k, change) in &t1_changes {
            d1.deletes.extend(t1.get(k).map(|a| (Key(*k), vec![Value::Int(*a)])));
            d1.inserts.extend(change.map(|a| (Key(*k), vec![Value::Int(a)])));
        }
        input.insert("T0".to_string(), d0);
        input.insert("T1".to_string(), d1);
        let (Ok(old), Some(slow)) = (
            naive::evaluate(&rules, &edb, &registry(), &BTreeMap::new()),
            naive_two_state_diff(&rules, &edb, &input),
        ) else {
            return Ok(());
        };
        let non_empty = |d: DeltaMap| -> DeltaMap {
            d.into_iter().filter(|(_, d)| !d.is_empty()).collect()
        };
        let fast = propagate(&rules, &edb, &input, &registry(), &BTreeMap::new());
        prop_assert_eq!(fast.map(non_empty), Ok(slow.clone()), "propagation diverged on:\n{}", rules);
        if crs.staged() {
            return Ok(());
        }
        let mut stored = MapEdb::new();
        for rel in old.into_values() {
            stored.add(rel);
        }
        let patched = PatchedEdb::new(&edb, &input);
        let fast = propagate_vs_stored(&crs, &patched, &input, &registry(), &stored);
        prop_assert_eq!(fast, Ok(slow), "delta-vs-stored diverged on:\n{}", rules);
    }
}

/// One head of a projection set over `P(p, x0, x1, x2)`: the payload
/// positions it copies, in head order (reordered and partial), and the
/// positions its atom names without copying them; the atom leaves the rest
/// anonymous.
#[derive(Debug, Clone)]
struct ProjectionSpec {
    copied: Vec<usize>,
    named: Vec<usize>,
}

fn arb_projection_spec() -> impl Strategy<Value = ProjectionSpec> {
    (
        prop::collection::vec(0usize..3, 1..4),
        prop::collection::vec(0usize..3, 0..2),
    )
        .prop_map(|(picks, named)| {
            let mut copied = Vec::new();
            for pick in picks {
                if !copied.contains(&pick) {
                    copied.push(pick);
                }
            }
            ProjectionSpec { copied, named }
        })
}

/// The projection set of `specs`, one rule `Hᵢ(p, …) ← P(p, …)` per head;
/// with `general`, every rule also carries the condition `1 = 1`, which
/// keeps its meaning and takes it off the pass-through.
fn build_projection_set(specs: &[ProjectionSpec], general: bool) -> RuleSet {
    let rules = specs.iter().enumerate().map(|(i, spec)| {
        let var = |c: usize| Term::var(format!("x{c}"));
        let mut atom = vec![Term::var("p")];
        atom.extend((0..3).map(|c| {
            if spec.copied.contains(&c) || spec.named.contains(&c) {
                var(c)
            } else {
                Term::Anon
            }
        }));
        let mut head = vec![Term::var("p")];
        head.extend(spec.copied.iter().map(|&c| var(c)));
        let mut body = vec![Literal::Pos(Atom::new("P", atom))];
        if general {
            body.push(Literal::Cond(Expr::lit(1).eq(Expr::lit(1))));
        }
        Rule::new(Atom::new(format!("H{i}"), head), body)
    });
    RuleSet::new(rules.collect())
}

type PRows = BTreeMap<u64, (i64, i64, i64)>;

fn build_projection_edb(rows: &PRows) -> MapEdb {
    let mut rel = Relation::with_columns("P", ["a", "b", "c"]);
    for (k, (a, b, c)) in rows {
        let row = vec![Value::Int(*a), Value::Int(*b), Value::Int(*c)];
        rel.insert(Key(*k), row).unwrap();
    }
    let mut edb = MapEdb::new();
    edb.add(rel);
    edb
}

proptest! {
    /// Projection sets (ADD COLUMN's γ_src and DROP COLUMN's γ_tgt are
    /// two-head ones, RENAME's copy rule a one-head one) against naive on
    /// every path: full evaluation (rows in order), key-seeded evaluation
    /// of every head and key, and propagation of a `P` delta, which passes
    /// through, against the naive two-state diff. A delta with rows of
    /// another arity falls back to the general path: it must agree with the
    /// same set carrying a vacuous condition, which never passes through.
    #[test]
    fn projection_sets_match_naive_on_every_path(
        specs in prop::collection::vec(arb_projection_spec(), 1..4),
        rows in prop::collection::btree_map(0u64..12, (0i64..4, 0i64..4, 0i64..4), 0..8),
        changes in prop::collection::btree_map(
            0u64..14,
            prop::option::of((0i64..4, 0i64..4, 0i64..4)),
            1..4,
        ),
        narrow in prop::option::of(0u64..14),
    ) {
        let rules = build_projection_set(&specs, false);
        let crs = CompiledRuleSet::compile(&rules).expect("safe");
        let edb = build_projection_edb(&rows);
        let naive_out = naive::evaluate(&rules, &edb, &registry(), &BTreeMap::new());
        let compiled_out = evaluate_compiled(&crs, &edb, &registry(), &BTreeMap::new());
        prop_assert_eq!(
            naive_out.map(|out| rows_in_order(&out)),
            compiled_out.map(|out| rows_in_order(&out)),
            "diverged on:\n{}", rules
        );
        let naive_ids = registry();
        let compiled_ids = registry();
        let mut naive_ev = naive::Evaluator::new(&edb, &naive_ids);
        let compiled_ev = Evaluator::new(&edb, &compiled_ids);
        for head in crs.head_names() {
            for k in 0..14u64 {
                let n = naive_ev.head_row_for_key(&rules, head, Key(k));
                let c = compiled_ev.head_row_for_key(&crs, head, Key(k));
                prop_assert_eq!(n, c, "diverged at {}#{} on:\n{}", head, k, rules);
            }
        }

        let row = |(a, b, c): (i64, i64, i64)| vec![Value::Int(a), Value::Int(b), Value::Int(c)];
        let mut delta = Delta::new();
        for (k, change) in &changes {
            delta.deletes.extend(rows.get(k).map(|abc| (Key(*k), row(*abc))));
            delta.inserts.extend(change.map(|abc| (Key(*k), row(abc))));
        }
        let mut input = DeltaMap::new();
        input.insert("P".to_string(), delta);
        let non_empty = |d: DeltaMap| -> DeltaMap {
            d.into_iter().filter(|(_, d)| !d.is_empty()).collect()
        };
        let fast = propagate(&rules, &edb, &input, &registry(), &BTreeMap::new());
        let slow = naive_two_state_diff(&rules, &edb, &input).expect("both states evaluate");
        prop_assert_eq!(fast.map(non_empty), Ok(slow), "propagation diverged on:\n{}", rules);

        if let Some(k) = narrow {
            let delta = input.get_mut("P").expect("present");
            delta.inserts.insert(Key(k), vec![Value::Int(0), Value::Int(0)]);
            let general = build_projection_set(&specs, true);
            let fast = propagate(&rules, &edb, &input, &registry(), &BTreeMap::new());
            let slow = propagate(&general, &edb, &input, &registry(), &BTreeMap::new());
            prop_assert_eq!(fast, slow, "a row of another arity diverged on:\n{}", rules);
        }
    }
}

/// One lookup-or-default pair over `S(p, x0, x1)` and `A(p, v)` (ADD
/// COLUMN's γ_tgt, or DROP COLUMN's γ_src with `present_first`), with its
/// inputs.
#[derive(Debug, Clone)]
struct PairCase {
    present_first: bool,
    /// The data columns the head copies, in head order; `v` goes in at
    /// position `at` among them.
    copied: Vec<usize>,
    at: usize,
    /// 0 = the constant 7, 1 = `x0 + x1`, 2 = `6 / x0` (fails where `x0`
    /// is 0 and `A` holds no row).
    default: u8,
    rows: BTreeMap<u64, (i64, i64)>,
    /// `A`'s rows: for no key, for some keys, or for every key of `S`.
    aux: BTreeMap<u64, i64>,
    /// `A` carries a second payload column: a row of another arity.
    wide: bool,
    /// A propagated delta: `S` and `A` rows changed (`None`: deleted).
    changes: BTreeMap<u64, Option<(i64, i64)>>,
    aux_changes: BTreeMap<u64, Option<i64>>,
    /// A row inserted into `S` under a write overlay.
    overlay: Option<(u64, i64, i64)>,
}

fn arb_pair_case() -> impl Strategy<Value = PairCase> {
    let shape = (
        any::<bool>(),
        prop::collection::vec(0usize..2, 0..3),
        0usize..3,
        0u8..3,
    );
    let inputs = (
        prop::collection::btree_map(0u64..12, (0i64..4, 0i64..4), 0..8),
        prop::collection::btree_map(0u64..14, 0i64..4, 0..8),
        0u8..3,
        0u8..6,
    );
    let changes = (
        prop::collection::btree_map(0u64..14, prop::option::of((0i64..4, 0i64..4)), 0..3),
        prop::collection::btree_map(0u64..14, prop::option::of(0i64..4), 0..3),
        prop::option::of((0u64..14, 0i64..4, 0i64..4)),
    );
    (shape, inputs, changes).prop_map(
        |((present_first, picks, at, default), (rows, aux, coverage, wide), changes)| {
            let mut copied = Vec::new();
            for pick in picks {
                if !copied.contains(&pick) {
                    copied.push(pick);
                }
            }
            let aux = match coverage {
                0 => BTreeMap::new(),
                1 => aux,
                _ => rows
                    .keys()
                    .map(|k| (*k, aux.get(k).copied().unwrap_or(*k as i64 % 4)))
                    .collect(),
            };
            let (changes, aux_changes, overlay) = changes;
            PairCase {
                present_first,
                at: at % (copied.len() + 1),
                copied,
                default,
                rows,
                aux,
                wide: wide == 0,
                changes,
                aux_changes,
                overlay,
            }
        },
    )
}

fn build_pair(case: &PairCase) -> RuleSet {
    let x = |c: usize| format!("x{c}");
    let mut head: Vec<Term> = case.copied.iter().map(|&c| Term::var(x(c))).collect();
    head.insert(case.at, Term::var("v"));
    head.insert(0, Term::var("p"));
    let data = || Literal::Pos(Atom::vars("S", &["p", "x0", "x1"]));
    let binary = |l: Expr, op: BinaryOp, r: Expr| Expr::Binary(Box::new(l), op, Box::new(r));
    let default = match case.default {
        0 => Expr::lit(7),
        1 => binary(Expr::col(x(0)), BinaryOp::Add, Expr::col(x(1))),
        _ => binary(Expr::lit(6), BinaryOp::Div, Expr::col(x(0))),
    };
    let absent = Rule::new(
        Atom::new("H", head.clone()),
        vec![
            data(),
            Literal::Neg(Atom::new("A", vec![Term::var("p"), Term::Anon])),
            Literal::Assign {
                var: "v".into(),
                expr: default,
            },
        ],
    );
    let present = Rule::new(
        Atom::new("H", head),
        vec![data(), Literal::Pos(Atom::vars("A", &["p", "v"]))],
    );
    RuleSet::new(match case.present_first {
        true => vec![present, absent],
        false => vec![absent, present],
    })
}

/// An `A` row of `case`'s arity.
fn aux_row(case: &PairCase, v: i64) -> Vec<Value> {
    let mut row = vec![Value::Int(v)];
    row.extend(case.wide.then_some(Value::Int(0)));
    row
}

fn pair_row((a, b): (i64, i64)) -> Vec<Value> {
    vec![Value::Int(a), Value::Int(b)]
}

fn build_pair_edb(case: &PairCase) -> MapEdb {
    let mut data = Relation::with_columns("S", ["a", "b"]);
    for (k, ab) in &case.rows {
        data.insert(Key(*k), pair_row(*ab)).unwrap();
    }
    let columns: &[&str] = if case.wide { &["v", "w"] } else { &["v"] };
    let mut aux = Relation::with_columns("A", columns.iter().copied());
    for (k, v) in &case.aux {
        aux.insert(Key(*k), aux_row(case, *v)).unwrap();
    }
    let mut edb = MapEdb::new();
    edb.add(data).add(aux);
    edb
}

/// The delta `case` propagates: its `S` and `A` changes, each a delete of
/// the present row and an insert of the new one.
fn pair_input(case: &PairCase) -> DeltaMap {
    let mut data = Delta::new();
    for (k, change) in &case.changes {
        data.deletes
            .extend(case.rows.get(k).map(|ab| (Key(*k), pair_row(*ab))));
        data.inserts
            .extend(change.map(|ab| (Key(*k), pair_row(ab))));
    }
    let mut aux = Delta::new();
    for (k, change) in &case.aux_changes {
        aux.deletes
            .extend(case.aux.get(k).map(|v| (Key(*k), aux_row(case, *v))));
        aux.inserts
            .extend(change.map(|v| (Key(*k), aux_row(case, v))));
    }
    DeltaMap::from([("S".to_string(), data), ("A".to_string(), aux)])
}

/// `case`'s write overlay on `S`, if it has one.
fn overlay_input(case: &PairCase) -> Option<DeltaMap> {
    let (k, a, b) = case.overlay?;
    let mut delta = Delta::new();
    delta
        .deletes
        .extend(case.rows.get(&k).map(|ab| (Key(k), pair_row(*ab))));
    delta.inserts.insert(Key(k), pair_row((a, b)));
    Some(DeltaMap::from([("S".to_string(), delta)]))
}

proptest! {
    /// Lookup-or-default pairs (ADD COLUMN's γ_tgt, DROP COLUMN's γ_src)
    /// against naive on every path: full evaluation (rows in order, or the
    /// same error: `6 / x0` fails where `A` holds no row, an `A` row of
    /// another arity raises `ArityMismatch`), key-seeded evaluation of every
    /// key, propagation of an `S` and an `A` delta against the naive
    /// two-state diff, and full evaluation of `S` under a write overlay,
    /// which the row map hands to the join.
    #[test]
    fn lookup_or_default_pairs_match_naive_on_every_path(case in arb_pair_case()) {
        let rules = build_pair(&case);
        let crs = CompiledRuleSet::compile(&rules).expect("safe");
        prop_assert!(matches!(crs.row_map(), Some(RowMap::Pair(_))), "no pair:\n{}", rules);
        let edb = build_pair_edb(&case);
        let full = |edb: &dyn EdbView| {
            let naive_out = naive::evaluate(&rules, edb, &registry(), &BTreeMap::new());
            let compiled_out = evaluate_compiled(&crs, edb, &registry(), &BTreeMap::new());
            (naive_out.map(|out| rows_in_order(&out)), compiled_out.map(|out| rows_in_order(&out)))
        };
        let (naive_out, compiled_out) = full(&edb);
        prop_assert_eq!(naive_out, compiled_out, "diverged on:\n{}", rules);

        let naive_ids = registry();
        let compiled_ids = registry();
        let mut naive_ev = naive::Evaluator::new(&edb, &naive_ids);
        let compiled_ev = Evaluator::new(&edb, &compiled_ids);
        for k in 0..14u64 {
            let n = naive_ev.head_row_for_key(&rules, "H", Key(k));
            let c = compiled_ev.head_row_for_key(&crs, "H", Key(k));
            prop_assert_eq!(n, c, "diverged at H#{} on:\n{}", k, rules);
        }

        let input = pair_input(&case);
        if let Some(slow) = naive_two_state_diff(&rules, &edb, &input) {
            let non_empty = |d: DeltaMap| -> DeltaMap {
                d.into_iter().filter(|(_, d)| !d.is_empty()).collect()
            };
            let fast = propagate(&rules, &edb, &input, &registry(), &BTreeMap::new());
            prop_assert_eq!(fast.map(non_empty), Ok(slow), "propagation diverged on:\n{}", rules);
        }

        if let Some(overlay) = overlay_input(&case) {
            let patched = PatchedEdb::new(&edb, &overlay);
            prop_assert_eq!(evaluate_row_map(&crs, &patched, &BTreeMap::new()), None);
            let (naive_out, compiled_out) = full(&patched);
            prop_assert_eq!(naive_out, compiled_out, "an overlay diverged on:\n{}", rules);
        }
    }
}

/// How many of the first 1 000 generated full evaluations of
/// `projection_sets_match_naive_on_every_path` and
/// `lookup_or_default_pairs_match_naive_on_every_path` (its overlays
/// included) the row maps take, and how many they hand to the join: their
/// inputs are replayed from each property's seed, and every count must be
/// above zero, or the properties no longer cover the row maps or their
/// fallback. (The replay draws each property's strategies in its order.)
#[test]
fn generated_full_evaluations_take_the_row_maps() {
    use proptest::test_runner::{rng_for, seed_for};
    let (mut projections, mut pairs, mut fallbacks) = (0, 0, 0);
    let mut count =
        |crs: &CompiledRuleSet, edb: &dyn EdbView, taken: &mut usize| match evaluate_row_map(
            crs,
            edb,
            &BTreeMap::new(),
        ) {
            Some(_) => *taken += 1,
            None => fallbacks += 1,
        };
    let seed = seed_for("compiled_vs_naive::projection_sets_match_naive_on_every_path");
    for case in 0..1000 {
        let mut rng = rng_for(seed, case);
        let specs = prop::collection::vec(arb_projection_spec(), 1..4).generate(&mut rng);
        let rows = prop::collection::btree_map(0u64..12, (0i64..4, 0i64..4, 0i64..4), 0..8)
            .generate(&mut rng);
        let crs = CompiledRuleSet::compile(&build_projection_set(&specs, false)).unwrap();
        count(&crs, &build_projection_edb(&rows), &mut projections);
    }
    let seed = seed_for("compiled_vs_naive::lookup_or_default_pairs_match_naive_on_every_path");
    for case in 0..1000 {
        let case = arb_pair_case().generate(&mut rng_for(seed, case));
        let crs = CompiledRuleSet::compile(&build_pair(&case)).unwrap();
        let edb = build_pair_edb(&case);
        count(&crs, &edb, &mut pairs);
        if let Some(overlay) = overlay_input(&case) {
            count(&crs, &PatchedEdb::new(&edb, &overlay), &mut pairs);
        }
    }
    eprintln!(
        "of the replayed full evaluations, {projections} map a projection set's rows, \
         {pairs} map a lookup-or-default pair's and {fallbacks} are handed to the join"
    );
    assert!(projections > 0, "no generated projection set is a row map");
    assert!(
        pairs > 0,
        "no generated lookup-or-default pair is a row map"
    );
    assert!(fallbacks > 0, "no generated row map falls back to the join");
}

/// `specs` with their skolem literals dropped.
fn mint_free(specs: Vec<RuleSpec>) -> Vec<RuleSpec> {
    specs
        .into_iter()
        .map(|mut s| {
            s.skolem = None;
            s
        })
        .collect()
}

/// The input delta of `propagation_matches_naive_two_state_diff`, on `T1`:
/// the inserts, the deletes of present keys, and the updates of present keys
/// not deleted.
fn t1_input(
    t1: &T1Rows,
    inserts: &BTreeMap<u64, i64>,
    deletes: &[u64],
    updates: &BTreeMap<u64, i64>,
) -> DeltaMap {
    let mut delta = Delta::new();
    for (k, a) in inserts {
        delta.inserts.insert(Key(*k), vec![Value::Int(*a)]);
    }
    for k in deletes {
        if let Some(a) = t1.get(k) {
            delta
                .deletes
                .entry(Key(*k))
                .or_insert_with(|| vec![Value::Int(*a)]);
        }
    }
    for (k, a) in updates {
        if let Some(old) = t1.get(k) {
            if let std::collections::btree_map::Entry::Vacant(e) = delta.deletes.entry(Key(*k)) {
                e.insert(vec![Value::Int(*old)]);
                delta.inserts.insert(Key(*k), vec![Value::Int(*a)]);
            }
        }
    }
    let mut input = DeltaMap::new();
    input.insert("T1".to_string(), delta);
    input
}

/// Whether `rule` is `H(p, π(x)) ← B(p, x)`: one positive atom over
/// distinct variables (anonymous positions allowed) and a head keyed by its
/// key whose payload variables all come from its payload.
fn is_projection(rule: &Rule) -> bool {
    let [Literal::Pos(body)] = rule.body.as_slice() else {
        return false;
    };
    let vars = body.variables();
    let distinct: std::collections::BTreeSet<_> = vars.iter().collect();
    let payload: Vec<&str> = body.terms[1..].iter().filter_map(Term::as_var).collect();
    body.key_term().as_var().is_some()
        && body.terms.iter().all(|t| !matches!(t, Term::Const(_)))
        && distinct.len() == vars.len()
        && rule.head.key_term() == body.key_term()
        && rule.head.terms[1..]
            .iter()
            .all(|t| t.as_var().is_some_and(|v| payload.contains(&v)))
}

/// Which shortcut of `delta::propagate_compiled` a propagation of `input`
/// through the mint-free, unstaged `rules` takes: `(heads passed through,
/// key-local)`. A projection set (one rule `Hᵢ(p, πᵢ(x)) ← B(p, x)` per
/// head, RENAME's copy rule among them) whose `B` changed passes its delta
/// through; otherwise a changed tuple at an atom keyed by its
/// [key-local](inverda_datalog::eval::CompiledRule::key_local) rule's head
/// key skips its probe join.
fn shortcuts_taken(rules: &RuleSet, crs: &CompiledRuleSet, input: &DeltaMap) -> (usize, bool) {
    let changed = |rel: &str| input.get(rel).is_some_and(|d| !d.is_empty());
    let one_rule_per_head = crs.head_names().count() == rules.rules.len();
    if one_rule_per_head && rules.rules.iter().all(is_projection) {
        let passed = rules
            .rules
            .iter()
            .filter(|rule| rule.body_relations().iter().any(|rel| changed(rel)));
        return (passed.count(), false);
    }
    let key_local = rules.rules.iter().zip(&crs.rules).any(|(rule, compiled)| {
        compiled.key_local
            && rule.body.iter().any(|lit| match lit {
                Literal::Pos(atom) | Literal::Neg(atom) => {
                    changed(&atom.relation)
                        && atom.key_term().as_var().is_some()
                        && atom.key_term() == rule.head.key_term()
                }
                _ => false,
            })
    });
    (0, key_local)
}

/// How many of the first 1 000 generated cases of
/// `propagation_matches_naive_two_state_diff` take each propagation
/// shortcut, and how many of the passed-through ones derive several heads:
/// their inputs are replayed from the property's seed, and every count
/// must be above zero, or the property no longer covers the shortcut.
/// (The replay draws the property's strategies in its order.)
#[test]
fn generated_propagations_take_both_shortcuts() {
    use proptest::test_runner::{rng_for, seed_for};
    let seed = seed_for("compiled_vs_naive::propagation_matches_naive_two_state_diff");
    let (mut cases, mut projection, mut multi_head, mut key_local) = (0, 0, 0, 0);
    for case in 0..1000 {
        let mut rng = rng_for(seed, case);
        let specs = prop::collection::vec(arb_propagated_rule_spec(), 1..3).generate(&mut rng);
        let (_, t1) = arb_edb().generate(&mut rng);
        let inserts = prop::collection::btree_map(12u64..18, 0i64..6, 0..3).generate(&mut rng);
        let deletes = prop::collection::vec(0u64..12, 0..3).generate(&mut rng);
        let updates = prop::collection::btree_map(0u64..12, 0i64..6, 0..3).generate(&mut rng);
        let rules = build_rule_set(&mint_free(specs));
        let Ok(crs) = CompiledRuleSet::compile(&rules) else {
            continue;
        };
        if crs.staged() {
            continue;
        }
        cases += 1;
        let input = t1_input(&t1, &inserts, &deletes, &updates);
        let (passed, skipped) = shortcuts_taken(&rules, &crs, &input);
        projection += usize::from(passed > 0);
        multi_head += usize::from(passed > 1);
        key_local += usize::from(skipped);
    }
    eprintln!(
        "of {cases} unstaged generated propagations, {projection} pass a projection set's \
         delta through ({multi_head} of them to several heads) and {key_local} skip a \
         key-local probe join"
    );
    assert!(
        projection > 0,
        "no generated propagation passes a delta through"
    );
    assert!(
        multi_head > 0,
        "no generated propagation passes a delta through to several heads"
    );
    assert!(key_local > 0, "no generated propagation skips a probe join");
}

/// The delta a naive oracle derives for `input`: evaluate the old and the
/// patched state with the naive engine and diff every head. `None` if
/// either evaluation fails.
fn naive_two_state_diff(rules: &RuleSet, edb: &MapEdb, input: &DeltaMap) -> Option<DeltaMap> {
    let old_out = naive::evaluate(rules, edb, &registry(), &BTreeMap::new()).ok()?;
    let patched = PatchedEdb::new(edb, input);
    let new_out = naive::evaluate(rules, &patched, &registry(), &BTreeMap::new()).ok()?;
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
    Some(slow)
}

/// Derived heads as `(name, [(key, row)…])`.
type HeadRows = Vec<(String, Vec<(Key, Vec<Value>)>)>;

/// Every derived head in the relation's own iteration order, so a
/// comparison also sees tuple order.
fn rows_in_order(out: &BTreeMap<String, Relation>) -> HeadRows {
    out.iter()
        .map(|(head, rel)| {
            let rows = rel.iter().map(|(k, row)| (k, row.to_vec()));
            (head.clone(), rows.collect())
        })
        .collect()
}

/// Large-input differential check (the proptest cases above are small): a
/// multi-rule unbound join over a few thousand rows and a
/// several-hundred-tuple delta. Compiled evaluation must equal the naive
/// oracle byte for byte — rows, tuple order and registry dump — and
/// propagation must equal the naive two-state diff.
#[test]
fn compiled_matches_naive_on_large_inputs() {
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
    // Two independent rules: an unbound join (scan + index probe) and a
    // filter (scan).
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

    let ids = registry();
    let out = evaluate_compiled(&crs, &edb, &ids, &BTreeMap::new()).unwrap();
    let naive_ids = registry();
    let oracle = naive::evaluate(&rules, &edb, &naive_ids, &BTreeMap::new()).unwrap();
    assert!(!oracle["H0"].is_empty() && !oracle["H1"].is_empty());
    assert_eq!(rows_in_order(&out), rows_in_order(&oracle));
    assert_eq!(ids.borrow().dump(), naive_ids.borrow().dump());
    let propagated = propagate(&rules, &edb, &input, &registry(), &BTreeMap::new()).unwrap();
    let oracle_delta = naive_two_state_diff(&rules, &edb, &input).unwrap();
    assert!(!oracle_delta.is_empty());
    let propagated: DeltaMap = propagated
        .into_iter()
        .filter(|(_, d)| !d.is_empty())
        .collect();
    assert_eq!(propagated, oracle_delta, "propagation diverged from naive");
}

/// The staged/minting analogue of [`compiled_matches_naive_on_large_inputs`]:
/// a rule set that mints skolem ids (including as head keys) and stages a
/// later rule over the minted head, over a few thousand rows. The derived
/// relations (tuple order included) *and* the final skolem registry
/// (assignment order included — the dump is order-sensitive through the id
/// values) must be byte-identical to the naive oracle.
#[test]
fn staged_minting_matches_naive_on_large_inputs() {
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
        // Staged: scans the minted head (its depth-0 scan runs over a
        // placeholder-keyed derived relation).
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

    let ids = registry();
    let out = evaluate_compiled(&crs, &edb, &ids, &BTreeMap::new()).unwrap();
    let naive_ids = registry();
    let oracle = naive::evaluate(&rules, &edb, &naive_ids, &BTreeMap::new()).unwrap();
    assert_eq!(oracle["Author"].len(), 37);
    assert_eq!(oracle["H"].len(), 3_000);
    assert_eq!(
        rows_in_order(&out),
        rows_in_order(&oracle),
        "minting evaluation diverged from naive"
    );
    assert_eq!(
        ids.borrow().dump(),
        naive_ids.borrow().dump(),
        "skolem assignment diverged"
    );
}

/// Error precedence is canonical: a rule whose assignment fails on *some*
/// rows of a large scan (every 7th row holds text, first at `Key(0)`) must
/// report the byte-identical error (`Debug` form) the naive oracle reports
/// — the first join error in exploration order — and leave the registry
/// as the oracle leaves it.
#[test]
fn error_precedence_matches_naive_on_large_inputs() {
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
    let ids = registry();
    let err = evaluate_compiled(&crs, &edb, &ids, &BTreeMap::new()).unwrap_err();
    let naive_ids = registry();
    let oracle = naive::evaluate(&rules, &edb, &naive_ids, &BTreeMap::new()).unwrap_err();
    assert_eq!(format!("{err:?}"), format!("{oracle:?}"));
    assert_eq!(ids.borrow().dump(), naive_ids.borrow().dump());
}

/// `H(k, d) ← A(p, n, k), d = n + 1` over `rows`: the full evaluation's
/// error from both engines, in `Debug` form.
fn errors_on(rows: &[(u64, Value, Value)]) -> (String, String) {
    let mut a = Relation::with_columns("A", ["n", "k"]);
    for (key, n, k) in rows {
        a.insert(Key(*key), vec![n.clone(), k.clone()]).unwrap();
    }
    let mut edb = MapEdb::new();
    edb.add(a);
    let rules = RuleSet::new(vec![Rule::new(
        Atom::vars("H", &["k", "d"]),
        vec![
            Literal::Pos(Atom::vars("A", &["p", "n", "k"])),
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
    let compiled = evaluate_compiled(&crs, &edb, &registry(), &BTreeMap::new()).unwrap_err();
    let naive = naive::evaluate(&rules, &edb, &registry(), &BTreeMap::new()).unwrap_err();
    (format!("{compiled:?}"), format!("{naive:?}"))
}

/// Row 1 derives a head tuple keyed by text, row 2 fails the assignment:
/// the join error of row 2 wins, as the naive interpreter finishes the
/// join before it builds a head tuple.
#[test]
fn head_key_error_ranks_behind_a_later_join_error() {
    let (compiled, naive) = errors_on(&[
        (1, Value::Int(1), Value::text("notakey")),
        (2, Value::text("x"), Value::Int(5)),
    ]);
    assert!(naive.contains("cannot apply +"), "{naive}");
    assert_eq!(compiled, naive);
}

/// Rows 1 and 2 derive different tuples under key 7, row 3 fails the
/// assignment: the join error wins over the earlier conflict.
#[test]
fn key_conflict_ranks_behind_a_later_join_error() {
    let (compiled, naive) = errors_on(&[
        (1, Value::Int(1), Value::Int(7)),
        (2, Value::Int(2), Value::Int(7)),
        (3, Value::text("x"), Value::Int(5)),
    ]);
    assert!(naive.contains("cannot apply +"), "{naive}");
    assert_eq!(compiled, naive);
}

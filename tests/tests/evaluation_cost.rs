//! `Workspace::evaluate` costs what changed — and must still mean what
//! a from-scratch evaluation means. Random sequences of assertions,
//! one-copy retractions, program loads, tag swaps and evaluations
//! (batches that violate a constraint included) run against one
//! long-lived workspace; at every `evaluate` a fresh workspace is built
//! from the long-lived one's own rules, constraints and base facts, and
//! the two must agree on the verdict (accepted or rolled back), on every
//! relation of the database, and — through an unscoped
//! `check_constraints` over the long-lived database — on what the
//! delta-scoped check concluded.

use lbtrust::{RetractOutcome, Workspace, WsError};
use lbtrust_datalog::eval::EvalStats;
use lbtrust_datalog::{parse_program, Symbol, Value};
use lbtrust_metamodel::check_constraints;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One kind of program, with what the generator may do to it.
struct Flavour {
    /// Installed before the first operation: rules and constraints.
    base: &'static str,
    /// Asserted before the first operation. Most of the universe is
    /// declared; facts over `c3` violate the `node` constraints until
    /// somebody asserts `node(c3)`.
    seed: &'static str,
    /// Programs a `Load` operation may add.
    extras: &'static [&'static str],
    /// Alternatives a `Swap` operation installs under the one `swap` tag.
    swaps: &'static [&'static str],
    /// `(predicate, arity)` of the facts asserted and retracted.
    facts: &'static [(&'static str, usize)],
}

const NODES: &str = "node(c0). node(c1). node(c2).";

/// Positive recursion; every constraint is delta-scoped. `W` is
/// existential: when one `tag` witness is retracted another may stand.
const MONOTONE: Flavour = Flavour {
    base: "reach(X,Y) <- edge(X,Y).\n\
           reach(X,Z) <- reach(X,Y), edge(Y,Z).\n\
           reach(X,Y) -> node(X), node(Y).\n\
           edge(X,Y), X != Y -> tag(X,W); spare(X).",
    seed: "node(c0). node(c1). node(c2). tag(c0,c0). tag(c1,c1). tag(c2,c2).",
    extras: &[
        "twohop(X,Z) <- edge(X,Y), edge(Y,Z).\ntwohop(X,Y) -> reach(X,Y).",
        "loop(X) <- reach(X,X).\nloop(X) -> spare(X).",
    ],
    swaps: &["sym(X,Y) <- edge(Y,X).", "sym(X,Y) <- reach(Y,X), node(X)."],
    facts: &[
        ("edge", 2),
        ("edge", 2),
        ("node", 1),
        ("spare", 1),
        ("tag", 2),
    ],
};

/// Negation in a rule (every change rebuilds) and in a constraint (that
/// constraint is never delta-scoped).
const NEGATED: Flavour = Flavour {
    base: "ok(X) <- node(X), !banned(X).\n\
           pair(X,Y) <- ok(X), ok(Y), edge(X,Y).\n\
           pair(X,Y) -> node(X), node(Y).\n\
           banned(X) -> !vip(X).",
    seed: NODES,
    extras: &["lonely(X) <- node(X), !ok(X)."],
    swaps: &["flag(X) <- banned(X).", "flag(X) <- vip(X), !banned(X)."],
    facts: &[("node", 1), ("banned", 1), ("vip", 1), ("edge", 2)],
};

/// A positive program under a negated constraint: incremental runs and
/// DRed repairs, with one constraint that must be checked in full.
const NEGATED_CONSTRAINT: Flavour = Flavour {
    base: "reach(X,Y) <- edge(X,Y).\n\
           reach(X,Z) <- reach(X,Y), edge(Y,Z).\n\
           reach(X,Y) -> !blocked(X,Y).\n\
           blocked(X,Y) -> node(X).",
    seed: NODES,
    extras: &["far(X,Z) <- reach(X,Y), reach(Y,Z).\nfar(X,Y) -> node(X)."],
    swaps: &["sym(X,Y) <- edge(Y,X).", "sym(X,Y) <- blocked(Y,X)."],
    facts: &[("edge", 2), ("blocked", 2), ("node", 1)],
};

/// Aggregation.
const AGGREGATED: Flavour = Flavour {
    base: "deg(X,N) <- agg<<N = count(Y)>> edge(X,Y).\n\
           busy(X) <- deg(X,N), N >= 2.\n\
           busy(X) -> node(X).",
    seed: NODES,
    extras: &["idle(X) <- node(X), !busy(X)."],
    swaps: &["hub(X) <- deg(X,N), N >= 3.", "hub(X) <- busy(X), node(X)."],
    facts: &[("edge", 2), ("edge", 2), ("node", 1)],
};

/// Code generation: facts activate rules, and retracting the fact must
/// deactivate them again. The workspace is `c0`, so `delegates(c0,_)`
/// fires.
const GENERATING: Flavour = Flavour {
    base: "active([| trusted(X) <- vouched(U,X). |]) <- delegates(me,U).\n\
           trusted(X) -> node(X).",
    seed: NODES,
    extras: &["active([| peer(X) <- trusted(X), vouched(X,X). |]) <- delegates(U,me)."],
    swaps: &[
        "vip(X) <- trusted(X).",
        "active([| vip(X) <- node(X). |]) <- delegates(me,me).",
    ],
    facts: &[("delegates", 2), ("vouched", 2), ("node", 1)],
};

#[derive(Clone, Debug)]
enum Op {
    Assert(usize, u8, u8),
    Retract(usize, u8, u8),
    Load(usize),
    Swap(usize),
    Evaluate,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..12, 0usize..12, 0u8..4, 0u8..4).prop_map(|(kind, which, a, b)| match kind {
        0..=4 => Op::Assert(which, a, b),
        5..=7 => Op::Retract(which, a, b),
        8 => Op::Load(which),
        9 => Op::Swap(which),
        _ => Op::Evaluate,
    });
    prop::collection::vec(op, 1..40)
}

fn fact(flavour: &Flavour, which: usize, a: u8, b: u8) -> (Symbol, Vec<Value>) {
    let (pred, arity) = flavour.facts[which % flavour.facts.len()];
    let args = [a, b].map(|c| Value::sym(&format!("c{c}")));
    (Symbol::intern(pred), args[..arity].to_vec())
}

/// Every relation as a sorted set of rendered tuples.
fn relations(ws: &Workspace) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    for (pred, rel) in ws.db().iter() {
        let mut rows: Vec<String> = rel
            .iter()
            .map(|t| t.iter().map(|v| format!("{v},")).collect())
            .collect();
        if rows.is_empty() {
            continue;
        }
        rows.sort();
        out.insert(pred.to_string(), rows);
    }
    out
}

/// A fresh workspace holding `ws`'s rules, constraints and base facts,
/// and the source of the first two.
fn rebuilt_from(ws: &Workspace) -> (Workspace, String) {
    let text = ws.export_program();
    let (defs, facts) = text
        .split_once("// base facts\n")
        .expect("export_program writes a base-facts section");
    let mut fresh = Workspace::new(ws.me().as_str());
    fresh.load("all", defs).expect("exported rules load");
    fresh.assert_src(facts).expect("exported facts parse");
    (fresh, defs.to_string())
}

/// `ws.evaluate()`, compared with a from-scratch evaluation of the same
/// rules and base facts. Returns whether the evaluation was accepted.
fn evaluate_like_scratch(ws: &mut Workspace) -> bool {
    let (mut scratch, defs) = rebuilt_from(ws);
    let expected = scratch.evaluate();
    let got = ws.evaluate();
    match (&got, &expected) {
        (Ok(_), Ok(_)) => {}
        (Err(WsError::Constraint(_)), Err(WsError::Constraint(_))) => return false,
        _ => panic!("verdicts differ: workspace {got:?}, from scratch {expected:?}\n{defs}"),
    }
    let (ours, theirs) = (relations(ws), relations(&scratch));
    for pred in ours.keys().chain(theirs.keys()) {
        assert_eq!(ours.get(pred), theirs.get(pred), "{pred} differs\n{defs}");
    }
    // What the scoped check accepted, an unscoped check accepts.
    let constraints = parse_program(&defs).expect("reparses").constraints;
    check_constraints(&constraints, ws.db(), ws.builtins())
        .unwrap_or_else(|e| panic!("scoped check missed: {e}\n{defs}"));
    // And the workspace is now settled.
    let epoch = ws.epoch();
    assert_eq!(ws.evaluate().expect("settled"), EvalStats::default());
    assert_eq!(ws.epoch(), epoch);
    true
}

fn run(flavour: &Flavour, ops: &[Op]) {
    let mut ws = Workspace::new("c0");
    ws.load("base", flavour.base).unwrap();
    ws.assert_src(flavour.seed).unwrap();
    evaluate_like_scratch(&mut ws);
    for op in ops {
        match op {
            Op::Assert(which, a, b) => {
                let (pred, tuple) = fact(flavour, *which, *a, *b);
                ws.assert_fact(pred, tuple);
            }
            Op::Retract(which, a, b) => {
                let (pred, tuple) = fact(flavour, *which, *a, *b);
                ws.retract_facts(&[(pred, tuple)]);
            }
            Op::Load(which) => {
                let extra = flavour.extras[which % flavour.extras.len()];
                ws.load(&format!("extra{which}"), extra).unwrap();
            }
            Op::Swap(which) => {
                let swap = flavour.swaps[which % flavour.swaps.len()];
                ws.replace_tag("swap", swap).unwrap();
            }
            Op::Evaluate => {
                if !evaluate_like_scratch(&mut ws) {
                    // Rolled back: the restored state is itself one a
                    // from-scratch build of it agrees with (it can be a
                    // rejected one — a retraction is never undone, even
                    // when what remains violates a constraint).
                    evaluate_like_scratch(&mut ws);
                }
            }
        }
    }
    evaluate_like_scratch(&mut ws);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn monotone_program_matches_scratch(ops in arb_ops()) {
        run(&MONOTONE, &ops);
    }

    #[test]
    fn negated_program_matches_scratch(ops in arb_ops()) {
        run(&NEGATED, &ops);
    }

    #[test]
    fn negated_constraint_matches_scratch(ops in arb_ops()) {
        run(&NEGATED_CONSTRAINT, &ops);
    }

    #[test]
    fn aggregated_program_matches_scratch(ops in arb_ops()) {
        run(&AGGREGATED, &ops);
    }

    #[test]
    fn generating_program_matches_scratch(ops in arb_ops()) {
        run(&GENERATING, &ops);
    }
}

/// Tuple order is part of what a history determines — `export` order is
/// network delivery order — so the same history built several times in
/// one process, every map under its own `RandomState` seed, must store
/// each relation's tuples in the same order: for an aggregate over four
/// groups, and for a DRed repair that takes out and re-derives most of a
/// transitive closure.
#[test]
fn same_history_same_tuple_order() {
    let edges: String = (0..4u8)
        .flat_map(|a| (0..4u8).map(move |b| (a, b)))
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("edge(c{a},c{b}). "))
        .collect();
    let build = |flavour: &Flavour, preds: &[&str], repair: bool| {
        let mut ws = Workspace::new("c0");
        ws.load("base", flavour.base).unwrap();
        ws.assert_src(flavour.seed).unwrap();
        ws.assert_src("node(c3). tag(c3,c3).").unwrap();
        ws.assert_src(&edges).unwrap();
        ws.evaluate().unwrap();
        if repair {
            let (pred, tuple) = fact(flavour, 0, 0, 1);
            match ws.retract_facts(&[(pred, tuple)]) {
                RetractOutcome::Incremental(stats) => assert!(stats.rederived >= 2),
                other => panic!("expected a DRed repair, got {other:?}"),
            }
            ws.evaluate().unwrap();
        }
        let tuples = |pred: &&str| ws.tuples(Symbol::intern(pred));
        preds.iter().map(tuples).collect::<Vec<_>>()
    };
    for (flavour, preds, repair) in [
        (&AGGREGATED, ["deg", "busy"], false),
        (&MONOTONE, ["reach", "edge"], true),
    ] {
        let first = build(flavour, &preds, repair);
        assert!(first[0].len() >= 3, "{preds:?}: {first:?}");
        for _ in 0..8 {
            assert_eq!(build(flavour, &preds, repair), first, "{preds:?}");
        }
    }
}

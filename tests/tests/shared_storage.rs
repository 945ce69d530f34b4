//! State that is shared, not copied — seen from outside the crates that
//! implement it.
//!
//! **Rollback is exact.** A workspace keeps no copy of its store to roll
//! back to; a failed evaluation cuts relations, base facts and generated
//! rules back to lengths recorded at the last successful one (or puts
//! back the database a rebuild set aside). So for the five programs of
//! `evaluation_cost.rs` — monotone, negated, constrained, aggregated,
//! code-generating — a workspace runs a random history and is then shown
//! a batch that cannot be accepted (a violating fact, with or without a
//! program load and a tag swap riding along). After the failed `evaluate`
//! it must be what it was before the batch: every relation tuple for
//! tuple *in order*, the exported program, the active rules. And a twin
//! that ran the same history but never saw the batch must find the next
//! common change costing the same to evaluate and landing on the same
//! state (compared as sets: an aggregate's groups and a DRed repair's
//! re-derivations come out in hash order, so two runs of one history
//! need not agree on order even at the parent commit).
//!
//! **A snapshot is a value.** `Workspace::snapshot` shares relations and
//! base facts with the workspace; whatever the workspace does afterwards,
//! restoring the snapshot brings back exactly the state it was taken in.
//!
//! **Base facts are a list of copies.** A retracted copy is a tombstone
//! until the copies re-pack, and the rollback baseline is a mark into
//! them; from outside, the base facts must read as a plain list of
//! copies in assertion order from which a retraction takes the first copy
//! the baseline does not hold (else the first), a DRed repair makes
//! everything the baseline, and a rollback drops what it does not hold.
//!
//! The storage layer's own model-equivalence property (random `insert` /
//! `remove_tuples` / `truncate` / `clone` / index-warming probes against
//! a `Vec` model, also under colliding hashes) lives beside `Relation` in
//! `crates/datalog/src/db.rs`; the no-timing cost witness and the
//! reader-isolation test need a published snapshot's insides and live in
//! `crates/core/src/system.rs`.

use lbtrust::{RetractOutcome, Workspace, WsError};
use lbtrust_datalog::{Symbol, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

struct Flavour {
    /// Rules and constraints (the `base` of the same-named flavour in
    /// `evaluation_cost.rs`).
    base: &'static str,
    /// A program the offending batch may load on the way.
    extra: &'static str,
    /// What the offending batch may swap in under the `swap` tag.
    swap: &'static str,
    /// `(predicate, arity)` of the facts the common history asserts and
    /// retracts, over `c0..c2`.
    facts: &'static [(&'static str, usize)],
    /// Facts no state reachable by that history can accept: each batch
    /// derives or states something about `c3`, which is never a node —
    /// or a pair the constraints forbid outright.
    poison: &'static [&'static str],
}

const SEED: &str = "node(c0). node(c1). node(c2). tag(c0,c0). tag(c1,c1). tag(c2,c2).";

const MONOTONE: Flavour = Flavour {
    base: "reach(X,Y) <- edge(X,Y).\n\
           reach(X,Z) <- reach(X,Y), edge(Y,Z).\n\
           reach(X,Y) -> node(X), node(Y).\n\
           edge(X,Y), X != Y -> tag(X,W); spare(X).",
    extra: "twohop(X,Z) <- edge(X,Y), edge(Y,Z).",
    swap: "sym(X,Y) <- edge(Y,X).",
    facts: &[("edge", 2), ("edge", 2), ("spare", 1), ("tag", 2)],
    poison: &["edge(c3,c3).", "edge(c0,c3). spare(c0)."],
};

const NEGATED: Flavour = Flavour {
    base: "ok(X) <- node(X), !banned(X).\n\
           pair(X,Y) <- ok(X), ok(Y), edge(X,Y).\n\
           pair(X,Y) -> node(X), node(Y).\n\
           banned(X) -> !vip(X).",
    extra: "lonely(X) <- node(X), !ok(X).",
    swap: "flag(X) <- banned(X).",
    facts: &[("banned", 1), ("edge", 2), ("edge", 2)],
    poison: &["banned(c1). vip(c1).", "vip(c3). banned(c3)."],
};

const NEGATED_CONSTRAINT: Flavour = Flavour {
    base: "reach(X,Y) <- edge(X,Y).\n\
           reach(X,Z) <- reach(X,Y), edge(Y,Z).\n\
           reach(X,Y) -> !blocked(X,Y).\n\
           blocked(X,Y) -> node(X).",
    extra: "far(X,Z) <- reach(X,Y), reach(Y,Z).",
    swap: "sym(X,Y) <- edge(Y,X).",
    facts: &[("edge", 2), ("edge", 2)],
    poison: &["blocked(c3,c0).", "edge(c0,c1). blocked(c0,c1)."],
};

const AGGREGATED: Flavour = Flavour {
    base: "deg(X,N) <- agg<<N = count(Y)>> edge(X,Y).\n\
           busy(X) <- deg(X,N), N >= 2.\n\
           busy(X) -> node(X).",
    extra: "idle(X) <- node(X), !busy(X).",
    swap: "hub(X) <- deg(X,N), N >= 3.",
    facts: &[("edge", 2), ("edge", 2)],
    poison: &["edge(c3,c0). edge(c3,c1)."],
};

const GENERATING: Flavour = Flavour {
    base: "active([| trusted(X) <- vouched(U,X). |]) <- delegates(me,U).\n\
           trusted(X) -> node(X).",
    extra: "active([| peer(X) <- trusted(X), vouched(X,X). |]) <- delegates(U,me).",
    swap: "vip(X) <- trusted(X).",
    facts: &[("delegates", 2), ("vouched", 2)],
    poison: &["delegates(c0,c1). vouched(c1,c3)."],
};

#[derive(Clone, Debug)]
enum Op {
    Assert(usize, u8, u8),
    Retract(usize, u8, u8),
    Evaluate,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..10, 0usize..12, 0u8..3, 0u8..3).prop_map(|(kind, which, a, b)| match kind {
        0..=5 => Op::Assert(which, a, b),
        6..=7 => Op::Retract(which, a, b),
        _ => Op::Evaluate,
    });
    prop::collection::vec(op, 0..24)
}

fn fact(flavour: &Flavour, which: usize, a: u8, b: u8) -> (Symbol, Vec<Value>) {
    let (pred, arity) = flavour.facts[which % flavour.facts.len()];
    let args = [a, b].map(|c| Value::sym(&format!("c{c}")));
    (Symbol::intern(pred), args[..arity].to_vec())
}

type Observed = (BTreeMap<String, Vec<String>>, String, Vec<String>);

/// Everything a caller can see of a workspace: each relation's tuples in
/// stored order, the exported program, the rendered active rules.
fn observable(ws: &Workspace) -> Observed {
    let mut relations = BTreeMap::new();
    for (pred, _) in ws.db().iter() {
        let rows: Vec<String> = ws.tuples(pred).iter().map(|t| format!("{t:?}")).collect();
        if !rows.is_empty() {
            relations.insert(pred.to_string(), rows);
        }
    }
    let rules = ws.active_rules().iter().map(|r| r.to_string()).collect();
    (relations, ws.export_program(), rules)
}

/// [`observable`] with each relation as a set.
fn unordered(ws: &Workspace) -> Observed {
    let mut seen = observable(ws);
    seen.0.values_mut().for_each(|rows| rows.sort());
    seen
}

fn apply(flavour: &Flavour, ws: &mut Workspace, op: &Op) {
    match op {
        Op::Assert(which, a, b) => {
            let (pred, tuple) = fact(flavour, *which, *a, *b);
            ws.assert_fact(pred, tuple);
        }
        Op::Retract(which, a, b) => {
            let (pred, tuple) = fact(flavour, *which, *a, *b);
            ws.retract_facts(&[(pred, tuple)]);
        }
        Op::Evaluate => {
            let _ = ws.evaluate();
        }
    }
}

fn rollback_is_exact(flavour: &Flavour, history: &[Op], batch: usize, pending: &[Op]) {
    let build = || {
        let mut ws = Workspace::new("c0");
        ws.load("base", flavour.base).unwrap();
        ws.assert_src(SEED).unwrap();
        ws.evaluate().unwrap();
        for op in history {
            apply(flavour, &mut ws, op);
        }
        // Settle, through a rollback if the history ends in a state its
        // own constraints reject.
        if ws.evaluate().is_err() {
            let _ = ws.evaluate();
        }
        ws
    };
    let (mut ws, mut twin) = (build(), build());
    assert_eq!(unordered(&ws), unordered(&twin), "same history");
    let before = observable(&ws);

    // The offending transaction, on one side only: harmless assertions,
    // maybe a load and a swap, and facts that cannot be accepted.
    for op in pending.iter().filter(|op| matches!(op, Op::Assert(..))) {
        apply(flavour, &mut ws, op);
    }
    if batch & 1 != 0 {
        ws.load("extra", flavour.extra).unwrap();
    }
    if batch & 2 != 0 {
        ws.replace_tag("swap", flavour.swap).unwrap();
    }
    ws.assert_src(flavour.poison[(batch >> 2) % flavour.poison.len()])
        .unwrap();
    match ws.evaluate() {
        Err(WsError::Constraint(_)) => {}
        other => panic!("the batch was meant to be rejected: {other:?}"),
    }
    assert_eq!(observable(&ws), before, "after the rollback");

    // The next common change costs both the same, and lands the same.
    for side in [&mut ws, &mut twin] {
        side.assert_fact(Symbol::intern("edge"), fact(flavour, 0, 0, 1).1);
        side.assert_fact(Symbol::intern("fresh"), vec![Value::Int(1)]);
    }
    let (ours, theirs) = (ws.evaluate(), twin.evaluate());
    match (&ours, &theirs) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "the next evaluation's statistics"),
        (Err(WsError::Constraint(_)), Err(WsError::Constraint(_))) => {}
        _ => panic!("verdicts differ: {ours:?} / {theirs:?}"),
    }
    assert_eq!(unordered(&ws), unordered(&twin), "after the next change");
}

/// Whatever happens after `snapshot()`, `restore` brings back the state
/// it was taken in — the snapshot shares storage with the workspace but
/// never sees its writes.
fn snapshot_is_a_value(flavour: &Flavour, history: &[Op], later: &[Op]) {
    let mut ws = Workspace::new("c0");
    ws.load("base", flavour.base).unwrap();
    ws.assert_src(SEED).unwrap();
    ws.evaluate().unwrap();
    for op in history {
        apply(flavour, &mut ws, op);
    }
    let snap = ws.snapshot();
    let then = observable(&ws);
    for op in later {
        apply(flavour, &mut ws, op);
    }
    ws.load("extra", flavour.extra).unwrap();
    let _ = ws.evaluate();
    ws.restore(snap.clone());
    assert_eq!(observable(&ws), then);
    // And again, after the restored state was itself evaluated and grown.
    let _ = ws.evaluate();
    for op in later {
        apply(flavour, &mut ws, op);
    }
    ws.restore(snap);
    assert_eq!(observable(&ws), then);
}

/// One step of the base-facts model property.
#[derive(Clone, Debug)]
enum CopyOp {
    /// One more supporting copy of `p(c<n>)`.
    Assert(u8),
    /// One copy of `p(c<n>)` fewer.
    Retract(u8),
    /// A successful evaluation.
    Evaluate,
    /// An evaluation a poisoned fact makes fail.
    Fail,
}

fn arb_copy_ops() -> impl Strategy<Value = Vec<CopyOp>> {
    let op = (0u8..9, 0u8..4).prop_map(|(kind, n)| match kind {
        0..=3 => CopyOp::Assert(n),
        4..=6 => CopyOp::Retract(n),
        7 => CopyOp::Evaluate,
        _ => CopyOp::Fail,
    });
    prop::collection::vec(op, 0..60)
}

/// Runs `ops` against a workspace and a model — the copies in assertion
/// order, each marked whether the rollback baseline holds it — and checks
/// after every step that the workspace's base facts are the model's.
fn base_facts_are_a_list_of_copies(ops: &[CopyOp]) {
    let (p, q) = (Symbol::intern("p"), Symbol::intern("q"));
    let c = |n: u8| vec![Value::sym(&format!("c{n}"))];
    let mut ws = Workspace::new("c0");
    ws.load("base", "q(X) <- p(X).\npoison(X) -> never(X).")
        .unwrap();
    ws.evaluate().unwrap();
    let mut model: Vec<(u8, bool)> = Vec::new();
    for op in ops {
        match *op {
            CopyOp::Assert(n) => {
                ws.assert_fact(p, c(n));
                model.push((n, false));
            }
            CopyOp::Retract(n) => {
                let outcome = ws.retract_facts(&[(p, c(n))]);
                let copies: Vec<usize> = (0..model.len()).filter(|&i| model[i].0 == n).collect();
                let unmarked = copies.iter().find(|&&i| !model[i].1);
                if let Some(&victim) = unmarked.or(copies.first()) {
                    model.remove(victim);
                }
                if matches!(outcome, RetractOutcome::Incremental(_)) {
                    model.iter_mut().for_each(|copy| copy.1 = true);
                }
            }
            CopyOp::Evaluate => {
                ws.evaluate().unwrap();
                model.iter_mut().for_each(|copy| copy.1 = true);
            }
            CopyOp::Fail => {
                ws.assert_fact(Symbol::intern("poison"), c(0));
                assert!(matches!(ws.evaluate(), Err(WsError::Constraint(_))));
                model.retain(|copy| copy.1);
            }
        }
        let program = ws.export_program();
        let listed: Vec<&str> = program.lines().filter(|l| l.starts_with("p(")).collect();
        let expected: Vec<String> = model.iter().map(|(n, _)| format!("p(c{n}).")).collect();
        assert_eq!(listed, expected, "after {op:?}");
    }
    ws.evaluate().unwrap();
    for n in 0..4 {
        assert_eq!(ws.holds(q, &c(n)), model.iter().any(|copy| copy.0 == n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn base_facts_agree_with_a_list_of_copies(ops in arb_copy_ops()) {
        base_facts_are_a_list_of_copies(&ops);
    }

    #[test]
    fn monotone_rollback_is_exact(h in arb_ops(), batch in 0usize..16, p in arb_ops()) {
        rollback_is_exact(&MONOTONE, &h, batch, &p);
    }

    #[test]
    fn negated_rollback_is_exact(h in arb_ops(), batch in 0usize..16, p in arb_ops()) {
        rollback_is_exact(&NEGATED, &h, batch, &p);
    }

    #[test]
    fn constrained_rollback_is_exact(h in arb_ops(), batch in 0usize..16, p in arb_ops()) {
        rollback_is_exact(&NEGATED_CONSTRAINT, &h, batch, &p);
    }

    #[test]
    fn aggregated_rollback_is_exact(h in arb_ops(), batch in 0usize..16, p in arb_ops()) {
        rollback_is_exact(&AGGREGATED, &h, batch, &p);
    }

    #[test]
    fn generating_rollback_is_exact(h in arb_ops(), batch in 0usize..16, p in arb_ops()) {
        rollback_is_exact(&GENERATING, &h, batch, &p);
    }

    #[test]
    fn a_snapshot_never_sees_a_later_write(
        which in 0usize..5,
        history in arb_ops(),
        later in arb_ops(),
    ) {
        let flavours = [&MONOTONE, &NEGATED, &NEGATED_CONSTRAINT, &AGGREGATED, &GENERATING];
        snapshot_is_a_value(flavours[which], &history, &later);
    }
}

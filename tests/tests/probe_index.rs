//! An indexed probe finds exactly what a full scan finds.
//!
//! `Engine::for_each_solution` reaches a relation through a hash of the key
//! columns, and a closed quote pattern is such a column; the matcher
//! (`Bindings::match_tuple`) is what says whether a tuple matches. Over
//! random stored tuples — quotes with key arguments, nested quotes, code
//! variables, bodies, mixed arity — and random atoms and environments —
//! closed and open patterns, `T*`, `A*`, functor variables, variables
//! bound to values, to quotes and to code — the bindings a literal
//! produces must be the matcher's over every tuple, in insertion order:
//! with a cold index and a warm one, after inserts the index has to
//! absorb, after `remove_tuples` re-packs the positions, with and without
//! a delta window. The literal's negation must hold exactly when that
//! list is empty.

use lbtrust_datalog::ast::{Atom, BodyItem, Rule, Term};
use lbtrust_datalog::unify::{Binding, Bindings};
use lbtrust_datalog::{parse_rule, Builtins, Database, Engine, Symbol, Value};
use proptest::prelude::*;
use std::collections::HashSet;
use std::ops::ControlFlow;

/// Quoted rules a stored tuple may carry. Neighbours differ in exactly
/// the ways a hash of the wrong view confuses or separates.
const STORED: &[&str] = &[
    "p(a,b).",
    "p[a](b).",
    "p(b,a).",
    "p(a,c).",
    "q(a,b).",
    "p(a).",
    "p(a) <- q(a).",
    "p(b) <- q(b).",
    "p(X) <- q(X).",
    "p(a) <- q(a), r(b).",
    "p(a) <- q(a), a != b.",
    "p(a) <- !q(a).",
    "p(c,[| q(a,b). |]).",
    "p(c,[| q[a](b). |]).",
    "p(c,[| q(b,a). |]).",
    "p(a,X).",
];

/// Arguments of the probing atom: constants, variables, quote patterns.
const ARGS: &[&str] = &[
    "a",
    "b",
    "X",
    "Y",
    "R",
    "[| p(a,b). |]",
    "[| p(X,Y). |]",
    "[| p[X](Y). |]",
    "[| p(X,b). |]",
    "[| p(X) <- q(X). |]",
    "[| p(X) <- q(Y). |]",
    "[| p(X) <- q(X), Y != b. |]",
    "[| p(X) <- !q(X). |]",
    "[| p(c,[| q(X,Y). |]). |]",
    "[| p(c,R). |]",
    "[| p(X,R). |]",
    "[| P(T*) <- A*. |]",
    "[| p(T*). |]",
    "[| p(X,T*). |]",
    "[| A <- q(X), A*. |]",
    "[| p(X) <- A*. |]",
    "[| F(X,Y). |]",
    "[| A <- q(a). |]",
];

fn quoted(src: &str) -> Value {
    let holder = parse_rule(&format!("holder([| {src} |]).")).unwrap();
    match &holder.heads[0].args[0] {
        Term::Quote(rule) => Value::Quote(rule.clone()),
        other => panic!("expected a quote, got {other}"),
    }
}

/// A stored value: below `STORED.len()` a quote, above it a symbol.
fn stored_value(choice: usize) -> Value {
    match STORED.get(choice) {
        Some(src) => quoted(src),
        None => Value::sym(["a", "b", "c"][(choice - STORED.len()) % 3]),
    }
}

fn tuple_of(choices: &[usize]) -> Vec<Value> {
    choices.iter().map(|&c| stored_value(c)).collect()
}

/// What a variable of the probing atom is bound to: nothing, a symbol, a
/// quote, or a variable of the code it matched.
fn bind(env: &mut Bindings, var: &str, choice: usize) {
    let binding = match choice {
        0 | 1 => return,
        2 => Binding::Val(Value::sym("a")),
        3 => Binding::Val(Value::sym("b")),
        4 => Binding::CodeTerm(Term::var("X")),
        n => Binding::Val(stored_value(n - 5)),
    };
    assert!(env.insert(Symbol::intern(var), binding));
}

/// One probe: the atom's arguments, the environment, the window start.
type Probe = (Vec<usize>, (usize, usize, usize), usize);

fn arb_tuples(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0..STORED.len() + 3, 1..4), n)
}

fn arb_probes() -> impl Strategy<Value = Vec<Probe>> {
    prop::collection::vec(
        (
            prop::collection::vec(0..ARGS.len(), 1..4),
            (0usize..5, 0usize..5, 0..STORED.len() + 5),
            0usize..40,
        ),
        1..12,
    )
}

/// Checks every probe against `db`'s relation `r`, by scan and by index.
fn check(db: &Database, probes: &[Probe]) {
    let rel = db.relation(Symbol::intern("r")).expect("relation r");
    let builtins = Builtins::new();
    for (args, (x, y, r), from) in probes {
        let args: Vec<&str> = args.iter().map(|&a| ARGS[a]).collect();
        let src = format!("h() <- r({}).", args.join(","));
        let positive = parse_rule(&src).unwrap();
        let atom: Atom = positive.body[0].atom().unwrap().clone();
        let mut env = Bindings::new();
        bind(&mut env, "X", *x);
        bind(&mut env, "Y", *y);
        bind(&mut env, "R", *r);
        let from = from % (rel.end() + 2);

        let scan = |from: usize| -> Vec<Bindings> {
            rel.since(from)
                .flat_map(|tuple| {
                    (env.clone()).solutions(|env, visit| env.match_tuple(&atom, tuple, visit))
                })
                .collect()
        };
        let engine = Engine::new(std::slice::from_ref(&positive), &builtins);
        let solve = |rule: &Rule, window| -> Result<Vec<Bindings>, _> {
            let mut found = Vec::new();
            engine
                .for_each_solution(rule, db, &mut env.clone(), window, &mut |env| {
                    found.push(env.clone());
                    Ok(ControlFlow::Continue(()))
                })
                .map(|_| found)
        };
        for window in [None, Some((0, from))] {
            let indexed = solve(&positive, window).unwrap();
            let expected = scan(window.map_or(0, |(_, from)| from));
            assert_eq!(indexed, expected, "{src} under {env:?}, window {window:?}");
        }

        let negative = Rule::new(positive.heads[0].clone(), vec![BodyItem::neg(atom.clone())]);
        // An unbound variable outside a quote is an error, not an answer.
        if let Ok(holds) = solve(&negative, None) {
            assert_eq!(
                !holds.is_empty(),
                scan(0).is_empty(),
                "!{atom} under {env:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn indexed_probe_equals_full_scan(
        first in arb_tuples(0..24),
        later in arb_tuples(0..8),
        doomed in prop::collection::vec(0usize..32, 0..6),
        probes in arb_probes(),
    ) {
        let r = Symbol::intern("r");
        let mut db = Database::new();
        db.relation_mut(r);
        for choices in &first {
            db.insert(r, tuple_of(choices));
        }
        // Cold indices, then warm ones.
        check(&db, &probes);
        check(&db, &probes);
        // Inserts the warm indices have to absorb.
        for choices in &later {
            db.insert(r, tuple_of(choices));
        }
        check(&db, &probes);
        // A removal takes positions out of every bucket (and re-packs
        // once as many are dead as live).
        let rel = db.relation(r).unwrap();
        let doomed: HashSet<Vec<Value>> = doomed
            .iter()
            .filter(|_| !rel.is_empty())
            .map(|&pos| rel.iter().nth(pos % rel.len()).expect("in range").clone())
            .collect();
        let removed = db.relation_mut(r).remove_tuples(&doomed);
        prop_assert_eq!(removed, doomed.len());
        check(&db, &probes);
        for choices in &later {
            db.insert(r, tuple_of(choices));
        }
        check(&db, &probes);
    }
}

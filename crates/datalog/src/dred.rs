//! Incremental deletion: the delete-and-rederive (DRed) algorithm.
//!
//! §3.1 of the paper: "When predicate data is modified, the active rules
//! are incrementally recomputed" — including removals. DRed (Gupta,
//! Mumick, Subrahmanian) handles deletion in three phases:
//!
//! 1. **Over-delete**: mark everything transitively derived *using* a
//!    deleted tuple (an over-approximation — alternative derivations are
//!    ignored for now);
//! 2. **Remove** the marked tuples;
//! 3. **Re-derive**: tuples with surviving alternative derivations are
//!    put back, and their consequences propagate semi-naively.
//!
//! Supported fragment: positive rules (builtins and comparisons allowed).
//! Callers with negation or aggregation fall back to full recomputation —
//! the same policy the incremental-addition path uses.

use crate::ast::{BodyItem, Rule};
use crate::builtins::Builtins;
use crate::db::{Database, Tuple};
use crate::eval::{Engine, EvalError, EvalStats};
use crate::intern::Symbol;
use crate::unify::Bindings;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

/// Outcome counters for one retraction.
#[derive(Clone, Copy, Debug, Default)]
pub struct DredStats {
    /// Tuples removed in the over-deletion phase (including the
    /// retracted ones).
    pub overdeleted: usize,
    /// Tuples restored by re-derivation.
    pub rederived: usize,
    /// Relations the removal re-packed: the only ones in which a tuple
    /// moved (see [`crate::db::Relation`]).
    pub repacks: usize,
    /// Underlying evaluation statistics from the propagation phase.
    pub eval: EvalStats,
}

/// The tuples a repair took out of each relation and did not put back.
pub type Removed = HashMap<Symbol, Vec<Tuple>>;

/// Retracts `retracted` base tuples from `db` and incrementally repairs
/// every derived conclusion. `rules` must be free of negation and
/// aggregation (callers check and fall back to full recomputation).
pub fn retract(
    rules: &[Rule],
    db: &mut Database,
    builtins: &Builtins,
    retracted: &[(Symbol, Tuple)],
) -> Result<DredStats, EvalError> {
    retract_with(&Engine::new(rules, builtins), db, retracted).map(|(stats, _)| stats)
}

/// [`retract`] over a prepared engine (a compiled rule set keeps its
/// strata across repairs), also reporting what the repair removed so the
/// caller can re-check only what could depend on it.
pub fn retract_with(
    engine: &Engine<'_>,
    db: &mut Database,
    retracted: &[(Symbol, Tuple)],
) -> Result<(DredStats, Removed), EvalError> {
    let rules = engine.rules();
    if let Some(rule) = rules.iter().find(|r| r.is_non_monotonic()) {
        return Err(EvalError::TypeError {
            message: format!(
                "DRed requires a positive program; rule uses negation/aggregation: {rule}"
            ),
        });
    }

    // Phase 1: over-delete. `doomed` answers membership; `order` keeps
    // each predicate's doomed tuples in the order they were doomed,
    // predicates in first-doomed order, so what is re-derived first (and
    // so where it lands in its relation) and what is reported do not
    // depend on the process's hash seed.
    let mut doomed: HashMap<Symbol, HashSet<Tuple>> = HashMap::new();
    let mut order: Vec<(Symbol, Vec<Tuple>)> = Vec::new();
    let mut doom = |pred: Symbol, tuple: &Tuple| {
        if !doomed.entry(pred).or_default().insert(tuple.clone()) {
            return false;
        }
        match order.iter_mut().find(|(p, _)| *p == pred) {
            Some((_, tuples)) => tuples.push(tuple.clone()),
            None => order.push((pred, vec![tuple.clone()])),
        }
        true
    };
    let mut frontier: Vec<(Symbol, Tuple)> = Vec::new();
    for (pred, tuple) in retracted {
        if db.contains(*pred, tuple) && doom(*pred, tuple) {
            frontier.push((*pred, tuple.clone()));
        }
    }
    while let Some((pred, tuple)) = frontier.pop() {
        for rule in rules {
            for (idx, item) in rule.body.iter().enumerate() {
                let BodyItem::Lit {
                    negated: false,
                    atom,
                } = item
                else {
                    continue;
                };
                if atom.pred.name() != Some(pred) {
                    continue;
                }
                // Consequences of this rule with body literal `idx`
                // pinned to the doomed tuple (other literals evaluated
                // against the pre-deletion database, per DRed).
                for (head_pred, head_tuple) in eval_rule_pinned(engine, rule, db, idx, &tuple)? {
                    if db.contains(head_pred, &head_tuple) && doom(head_pred, &head_tuple) {
                        frontier.push((head_pred, head_tuple));
                    }
                }
            }
        }
    }

    // Phase 2: remove. A removal that re-packs is the one that lowers
    // the relation's next position.
    let mut stats = DredStats::default();
    for (pred, tuples) in &doomed {
        let rel = db.relation_mut(*pred);
        let end = rel.end();
        stats.overdeleted += rel.remove_tuples(tuples);
        stats.repacks += usize::from(rel.end() < end);
    }

    // Phase 3: re-derive. A doomed tuple survives if some rule instance
    // still concludes it from the post-deletion database.
    let mut seeds: Vec<(Symbol, usize)> = Vec::new();
    for (pred, tuples) in &order {
        let mark = db.end(*pred);
        let before = stats.rederived;
        for tuple in tuples {
            if rederivable(engine, rules, db, *pred, tuple)? && db.insert(*pred, tuple.clone()) {
                stats.rederived += 1;
            }
        }
        if stats.rederived > before {
            seeds.push((*pred, mark));
        }
    }
    if !seeds.is_empty() {
        stats.eval = engine.run_incremental(db, &seeds)?;
        stats.rederived += stats.eval.derived;
    }
    let mut removed = Removed::new();
    for (pred, mut gone) in order {
        gone.retain(|t| !db.contains(pred, t));
        if !gone.is_empty() {
            removed.insert(pred, gone);
        }
    }
    Ok((stats, removed))
}

/// Evaluates `rule` with body literal `idx` restricted to exactly
/// `tuple`, returning the concluded head tuples.
fn eval_rule_pinned(
    engine: &Engine<'_>,
    rule: &Rule,
    db: &Database,
    idx: usize,
    tuple: &[crate::value::Value],
) -> Result<Vec<(Symbol, Tuple)>, EvalError> {
    let mut out = Vec::new();
    let visit_all = engine.for_each_pinned(rule, db, idx, tuple, &mut |env| {
        for head in &rule.heads {
            let pred = head.pred.name().expect("positive program");
            let head_tuple: Option<Tuple> = head.all_args().map(|t| env.resolve(t)).collect();
            if let Some(t) = head_tuple {
                out.push((pred, t));
            }
        }
        Ok(ControlFlow::Continue(()))
    });
    visit_all.map(|_| out)
}

/// Whether some rule instance still concludes `pred(tuple)` over the
/// current database: the search ends at the first one.
fn rederivable(
    engine: &Engine<'_>,
    rules: &[Rule],
    db: &Database,
    pred: Symbol,
    tuple: &[crate::value::Value],
) -> Result<bool, EvalError> {
    for rule in rules {
        for head in &rule.heads {
            if head.pred.name() != Some(pred) || head.arity() != tuple.len() {
                continue;
            }
            // A fact-rule survives if it concludes exactly this tuple.
            if rule.body.is_empty() && !head.is_ground() {
                continue;
            }
            let found = &mut |_: &mut Bindings| Ok(ControlFlow::Break(()));
            if engine
                .for_each_proof(rule, head, tuple, db, found)?
                .is_break()
            {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::value::Value;

    const TC: &str = "reach(X,Y) <- edge(X,Y).\nreach(X,Z) <- reach(X,Y), edge(Y,Z).";

    fn edge(a: &str, b: &str) -> Tuple {
        vec![Value::sym(a), Value::sym(b)]
    }

    fn setup(edges: &[(&str, &str)]) -> (Vec<Rule>, Database, Builtins) {
        let program = parse_program(TC).unwrap();
        let builtins = Builtins::new();
        let mut db = Database::new();
        let edge_p = Symbol::intern("edge");
        for (a, b) in edges {
            db.insert(edge_p, edge(a, b));
        }
        Engine::new(&program.rules, &builtins).run(&mut db).unwrap();
        (program.rules, db, builtins)
    }

    /// Reference: full recomputation over the reduced edge set.
    fn reference(edges: &[(&str, &str)]) -> Database {
        let program = parse_program(TC).unwrap();
        let builtins = Builtins::new();
        let mut db = Database::new();
        let edge_p = Symbol::intern("edge");
        for (a, b) in edges {
            db.insert(edge_p, edge(a, b));
        }
        Engine::new(&program.rules, &builtins).run(&mut db).unwrap();
        db
    }

    fn same_reach(a: &Database, b: &Database) -> bool {
        let reach = Symbol::intern("reach");
        if a.count(reach) != b.count(reach) {
            return false;
        }
        a.relation(reach)
            .map(|r| r.iter().all(|t| b.contains(reach, t)))
            .unwrap_or(true)
    }

    #[test]
    fn chain_break_removes_downstream() {
        let (rules, mut db, builtins) = setup(&[("a", "b"), ("b", "c"), ("c", "d")]);
        let edge_p = Symbol::intern("edge");
        let stats = retract(&rules, &mut db, &builtins, &[(edge_p, edge("b", "c"))]).unwrap();
        assert!(stats.overdeleted > 0);
        let expected = reference(&[("a", "b"), ("c", "d")]);
        assert!(same_reach(&db, &expected), "reach mismatch after retract");
    }

    #[test]
    fn alternative_path_rederives() {
        // Two paths a->c: direct and through b. Deleting the direct edge
        // must keep reach(a,c) via re-derivation.
        let (rules, mut db, builtins) = setup(&[("a", "b"), ("b", "c"), ("a", "c")]);
        let edge_p = Symbol::intern("edge");
        let stats = retract(&rules, &mut db, &builtins, &[(edge_p, edge("a", "c"))]).unwrap();
        assert!(stats.rederived > 0, "reach(a,c) must be re-derived");
        assert!(db.contains(Symbol::intern("reach"), &edge("a", "c")));
        let expected = reference(&[("a", "b"), ("b", "c")]);
        assert!(same_reach(&db, &expected));
    }

    #[test]
    fn cycle_deletion() {
        let (rules, mut db, builtins) = setup(&[("a", "b"), ("b", "c"), ("c", "a")]);
        let edge_p = Symbol::intern("edge");
        retract(&rules, &mut db, &builtins, &[(edge_p, edge("c", "a"))]).unwrap();
        let expected = reference(&[("a", "b"), ("b", "c")]);
        assert!(same_reach(&db, &expected));
    }

    #[test]
    fn retract_absent_tuple_is_noop() {
        let (rules, mut db, builtins) = setup(&[("a", "b")]);
        let before = db.total_tuples();
        let stats = retract(
            &rules,
            &mut db,
            &builtins,
            &[(Symbol::intern("edge"), edge("x", "y"))],
        )
        .unwrap();
        assert_eq!(stats.overdeleted, 0);
        assert_eq!(db.total_tuples(), before);
    }

    #[test]
    fn multiple_retractions_at_once() {
        let (rules, mut db, builtins) = setup(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]);
        let edge_p = Symbol::intern("edge");
        retract(
            &rules,
            &mut db,
            &builtins,
            &[(edge_p, edge("a", "b")), (edge_p, edge("c", "d"))],
        )
        .unwrap();
        let expected = reference(&[("b", "c"), ("d", "e")]);
        assert!(same_reach(&db, &expected));
    }

    #[test]
    fn rederivation_asks_for_one_proof_not_all() {
        // Fifty ways to conclude r(a), each through the builtin `seen`.
        let program = parse_program("r(X) <- q(X,Y), seen(Y).").unwrap();
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut builtins = Builtins::new();
        let counter = calls.clone();
        builtins.register("seen", 1, move |args| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(vec![vec![args[0].clone().expect("bound by q")]])
        });
        let mut db = Database::new();
        for i in 0..50 {
            db.insert(Symbol::intern("q"), vec![Value::sym("a"), Value::Int(i)]);
        }
        let engine = Engine::new(&program.rules, &builtins);
        let r = Symbol::intern("r");
        assert!(rederivable(&engine, &program.rules, &db, r, &[Value::sym("a")]).unwrap());
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(!rederivable(&engine, &program.rules, &db, r, &[Value::sym("b")]).unwrap());
    }

    #[test]
    fn negation_rejected() {
        let program = parse_program("p(X) <- q(X), !r(X).").unwrap();
        let builtins = Builtins::new();
        let mut db = Database::new();
        let err = retract(
            &program.rules,
            &mut db,
            &builtins,
            &[(Symbol::intern("q"), vec![Value::sym("a")])],
        );
        assert!(err.is_err());
    }
}

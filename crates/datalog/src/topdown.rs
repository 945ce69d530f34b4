//! Tabled top-down (goal-directed) resolution.
//!
//! "Most practical access control languages, including Binder, utilize a
//! top-down (or backward-chaining) evaluation strategy. Specific requests
//! are made as goals, which are then resolved against the security
//! policies, hence minimizing the disclosure of sensitive information"
//! (§5.1 of the paper). This module provides that strategy directly: an
//! OLDT-style resolver that memoizes answers per subgoal call pattern and
//! iterates to fixpoint, so recursive policies (delegation chains,
//! reachability) terminate.
//!
//! Supported fragment: single-head rules; negation only on predicates
//! without rules (EDB), fully bound at evaluation time; builtins and
//! comparisons; no aggregation.

use crate::ast::{Atom, BodyItem, PredRef, Rule};
use crate::builtins::Builtins;
use crate::db::{Database, ProbeKey, Tuple};
use crate::eval::{matches_any, probe, Engine, EvalError};
use crate::intern::Symbol;
use crate::unify::Bindings;
use crate::value::Value;

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

/// A memo-table key: the predicate plus its bound-argument pattern.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct CallKey {
    pred: Symbol,
    pattern: Vec<Option<Value>>,
}

/// Statistics from a top-down query (for the ablation harness).
#[derive(Clone, Copy, Debug, Default)]
pub struct TopdownStats {
    /// Distinct subgoal call patterns tabled.
    pub calls: usize,
    /// Fixpoint passes over the call table.
    pub passes: usize,
    /// Total answers across all tables.
    pub answers: usize,
}

/// Resolves `query` against `rules` and the extensional `db`, returning
/// all matching tuples of the query predicate.
pub fn query_topdown(
    rules: &[Rule],
    db: &Database,
    query: &Atom,
    builtins: &Builtins,
) -> Result<(Vec<Tuple>, TopdownStats), EvalError> {
    let mut solver = Solver {
        rules,
        db,
        builtins,
        // Reuse the bottom-up engine's expression/compare machinery for
        // builtins via a tiny embedded engine below.
        tables: HashMap::new(),
        stats: TopdownStats::default(),
    };
    let key = solver.call_key(query, &Bindings::new());
    solver.solve_to_fixpoint(key.clone())?;
    let answers = solver.tables[&key].iter().cloned().collect();
    let mut stats = solver.stats;
    stats.calls = solver.tables.len();
    stats.answers = solver.tables.values().map(HashSet::len).sum();
    Ok((answers, stats))
}

struct Solver<'a> {
    rules: &'a [Rule],
    db: &'a Database,
    builtins: &'a Builtins,
    tables: HashMap<CallKey, HashSet<Tuple>>,
    stats: TopdownStats,
}

impl<'a> Solver<'a> {
    fn call_key(&self, atom: &Atom, env: &Bindings) -> CallKey {
        CallKey {
            pred: atom.pred.name().expect("concrete goal"),
            pattern: atom.all_args().map(|t| env.resolve(t)).collect(),
        }
    }

    /// Ensures `root` and every subgoal it reaches are tabled, iterating
    /// until no table grows (naive tabling fixpoint — sound and complete
    /// for stratified-free positive Datalog).
    fn solve_to_fixpoint(&mut self, root: CallKey) -> Result<(), EvalError> {
        self.tables.entry(root.clone()).or_default();
        loop {
            self.stats.passes += 1;
            // Progress means either a table grew or a new subgoal table
            // appeared (it still needs its first resolution pass).
            let before = (
                self.tables.len(),
                self.tables.values().map(HashSet::len).sum::<usize>(),
            );
            // Snapshot keys: new subgoals found during a pass are resolved
            // in the next pass.
            let keys: Vec<CallKey> = self.tables.keys().cloned().collect();
            for key in keys {
                self.resolve_call(&key)?;
            }
            let after = (
                self.tables.len(),
                self.tables.values().map(HashSet::len).sum::<usize>(),
            );
            if after == before {
                return Ok(());
            }
        }
    }

    /// One resolution pass for a single tabled call.
    fn resolve_call(&mut self, key: &CallKey) -> Result<(), EvalError> {
        // EDB answers.
        let mut found: Vec<Tuple> = Vec::new();
        if let Some(rel) = self.db.relation(key.pred) {
            let mut bound = ProbeKey::new(key.pattern.len());
            for (col, slot) in key.pattern.iter().enumerate() {
                if let Some(value) = slot {
                    bound.bind(col, value);
                }
            }
            let _ = rel.probe(&bound, 0, |tuple| {
                if pattern_matches(&key.pattern, tuple) {
                    found.push(tuple.clone());
                }
                ControlFlow::Continue(())
            });
        }
        // Rule answers.
        let matching: Vec<&Rule> = self
            .rules
            .iter()
            .filter(|r| r.heads.len() == 1 && r.heads[0].pred.name() == Some(key.pred))
            .collect();
        for rule in matching {
            if rule.agg.is_some() {
                return Err(EvalError::TypeError {
                    message: format!("top-down evaluation does not support aggregation: {rule}"),
                });
            }
            let head = &rule.heads[0];
            if head.arity() != key.pattern.len() {
                continue;
            }
            // Unify the call pattern with the head.
            let mut env = Bindings::new();
            let mut ok = true;
            for (term, slot) in head.all_args().zip(key.pattern.iter()) {
                if let Some(v) = slot {
                    let extensions = env.match_value(term, v);
                    match extensions.into_iter().next() {
                        Some(next) => env = next,
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if !ok {
                continue;
            }
            // Resolve the body left to right.
            let envs = self.solve_body(rule, &rule.body, vec![env])?;
            for env in envs {
                let tuple: Option<Tuple> = head.all_args().map(|t| env.resolve(t)).collect();
                if let Some(t) = tuple {
                    if pattern_matches(&key.pattern, &t) {
                        found.push(t);
                    }
                }
            }
        }
        let table = self.tables.get_mut(key).expect("registered");
        for t in found {
            table.insert(t);
        }
        Ok(())
    }

    fn solve_body(
        &mut self,
        rule: &Rule,
        body: &[BodyItem],
        mut envs: Vec<Bindings>,
    ) -> Result<Vec<Bindings>, EvalError> {
        for item in body {
            if envs.is_empty() {
                break;
            }
            match item {
                BodyItem::Lit {
                    negated: false,
                    atom,
                } => {
                    let pred = match atom.pred {
                        PredRef::Name(p) => p,
                        PredRef::Var(_) => {
                            return Err(EvalError::PatternRule {
                                rule: rule.to_string(),
                            })
                        }
                    };
                    if self.builtins.contains(pred) {
                        let mut next = Vec::new();
                        for env in &envs {
                            let args: Vec<Option<Value>> =
                                atom.all_args().map(|t| env.resolve(t)).collect();
                            let tuples = self
                                .builtins
                                .invoke(pred, &args)
                                .expect("checked contains")?;
                            for tuple in tuples {
                                next.extend(env.match_tuple(atom, &tuple));
                            }
                        }
                        envs = next;
                    } else if self.has_rules(pred) {
                        // Tabled subgoal.
                        let mut next = Vec::new();
                        for env in &envs {
                            let key = self.call_key(atom, env);
                            let answers: Vec<Tuple> = self
                                .tables
                                .entry(key)
                                .or_default()
                                .iter()
                                .cloned()
                                .collect();
                            for t in answers {
                                next.extend(env.match_tuple(atom, &t));
                            }
                        }
                        envs = next;
                    } else {
                        // Pure EDB.
                        let mut next = Vec::new();
                        if let Some(rel) = self.db.relation(pred) {
                            for env in &envs {
                                probe(rel, atom, env, 0, &mut next);
                            }
                        }
                        envs = next;
                    }
                }
                BodyItem::Lit {
                    negated: true,
                    atom,
                } => {
                    let pred = atom.pred.name().ok_or_else(|| EvalError::PatternRule {
                        rule: rule.to_string(),
                    })?;
                    if self.has_rules(pred) {
                        return Err(EvalError::TypeError {
                            message: format!(
                                "top-down evaluation only negates EDB predicates: {rule}"
                            ),
                        });
                    }
                    let rel = self.db.relation(pred);
                    envs.retain(|env| {
                        atom.all_args().all(|t| env.resolve(t).is_some())
                            && !rel.is_some_and(|rel| matches_any(rel, atom, env))
                    });
                }
                BodyItem::Cmp { .. } => {
                    // Delegate comparison semantics to the bottom-up
                    // engine's item evaluator via a throwaway instance.
                    let engine = Engine::new(std::slice::from_ref(rule), self.builtins);
                    let empty = Database::new();
                    envs = engine.eval_single_item(rule, item, envs, &empty)?;
                }
                BodyItem::Rest(_) => {
                    return Err(EvalError::PatternRule {
                        rule: rule.to_string(),
                    })
                }
            }
        }
        Ok(envs)
    }

    fn has_rules(&self, pred: Symbol) -> bool {
        self.rules
            .iter()
            .any(|r| r.heads.iter().any(|h| h.pred.name() == Some(pred)))
    }
}

fn pattern_matches(pattern: &[Option<Value>], tuple: &[Value]) -> bool {
    pattern.len() == tuple.len()
        && pattern
            .iter()
            .zip(tuple.iter())
            .all(|(p, v)| p.as_ref().is_none_or(|pv| pv == v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_atom, parse_program};

    fn edb(pairs: &[(&str, &[&str])]) -> Database {
        let mut db = Database::new();
        for (pred, tuple) in pairs {
            db.insert(
                Symbol::intern(pred),
                tuple.iter().map(|v| Value::sym(v)).collect(),
            );
        }
        db
    }

    #[test]
    fn simple_goal() {
        let program = parse_program("grant(P,O) <- owns(P,O).").unwrap();
        let db = edb(&[("owns", &["alice", "f1"][..]), ("owns", &["bob", "f2"][..])]);
        let query = parse_atom("grant(alice, X)").unwrap();
        let (answers, _) = query_topdown(&program.rules, &db, &query, &Builtins::new()).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0][1], Value::sym("f1"));
    }

    #[test]
    fn recursive_goal_terminates() {
        let program = parse_program(
            "reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- edge(X,Y), reach(Y,Z).",
        )
        .unwrap();
        // A cycle: a -> b -> c -> a.
        let db = edb(&[
            ("edge", &["a", "b"][..]),
            ("edge", &["b", "c"][..]),
            ("edge", &["c", "a"][..]),
        ]);
        let query = parse_atom("reach(a, X)").unwrap();
        let (answers, stats) =
            query_topdown(&program.rules, &db, &query, &Builtins::new()).unwrap();
        let mut got: Vec<String> = answers.iter().map(|t| t[1].to_string()).collect();
        got.sort();
        assert_eq!(got, vec!["a", "b", "c"]);
        assert!(stats.passes >= 2);
    }

    #[test]
    fn matches_bottom_up() {
        let program = parse_program(
            "access(P,O,M) <- owns(P,O), mode(M).\n\
             access(P,O,M) <- delegated(Q,P), access(Q,O,M).",
        )
        .unwrap();
        let db = edb(&[
            ("owns", &["alice", "f1"][..]),
            ("mode", &["read"][..]),
            ("delegated", &["alice", "carol"][..]),
            ("delegated", &["carol", "dave"][..]),
        ]);
        let builtins = Builtins::new();
        let mut full = db.clone();
        Engine::new(&program.rules, &builtins)
            .run(&mut full)
            .unwrap();
        let query = parse_atom("access(dave, X, Y)").unwrap();
        let (answers, _) = query_topdown(&program.rules, &db, &query, &builtins).unwrap();
        let expected: Vec<&Tuple> = full
            .relation(Symbol::intern("access"))
            .unwrap()
            .iter()
            .filter(|t| t[0] == Value::sym("dave"))
            .collect();
        assert_eq!(answers.len(), expected.len());
        for t in expected {
            assert!(answers.contains(t));
        }
    }

    #[test]
    fn comparison_in_body() {
        let program = parse_program("bigpair(X,Y) <- n(X), n(Y), X != Y.").unwrap();
        let mut db = Database::new();
        for v in ["a", "b"] {
            db.insert(Symbol::intern("n"), vec![Value::sym(v)]);
        }
        let query = parse_atom("bigpair(X, Y)").unwrap();
        let (answers, _) = query_topdown(&program.rules, &db, &query, &Builtins::new()).unwrap();
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn negated_edb() {
        let program = parse_program("ok(X) <- candidate(X), !banned(X).").unwrap();
        let db = edb(&[
            ("candidate", &["a"][..]),
            ("candidate", &["b"][..]),
            ("banned", &["b"][..]),
        ]);
        let query = parse_atom("ok(X)").unwrap();
        let (answers, _) = query_topdown(&program.rules, &db, &query, &Builtins::new()).unwrap();
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn negated_idb_rejected() {
        let program = parse_program(
            "p(X) <- q(X), !r(X).\n\
             r(X) <- s(X).",
        )
        .unwrap();
        let db = edb(&[("q", &["a"][..])]);
        let query = parse_atom("p(X)").unwrap();
        assert!(query_topdown(&program.rules, &db, &query, &Builtins::new()).is_err());
    }

    #[test]
    fn ground_goal_yes_no() {
        let program = parse_program(
            "reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- edge(X,Y), reach(Y,Z).",
        )
        .unwrap();
        let db = edb(&[("edge", &["a", "b"][..]), ("edge", &["b", "c"][..])]);
        let builtins = Builtins::new();
        let (yes, _) = query_topdown(
            &program.rules,
            &db,
            &parse_atom("reach(a, c)").unwrap(),
            &builtins,
        )
        .unwrap();
        assert_eq!(yes.len(), 1);
        let (no, _) = query_topdown(
            &program.rules,
            &db,
            &parse_atom("reach(c, a)").unwrap(),
            &builtins,
        )
        .unwrap();
        assert!(no.is_empty());
    }
}

//! Constraint checking: schema constraints and meta-constraints.
//!
//! A constraint `F1 -> F2.` means `fail() <- F1, !(F2).` (§3.2 of the
//! paper): evaluation fails if some binding satisfies the premise but no
//! extension of it satisfies the requirement. *Meta*-constraints are the
//! same mechanism with premises over the meta-model (and quote patterns),
//! checked when rules are installed; ordinary constraints are checked
//! after each fixpoint.

use lbtrust_datalog::ast::{Atom, BodyItem, Constraint, Formula, Rule, Term};
use lbtrust_datalog::dred::Removed;
use lbtrust_datalog::eval::{Engine, EvalError, Solved};
use lbtrust_datalog::{Bindings, Builtins, Database, Symbol};
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;

/// A constraint violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The violated constraint, printed.
    pub constraint: String,
    /// The premise bindings that had no satisfying requirement, printed
    /// compactly.
    pub witness: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "constraint violated: {} (witness: {})",
            self.constraint, self.witness
        )
    }
}

impl std::error::Error for Violation {}

/// Errors from constraint checking: either a genuine violation or an
/// evaluation problem (unbound variables, bad builtin use, …).
#[derive(Debug)]
pub enum CheckError {
    /// The constraint is violated.
    Violation(Box<Violation>),
    /// Evaluation failed while checking.
    Eval(EvalError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Violation(v) => write!(f, "{v}"),
            CheckError::Eval(e) => write!(f, "constraint check failed to evaluate: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<EvalError> for CheckError {
    fn from(e: EvalError) -> Self {
        CheckError::Eval(e)
    }
}

/// How much of the database a check has to cover.
#[derive(Clone, Copy, Debug)]
pub enum Scope<'a> {
    /// Every premise binding of every constraint.
    Full,
    /// The database held every constraint before it changed, and has
    /// since only gained the tuples at positions `>= grown[pred]` and
    /// lost the tuples in `removed`. A constraint without negation is
    /// monotone in the database, so only premise bindings that use a
    /// gained tuple, or whose requirement could have used a lost one,
    /// can be new violations; any other constraint is checked in full.
    Delta {
        /// First new position per grown relation (the engine's
        /// [`Engine::run_delta`] windows).
        grown: &'a HashMap<Symbol, usize>,
        /// Tuples a DRed repair removed, per relation.
        removed: &'a Removed,
    },
}

/// Constraints compiled once for repeated checking: each with the
/// carrier rule that gives the engine's item evaluator its context and,
/// where its shape allows, the plan for a [`Scope::Delta`] check.
#[derive(Debug, Default)]
pub struct ConstraintSet {
    checks: Vec<Check>,
}

#[derive(Debug)]
struct Check {
    constraint: Constraint,
    /// `<- premise.`
    carrier: Rule,
    /// `None` when the constraint is not monotone (negation, a pattern
    /// construct at the top level) and so is always checked in full.
    delta: Option<DeltaPlan>,
}

/// What a delta-scoped check of one positive constraint visits.
#[derive(Debug)]
struct DeltaPlan {
    /// `(body position, predicate)` of every premise literal.
    premise: Vec<(usize, Symbol)>,
    /// The literals of the requirement.
    required: Vec<Atom>,
    /// The premise's variables: a binding pinned to a removed tuple is
    /// projected onto these, because the requirement's other variables
    /// are existential and must stay free to find another witness.
    vars: Vec<Symbol>,
}

impl DeltaPlan {
    fn of(carrier: &Rule, requires: &Formula) -> Option<DeltaPlan> {
        fn positive_literals(formula: &Formula, out: &mut Vec<Atom>) -> bool {
            match formula {
                Formula::Item(BodyItem::Lit {
                    negated: false,
                    atom,
                }) => {
                    out.push(atom.clone());
                    atom.pred.name().is_some()
                        && !atom.all_args().any(|t| matches!(t, Term::SeqVar(_)))
                }
                Formula::Item(BodyItem::Cmp { .. }) => true,
                Formula::Item(_) | Formula::Not(_) => false,
                Formula::And(parts) | Formula::Or(parts) => {
                    parts.iter().all(|part| positive_literals(part, out))
                }
            }
        }
        if carrier.is_pattern() || carrier.is_non_monotonic() {
            return None;
        }
        let mut required = Vec::new();
        if !positive_literals(requires, &mut required) {
            return None;
        }
        let premise = carrier
            .body
            .iter()
            .enumerate()
            .filter_map(|(idx, item)| match item {
                BodyItem::Lit { atom, .. } => Some((idx, atom.pred.name()?)),
                _ => None,
            })
            .collect();
        Some(DeltaPlan {
            premise,
            required,
            vars: carrier.collect_vars(),
        })
    }
}

impl Check {
    fn new(constraint: Constraint) -> Check {
        // A carrier rule so the engine's item evaluator has rule context
        // for error messages.
        let carrier = Rule {
            heads: Vec::new(),
            body: constraint.body.clone(),
            agg: None,
        };
        Check {
            delta: DeltaPlan::of(&carrier, &constraint.requires),
            constraint,
            carrier,
        }
    }

    fn run(&self, db: &Database, builtins: &Builtins, scope: Scope<'_>) -> Result<(), CheckError> {
        let engine = Engine::new(std::slice::from_ref(&self.carrier), builtins);
        let (Scope::Delta { grown, removed }, Some(plan)) = (scope, &self.delta) else {
            return self.require(&engine, db, &mut Bindings::new(), None);
        };
        // Bindings that use a new tuple: one windowed pass per grown
        // premise literal.
        for &(idx, pred) in &plan.premise {
            match grown.get(&pred) {
                Some(&from) if from < db.end(pred) => {
                    self.require(&engine, db, &mut Bindings::new(), Some((idx, from)))?;
                }
                _ => {}
            }
        }
        // Bindings whose requirement could have rested on a removed
        // tuple: those that agree with it on the premise's variables.
        for atom in &plan.required {
            let lost = atom.pred.name().and_then(|pred| removed.get(&pred));
            for tuple in lost.into_iter().flatten() {
                let mut checked = Ok(());
                let _ = Bindings::new().match_tuple(atom, tuple, &mut |pinned| {
                    let mut start = Bindings::new();
                    for &var in &plan.vars {
                        if let Some(value) = pinned.value(var) {
                            start.bind_value(var, value.clone());
                        }
                    }
                    checked = self.require(&engine, db, &mut start, None);
                    match checked {
                        Ok(()) => ControlFlow::Continue(()),
                        Err(_) => ControlFlow::Break(()),
                    }
                });
                checked?;
            }
        }
        Ok(())
    }

    /// Every premise binding extending `start` (through `window`, if
    /// given) must extend to satisfy the requirement; how is not asked,
    /// so the search for a witness ends at the first.
    fn require(
        &self,
        engine: &Engine<'_>,
        db: &Database,
        start: &mut Bindings,
        window: Option<(usize, usize)>,
    ) -> Result<(), CheckError> {
        let mut violation = None;
        let _ = engine.for_each_solution(&self.carrier, db, start, window, &mut |env| {
            let witnessed = &mut |_: &mut Bindings| Ok(ControlFlow::Break(()));
            let requires = &self.constraint.requires;
            if satisfy(requires, &self.carrier, engine, db, env, witnessed)?.is_break() {
                return Ok(ControlFlow::Continue(()));
            }
            violation = Some(Violation {
                constraint: self.constraint.to_string(),
                witness: describe_env(env),
            });
            Ok(ControlFlow::Break(()))
        })?;
        violation.map_or(Ok(()), |v| Err(CheckError::Violation(Box::new(v))))
    }
}

impl ConstraintSet {
    /// Compiles `constraints`.
    pub fn compile(constraints: impl IntoIterator<Item = Constraint>) -> ConstraintSet {
        ConstraintSet {
            checks: constraints.into_iter().map(Check::new).collect(),
        }
    }

    /// Checks the constraints against `db` as far as `scope` requires.
    /// `builtins` supplies external predicates used in a premise or
    /// requirement; the delta scope relies on their answers being a
    /// function of their arguments.
    pub fn check(
        &self,
        db: &Database,
        builtins: &Builtins,
        scope: Scope<'_>,
    ) -> Result<(), CheckError> {
        self.checks
            .iter()
            .try_for_each(|check| check.run(db, builtins, scope))
    }
}

/// Checks one constraint against a database. `builtins` supplies external
/// predicates used in the premise or requirement.
pub fn check_constraint(
    constraint: &Constraint,
    db: &Database,
    builtins: &Builtins,
) -> Result<(), CheckError> {
    Check::new(constraint.clone()).run(db, builtins, Scope::Full)
}

/// Checks every constraint.
pub fn check_constraints(
    constraints: &[Constraint],
    db: &Database,
    builtins: &Builtins,
) -> Result<(), CheckError> {
    constraints
        .iter()
        .try_for_each(|c| check_constraint(c, db, builtins))
}

/// Visits every extension of `env` satisfying `formula`; `env` is as it
/// was when this returns, so an alternative starts from what the one
/// before it started from.
fn satisfy(
    formula: &Formula,
    carrier: &Rule,
    engine: &Engine<'_>,
    db: &Database,
    env: &mut Bindings,
    visit: &mut Solved<'_>,
) -> Result<ControlFlow<()>, EvalError> {
    match formula {
        Formula::Item(item) => engine.for_each_item(carrier, item, db, env, visit),
        Formula::And(parts) => satisfy_all(parts, carrier, engine, db, env, visit),
        Formula::Or(parts) => {
            for part in parts {
                if satisfy(part, carrier, engine, db, env, visit)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
            Ok(ControlFlow::Continue(()))
        }
        Formula::Not(inner) => {
            // ¬F keeps the environment if F cannot extend it.
            let extended = &mut |_: &mut Bindings| Ok(ControlFlow::Break(()));
            if satisfy(inner, carrier, engine, db, env, extended)?.is_break() {
                Ok(ControlFlow::Continue(()))
            } else {
                visit(env)
            }
        }
    }
}

/// [`satisfy`] for a conjunction: each part under the bindings of those
/// before it.
fn satisfy_all(
    parts: &[Formula],
    carrier: &Rule,
    engine: &Engine<'_>,
    db: &Database,
    env: &mut Bindings,
    visit: &mut Solved<'_>,
) -> Result<ControlFlow<()>, EvalError> {
    match parts.split_first() {
        None => visit(env),
        Some((part, rest)) => satisfy(part, carrier, engine, db, env, &mut |env| {
            satisfy_all(rest, carrier, engine, db, env, visit)
        }),
    }
}

fn describe_env(env: &Bindings) -> String {
    let mut parts: Vec<String> = env
        .iter()
        .map(|(var, seq, binding)| format!("{var}{}={binding:?}", if seq { "*" } else { "" }))
        .collect();
    parts.sort();
    if parts.is_empty() {
        "<no bindings>".to_string()
    } else {
        parts.join(", ")
    }
}

/// Checks the special `fail()` predicate: if any tuple was derived into
/// it, evaluation "fails by terminating with an error" (§3.2).
pub fn check_fail(db: &Database) -> Result<(), CheckError> {
    let fail = lbtrust_datalog::intern::names().fail;
    if db.count(fail) > 0 {
        return Err(CheckError::Violation(Box::new(Violation {
            constraint: "fail()".into(),
            witness: format!("{} fail() derivation(s)", db.count(fail)),
        })));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbtrust_datalog::{parse_program, Symbol, Value};

    fn db_with(facts: &[(&str, &[&str])]) -> Database {
        let mut db = Database::new();
        for (pred, tuple) in facts {
            db.insert(
                Symbol::intern(pred),
                tuple.iter().map(|v| Value::sym(v)).collect(),
            );
        }
        db
    }

    fn constraint(src: &str) -> Constraint {
        parse_program(src).unwrap().constraints.remove(0)
    }

    #[test]
    fn satisfied_constraint_passes() {
        let c = constraint("access(P,O,M) -> principal(P).");
        let db = db_with(&[
            ("access", &["alice", "f", "read"][..]),
            ("principal", &["alice"][..]),
        ]);
        assert!(check_constraint(&c, &db, &Builtins::new()).is_ok());
    }

    #[test]
    fn violated_constraint_reports_witness() {
        let c = constraint("access(P,O,M) -> principal(P).");
        let db = db_with(&[("access", &["mallory", "f", "read"][..])]);
        let err = check_constraint(&c, &db, &Builtins::new()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("mallory"), "witness missing: {text}");
    }

    #[test]
    fn conjunction_requirement() {
        let c = constraint("access(P,O,M) -> principal(P), object(O), mode(M).");
        let db = db_with(&[
            ("access", &["alice", "f", "read"][..]),
            ("principal", &["alice"][..]),
            ("object", &["f"][..]),
        ]);
        // mode(read) missing.
        assert!(check_constraint(&c, &db, &Builtins::new()).is_err());
    }

    #[test]
    fn disjunction_requirement() {
        let c = constraint("p(X) -> q(X); r(X).");
        let db = db_with(&[("p", &["a"][..]), ("r", &["a"][..])]);
        assert!(check_constraint(&c, &db, &Builtins::new()).is_ok());
    }

    #[test]
    fn negated_requirement() {
        let c = constraint("delegation(U,P) -> !revoked(U).");
        let ok = db_with(&[("delegation", &["a", "p"][..])]);
        assert!(check_constraint(&c, &ok, &Builtins::new()).is_ok());
        let bad = db_with(&[("delegation", &["a", "p"][..]), ("revoked", &["a"][..])]);
        assert!(check_constraint(&c, &bad, &Builtins::new()).is_err());
    }

    #[test]
    fn violation_message_is_pinned() {
        // The witness lists the premise's bindings sorted by variable
        // name, whatever order they were bound in, sequence variables
        // under their starred name.
        let c = constraint("access(P,O,M) -> principal(P).");
        let db = db_with(&[("access", &["mallory", "f", "read"][..])]);
        let err = check_constraint(&c, &db, &Builtins::new()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "constraint violated: access(P,O,M) -> principal(P). \
             (witness: M=Val(read), O=Val(f), P=Val(mallory))"
        );
        let c = constraint("said([| p(T*) <- A*. |]) -> never().");
        let mut db = Database::new();
        let rule = lbtrust_datalog::parse_rule("p(a) <- q(a).").unwrap();
        db.insert(
            Symbol::intern("said"),
            vec![crate::reflect::rule_entity(&rule)],
        );
        let err = check_constraint(&c, &db, &Builtins::new()).unwrap_err();
        let Term::Val(a) = Term::sym("a") else {
            unreachable!()
        };
        assert_eq!(
            err.to_string(),
            format!(
                "constraint violated: said([| p(T*) <- A*. |]) -> never(). (witness: \
                 A*=Items({:?}), T*=Terms({:?}))",
                rule.body,
                [Term::Val(a)]
            )
        );
    }

    #[test]
    fn a_requirement_is_satisfied_by_its_first_witness() {
        // Fifty q(a,_) witness p(a); `seen` counts how many are tried.
        let c = constraint("p(X) -> q(X,Y), seen(Y).");
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut builtins = Builtins::new();
        let counter = calls.clone();
        builtins.register("seen", 1, move |args| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(vec![vec![args[0].clone().expect("bound by q")]])
        });
        let mut db = db_with(&[("p", &["a"][..])]);
        for i in 0..50 {
            db.insert(Symbol::intern("q"), vec![Value::sym("a"), Value::Int(i)]);
        }
        assert!(check_constraint(&c, &db, &builtins).is_ok());
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn a_failed_alternative_leaves_no_binding_behind() {
        // q(a,b1) binds Y, r(b1) is missing: the second disjunct, and
        // what follows the negation, must find Y free again.
        let db = db_with(&[
            ("p", &["a"][..]),
            ("q", &["a", "b1"][..]),
            ("s", &["a", "b2"][..]),
        ]);
        for src in [
            "p(X) -> (q(X,Y), r(Y)); s(X,Y).",
            "p(X) -> !(q(X,Y), r(Y)), s(X,Y).",
        ] {
            let c = constraint(src);
            assert!(
                matches!(c.requires, Formula::Or(_) | Formula::And(_)),
                "{src}"
            );
            assert!(check_constraint(&c, &db, &Builtins::new()).is_ok(), "{src}");
        }
        // The premise's bindings are the witness, not the requirement's.
        let c = constraint("p(X) -> q(X,Y), r(Y).");
        let err = check_constraint(&c, &db, &Builtins::new()).unwrap_err();
        assert!(err.to_string().ends_with("(witness: X=Val(a))"), "{err}");
    }

    #[test]
    fn declaration_always_holds() {
        let c = constraint("rule(R) ->.");
        let db = db_with(&[("rule", &["x"][..])]);
        assert!(check_constraint(&c, &db, &Builtins::new()).is_ok());
    }

    #[test]
    fn empty_premise_relation_passes() {
        let c = constraint("access(P,O,M) -> principal(P).");
        assert!(check_constraint(&c, &Database::new(), &Builtins::new()).is_ok());
    }

    #[test]
    fn fail_predicate() {
        let mut db = Database::new();
        assert!(check_fail(&db).is_ok());
        db.insert(Symbol::intern("fail"), vec![]);
        assert!(check_fail(&db).is_err());
    }

    /// A delta-scoped check of `src` over `db`, which grew past `grown`
    /// and lost `removed`.
    fn check_delta(
        src: &str,
        db: &Database,
        grown: &[(&str, usize)],
        removed: &[(&str, &[&str])],
    ) -> Result<(), CheckError> {
        let grown = grown
            .iter()
            .map(|(pred, from)| (Symbol::intern(pred), *from))
            .collect();
        let mut lost = Removed::new();
        for (pred, tuple) in removed {
            let tuple = tuple.iter().map(|v| Value::sym(v)).collect();
            lost.entry(Symbol::intern(pred)).or_default().push(tuple);
        }
        let scope = Scope::Delta {
            grown: &grown,
            removed: &lost,
        };
        ConstraintSet::compile([constraint(src)]).check(db, &Builtins::new(), scope)
    }

    #[test]
    fn delta_scope_visits_only_bindings_over_new_tuples() {
        // p(old) has no witness, but it was there before the delta: only
        // a full check reports it.
        let db = db_with(&[
            ("p", &["old"][..]),
            ("p", &["new"][..]),
            ("q", &["new"][..]),
        ]);
        let src = "p(X) -> q(X).";
        assert!(check_delta(src, &db, &[("p", 1)], &[]).is_ok());
        assert!(check_constraint(&constraint(src), &db, &Builtins::new()).is_err());
        // The window is per premise literal: growth of the second one
        // is found too.
        let db = db_with(&[("a", &["x"][..]), ("b", &["x"][..])]);
        let src = "a(X), b(X) -> c(X).";
        assert!(check_delta(src, &db, &[("a", 1)], &[]).is_ok());
        assert!(check_delta(src, &db, &[("b", 0)], &[]).is_err());
    }

    #[test]
    fn delta_scope_revisits_bindings_that_lost_a_witness() {
        let db = db_with(&[("p", &["a"][..]), ("p", &["b"][..]), ("q", &["b"][..])]);
        let src = "p(X) -> q(X).";
        // q(a) is gone and p(a) needed it; q(c) is gone and nothing did.
        assert!(check_delta(src, &db, &[], &[("q", &["a"][..])]).is_err());
        assert!(check_delta(src, &db, &[], &[("q", &["c"][..])]).is_ok());
        // Removing a premise tuple cannot violate a positive constraint.
        assert!(check_delta(src, &db, &[], &[("p", &["c"][..])]).is_ok());
    }

    #[test]
    fn lost_witness_leaves_existential_variables_free() {
        // W occurs only in the requirement: with tag(a,w1) gone,
        // tag(a,w2) still witnesses edge(a,b).
        let src = "edge(X,Y) -> tag(X,W).";
        let mut db = db_with(&[("edge", &["a", "b"][..]), ("tag", &["a", "w2"][..])]);
        let lost = [("tag", &["a", "w1"][..])];
        assert!(check_delta(src, &db, &[], &lost).is_ok());
        db = db_with(&[("edge", &["a", "b"][..])]);
        assert!(check_delta(src, &db, &[], &lost).is_err());
    }

    #[test]
    fn negation_is_never_delta_scoped() {
        // Nothing grew and nothing was removed, yet the violation is
        // found: a constraint with negation is checked in full.
        let db = db_with(&[("delegation", &["a", "p"][..]), ("revoked", &["a"][..])]);
        assert!(check_delta("delegation(U,P) -> !revoked(U).", &db, &[], &[]).is_err());
        let db = db_with(&[("p", &["a"][..])]);
        assert!(check_delta("p(X), !q(X) -> r(X).", &db, &[], &[]).is_err());
    }

    #[test]
    fn meta_constraint_with_quote_pattern() {
        // The paper's mayRead-style constraint: any rule said to me that
        // reads predicate P requires mayRead(U,P).
        use crate::reflect::rule_entity;
        let c = constraint("owner(U, [| A <- P(T2*), A*. |]) -> access(U,P,read).");
        let rule = lbtrust_datalog::parse_rule("spend(X) <- budget(X).").unwrap();
        let mut db = Database::new();
        db.insert(
            Symbol::intern("owner"),
            vec![Value::sym("alice"), rule_entity(&rule)],
        );
        // Without the access grant: violation naming 'budget'.
        let err = check_constraint(&c, &db, &Builtins::new()).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        // Grant access: passes.
        db.insert(
            Symbol::intern("access"),
            vec![
                Value::sym("alice"),
                Value::sym("budget"),
                Value::sym("read"),
            ],
        );
        assert!(check_constraint(&c, &db, &Builtins::new()).is_ok());
    }
}

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
use lbtrust_datalog::eval::{Engine, EvalError};
use lbtrust_datalog::{Bindings, Builtins, Database, Symbol};
use std::collections::HashMap;
use std::fmt;

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
            return self.require(&engine, db, vec![Bindings::new()], None);
        };
        // Bindings that use a new tuple: one windowed pass per grown
        // premise literal.
        for &(idx, pred) in &plan.premise {
            match grown.get(&pred) {
                Some(&from) if from < db.count(pred) => {
                    self.require(&engine, db, vec![Bindings::new()], Some((idx, from)))?;
                }
                _ => {}
            }
        }
        // Bindings whose requirement could have rested on a removed
        // tuple: those that agree with it on the premise's variables.
        for atom in &plan.required {
            let lost = atom.pred.name().and_then(|pred| removed.get(&pred));
            for tuple in lost.into_iter().flatten() {
                let starts: Vec<Bindings> = Bindings::new()
                    .match_tuple(atom, tuple)
                    .iter()
                    .map(|pinned| {
                        let mut start = Bindings::new();
                        for &var in &plan.vars {
                            if let Some(value) = pinned.value(var) {
                                start.bind_value(var, value.clone());
                            }
                        }
                        start
                    })
                    .collect();
                self.require(&engine, db, starts, None)?;
            }
        }
        Ok(())
    }

    /// Every premise binding extending `starts` (through `window`, if
    /// given) must extend to satisfy the requirement.
    fn require(
        &self,
        engine: &Engine<'_>,
        db: &Database,
        starts: Vec<Bindings>,
        window: Option<(usize, usize)>,
    ) -> Result<(), CheckError> {
        for env in engine.eval_body(&self.carrier, db, starts, window)? {
            let satisfied = !satisfy(
                &self.constraint.requires,
                &self.carrier,
                engine,
                db,
                vec![env.clone()],
            )?
            .is_empty();
            if !satisfied {
                return Err(CheckError::Violation(Box::new(Violation {
                    constraint: self.constraint.to_string(),
                    witness: describe_env(&env),
                })));
            }
        }
        Ok(())
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

/// All extensions of `envs` satisfying `formula`.
fn satisfy(
    formula: &Formula,
    carrier: &Rule,
    engine: &Engine<'_>,
    db: &Database,
    envs: Vec<Bindings>,
) -> Result<Vec<Bindings>, CheckError> {
    match formula {
        Formula::Item(item) => Ok(engine.eval_single_item(carrier, item, envs, db)?),
        Formula::And(parts) => {
            let mut current = envs;
            for part in parts {
                if current.is_empty() {
                    break;
                }
                current = satisfy(part, carrier, engine, db, current)?;
            }
            Ok(current)
        }
        Formula::Or(parts) => {
            let mut out = Vec::new();
            for part in parts {
                out.extend(satisfy(part, carrier, engine, db, envs.clone())?);
            }
            Ok(out)
        }
        Formula::Not(inner) => {
            // ¬F keeps the environments F cannot extend.
            let mut out = Vec::new();
            for env in envs {
                if satisfy(inner, carrier, engine, db, vec![env.clone()])?.is_empty() {
                    out.push(env);
                }
            }
            Ok(out)
        }
    }
}

fn describe_env(env: &Bindings) -> String {
    let mut parts: Vec<String> = env
        .iter()
        .map(|(var, binding)| format!("{var}={binding:?}"))
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
    let fail = lbtrust_datalog::Symbol::intern("fail");
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

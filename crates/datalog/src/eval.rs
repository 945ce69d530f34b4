//! Bottom-up evaluation: stratified semi-naive fixpoint (the LogicBlox
//! execution model, §3.1 of the paper) plus a naive evaluator kept as an
//! ablation baseline.
//!
//! Within each stratum:
//!
//! 1. aggregate rules run once (their bodies live in strictly lower
//!    strata, guaranteed by stratification), then
//! 2. ordinary rules run to fixpoint. Round 0 evaluates every rule in
//!    full; round *k* re-evaluates each rule once per body literal whose
//!    predicate belongs to the stratum, restricting that literal to the
//!    tuples derived in round *k−1* (the delta window).
//!
//! Incremental recomputation ("active rules", §3.1) reuses the same
//! machinery: newly asserted facts become the initial delta windows and
//! evaluation proceeds directly with delta rounds.

use crate::ast::{AggFunc, Atom, BodyItem, CmpOp, Expr, PredRef, Rule, Term};
use crate::builtins::{BuiltinError, Builtins};
use crate::db::{Database, ProbeKey, Relation, Tuple};
use crate::intern::Symbol;
use crate::strata::{stratify, Strata, StratifyError};
use crate::unify::Bindings;
use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Evaluation failure.
#[derive(Clone, Debug)]
pub enum EvalError {
    /// The program cannot be stratified.
    Stratify(StratifyError),
    /// A builtin failed.
    Builtin(BuiltinError),
    /// A negated literal or comparison was reached with unbound
    /// variables.
    Unbound {
        /// The offending item, printed.
        item: String,
        /// The rule it occurs in, printed.
        rule: String,
    },
    /// A head variable was not bound by the body (range restriction).
    NonGroundHead {
        /// The rule, printed.
        rule: String,
    },
    /// A pattern construct (sequence/rest/functor variable) occurs in a
    /// rule being evaluated at the object level.
    PatternRule {
        /// The rule, printed.
        rule: String,
    },
    /// The fixpoint exceeded the configured safety limits.
    LimitExceeded {
        /// Description of the limit.
        what: String,
    },
    /// Arithmetic was applied to non-integer operands.
    TypeError {
        /// Description.
        message: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Stratify(e) => write!(f, "{e}"),
            EvalError::Builtin(e) => write!(f, "{e}"),
            EvalError::Unbound { item, rule } => {
                write!(f, "unbound variables in '{item}' of rule '{rule}'")
            }
            EvalError::NonGroundHead { rule } => {
                write!(f, "head not grounded by body in rule '{rule}'")
            }
            EvalError::PatternRule { rule } => {
                write!(f, "cannot evaluate pattern rule at object level: '{rule}'")
            }
            EvalError::LimitExceeded { what } => write!(f, "evaluation limit exceeded: {what}"),
            EvalError::TypeError { message } => write!(f, "type error: {message}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Stratify(e) => Some(e),
            EvalError::Builtin(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StratifyError> for EvalError {
    fn from(e: StratifyError) -> Self {
        EvalError::Stratify(e)
    }
}

impl From<BuiltinError> for EvalError {
    fn from(e: BuiltinError) -> Self {
        EvalError::Builtin(e)
    }
}

/// Statistics from one evaluation run (used by the benchmark harness and
/// the naive-vs-semi-naive ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds executed (across all strata).
    pub rounds: usize,
    /// Tuples newly derived.
    pub derived: usize,
    /// Rule-body join evaluations performed.
    pub rule_evals: usize,
}

/// Tunable safety limits.
#[derive(Clone, Copy, Debug)]
pub struct EvalLimits {
    /// Maximum fixpoint rounds per stratum.
    pub max_rounds: usize,
    /// Maximum total tuples in the database.
    pub max_tuples: usize,
}

impl Default for EvalLimits {
    fn default() -> Self {
        EvalLimits {
            max_rounds: 100_000,
            max_tuples: 50_000_000,
        }
    }
}

/// A rule set compiled once for repeated evaluation: the rules in one
/// shared slice plus their stratification. The owner (a workspace)
/// recompiles only when the rule set — or the builtin registry that
/// decides which predicates have no extension — changes, and hands the
/// same value to every engine, DRed repair, proof search and published
/// snapshot in between.
#[derive(Debug)]
pub struct CompiledRules {
    rules: Arc<[Rule]>,
    /// Kept as a `Result` so an unstratifiable generated rule set still
    /// compiles; the error surfaces from the first run that needs
    /// strata, as it did when every run stratified for itself.
    strata: Result<Strata, StratifyError>,
    monotone: bool,
}

impl CompiledRules {
    /// Compiles `rules` against `builtins`.
    pub fn compile(rules: impl Into<Arc<[Rule]>>, builtins: &Builtins) -> CompiledRules {
        let rules: Arc<[Rule]> = rules.into();
        CompiledRules {
            strata: stratify(&rules, &|p| builtins.contains(p)),
            monotone: !rules.iter().any(Rule::is_non_monotonic),
            rules,
        }
    }

    /// The compiled rules; cloning the `Arc` shares them.
    pub fn rules(&self) -> &Arc<[Rule]> {
        &self.rules
    }

    /// Whether no rule negates or aggregates, so that adding facts can
    /// only add conclusions (incremental addition and DRed are sound).
    pub fn is_monotone(&self) -> bool {
        self.monotone
    }
}

/// The evaluation engine: rules + builtins, applied to a [`Database`].
pub struct Engine<'a> {
    rules: &'a [Rule],
    /// `None` for an ad-hoc rule slice, stratified by each run.
    strata: Option<&'a Result<Strata, StratifyError>>,
    builtins: &'a Builtins,
    limits: EvalLimits,
}

impl<'a> Engine<'a> {
    /// Creates an engine over an ad-hoc rule slice; each run stratifies
    /// it. Callers that evaluate one rule set repeatedly compile it once
    /// and use [`Engine::for_compiled`].
    pub fn new(rules: &'a [Rule], builtins: &'a Builtins) -> Engine<'a> {
        Engine {
            rules,
            strata: None,
            builtins,
            limits: EvalLimits::default(),
        }
    }

    /// Creates an engine over a compiled rule set, reusing its strata.
    pub fn for_compiled(compiled: &'a CompiledRules, builtins: &'a Builtins) -> Engine<'a> {
        Engine {
            rules: &compiled.rules,
            strata: Some(&compiled.strata),
            builtins,
            limits: EvalLimits::default(),
        }
    }

    /// The rules this engine evaluates.
    pub fn rules(&self) -> &'a [Rule] {
        self.rules
    }

    fn strata(&self) -> Result<Cow<'a, Strata>, EvalError> {
        match self.strata {
            Some(Ok(strata)) => Ok(Cow::Borrowed(strata)),
            Some(Err(e)) => Err(e.clone().into()),
            None => Ok(Cow::Owned(stratify(self.rules, &|p| self.is_builtin(p))?)),
        }
    }

    /// Overrides the safety limits.
    pub fn with_limits(mut self, limits: EvalLimits) -> Self {
        self.limits = limits;
        self
    }

    fn is_builtin(&self, pred: Symbol) -> bool {
        self.builtins.contains(pred)
    }

    /// Full evaluation to fixpoint with stratified semi-naive rounds.
    pub fn run(&self, db: &mut Database) -> Result<EvalStats, EvalError> {
        let strata = self.strata()?;
        let mut stats = EvalStats::default();
        for stratum_rules in &strata.rules_by_stratum {
            self.run_stratum(db, &strata, stratum_rules, &mut stats, None)?;
        }
        Ok(stats)
    }

    /// Incremental evaluation: `seeds` are `(predicate, old_len)` pairs
    /// describing which relation suffixes are newly asserted. Only sound
    /// for updates that cannot retract conclusions (the caller — the
    /// workspace — falls back to full recomputation when negation or
    /// aggregation could observe the change).
    pub fn run_incremental(
        &self,
        db: &mut Database,
        seeds: &[(Symbol, usize)],
    ) -> Result<EvalStats, EvalError> {
        self.run_delta(db, &mut seeds.iter().copied().collect())
    }

    /// [`Engine::run_incremental`] with the growth windows handed back:
    /// `grown` maps a predicate to the position of its first new tuple —
    /// on entry the caller's assertions, on return also every relation
    /// the run derived into — so a caller can revisit exactly the
    /// bindings that use a new tuple (see [`Engine::eval_body`]).
    pub fn run_delta(
        &self,
        db: &mut Database,
        grown: &mut HashMap<Symbol, usize>,
    ) -> Result<EvalStats, EvalError> {
        let strata = self.strata()?;
        let mut stats = EvalStats::default();
        // `grown` accumulates across strata, so later strata see earlier
        // strata's growth as delta.
        for stratum_rules in &strata.rules_by_stratum {
            let derived = self.run_stratum(db, &strata, stratum_rules, &mut stats, Some(grown))?;
            for (pred, first_new) in derived {
                let entry = grown.entry(pred).or_insert(first_new);
                *entry = (*entry).min(first_new);
            }
        }
        Ok(stats)
    }

    /// Runs one stratum to fixpoint. With `seeds`, round 0 is replaced by
    /// delta rounds seeded from the given windows. Returns the first-new
    /// position of every relation this stratum grew.
    fn run_stratum(
        &self,
        db: &mut Database,
        strata: &Strata,
        rule_indices: &[usize],
        stats: &mut EvalStats,
        seeds: Option<&HashMap<Symbol, usize>>,
    ) -> Result<HashMap<Symbol, usize>, EvalError> {
        // Partition into aggregate and ordinary rules.
        let (agg_rules, plain_rules): (Vec<usize>, Vec<usize>) = rule_indices
            .iter()
            .partition(|&&i| self.rules[i].agg.is_some());

        let mut first_new: HashMap<Symbol, usize> = HashMap::new();

        // Aggregate rules run once per stratum.
        for &i in &agg_rules {
            stats.rule_evals += 1;
            let new_tuples = self.eval_agg_rule(&self.rules[i], db)?;
            for (pred, tuple) in new_tuples {
                let mark = db.count(pred);
                if db.insert(pred, tuple) {
                    stats.derived += 1;
                    first_new.entry(pred).or_insert(mark);
                }
            }
        }

        // The stratum's own predicates, for delta detection.
        let stratum_index: Option<usize> = rule_indices
            .iter()
            .flat_map(|&i| self.rules[i].heads.iter())
            .filter_map(|h| h.pred.name())
            .map(|p| strata.stratum(p))
            .max();
        let in_stratum = |p: Symbol| -> bool {
            strata.stratum_of.get(&p).copied() == stratum_index && stratum_index.is_some()
        };

        // Delta windows: predicate -> start position of "new" tuples.
        let mut delta: HashMap<Symbol, usize> = HashMap::new();

        match seeds {
            None => {
                // Round 0: full evaluation of every rule.
                let marks = self.relation_marks(db, &plain_rules);
                let mut derived: Vec<(Symbol, Tuple)> = Vec::new();
                for &i in &plain_rules {
                    stats.rule_evals += 1;
                    derived.extend(self.eval_rule(&self.rules[i], db, None)?);
                }
                stats.rounds += 1;
                self.absorb(db, derived, &marks, &mut delta, &mut first_new, stats)?;
            }
            Some(seed_map) => {
                // Incremental: the asserted facts are the first delta.
                delta.extend(seed_map.iter().map(|(&p, &pos)| (p, pos)));
            }
        }

        // Delta rounds.
        while !delta.is_empty() {
            if stats.rounds > self.limits.max_rounds {
                return Err(EvalError::LimitExceeded {
                    what: format!("{} fixpoint rounds", self.limits.max_rounds),
                });
            }
            let marks = self.relation_marks(db, &plain_rules);
            let mut derived: Vec<(Symbol, Tuple)> = Vec::new();
            for &i in &plain_rules {
                let rule = &self.rules[i];
                for (lit_idx, item) in rule.body.iter().enumerate() {
                    let BodyItem::Lit {
                        negated: false,
                        atom,
                    } = item
                    else {
                        continue;
                    };
                    let Some(pred) = atom.pred.name() else {
                        continue;
                    };
                    // A literal participates in delta joins when its
                    // predicate changed this round (stratum-local
                    // recursion or incremental seeds).
                    let relevant =
                        delta.contains_key(&pred) && (in_stratum(pred) || seeds.is_some());
                    if !relevant {
                        continue;
                    }
                    stats.rule_evals += 1;
                    let window = (lit_idx, delta[&pred]);
                    derived.extend(self.eval_rule(rule, db, Some(window))?);
                }
            }
            stats.rounds += 1;
            delta.clear();
            self.absorb(db, derived, &marks, &mut delta, &mut first_new, stats)?;
        }
        Ok(first_new)
    }

    /// Records the current length of every relation a stratum's rules can
    /// derive into, so newly inserted tuples define the next delta.
    fn relation_marks(&self, db: &Database, rule_indices: &[usize]) -> HashMap<Symbol, usize> {
        let mut marks = HashMap::new();
        for &i in rule_indices {
            for head in &self.rules[i].heads {
                if let Some(p) = head.pred.name() {
                    marks.insert(p, db.count(p));
                }
            }
        }
        marks
    }

    /// Inserts derived tuples, updating delta windows for relations that
    /// actually grew.
    fn absorb(
        &self,
        db: &mut Database,
        derived: Vec<(Symbol, Tuple)>,
        marks: &HashMap<Symbol, usize>,
        delta: &mut HashMap<Symbol, usize>,
        first_new: &mut HashMap<Symbol, usize>,
        stats: &mut EvalStats,
    ) -> Result<(), EvalError> {
        for (pred, tuple) in derived {
            if db.insert(pred, tuple) {
                stats.derived += 1;
            }
        }
        if db.total_tuples() > self.limits.max_tuples {
            return Err(EvalError::LimitExceeded {
                what: format!("{} tuples", self.limits.max_tuples),
            });
        }
        for (&pred, &mark) in marks {
            if db.count(pred) > mark {
                delta.insert(pred, mark);
                first_new.entry(pred).or_insert(mark);
            }
        }
        Ok(())
    }

    // ---- single-rule evaluation ------------------------------------------

    /// Evaluates one rule against `db`, optionally restricting body
    /// literal `window.0` to tuples at positions `>= window.1`.
    /// Returns the derived `(pred, tuple)` pairs.
    pub fn eval_rule(
        &self,
        rule: &Rule,
        db: &Database,
        window: Option<(usize, usize)>,
    ) -> Result<Vec<(Symbol, Tuple)>, EvalError> {
        if rule.is_pattern() {
            return Err(EvalError::PatternRule {
                rule: rule.to_string(),
            });
        }
        let envs = self.eval_body(rule, db, vec![Bindings::new()], window)?;
        let mut out = Vec::new();
        for env in &envs {
            self.instantiate_heads(rule, env, &mut out)?;
        }
        Ok(out)
    }

    /// Evaluates the body of `rule` left to right, returning every
    /// extension of `envs` that satisfies it. With `window = (i, from)`,
    /// body literal `i` only matches tuples at positions `>= from` — the
    /// semi-naive delta window, which the constraint checker also uses to
    /// visit just the premise bindings that rest on a new tuple.
    pub fn eval_body(
        &self,
        rule: &Rule,
        db: &Database,
        mut envs: Vec<Bindings>,
        window: Option<(usize, usize)>,
    ) -> Result<Vec<Bindings>, EvalError> {
        for (idx, item) in rule.body.iter().enumerate() {
            if envs.is_empty() {
                return Ok(envs);
            }
            let from = match window {
                Some((lit, pos)) if lit == idx => Some(pos),
                _ => None,
            };
            envs = self.eval_item(rule, item, envs, db, from)?;
        }
        Ok(envs)
    }

    /// Evaluates one body item under the given environments (exposed for
    /// the DRed repair, which shares comparison and builtin semantics
    /// with the fixpoint).
    pub fn eval_single_item(
        &self,
        rule: &Rule,
        item: &BodyItem,
        envs: Vec<Bindings>,
        db: &Database,
    ) -> Result<Vec<Bindings>, EvalError> {
        self.eval_item(rule, item, envs, db, None)
    }

    fn eval_item(
        &self,
        rule: &Rule,
        item: &BodyItem,
        envs: Vec<Bindings>,
        db: &Database,
        delta_from: Option<usize>,
    ) -> Result<Vec<Bindings>, EvalError> {
        match item {
            BodyItem::Lit {
                negated: false,
                atom,
            } => {
                let pred = atom.pred.name().expect("concrete rule");
                if self.is_builtin(pred) {
                    let mut out = Vec::new();
                    for env in &envs {
                        out.extend(self.eval_builtin(pred, atom, env)?);
                    }
                    Ok(out)
                } else {
                    let mut out = Vec::new();
                    if let Some(rel) = db.relation(pred) {
                        for env in &envs {
                            probe(rel, atom, env, delta_from.unwrap_or(0), &mut out);
                        }
                    }
                    Ok(out)
                }
            }
            BodyItem::Lit {
                negated: true,
                atom,
            } => {
                let pred = atom.pred.name().expect("concrete rule");
                let mut out = Vec::new();
                for env in envs {
                    if self.negation_holds(rule, atom, pred, &env, db)? {
                        out.push(env);
                    }
                }
                Ok(out)
            }
            BodyItem::Cmp { op, lhs, rhs } => {
                let mut out = Vec::new();
                for env in envs {
                    out.extend(self.eval_cmp(rule, *op, lhs, rhs, env)?);
                }
                Ok(out)
            }
            BodyItem::Rest(_) => Err(EvalError::PatternRule {
                rule: rule.to_string(),
            }),
        }
    }

    fn negation_holds(
        &self,
        rule: &Rule,
        atom: &Atom,
        pred: Symbol,
        env: &Bindings,
        db: &Database,
    ) -> Result<bool, EvalError> {
        // All variables of a negated literal must be bound (safety).
        let mut vars = Vec::new();
        atom.collect_vars(&mut vars);
        for v in &vars {
            if env.get(*v).is_none() {
                return Err(EvalError::Unbound {
                    item: format!("!{atom}"),
                    rule: rule.to_string(),
                });
            }
        }
        // The literal holds when the positive literal would find nothing:
        // same probe, same matcher.
        Ok(!db
            .relation(pred)
            .is_some_and(|rel| matches_any(rel, atom, env)))
    }

    fn eval_builtin(
        &self,
        pred: Symbol,
        atom: &Atom,
        env: &Bindings,
    ) -> Result<Vec<Bindings>, EvalError> {
        let args: Vec<Option<Value>> = atom.all_args().map(|t| env.resolve(t)).collect();
        let tuples = self
            .builtins
            .invoke(pred, &args)
            .expect("checked by is_builtin")?;
        let mut out = Vec::new();
        for tuple in tuples {
            out.extend(env.match_tuple(atom, &tuple));
        }
        Ok(out)
    }

    /// Whether the expression contains a variable that is *bound to
    /// code* (a term of a matched rule that is not a ground value).
    /// Comparisons over such bindings fail silently — the meta-match
    /// simply isn't in the object domain — rather than erroring like a
    /// genuinely unbound variable would.
    fn expr_code_bound(&self, expr: &Expr, env: &Bindings) -> bool {
        let mut vars = Vec::new();
        expr.collect_vars(&mut vars);
        vars.into_iter()
            .any(|v| env.get(v).is_some() && env.value(v).is_none())
    }

    fn eval_cmp(
        &self,
        rule: &Rule,
        op: CmpOp,
        lhs: &Expr,
        rhs: &Expr,
        env: Bindings,
    ) -> Result<Vec<Bindings>, EvalError> {
        let lv = self.eval_expr(lhs, &env)?;
        let rv = self.eval_expr(rhs, &env)?;
        // A side that failed to resolve because a variable is bound to
        // non-value code can never satisfy an object-level comparison.
        if (lv.is_none() && self.expr_code_bound(lhs, &env))
            || (rv.is_none() && self.expr_code_bound(rhs, &env))
        {
            // Exception: Eq against a quote pattern still matches (the
            // pattern side legitimately resolves to None).
            let quote_side = matches!(lhs, Expr::Term(Term::Quote(_)))
                || matches!(rhs, Expr::Term(Term::Quote(_)));
            if !(op == CmpOp::Eq && quote_side) {
                return Ok(Vec::new());
            }
        }
        match (op, lv, rv) {
            (CmpOp::Eq, Some(l), Some(r)) => {
                // Quote patterns compare by matching, not identity: this is
                // what makes `R = [| P(T*) <- A*. |]` bind P (del1, §4.2).
                if let (Expr::Term(t @ Term::Quote(_)), Value::Quote(_)) = (lhs, &r) {
                    return Ok(env.match_value(t, &r));
                }
                if let (Expr::Term(t @ Term::Quote(_)), Value::Quote(_)) = (rhs, &l) {
                    return Ok(env.match_value(t, &l));
                }
                Ok(if l == r { vec![env] } else { Vec::new() })
            }
            (CmpOp::Eq, Some(l), None) => self.try_bind(rule, rhs, l, env),
            (CmpOp::Eq, None, Some(r)) => self.try_bind(rule, lhs, r, env),
            (CmpOp::Eq, None, None) => Err(self.unbound(rule, op, lhs, rhs)),
            (CmpOp::Ne, Some(l), Some(r)) => Ok(if l != r { vec![env] } else { Vec::new() }),
            (_, Some(l), Some(r)) => {
                let (Value::Int(a), Value::Int(b)) = (&l, &r) else {
                    return Err(EvalError::TypeError {
                        message: format!("ordering comparison on non-integers: {l} {op} {r}"),
                    });
                };
                let holds = match op {
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                    CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
                };
                Ok(if holds { vec![env] } else { Vec::new() })
            }
            _ => Err(self.unbound(rule, op, lhs, rhs)),
        }
    }

    fn unbound(&self, rule: &Rule, op: CmpOp, lhs: &Expr, rhs: &Expr) -> EvalError {
        EvalError::Unbound {
            item: format!("{lhs} {op} {rhs}"),
            rule: rule.to_string(),
        }
    }

    /// For `X = <value>` where one side is an unbound bare variable or an
    /// unmatched quote pattern.
    fn try_bind(
        &self,
        rule: &Rule,
        target: &Expr,
        value: Value,
        env: Bindings,
    ) -> Result<Vec<Bindings>, EvalError> {
        match target {
            Expr::Term(Term::Var(v)) => {
                let mut next = env;
                Ok(if next.bind_value(*v, value) {
                    vec![next]
                } else {
                    Vec::new()
                })
            }
            Expr::Term(t @ Term::Quote(_)) => {
                if let Value::Quote(_) = value {
                    Ok(env.match_value(t, &value))
                } else {
                    Ok(Vec::new())
                }
            }
            other => Err(EvalError::Unbound {
                item: format!("{other} = {value}"),
                rule: rule.to_string(),
            }),
        }
    }

    fn eval_expr(&self, expr: &Expr, env: &Bindings) -> Result<Option<Value>, EvalError> {
        match expr {
            Expr::Term(t) => Ok(env.resolve(t)),
            Expr::BinOp(op, l, r) => {
                let (Some(lv), Some(rv)) = (self.eval_expr(l, env)?, self.eval_expr(r, env)?)
                else {
                    return Ok(None);
                };
                let (Value::Int(a), Value::Int(b)) = (&lv, &rv) else {
                    return Err(EvalError::TypeError {
                        message: format!("arithmetic on non-integers: {lv} {op} {rv}"),
                    });
                };
                use crate::ast::ArithOp::*;
                let v = match op {
                    Add => a.wrapping_add(*b),
                    Sub => a.wrapping_sub(*b),
                    Mul => a.wrapping_mul(*b),
                    Div => {
                        if *b == 0 {
                            return Err(EvalError::TypeError {
                                message: "division by zero".into(),
                            });
                        }
                        a.wrapping_div(*b)
                    }
                    Mod => {
                        if *b == 0 {
                            return Err(EvalError::TypeError {
                                message: "modulo by zero".into(),
                            });
                        }
                        a.wrapping_rem(*b)
                    }
                };
                Ok(Some(Value::Int(v)))
            }
        }
    }

    /// Instantiates the rule heads under a satisfying environment.
    ///
    /// Environments that bound a head variable to non-value code (possible
    /// only via meta-level matching) produce no derivation; genuinely
    /// unbound head variables are a range-restriction error.
    fn instantiate_heads(
        &self,
        rule: &Rule,
        env: &Bindings,
        out: &mut Vec<(Symbol, Tuple)>,
    ) -> Result<(), EvalError> {
        for head in &rule.heads {
            let pred = match head.pred {
                PredRef::Name(p) => p,
                PredRef::Var(v) => match env.value(v) {
                    Some(Value::Sym(p)) => *p,
                    _ => {
                        return Err(EvalError::NonGroundHead {
                            rule: rule.to_string(),
                        })
                    }
                },
            };
            let mut tuple = Vec::with_capacity(head.arity());
            let mut skip = false;
            for term in head.all_args() {
                match env.resolve(term) {
                    Some(v) => tuple.push(v),
                    None => {
                        // Distinguish "bound to code" (skip) from "unbound"
                        // (error).
                        let unbound_var = match term {
                            Term::Var(v) => env.get(*v).is_none(),
                            Term::Quote(_) => false,
                            _ => true,
                        };
                        if unbound_var {
                            return Err(EvalError::NonGroundHead {
                                rule: rule.to_string(),
                            });
                        }
                        skip = true;
                        break;
                    }
                }
            }
            if !skip {
                out.push((pred, tuple));
            }
        }
        Ok(())
    }

    // ---- aggregation -------------------------------------------------------

    /// Evaluates an aggregate rule (§4.2.2): collect satisfying
    /// environments, group by the resolved head arguments (with the
    /// result position held out), and fold the aggregated variable.
    fn eval_agg_rule(&self, rule: &Rule, db: &Database) -> Result<Vec<(Symbol, Tuple)>, EvalError> {
        let agg = rule.agg.as_ref().expect("aggregate rule");
        if rule.heads.len() != 1 {
            return Err(EvalError::PatternRule {
                rule: rule.to_string(),
            });
        }
        let head = &rule.heads[0];
        let pred = head.pred.name().ok_or_else(|| EvalError::PatternRule {
            rule: rule.to_string(),
        })?;
        let envs = self.eval_body(rule, db, vec![Bindings::new()], None)?;

        // Dedup on the full variable projection (bag semantics over
        // distinct derivations), then group.
        let body_vars: Vec<Symbol> = rule.collect_vars();
        let mut seen: std::collections::HashSet<Vec<Option<Value>>> =
            std::collections::HashSet::new();
        // Group key and over values, in first-seen order (so the tuples
        // come out in an order that does not depend on the process's hash
        // seed), and where each key sits.
        let mut groups: Vec<(Vec<GroupSlot>, Vec<Value>)> = Vec::new();
        let mut slot_of: HashMap<Vec<GroupSlot>, usize> = HashMap::new();
        for env in &envs {
            let projection: Vec<Option<Value>> =
                body_vars.iter().map(|v| env.value(*v).cloned()).collect();
            if !seen.insert(projection) {
                continue;
            }
            let over = env
                .value(agg.over)
                .cloned()
                .ok_or_else(|| EvalError::Unbound {
                    item: format!("{}", agg.over),
                    rule: rule.to_string(),
                })?;
            let mut key = Vec::with_capacity(head.arity());
            let mut ok = true;
            for term in head.all_args() {
                match term {
                    Term::Var(v) if *v == agg.result => key.push(GroupSlot::Result),
                    other => match env.resolve(other) {
                        Some(val) => key.push(GroupSlot::Val(val)),
                        None => {
                            ok = false;
                            break;
                        }
                    },
                }
            }
            if ok {
                let slot = *slot_of.entry(key).or_insert_with_key(|key| {
                    groups.push((key.clone(), Vec::new()));
                    groups.len() - 1
                });
                groups[slot].1.push(over);
            }
        }

        let mut out = Vec::new();
        for (key, overs) in groups {
            let result = match agg.func {
                AggFunc::Count => {
                    let distinct: std::collections::HashSet<&Value> = overs.iter().collect();
                    Value::Int(distinct.len() as i64)
                }
                AggFunc::Total => {
                    let mut sum = 0i64;
                    for v in &overs {
                        let Value::Int(i) = v else {
                            return Err(EvalError::TypeError {
                                message: format!("total over non-integer {v}"),
                            });
                        };
                        sum = sum.wrapping_add(*i);
                    }
                    Value::Int(sum)
                }
                AggFunc::Min | AggFunc::Max => {
                    let mut ints = Vec::with_capacity(overs.len());
                    for v in &overs {
                        let Value::Int(i) = v else {
                            return Err(EvalError::TypeError {
                                message: format!("{} over non-integer {v}", agg.func),
                            });
                        };
                        ints.push(*i);
                    }
                    let folded = if agg.func == AggFunc::Min {
                        ints.into_iter().min()
                    } else {
                        ints.into_iter().max()
                    };
                    match folded {
                        Some(v) => Value::Int(v),
                        None => continue,
                    }
                }
            };
            let tuple: Tuple = key
                .into_iter()
                .map(|slot| match slot {
                    GroupSlot::Result => result.clone(),
                    GroupSlot::Val(v) => v,
                })
                .collect();
            out.push((pred, tuple));
        }
        Ok(out)
    }
}

/// A head argument position in an aggregate rule: either the grouped
/// value or the hole receiving the aggregate result.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum GroupSlot {
    Result,
    Val(Value),
}

/// The index key of `atom` under `env`: every argument that is closed
/// ([`Bindings::hash_closed`]) — a value, a variable bound to one, or a
/// quote pattern with nothing left open.
fn probe_key(atom: &Atom, env: &Bindings) -> ProbeKey {
    let mut key = ProbeKey::new(atom.arity());
    for (col, term) in atom.all_args().enumerate() {
        key.bind_if(col, |state| env.hash_closed(term, state));
    }
    key
}

/// Appends to `out`, in insertion order, every extension of `env` under
/// which `atom` matches a tuple of `rel` at position `from` or later.
/// With [`matches_any`], the one way a literal — positive or negated,
/// in the fixpoint or in proof search — meets a relation: the index
/// narrows the candidates, `match_tuple` decides.
fn probe(rel: &Relation, atom: &Atom, env: &Bindings, from: usize, out: &mut Vec<Bindings>) {
    let _ = rel.probe(&probe_key(atom, env), from, |tuple| {
        out.extend(env.match_tuple(atom, tuple));
        ControlFlow::Continue(())
    });
}

/// Whether [`probe`] would find anything: what a negated literal asks.
fn matches_any(rel: &Relation, atom: &Atom, env: &Bindings) -> bool {
    rel.probe(&probe_key(atom, env), 0, |tuple| {
        if env.match_tuple(atom, tuple).is_empty() {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    })
    .is_break()
}

/// Naive evaluation: every rule re-evaluated in full each round until no
/// new tuples appear. Kept as the baseline for the semi-naive ablation
/// (experiment A1 in DESIGN.md).
pub fn run_naive(
    rules: &[Rule],
    db: &mut Database,
    builtins: &Builtins,
) -> Result<EvalStats, EvalError> {
    let engine = Engine::new(rules, builtins);
    let strata = stratify(rules, &|p| builtins.contains(p))?;
    let mut stats = EvalStats::default();
    for stratum_rules in &strata.rules_by_stratum {
        let (agg_rules, plain_rules): (Vec<usize>, Vec<usize>) =
            stratum_rules.iter().partition(|&&i| rules[i].agg.is_some());
        for &i in &agg_rules {
            stats.rule_evals += 1;
            for (pred, tuple) in engine.eval_agg_rule(&rules[i], db)? {
                if db.insert(pred, tuple) {
                    stats.derived += 1;
                }
            }
        }
        loop {
            stats.rounds += 1;
            let mut new = 0usize;
            for &i in &plain_rules {
                stats.rule_evals += 1;
                for (pred, tuple) in engine.eval_rule(&rules[i], db, None)? {
                    if db.insert(pred, tuple) {
                        new += 1;
                    }
                }
            }
            stats.derived += new;
            if new == 0 {
                break;
            }
            if stats.rounds > engine.limits.max_rounds {
                return Err(EvalError::LimitExceeded {
                    what: "naive rounds".into(),
                });
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn eval(src: &str) -> Database {
        let program = parse_program(src).unwrap();
        let builtins = Builtins::new();
        let mut db = Database::new();
        Engine::new(&program.rules, &builtins)
            .run(&mut db)
            .unwrap_or_else(|e| panic!("eval failed: {e}"));
        db
    }

    fn tuples(db: &Database, pred: &str) -> Vec<String> {
        let mut v: Vec<String> = db
            .relation(Symbol::intern(pred))
            .map(|r| {
                r.iter()
                    .map(|t| {
                        t.iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    }

    #[test]
    fn facts_and_simple_rule() {
        let db = eval("good(alice). good(carol). access(P,file1,read) <- good(P).");
        assert_eq!(
            tuples(&db, "access"),
            vec!["alice,file1,read", "carol,file1,read"]
        );
    }

    #[test]
    fn transitive_closure() {
        let db = eval(
            "edge(a,b). edge(b,c). edge(c,d).\n\
             reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        );
        assert_eq!(
            tuples(&db, "reach"),
            vec!["a,b", "a,c", "a,d", "b,c", "b,d", "c,d"]
        );
    }

    #[test]
    fn naive_matches_seminaive() {
        let src = "edge(a,b). edge(b,c). edge(c,a). edge(c,d).\n\
                   reach(X,Y) <- edge(X,Y).\n\
                   reach(X,Z) <- reach(X,Y), edge(Y,Z).";
        let program = parse_program(src).unwrap();
        let builtins = Builtins::new();
        let mut db1 = Database::new();
        Engine::new(&program.rules, &builtins)
            .run(&mut db1)
            .unwrap();
        let mut db2 = Database::new();
        run_naive(&program.rules, &mut db2, &builtins).unwrap();
        let p = Symbol::intern("reach");
        assert_eq!(db1.count(p), db2.count(p));
        for t in db1.relation(p).unwrap().iter() {
            assert!(db2.contains(p, t));
        }
    }

    #[test]
    fn stratified_negation() {
        let db = eval(
            "node(a). node(b). node(c). edge(a,b).\n\
             reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).\n\
             unreach(X,Y) <- node(X), node(Y), X != Y, !reach(X,Y).",
        );
        assert!(tuples(&db, "unreach").contains(&"a,c".to_string()));
        assert!(!tuples(&db, "unreach").contains(&"a,b".to_string()));
    }

    #[test]
    fn comparison_and_arithmetic() {
        let db = eval(
            "n(1). n(2). n(3).\n\
             big(X) <- n(X), X >= 2.\n\
             double(X,Y) <- n(X), Y = X * 2.",
        );
        assert_eq!(tuples(&db, "big"), vec!["2", "3"]);
        assert_eq!(tuples(&db, "double"), vec!["1,2", "2,4", "3,6"]);
    }

    #[test]
    fn count_aggregation() {
        // wd1/wd2 from §4.2.2 (says replaced by a direct edb for the test).
        let db = eval(
            "approve(b1,cust1). approve(b2,cust1). approve(b3,cust1). approve(b1,cust2).\n\
             creditOKCount(C,N) <- agg<<N = count(U)>> approve(U,C).\n\
             creditOK(C) <- creditOKCount(C,N), N >= 3.",
        );
        assert_eq!(tuples(&db, "creditOKCount"), vec!["cust1,3", "cust2,1"]);
        assert_eq!(tuples(&db, "creditOK"), vec!["cust1"]);
    }

    #[test]
    fn total_aggregation_weighted() {
        let db = eval(
            "w(b1,2). w(b2,2). w(b3,1).\n\
             approve(b1,c). approve(b2,c).\n\
             score(C,N) <- agg<<N = total(W)>> approve(U,C), w(U,W).",
        );
        // b1 and b2 approve with weight 2 each: total 4 (same weight must
        // not collapse).
        assert_eq!(tuples(&db, "score"), vec!["c,4"]);
    }

    #[test]
    fn min_max_aggregation() {
        let db = eval(
            "v(a,3). v(a,7). v(b,5).\n\
             lo(K,N) <- agg<<N = min(X)>> v(K,X).\n\
             hi(K,N) <- agg<<N = max(X)>> v(K,X).",
        );
        assert_eq!(tuples(&db, "lo"), vec!["a,3", "b,5"]);
        assert_eq!(tuples(&db, "hi"), vec!["a,7", "b,5"]);
    }

    #[test]
    fn incremental_addition_matches_full() {
        let src = "reach(X,Y) <- edge(X,Y).\n\
                   reach(X,Z) <- reach(X,Y), edge(Y,Z).";
        let program = parse_program(src).unwrap();
        let builtins = Builtins::new();
        let edge = Symbol::intern("edge");
        let reach = Symbol::intern("reach");

        // Full evaluation over the complete edge set.
        let mut full = Database::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d")] {
            full.insert(edge, vec![Value::sym(a), Value::sym(b)]);
        }
        Engine::new(&program.rules, &builtins)
            .run(&mut full)
            .unwrap();

        // Incremental: start with two edges, then add the third.
        let mut inc = Database::new();
        for (a, b) in [("a", "b"), ("b", "c")] {
            inc.insert(edge, vec![Value::sym(a), Value::sym(b)]);
        }
        let engine = Engine::new(&program.rules, &builtins);
        engine.run(&mut inc).unwrap();
        let mark = inc.count(edge);
        inc.insert(edge, vec![Value::sym("c"), Value::sym("d")]);
        engine.run_incremental(&mut inc, &[(edge, mark)]).unwrap();

        assert_eq!(full.count(reach), inc.count(reach));
        for t in full.relation(reach).unwrap().iter() {
            assert!(inc.contains(reach, t), "missing {t:?}");
        }
    }

    #[test]
    fn quote_pattern_in_body() {
        // says-style matching: the quote pattern binds P and O.
        let db = eval(
            "said([| access(alice,file1,read). |]).\n\
             said([| access(bob,file2,write). |]).\n\
             access(P,O,read) <- said([| access(P,O,read) |]).",
        );
        assert_eq!(tuples(&db, "access"), vec!["alice,file1,read"]);
    }

    #[test]
    fn quote_generation_in_head() {
        // ls2-style: build a quoted fact from bound variables.
        let db = eval(
            "neighbor(me,b). reach(me,c).\n\
             msg(Z, [| reachable(Z,D). |]) <- neighbor(me,Z), reach(me,D).",
        );
        assert_eq!(tuples(&db, "msg"), vec!["b,[| reachable(b,c). |]"]);
    }

    #[test]
    fn eq_binds_quote_pattern() {
        // del1-generated style: R = [| P(T*) <- A*. |] decomposes a rule.
        let db = eval(
            "said([| perm(alice,f,read). |]).\n\
             saidpred(P) <- said(R), R = [| P(T*) <- A*. |].",
        );
        assert_eq!(tuples(&db, "saidpred"), vec!["perm"]);
    }

    #[test]
    fn zero_arity_predicates() {
        let db = eval("overload(). shutdown() <- overload().");
        assert_eq!(db.count(Symbol::intern("shutdown")), 1);
    }

    #[test]
    fn unbound_negation_is_error() {
        let program = parse_program("p(X) <- !q(X).").unwrap();
        let builtins = Builtins::new();
        let mut db = Database::new();
        db.insert(Symbol::intern("qq"), vec![Value::sym("a")]);
        let err = Engine::new(&program.rules, &builtins).run(&mut db);
        assert!(err.is_err());
    }

    #[test]
    fn multi_head_rule() {
        let db = eval("p(X), q(X) <- r(X). r(a).");
        assert_eq!(tuples(&db, "p"), vec!["a"]);
        assert_eq!(tuples(&db, "q"), vec!["a"]);
    }

    #[test]
    fn partitioned_predicates_curry() {
        // §3.4: p'[X1](X2..Xn) <- p(X1..Xn) initializes partitions from
        // the input table; key and ordinary arguments share one flat
        // tuple, keys first.
        let db = eval(
            "p(alice, f1, read). p(bob, f2, write).\n\
             pp[X](Y,Z) <- p(X,Y,Z).\n\
             alicedata(Y,Z) <- pp[alice](Y,Z).",
        );
        assert_eq!(db.count(Symbol::intern("pp")), 2);
        assert_eq!(tuples(&db, "alicedata"), vec!["f1,read"]);
    }

    #[test]
    fn keyed_head_and_body_join() {
        // export[U2](me,R,S)-style flow: keyed head written, keyed body
        // probed with the key bound.
        let db = eval(
            "says(alice, bob, m1). says(alice, carol, m2).\n\
             export[U2](alice, R) <- says(alice, U2, R).\n\
             forbob(R) <- export[bob](_, R).",
        );
        assert_eq!(tuples(&db, "forbob"), vec!["m1"]);
    }

    #[test]
    fn code_bound_comparison_fails_silently() {
        // A meta-variable bound to a code variable cannot satisfy an
        // object-level comparison — the env is dropped, not an error.
        let db = eval(
            "said([| p(X) <- q(X,alice). |]).\n\
             said([| p(Y) <- q(Y,bob). |]).\n\
             src(W) <- said(R), R = [| p(V) <- q(V,W). |], W != alice.",
        );
        assert_eq!(tuples(&db, "src"), vec!["bob"]);
    }

    #[test]
    fn stats_reported() {
        let program = parse_program(
            "edge(a,b). edge(b,c).\n\
             reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        )
        .unwrap();
        let builtins = Builtins::new();
        let mut db = Database::new();
        let stats = Engine::new(&program.rules, &builtins).run(&mut db).unwrap();
        assert!(stats.derived >= 5); // 2 edges + 3 reach
        assert!(stats.rounds >= 2);
        assert!(stats.rule_evals > 0);
    }

    #[test]
    fn a_literal_and_its_negation_never_both_hold() {
        // The matcher compares key and ordinary arguments as one flat
        // list, so the stored quote matches the pattern although the two
        // rules are not `==`. Negation once asked `==` instead and derived
        // `no()` beside `yes()`.
        let db = eval(
            "q([| p[a](b). |]). t().
             yes() <- t(), q([| p(a,b). |]).
             no() <- t(), !q([| p(a,b). |]).",
        );
        assert_eq!(db.count(Symbol::intern("yes")), 1);
        assert_eq!(db.count(Symbol::intern("no")), 0);
        // And with the pattern closed only by the environment.
        let db = eval(
            "q([| p[a](b). |]). arg(a,b). arg(b,a).
             yes(X,Y) <- arg(X,Y), q([| p(X,Y). |]).
             no(X,Y) <- arg(X,Y), !q([| p(X,Y). |]).",
        );
        assert_eq!(tuples(&db, "yes"), vec!["a,b"]);
        assert_eq!(tuples(&db, "no"), vec!["b,a"]);
    }

    /// `says(hub,me,[| good(s_i). |])` for `i < n`, in `rel`.
    fn says_good(rel: &mut Relation, n: usize) {
        for i in 0..n {
            let fact = parse_program(&format!("says(hub,me,[| good(s{i}). |])."))
                .unwrap()
                .rules
                .remove(0);
            let tuple = fact.heads[0]
                .all_args()
                .map(|t| Bindings::new().resolve(t).expect("ground"))
                .collect();
            assert!(rel.insert(tuple));
        }
    }

    /// How many tuples of `rel` a probe for `atom` under `env` is shown.
    fn shown(rel: &Relation, atom: &Atom, env: &Bindings, from: usize) -> usize {
        let mut n = 0;
        let _ = rel.probe(&probe_key(atom, env), from, |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    #[test]
    fn a_probe_costs_what_it_matches() {
        let body = |src: &str| {
            let rule = parse_program(&format!("h() <- {src}."))
                .unwrap()
                .rules
                .remove(0);
            rule.body[0].atom().unwrap().clone()
        };
        let closed = body("says(hub,me,[| good(P). |])");
        let by_sender = body("says(hub,me,R)");
        let open = body("says(hub,me,[| G(P). |])");
        let mut p5 = Bindings::new();
        p5.bind_value(Symbol::intern("P"), Value::sym("s5"));
        for n in [16, 4096] {
            let mut rel = Relation::new();
            says_good(&mut rel, n);
            // A closed quote pattern is a key: one tuple, whatever n is.
            assert_eq!(shown(&rel, &closed, &p5, 0), 1);
            assert_eq!(
                shown(&rel, &body("says(hub,me,[| good(s5). |])"), &p5, 0),
                1
            );
            // An open one is not: the bucket of says(hub,me,_) is all n...
            assert_eq!(shown(&rel, &closed, &Bindings::new(), 0), n);
            assert_eq!(shown(&rel, &open, &p5, 0), n);
            assert_eq!(shown(&rel, &by_sender, &p5, 0), n);
            // ...of which a one-tuple delta window is one.
            assert_eq!(shown(&rel, &by_sender, &p5, n - 1), 1);
            assert_eq!(shown(&rel, &closed, &p5, 6), 0);
            let mut found = Vec::new();
            probe(&rel, &closed, &p5, 0, &mut found);
            assert_eq!(found, [p5.clone()]);
            assert!(matches_any(&rel, &closed, &p5));
        }
    }

    #[test]
    fn probe_answers_survive_colliding_hashes() {
        let mut colliding = Relation::with_colliding_hashes();
        let mut plain = Relation::new();
        says_good(&mut colliding, 64);
        says_good(&mut plain, 64);
        let rule = parse_program("h(P) <- says(hub,me,[| good(P). |]).")
            .unwrap()
            .rules
            .remove(0);
        let atom = rule.body[0].atom().unwrap();
        let matches = |rel: &Relation, env: &Bindings, from: usize| {
            let mut out = Vec::new();
            probe(rel, atom, env, from, &mut out);
            out
        };
        let mut p9 = Bindings::new();
        p9.bind_value(Symbol::intern("P"), Value::sym("s9"));
        assert!(shown(&colliding, atom, &p9, 0) > 1, "the hashes do collide");
        for env in [Bindings::new(), p9] {
            for from in [0, 9, 10, 64] {
                assert_eq!(matches(&colliding, &env, from), matches(&plain, &env, from));
            }
        }
    }
}

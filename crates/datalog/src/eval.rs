//! Bottom-up evaluation: stratified semi-naive fixpoint (the LogicBlox
//! execution model, §3.1 of the paper) plus a naive evaluator that
//! `tests/equivalence.rs` holds the semi-naive one equal to.
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
use crate::strata::{stratify, StratifyError};
use crate::unify::{Bindings, Visit};
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

/// Statistics from one evaluation run (tests count its fixpoint rounds).
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
    /// Maximum total tuples in the database, counting what the round
    /// under way has derived and not yet inserted (duplicates of stored
    /// tuples included): the derivation that passes it is the last.
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

/// What [`Engine::for_each_solution`] calls once per solution, with the
/// environment extended to that solution; `Break` ends the search and an
/// error ends it and is returned.
pub type Solved<'a> = dyn FnMut(&mut Bindings) -> Result<ControlFlow<()>, EvalError> + 'a;

/// What a run needs of a rule set besides the rules, none of which
/// depends on the database: worked out once per [`CompiledRules`] (or per
/// run, by an ad-hoc engine) instead of once per stratum, round or rule
/// evaluation.
#[derive(Clone, Debug)]
struct Plan {
    strata: Vec<StratumPlan>,
    rules: Vec<RulePlan>,
}

#[derive(Clone, Debug)]
struct RulePlan {
    /// [`Rule::is_pattern`].
    pattern: bool,
    /// Per body item: a positive literal over a builtin.
    builtin: Vec<bool>,
}

#[derive(Clone, Debug, Default)]
struct StratumPlan {
    /// Aggregate rules; they run once, before the fixpoint.
    agg: Vec<usize>,
    plain: Vec<usize>,
    /// The predicates the plain rules derive into.
    heads: Vec<Symbol>,
    /// `(rule, body position, predicate, predicate is of this stratum)`
    /// of every positive literal of a plain rule, in rule then body
    /// order: what a delta round walks.
    literals: Vec<(usize, usize, Symbol, bool)>,
}

impl Plan {
    fn of(rules: &[Rule], builtins: &Builtins) -> Result<Plan, StratifyError> {
        let strata = stratify(rules, &|p| builtins.contains(p))?;
        let positive = |item: &BodyItem| match item {
            BodyItem::Lit {
                negated: false,
                atom,
            } => atom.pred.name(),
            _ => None,
        };
        let stratum_plan = |indices: &Vec<usize>| {
            // The stratum's own predicates, for delta detection.
            let own = (indices.iter().flat_map(|&i| &rules[i].heads))
                .filter_map(|h| h.pred.name())
                .map(|p| strata.stratum(p))
                .max();
            let mut plan = StratumPlan::default();
            for &i in indices {
                if rules[i].agg.is_some() {
                    plan.agg.push(i);
                    continue;
                }
                plan.plain.push(i);
                for (pos, item) in rules[i].body.iter().enumerate() {
                    if let Some(pred) = positive(item) {
                        let in_stratum =
                            own.is_some() && strata.stratum_of.get(&pred) == own.as_ref();
                        plan.literals.push((i, pos, pred, in_stratum));
                    }
                }
                for pred in rules[i].heads.iter().filter_map(|h| h.pred.name()) {
                    if !plan.heads.contains(&pred) {
                        plan.heads.push(pred);
                    }
                }
            }
            plan
        };
        Ok(Plan {
            strata: strata.rules_by_stratum.iter().map(stratum_plan).collect(),
            rules: rules
                .iter()
                .map(|rule| RulePlan {
                    pattern: rule.is_pattern(),
                    builtin: (rule.body.iter())
                        .map(|item| positive(item).is_some_and(|p| builtins.contains(p)))
                        .collect(),
                })
                .collect(),
        })
    }
}

/// A rule set compiled once for repeated evaluation: the rules in one
/// shared slice plus their stratification and evaluation plan. The owner
/// (a workspace) recompiles only when the rule set — or the builtin
/// registry that decides which predicates have no extension — changes,
/// and hands the same value to every engine, DRed repair, proof search
/// and published snapshot in between.
#[derive(Debug)]
pub struct CompiledRules {
    rules: Arc<[Rule]>,
    /// Kept as a `Result` so an unstratifiable generated rule set still
    /// compiles; the error surfaces from the first run that needs
    /// strata, as it did when every run stratified for itself.
    plan: Result<Plan, StratifyError>,
    monotone: bool,
}

impl CompiledRules {
    /// Compiles `rules` against `builtins`.
    pub fn compile(rules: impl Into<Arc<[Rule]>>, builtins: &Builtins) -> CompiledRules {
        let rules: Arc<[Rule]> = rules.into();
        CompiledRules {
            plan: Plan::of(&rules, builtins),
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
    /// `None` for an ad-hoc rule slice, planned by each run.
    plan: Option<&'a Result<Plan, StratifyError>>,
    builtins: &'a Builtins,
    limits: EvalLimits,
}

/// How one positive literal of a join meets its relation.
#[derive(Clone, Copy)]
enum Restrict<'t> {
    /// Tuples at this position and after: 0 for all of them, more for a
    /// semi-naive delta window.
    From(usize),
    /// Exactly this tuple, in the relation or not (DRed's over-deletion).
    Only(&'t [Value]),
}

/// What stays the same along one join.
#[derive(Clone, Copy)]
struct Join<'j> {
    rule: &'j Rule,
    /// [`RulePlan::builtin`], when the rule is one of a planned set.
    builtin: Option<&'j [bool]>,
    db: &'j Database,
    /// The one body position that is restricted, and how.
    restricted: Option<(usize, Restrict<'j>)>,
}

impl<'j> Join<'j> {
    /// A join over a rule that has no plan.
    fn new(rule: &'j Rule, db: &'j Database, restricted: Option<(usize, Restrict<'j>)>) -> Self {
        Join {
            rule,
            builtin: None,
            db,
            restricted,
        }
    }

    fn window(window: Option<(usize, usize)>) -> Option<(usize, Restrict<'j>)> {
        window.map(|(lit, from)| (lit, Restrict::From(from)))
    }
}

/// What a fixpoint round starts from (see [`Engine::round`]).
struct Round {
    marks: Vec<(Symbol, usize)>,
    budget: usize,
}

#[cfg(test)]
thread_local! {
    /// How many head tuples this thread has instantiated.
    static HEADS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs an in-place matcher under the fallible continuation `k`. The
/// matcher's visitor cannot return an error, so the first one is set
/// aside, ends the search, and is returned once the matcher has unwound
/// (and so restored the environment).
fn bridge(
    k: &mut Solved<'_>,
    run: impl FnOnce(&mut Visit<'_>) -> ControlFlow<()>,
) -> Result<ControlFlow<()>, EvalError> {
    let mut failed = None;
    let flow = run(&mut |env| {
        k(env).unwrap_or_else(|e| {
            failed = Some(e);
            ControlFlow::Break(())
        })
    });
    failed.map_or(Ok(flow), Err)
}

impl<'a> Engine<'a> {
    /// Creates an engine over an ad-hoc rule slice; each run stratifies
    /// and plans it. Callers that evaluate one rule set repeatedly compile
    /// it once and use [`Engine::for_compiled`].
    pub fn new(rules: &'a [Rule], builtins: &'a Builtins) -> Engine<'a> {
        Engine {
            rules,
            plan: None,
            builtins,
            limits: EvalLimits::default(),
        }
    }

    /// Creates an engine over a compiled rule set, reusing its plan.
    pub fn for_compiled(compiled: &'a CompiledRules, builtins: &'a Builtins) -> Engine<'a> {
        Engine {
            rules: &compiled.rules,
            plan: Some(&compiled.plan),
            builtins,
            limits: EvalLimits::default(),
        }
    }

    /// The rules this engine evaluates.
    pub fn rules(&self) -> &'a [Rule] {
        self.rules
    }

    fn plan(&self) -> Result<Cow<'a, Plan>, EvalError> {
        match self.plan {
            Some(Ok(plan)) => Ok(Cow::Borrowed(plan)),
            Some(Err(e)) => Err(e.clone().into()),
            None => Ok(Cow::Owned(Plan::of(self.rules, self.builtins)?)),
        }
    }

    /// Overrides the safety limits.
    pub fn with_limits(mut self, limits: EvalLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Full evaluation to fixpoint with stratified semi-naive rounds.
    pub fn run(&self, db: &mut Database) -> Result<EvalStats, EvalError> {
        let plan = self.plan()?;
        let mut stats = EvalStats::default();
        for stratum in &plan.strata {
            self.run_stratum(db, &plan, stratum, &mut stats, None)?;
        }
        Ok(stats)
    }

    /// Incremental evaluation: `seeds` are `(predicate, old_end)` pairs
    /// ([`Database::end`] before the assertions) describing which relation
    /// suffixes are newly asserted. Only sound
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
    /// bindings that use a new tuple (see [`Engine::for_each_solution`]).
    pub fn run_delta(
        &self,
        db: &mut Database,
        grown: &mut HashMap<Symbol, usize>,
    ) -> Result<EvalStats, EvalError> {
        let plan = self.plan()?;
        let mut stats = EvalStats::default();
        // `grown` accumulates across strata, so later strata see earlier
        // strata's growth as delta.
        for stratum in &plan.strata {
            let derived = self.run_stratum(db, &plan, stratum, &mut stats, Some(grown))?;
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
        plan: &Plan,
        stratum: &StratumPlan,
        stats: &mut EvalStats,
        seeds: Option<&HashMap<Symbol, usize>>,
    ) -> Result<HashMap<Symbol, usize>, EvalError> {
        let mut first_new: HashMap<Symbol, usize> = HashMap::new();

        // Aggregate rules run once per stratum.
        for &i in &stratum.agg {
            stats.rule_evals += 1;
            let new_tuples = self.eval_agg_rule(&self.rules[i], Some(&plan.rules[i]), db)?;
            for (pred, tuple) in new_tuples {
                let mark = db.end(pred);
                if db.insert(pred, tuple) {
                    stats.derived += 1;
                    first_new.entry(pred).or_insert(mark);
                }
            }
        }

        // Delta windows: predicate -> start position of "new" tuples.
        let mut delta: HashMap<Symbol, usize> = HashMap::new();
        let mut derived: Vec<(Symbol, Tuple)> = Vec::new();

        match seeds {
            None => {
                // Round 0: full evaluation of every rule.
                let round = self.round(db, stratum);
                for &i in &stratum.plain {
                    stats.rule_evals += 1;
                    self.derive(i, plan, db, None, round.budget, &mut derived)?;
                }
                stats.rounds += 1;
                self.absorb(db, &mut derived, round, &mut delta, &mut first_new, stats)?;
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
            let round = self.round(db, stratum);
            for &(i, lit_idx, pred, in_stratum) in &stratum.literals {
                // A literal participates in delta joins when its
                // predicate changed this round (stratum-local
                // recursion or incremental seeds).
                let Some(&from) = delta.get(&pred) else {
                    continue;
                };
                if !(in_stratum || seeds.is_some()) {
                    continue;
                }
                stats.rule_evals += 1;
                let window = Some((lit_idx, from));
                self.derive(i, plan, db, window, round.budget, &mut derived)?;
            }
            stats.rounds += 1;
            delta.clear();
            self.absorb(db, &mut derived, round, &mut delta, &mut first_new, stats)?;
        }
        Ok(first_new)
    }

    /// What a round starts from: the next position of every relation the
    /// stratum's rules can derive into, so newly inserted tuples define
    /// the next delta, and how many tuples the round may derive before
    /// the database would pass [`EvalLimits::max_tuples`].
    fn round(&self, db: &Database, stratum: &StratumPlan) -> Round {
        Round {
            marks: stratum.heads.iter().map(|&p| (p, db.end(p))).collect(),
            budget: self.limits.max_tuples.saturating_sub(db.total_tuples()),
        }
    }

    fn tuple_limit(&self) -> EvalError {
        EvalError::LimitExceeded {
            what: format!("{} tuples", self.limits.max_tuples),
        }
    }

    /// Inserts derived tuples, updating delta windows for relations that
    /// actually grew.
    fn absorb(
        &self,
        db: &mut Database,
        derived: &mut Vec<(Symbol, Tuple)>,
        round: Round,
        delta: &mut HashMap<Symbol, usize>,
        first_new: &mut HashMap<Symbol, usize>,
        stats: &mut EvalStats,
    ) -> Result<(), EvalError> {
        for (pred, tuple) in derived.drain(..) {
            if db.insert(pred, tuple) {
                stats.derived += 1;
            }
        }
        if db.total_tuples() > self.limits.max_tuples {
            return Err(self.tuple_limit());
        }
        for (pred, mark) in round.marks {
            if db.end(pred) > mark {
                delta.insert(pred, mark);
                first_new.entry(pred).or_insert(mark);
            }
        }
        Ok(())
    }

    // ---- single-rule evaluation ------------------------------------------

    /// Evaluates rule `i` of the planned set against `db`, optionally
    /// restricting body literal `window.0` to tuples at positions
    /// `>= window.1`, and appends the head tuples to `out` — which may
    /// hold `budget` tuples and no more.
    fn derive(
        &self,
        i: usize,
        plan: &Plan,
        db: &Database,
        window: Option<(usize, usize)>,
        budget: usize,
        out: &mut Vec<(Symbol, Tuple)>,
    ) -> Result<(), EvalError> {
        let (rule, rule_plan) = (&self.rules[i], &plan.rules[i]);
        if rule_plan.pattern {
            return Err(EvalError::PatternRule {
                rule: rule.to_string(),
            });
        }
        let mut join = Join::new(rule, db, Join::window(window));
        join.builtin = Some(&rule_plan.builtin);
        self.join(join, 0, &mut Bindings::new(), &mut |env| {
            self.instantiate_heads(rule, env, out)?;
            // Checked here, per solution, so that a cross product stops
            // within a tuple of its budget instead of after the round.
            if out.len() > budget {
                return Err(self.tuple_limit());
            }
            Ok(ControlFlow::Continue(()))
        })
        .map(|_| ())
    }

    /// Visits every extension of `env` that satisfies the body of `rule`
    /// (which need not be one of the engine's own). With
    /// `window = (i, from)`, body literal `i` only matches tuples at
    /// positions `>= from` — the semi-naive delta window, which the
    /// constraint checker also uses to visit just the premise bindings
    /// that rest on a new tuple.
    ///
    /// The join is depth-first on the one environment: body item *i* is
    /// evaluated left to right under the bindings of items *0..i*, each
    /// of its answers is bound in place, and the search descends into
    /// item *i + 1* before trying the next answer — so the working set is
    /// the body's length, not the number of partial solutions. Solutions
    /// reach `visit` in the lexicographic order of (tuple position at
    /// literal 0, at literal 1, …), the order a breadth-first evaluation
    /// lists them in. `env` is as it was when this returns (see
    /// [`Bindings`]); what `visit` wants to keep of a solution it must
    /// copy out. `Break` from `visit` ends the search at once — a caller
    /// asking *whether* there is a solution pays for the first.
    pub fn for_each_solution(
        &self,
        rule: &Rule,
        db: &Database,
        env: &mut Bindings,
        window: Option<(usize, usize)>,
        visit: &mut Solved<'_>,
    ) -> Result<ControlFlow<()>, EvalError> {
        self.join(Join::new(rule, db, Join::window(window)), 0, env, visit)
    }

    /// [`Engine::for_each_solution`] from the empty environment, with
    /// body literal `idx` matched against `tuple` and nothing else.
    pub(crate) fn for_each_pinned(
        &self,
        rule: &Rule,
        db: &Database,
        idx: usize,
        tuple: &[Value],
        visit: &mut Solved<'_>,
    ) -> Result<ControlFlow<()>, EvalError> {
        let join = Join::new(rule, db, Some((idx, Restrict::Only(tuple))));
        self.join(join, 0, &mut Bindings::new(), visit)
    }

    /// Visits every solution of `rule`'s body under which `head`, one of
    /// its head atoms, is `tuple`: the rule instances that conclude it.
    pub(crate) fn for_each_proof(
        &self,
        rule: &Rule,
        head: &Atom,
        tuple: &[Value],
        db: &Database,
        visit: &mut Solved<'_>,
    ) -> Result<ControlFlow<()>, EvalError> {
        let mut body = |env: &mut Bindings| self.for_each_solution(rule, db, env, None, visit);
        bridge(&mut body, |visit| {
            Bindings::new().match_tuple(head, tuple, visit)
        })
    }

    /// Visits every extension of `env` that satisfies the one body item
    /// `item`, evaluated as an item of `rule` would be (exposed for the
    /// constraint checker, whose requirement formulas share literal,
    /// comparison and builtin semantics with the fixpoint).
    pub fn for_each_item(
        &self,
        rule: &Rule,
        item: &BodyItem,
        db: &Database,
        env: &mut Bindings,
        visit: &mut Solved<'_>,
    ) -> Result<ControlFlow<()>, EvalError> {
        let join = Join::new(rule, db, None);
        self.item(join, item, None, Restrict::From(0), env, visit)
    }

    /// The join from body position `idx` on.
    fn join(
        &self,
        join: Join<'_>,
        idx: usize,
        env: &mut Bindings,
        visit: &mut Solved<'_>,
    ) -> Result<ControlFlow<()>, EvalError> {
        let Some(item) = join.rule.body.get(idx) else {
            return visit(env);
        };
        let source = match join.restricted {
            Some((at, restrict)) if at == idx => restrict,
            _ => Restrict::From(0),
        };
        let builtin = join.builtin.map(|flags| flags[idx]);
        self.item(join, item, builtin, source, env, &mut |env| {
            self.join(join, idx + 1, env, visit)
        })
    }

    /// Evaluates one body item under `env`, calling `k` with each
    /// extension that satisfies it.
    fn item(
        &self,
        join: Join<'_>,
        item: &BodyItem,
        builtin: Option<bool>,
        source: Restrict<'_>,
        env: &mut Bindings,
        k: &mut Solved<'_>,
    ) -> Result<ControlFlow<()>, EvalError> {
        let rule = join.rule;
        match item {
            BodyItem::Lit {
                negated: false,
                atom,
            } => {
                let pred = atom.pred.name().expect("concrete rule");
                let from = match source {
                    Restrict::From(from) => from,
                    Restrict::Only(tuple) => {
                        return bridge(k, |visit| env.match_tuple(atom, tuple, visit));
                    }
                };
                if builtin.unwrap_or_else(|| self.builtins.contains(pred)) {
                    let args: Vec<Option<Value>> =
                        atom.all_args().map(|t| env.resolve(t)).collect();
                    let tuples = self
                        .builtins
                        .invoke(pred, &args)
                        .expect("a builtin, as just checked")?;
                    bridge(k, |visit| {
                        (tuples.iter()).try_for_each(|tuple| env.match_tuple(atom, tuple, visit))
                    })
                } else if let Some(rel) = join.db.relation(pred) {
                    bridge(k, |visit| probe(rel, atom, env, from, visit))
                } else {
                    Ok(ControlFlow::Continue(()))
                }
            }
            BodyItem::Lit {
                negated: true,
                atom,
            } => {
                let pred = atom.pred.name().expect("concrete rule");
                if self.negation_holds(rule, atom, pred, env, join.db)? {
                    k(env)
                } else {
                    Ok(ControlFlow::Continue(()))
                }
            }
            BodyItem::Cmp { op, lhs, rhs } => self.eval_cmp(rule, *op, lhs, rhs, env, k),
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
        env: &mut Bindings,
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
        env: &mut Bindings,
        k: &mut Solved<'_>,
    ) -> Result<ControlFlow<()>, EvalError> {
        let lv = self.eval_expr(lhs, env)?;
        let rv = self.eval_expr(rhs, env)?;
        // A side that failed to resolve because a variable is bound to
        // non-value code can never satisfy an object-level comparison.
        if (lv.is_none() && self.expr_code_bound(lhs, env))
            || (rv.is_none() && self.expr_code_bound(rhs, env))
        {
            // Exception: Eq against a quote pattern still matches (the
            // pattern side legitimately resolves to None).
            let quote_side = matches!(lhs, Expr::Term(Term::Quote(_)))
                || matches!(rhs, Expr::Term(Term::Quote(_)));
            if !(op == CmpOp::Eq && quote_side) {
                return Ok(ControlFlow::Continue(()));
            }
        }
        let holds = match (op, lv, rv) {
            (CmpOp::Eq, Some(l), Some(r)) => {
                // Quote patterns compare by matching, not identity: this is
                // what makes `R = [| P(T*) <- A*. |]` bind P (del1, §4.2).
                if let (Expr::Term(t @ Term::Quote(_)), Value::Quote(_)) = (lhs, &r) {
                    return bridge(k, |visit| env.match_value(t, &r, visit));
                }
                if let (Expr::Term(t @ Term::Quote(_)), Value::Quote(_)) = (rhs, &l) {
                    return bridge(k, |visit| env.match_value(t, &l, visit));
                }
                l == r
            }
            (CmpOp::Eq, Some(l), None) => return self.try_bind(rule, rhs, &l, env, k),
            (CmpOp::Eq, None, Some(r)) => return self.try_bind(rule, lhs, &r, env, k),
            (CmpOp::Ne, Some(l), Some(r)) => l != r,
            (CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge, Some(l), Some(r)) => {
                let (Value::Int(a), Value::Int(b)) = (&l, &r) else {
                    return Err(EvalError::TypeError {
                        message: format!("ordering comparison on non-integers: {l} {op} {r}"),
                    });
                };
                match op {
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    _ => a >= b,
                }
            }
            _ => {
                return Err(EvalError::Unbound {
                    item: format!("{lhs} {op} {rhs}"),
                    rule: rule.to_string(),
                })
            }
        };
        if holds {
            k(env)
        } else {
            Ok(ControlFlow::Continue(()))
        }
    }

    /// For `X = <value>` where one side is an unbound bare variable or an
    /// unmatched quote pattern.
    fn try_bind(
        &self,
        rule: &Rule,
        target: &Expr,
        value: &Value,
        env: &mut Bindings,
        k: &mut Solved<'_>,
    ) -> Result<ControlFlow<()>, EvalError> {
        match target {
            Expr::Term(t @ (Term::Var(_) | Term::Quote(_))) => {
                bridge(k, |visit| env.match_value(t, value, visit))
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
                #[cfg(test)]
                HEADS.with(|n| n.set(n.get() + 1));
                out.push((pred, tuple));
            }
        }
        Ok(())
    }

    // ---- aggregation -------------------------------------------------------

    /// Evaluates an aggregate rule (§4.2.2): collect satisfying
    /// environments, group by the resolved head arguments (with the
    /// result position held out), and fold the aggregated variable.
    fn eval_agg_rule(
        &self,
        rule: &Rule,
        plan: Option<&RulePlan>,
        db: &Database,
    ) -> Result<Vec<(Symbol, Tuple)>, EvalError> {
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
        let mut join = Join::new(rule, db, None);
        join.builtin = plan.map(|p| &p.builtin[..]);
        let _ = self.join(join, 0, &mut Bindings::new(), &mut |env| {
            let projection: Vec<Option<Value>> =
                body_vars.iter().map(|v| env.value(*v).cloned()).collect();
            if !seen.insert(projection) {
                return Ok(ControlFlow::Continue(()));
            }
            let over = env
                .value(agg.over)
                .cloned()
                .ok_or_else(|| EvalError::Unbound {
                    item: format!("{}", agg.over),
                    rule: rule.to_string(),
                })?;
            let mut key = Vec::with_capacity(head.arity());
            for term in head.all_args() {
                match term {
                    Term::Var(v) if *v == agg.result => key.push(GroupSlot::Result),
                    other => match env.resolve(other) {
                        Some(val) => key.push(GroupSlot::Val(val)),
                        None => return Ok(ControlFlow::Continue(())),
                    },
                }
            }
            let slot = *slot_of.entry(key).or_insert_with_key(|key| {
                groups.push((key.clone(), Vec::new()));
                groups.len() - 1
            });
            groups[slot].1.push(over);
            Ok(ControlFlow::Continue(()))
        })?;

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

/// Visits, in insertion order, every extension of `env` under which
/// `atom` matches a tuple of `rel` at position `from` or later. With
/// [`matches_any`], the one way a literal — positive or negated, in the
/// fixpoint or in proof search — meets a relation: the index narrows the
/// candidates, `match_tuple` decides.
fn probe(
    rel: &Relation,
    atom: &Atom,
    env: &mut Bindings,
    from: usize,
    visit: &mut Visit<'_>,
) -> ControlFlow<()> {
    let key = probe_key(atom, env);
    rel.probe(&key, from, |tuple| env.match_tuple(atom, tuple, visit))
}

/// Whether [`probe`] would find anything: what a negated literal asks.
fn matches_any(rel: &Relation, atom: &Atom, env: &mut Bindings) -> bool {
    probe(rel, atom, env, 0, &mut |_| ControlFlow::Break(())).is_break()
}

/// Naive evaluation: every rule re-evaluated in full each round until no
/// new tuples appear. Kept as the reference semi-naive evaluation must
/// equal: `tests/equivalence.rs`'s `seminaive_equals_naive`.
pub fn run_naive(
    rules: &[Rule],
    db: &mut Database,
    builtins: &Builtins,
) -> Result<EvalStats, EvalError> {
    let engine = Engine::new(rules, builtins);
    let plan = engine.plan()?;
    let mut stats = EvalStats::default();
    let mut derived = Vec::new();
    for stratum in &plan.strata {
        for &i in &stratum.agg {
            stats.rule_evals += 1;
            for (pred, tuple) in engine.eval_agg_rule(&rules[i], Some(&plan.rules[i]), db)? {
                if db.insert(pred, tuple) {
                    stats.derived += 1;
                }
            }
        }
        loop {
            stats.rounds += 1;
            let mut new = 0usize;
            for &i in &stratum.plain {
                stats.rule_evals += 1;
                let budget = engine.round(db, stratum).budget;
                engine.derive(i, &plan, db, None, budget, &mut derived)?;
                for (pred, tuple) in derived.drain(..) {
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
        let mark = inc.end(edge);
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

    #[test]
    fn a_join_derives_in_the_order_of_its_literals() {
        // 2 x 3 x 2 solutions: the first literal's tuples vary slowest,
        // the order a breadth-first join listed its environments in.
        let db = eval(
            "a(1). a(2). b(1). b(2). b(3). c(1). c(2).
             h(A,B,C) <- a(A), b(B), c(C).",
        );
        let h: Vec<String> = (db.relation(Symbol::intern("h")).unwrap().iter())
            .map(|t| format!("{}{}{}", t[0], t[1], t[2]))
            .collect();
        assert_eq!(
            h,
            ["111", "112", "121", "122", "131", "132", "211", "212", "221", "222", "231", "232"]
        );
    }

    /// `p(A,B,C,D) <- n(A), n(B), n(C), n(D).` over `facts` `n` facts,
    /// under `max_tuples`; also how many head tuples were instantiated.
    fn cross_product(facts: usize, max_tuples: usize) -> (Result<EvalStats, EvalError>, usize) {
        let program = parse_program("p(A,B,C,D) <- n(A), n(B), n(C), n(D).").unwrap();
        let builtins = Builtins::new();
        let mut db = Database::new();
        for i in 0..facts {
            db.insert(Symbol::intern("n"), vec![Value::Int(i as i64)]);
        }
        let limits = EvalLimits {
            max_tuples,
            ..EvalLimits::default()
        };
        let before = HEADS.with(std::cell::Cell::get);
        let outcome = Engine::new(&program.rules, &builtins)
            .with_limits(limits)
            .run(&mut db);
        (outcome, HEADS.with(std::cell::Cell::get) - before)
    }

    #[test]
    fn a_cross_product_stops_within_a_tuple_of_its_budget() {
        // 64^4 = 16.7 M solutions, of which the budget allows 936.
        let (outcome, instantiated) = cross_product(64, 1_000);
        let err = outcome.expect_err("over the limit");
        assert!(matches!(err, EvalError::LimitExceeded { .. }), "{err}");
        assert_eq!(err.to_string(), "evaluation limit exceeded: 1000 tuples");
        assert!(instantiated <= 1_001, "{instantiated} head tuples");
        // 200^4 = 1.6 G: only reachable because nothing is held per
        // partial solution.
        let (outcome, instantiated) = cross_product(200, 1_000);
        assert!(matches!(outcome, Err(EvalError::LimitExceeded { .. })));
        assert!(instantiated <= 1_001, "{instantiated} head tuples");
        // Within budget, the limit is not in the way.
        let (outcome, instantiated) = cross_product(5, 1_000);
        assert_eq!(outcome.unwrap().derived, 625);
        assert_eq!(instantiated, 625);
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
            let found = p5.solutions(|env, visit| probe(&rel, &closed, env, 0, visit));
            assert_eq!(found, [p5.clone()]);
            assert!(matches_any(&rel, &closed, &mut p5));
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
            (env.clone()).solutions(|env, visit| probe(rel, atom, env, from, visit))
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

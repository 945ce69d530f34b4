//! Workspaces: "essentially a database instance which contains a set of
//! predicate definitions and a set of active rules (similar to continuous
//! queries)" (§3.1 of the paper).
//!
//! A [`Workspace`] owns one principal's context: its rules (tagged, so
//! authentication preludes can be swapped — the reconfigurability story),
//! constraints (schema- and meta-), asserted base facts, and the
//! materialized database. Evaluation is a **staged fixpoint**: run the
//! semi-naive engine, extract rules generated into `active`/`rule`
//! (§3.3 code generation), install them (with `me` resolution, safety
//! checks, reflection), and repeat until no new rules appear; then check
//! constraints, rolling the workspace back if any is violated ("the
//! evaluation of the Datalog program fails by terminating with an
//! error", §3.2). What an evaluation costs follows what changed since
//! the last one — see [`Workspace::evaluate`].

use crate::principal::Principal;
use lbtrust_datalog::ast::{Atom, BodyItem, Constraint, Rule};
use lbtrust_datalog::dred::{self, Removed};
use lbtrust_datalog::eval::{CompiledRules, Engine, EvalError, EvalStats};
use lbtrust_datalog::intern::names;
use lbtrust_datalog::provenance::{explain_with_base, ProofText};
use lbtrust_datalog::safety::{check_rule, check_rule_at, SafetyError};
use lbtrust_datalog::strata::{stratify_spanned, StratifyError};
use lbtrust_datalog::{
    parse_program, Builtins, Database, ParseError, PositionIndex, SharedVec, Span, Symbol, Tuple,
    Value,
};
use lbtrust_metamodel::constraintcheck::{check_fail, CheckError, ConstraintSet, Scope};
use lbtrust_metamodel::reflect::reflect_into;
use lbtrust_metamodel::{generated_rules, MetaPreds};
use std::cell::OnceCell;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

/// Errors from workspace operations.
#[derive(Debug)]
pub enum WsError {
    /// Source failed to parse.
    Parse(ParseError),
    /// A rule failed the safety (range-restriction) check.
    Safety(SafetyError),
    /// The program (combined with the rules already installed) is not
    /// stratifiable — rejected at load time, before any fact is
    /// asserted or evaluation attempted.
    Stratify(StratifyError),
    /// Evaluation failed.
    Eval(EvalError),
    /// A constraint (or `fail()`) was violated; the workspace rolled
    /// back.
    Constraint(CheckError),
    /// The staged meta-fixpoint did not converge.
    MetaDivergence {
        /// Stages executed before giving up.
        stages: usize,
    },
}

impl fmt::Display for WsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsError::Parse(e) => write!(f, "{e}"),
            WsError::Safety(e) => write!(f, "{e}"),
            WsError::Stratify(e) => write!(f, "{e}"),
            WsError::Eval(e) => write!(f, "{e}"),
            WsError::Constraint(e) => write!(f, "{e}"),
            WsError::MetaDivergence { stages } => {
                write!(
                    f,
                    "meta-programming fixpoint did not converge after {stages} stages"
                )
            }
        }
    }
}

impl std::error::Error for WsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WsError::Parse(e) => Some(e),
            WsError::Safety(e) => Some(e),
            WsError::Stratify(e) => Some(e),
            WsError::Eval(e) => Some(e),
            WsError::Constraint(e) => Some(e),
            WsError::MetaDivergence { .. } => None,
        }
    }
}

impl From<ParseError> for WsError {
    fn from(e: ParseError) -> Self {
        WsError::Parse(e)
    }
}
impl From<StratifyError> for WsError {
    fn from(e: StratifyError) -> Self {
        WsError::Stratify(e)
    }
}
impl From<SafetyError> for WsError {
    fn from(e: SafetyError) -> Self {
        WsError::Safety(e)
    }
}
impl From<EvalError> for WsError {
    fn from(e: EvalError) -> Self {
        WsError::Eval(e)
    }
}
impl From<CheckError> for WsError {
    fn from(e: CheckError) -> Self {
        WsError::Constraint(e)
    }
}

/// Cap on meta-fixpoint stages (each stage installs at least one new
/// generated rule, so divergence means runaway code generation).
const MAX_META_STAGES: usize = 64;

/// How a retraction was repaired (see [`Workspace::retract_facts`]).
#[derive(Clone, Copy, Debug)]
pub enum RetractOutcome {
    /// No listed fact was a base fact — nothing changed.
    Noop,
    /// The database was repaired in place by DRed; the statistics count
    /// over-deleted and re-derived tuples.
    Incremental(lbtrust_datalog::dred::DredStats),
    /// Repair was deferred to the next evaluation (a non-monotonic
    /// program, pending rule changes or pending assertions force a
    /// rebuild from base).
    Deferred,
}

/// What the next [`Workspace::evaluate`] owes, cheapest first. Events
/// between evaluations only ever raise the debt (`max`); a successful
/// evaluation clears it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Owed {
    /// Settled: the last evaluation succeeded and nothing has changed.
    Nothing,
    /// Propagate `seeds`, then check constraints against that growth and
    /// against what `removed` lists — the database held every constraint
    /// before those two deltas.
    Delta,
    /// Propagate `seeds`, then check every constraint in full: a restore
    /// replaced the state the deltas were relative to.
    Recheck,
    /// Re-derive everything from the base facts: rules, constraints or
    /// builtins changed, or a retraction could not be repaired in place.
    Rebuild,
}

/// One principal's context.
pub struct Workspace {
    me: Principal,
    meta: MetaPreds,
    /// Shared with every published snapshot until somebody asks for
    /// [`Workspace::builtins_mut`].
    builtins: Arc<Builtins>,
    /// User rules grouped by tag (preludes are swappable by tag). Shared
    /// with the rollback baseline until a load or swap changes them.
    rules: Arc<Vec<(String, Arc<Rule>)>>,
    /// Constraints grouped by tag, shared like `rules`.
    constraints: Arc<Vec<(String, Constraint)>>,
    /// Rules installed by code generation (cleared on rebuild).
    generated: Vec<Arc<Rule>>,
    /// Content ids of every installed rule.
    installed: HashSet<u64>,
    /// `rules` then `generated`, compiled on first use after either (or
    /// the builtin registry) changed.
    program: OnceLock<Arc<CompiledRules>>,
    /// `constraints`, compiled on first use after they changed.
    checks: Option<ConstraintSet>,
    /// Facts asserted from outside (the EDB), in assertion order.
    base_facts: BaseFacts,
    db: Database,
    /// What the next evaluation has to do.
    owed: Owed,
    /// Incremental seeds: relation growth since the last evaluate.
    seeds: HashMap<Symbol, usize>,
    /// Tuples DRed repairs removed since the last evaluate.
    removed: Removed,
    /// Accumulated evaluation statistics.
    stats: EvalStats,
    /// Where the last successful evaluation left the workspace; failed
    /// evaluations (constraint violations) roll back to it, which also
    /// undoes the offending assertions — the paper's "terminates with an
    /// error" transaction semantics.
    committed: Option<Committed>,
    /// Monotone database-change counter: bumped whenever the
    /// materialized database (or the base it will be rebuilt from) may
    /// differ from what a reader last saw — fact assertion, incremental
    /// retraction repair, rollback restore, and any evaluation that
    /// rebuilt or derived. Never decremented, so snapshot publishers can
    /// compare epochs across time.
    epoch: u64,
    /// Counts the events after which a tuple may sit at another position
    /// in its relation: re-packs, rebuilds, restores.
    compactions: u64,
}

/// The facts asserted from outside (the EDB), one entry per supporting
/// copy, in assertion order. A retracted copy becomes a tombstone
/// ([`SharedVec::kill`]), so positions — and the rollback baseline's mark
/// into them — move only when the tombstones reach the live copies and
/// the facts re-pack. `copies` finds a fact's live copies without a scan;
/// it is built at the first retraction and kept from then on, so a
/// workspace that only ever asserts (a `says` receiver) hashes no fact
/// for it.
#[derive(Clone, Default)]
pub(crate) struct BaseFacts {
    facts: SharedVec<(Symbol, Tuple)>,
    /// Hash of a fact -> the positions of its live copies, once built.
    copies: Option<PositionIndex>,
}

impl BaseFacts {
    /// Whether `pred(tuple)` has a live copy, asked by a proof search
    /// (`lbtrust_datalog::provenance::explain_with_base`) — only once it
    /// has met a cycle. Through `copies` once built; before that, through
    /// a set of the live facts built at the first question.
    pub(crate) fn asserted(&self) -> impl Fn(Symbol, &[Value]) -> bool + '_ {
        let set = OnceCell::new();
        move |pred, tuple| match &self.copies {
            Some(index) => {
                let listed = index.positions_from(BaseFacts::hash(pred, tuple), 0);
                listed.iter().any(|&pos| {
                    let (p, t) = self.facts.get(pos as usize);
                    *p == pred && t[..] == *tuple
                })
            }
            None => set
                .get_or_init(|| {
                    (self.facts.iter())
                        .map(|(p, t)| (*p, &t[..]))
                        .collect::<HashSet<_>>()
                })
                .contains(&(pred, tuple)),
        }
    }

    /// The hash `pred(tuple)` is listed under in `copies`.
    fn hash(pred: Symbol, tuple: &[Value]) -> u64 {
        static KEYS: OnceLock<RandomState> = OnceLock::new();
        KEYS.get_or_init(RandomState::new).hash_one((pred, tuple))
    }

    fn push(&mut self, pred: Symbol, tuple: Tuple) {
        if let Some(copies) = &mut self.copies {
            let pos = u32::try_from(self.facts.end()).expect("under 2^32 base facts");
            copies.add(BaseFacts::hash(pred, &tuple), pos);
        }
        self.facts.push((pred, tuple));
    }

    /// The positions of the live copies of `pred(tuple)`, ascending.
    fn copies(&mut self, pred: Symbol, tuple: &[Value]) -> Vec<usize> {
        let facts = &self.facts;
        let index = self.copies.get_or_insert_with(|| {
            let mut index = PositionIndex::new();
            for (pos, (p, t)) in facts.entries_from(0) {
                index.add(BaseFacts::hash(*p, t), pos as u32);
            }
            index
        });
        let listed = index.positions_from(BaseFacts::hash(pred, tuple), 0);
        let same = |pos: &usize| {
            let (p, t) = facts.get(*pos);
            *p == pred && t == tuple
        };
        listed
            .iter()
            .map(|&pos| pos as usize)
            .filter(same)
            .collect()
    }

    /// Takes the live copy at `pos` out of `copies`.
    fn unlist(&mut self, pos: usize) {
        if let Some(copies) = &mut self.copies {
            let (pred, tuple) = self.facts.get(pos);
            copies.remove(BaseFacts::hash(*pred, tuple), pos as u32);
        }
    }

    /// Retracts the live copy at `pos`: a tombstone, nothing moves.
    fn kill(&mut self, pos: usize) {
        self.unlist(pos);
        self.facts.kill(pos);
    }

    /// Re-packs once the tombstones reach the live copies, returning the
    /// positions that went (ascending; none when it did not re-pack).
    fn repack_if_due(&mut self) -> Vec<usize> {
        if self.facts.tombstones() == 0 || self.facts.tombstones() < self.facts.len() {
            return Vec::new();
        }
        let gone = self.facts.repack();
        if let Some(copies) = &mut self.copies {
            copies.close_gaps(&gone);
        }
        gone
    }

    /// Drops the copies and tombstones at position `end` and after.
    fn truncate(&mut self, end: usize) {
        if self.copies.is_some() {
            let cut: Vec<usize> = self.facts.entries_from(end).map(|(pos, _)| pos).collect();
            for pos in cut {
                self.unlist(pos);
            }
        }
        self.facts.truncate(end);
    }
}

/// The rollback baseline: the state after the last successful
/// evaluation, recorded as **watermarks** into the live state rather than
/// as a copy of it. Between two evaluations relations, base facts and
/// generated rules only grow at the end (a removal leaves a tombstone in
/// place), so their next positions say what to cut off; what can change
/// anywhere — the rule and constraint lists — is held by `Arc`, shared
/// with the live lists until a load or swap copies them. The events that
/// move positions keep the marks true: a re-pack of the base facts moves
/// the base-fact mark with it, a DRed repair re-takes the relation marks
/// (a retraction is never undone), and a rebuild sets the old database
/// aside until the new one is accepted.
#[derive(Clone)]
struct Committed {
    /// The next position of every relation.
    relations: HashMap<Symbol, usize>,
    base_facts: usize,
    generated: usize,
    rules: Arc<Vec<(String, Arc<Rule>)>>,
    constraints: Arc<Vec<(String, Constraint)>>,
    /// [`Workspace::epoch`] when the marks were taken.
    epoch: u64,
    /// Whether the marked database is not the fixpoint of the marked rules
    /// and base facts, so a rollback must rebuild it.
    rebuild: bool,
}

impl Committed {
    fn mark_relations(&mut self, db: &Database) {
        self.relations.clear();
        self.relations.extend(db.ends());
    }
}

/// A copy of a workspace's state for [`Workspace::restore`]. Relations
/// and base facts are shared with the workspace, not copied (see
/// `lbtrust_datalog::Relation`): taking one costs a pointer per relation
/// and per chunk of base facts, and each side copies a chunk only when it
/// next writes into it.
#[derive(Clone)]
pub struct Snapshot {
    db: Database,
    rules: Arc<Vec<(String, Arc<Rule>)>>,
    constraints: Arc<Vec<(String, Constraint)>>,
    generated: Vec<Arc<Rule>>,
    base_facts: BaseFacts,
    /// Whether `db` is not the fixpoint of the captured rules and base
    /// facts, so a restore must rebuild it.
    rebuild: bool,
    /// The rollback baseline of the captured state, as marks into it.
    committed: Option<Committed>,
}

impl Workspace {
    /// Creates an empty workspace for principal `me`. Type predicates
    /// (`int(X)`, `string(X)`, …) are pre-registered so Figure 1-style
    /// typing constraints work out of the box; cryptographic builtins
    /// are registered by the [`crate::System`] (they need key material).
    pub fn new(me: &str) -> Workspace {
        let mut builtins = Builtins::new();
        lbtrust_datalog::builtins::register_type_predicates(&mut builtins);
        Workspace {
            me: Symbol::intern(me),
            meta: MetaPreds::new(),
            builtins: Arc::new(builtins),
            rules: Arc::default(),
            constraints: Arc::default(),
            generated: Vec::new(),
            installed: HashSet::new(),
            program: OnceLock::new(),
            checks: None,
            base_facts: BaseFacts::default(),
            db: Database::new(),
            owed: Owed::Rebuild,
            seeds: HashMap::new(),
            removed: Removed::new(),
            stats: EvalStats::default(),
            committed: None,
            epoch: 0,
            compactions: 0,
        }
    }

    /// The local principal.
    pub fn me(&self) -> Principal {
        self.me
    }

    /// Mutable access to the builtin registry (register crypto builtins
    /// etc. before loading rules). Which predicates are builtins, and
    /// what they answer, decides the strata and every derivation, so the
    /// next evaluation — and any rollback before it — rebuilds.
    pub fn builtins_mut(&mut self) -> &mut Builtins {
        self.definitions_changed();
        if let Some(base) = &mut self.committed {
            base.rebuild = true;
        }
        Arc::make_mut(&mut self.builtins)
    }

    /// The builtin registry — one allocation for as long as
    /// [`Workspace::builtins_mut`] is not called, so a published snapshot
    /// shares it.
    pub fn builtins(&self) -> &Arc<Builtins> {
        &self.builtins
    }

    /// The materialized database (read-only view).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Accumulated evaluation statistics.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The workspace's database-change epoch (see the field doc). Two
    /// equal epochs bracket a window in which the materialized database
    /// did not change, so derived state captured at the first read is
    /// still exact at the second.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Counts the events that may have moved tuples within their
    /// relations: re-packs, rebuilds, restores. A DRed repair that only
    /// left tombstones is not one. While it stands still every tuple keeps
    /// its position and new ones are appended, so a caller that remembers
    /// a relation's [`lbtrust_datalog::Relation::end`] has seen every
    /// tuple before it.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The installed user + generated rules, compiled: one shared slice
    /// with its stratification, rebuilt only after the rule set changed.
    /// Evaluation, DRed repair, proof search and published snapshots all
    /// take this.
    pub fn program(&self) -> &Arc<CompiledRules> {
        self.program.get_or_init(|| {
            let rules: Vec<Rule> = self.installed_rules().map(|r| r.as_ref().clone()).collect();
            Arc::new(CompiledRules::compile(rules, &self.builtins))
        })
    }

    /// The rule set, the constraints or the builtins changed: drop what
    /// was compiled from them and re-derive from base.
    fn definitions_changed(&mut self) {
        self.program = OnceLock::new();
        self.checks = None;
        self.owed = Owed::Rebuild;
    }

    /// User rules, then generated ones.
    fn installed_rules(&self) -> impl Iterator<Item = &Arc<Rule>> {
        self.rules.iter().map(|(_, r)| r).chain(&self.generated)
    }

    /// Currently installed user + generated rules (for inspection).
    pub fn active_rules(&self) -> Vec<Arc<Rule>> {
        self.installed_rules().cloned().collect()
    }

    // ---- loading ----------------------------------------------------------

    /// Parses and installs a program under `tag`. The `me` keyword is
    /// resolved to this workspace's principal everywhere, including
    /// inside quoted code.
    ///
    /// Install-time checks run *before* any state changes: every rule
    /// must be safe (range-restricted), and the program combined with
    /// the rules already installed must be stratifiable. A rejected
    /// program leaves the workspace untouched, and the structured error
    /// cites the offending rule's source position.
    pub fn load(&mut self, tag: &str, src: &str) -> Result<(), WsError> {
        let program = parse_program(src)?;
        let me_sym = names().me;
        let mut pending: Vec<(Arc<Rule>, Span)> = Vec::with_capacity(program.rules.len());
        for (i, rule) in program.rules.iter().enumerate() {
            let span = program.rule_span(i);
            let rule = Arc::new(rule.clone().substitute_sym(me_sym, self.me));
            check_rule_at(&rule, &self.builtins, span)?;
            pending.push((rule, span));
        }
        // Stratify the combined rule set (already-installed rules carry
        // no source position; new rules cite theirs).
        let mut combined: Vec<Rule> = Vec::with_capacity(self.rules.len() + pending.len());
        let mut spans: Vec<Span> = Vec::with_capacity(combined.capacity());
        for (_, rule) in self.rules.iter() {
            combined.push((**rule).clone());
            spans.push(Span::UNKNOWN);
        }
        for (rule, span) in &pending {
            combined.push((**rule).clone());
            spans.push(*span);
        }
        let builtins = &self.builtins;
        stratify_spanned(&combined, &spans, &|p| builtins.contains(p))?;

        let rules = Arc::make_mut(&mut self.rules);
        for (rule, _) in pending {
            self.installed.insert(rule.content_id());
            rules.push((tag.to_string(), rule));
        }
        let constraints = Arc::make_mut(&mut self.constraints);
        for constraint in program.constraints {
            let constraint = substitute_constraint(&constraint, me_sym, self.me);
            constraints.push((tag.to_string(), constraint));
        }
        self.definitions_changed();
        Ok(())
    }

    /// Installs a program under `tag` on behalf of `owner`, recording
    /// `owner(rule, principal)` facts for every rule (§3.3). Combined
    /// with the `MAY_READ_OWNER`/`MAY_WRITE_OWNER` meta-constraints,
    /// the next evaluation rejects rules that read or write predicates
    /// the owner has no `access` grant for — and rolls this load back.
    pub fn load_owned(&mut self, tag: &str, src: &str, owner: Principal) -> Result<(), WsError> {
        let before = self.rules.len();
        self.load(tag, src)?;
        let owner_pred = Symbol::intern("owner");
        let new_rules: Vec<Arc<Rule>> = self.rules[before..]
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        for rule in new_rules {
            self.assert_fact(owner_pred, vec![Value::Quote(rule), Value::Sym(owner)]);
        }
        Ok(())
    }

    /// Removes every rule and constraint previously loaded under `tag`,
    /// then installs `src` in its place. This is the paper's two-rule
    /// authentication swap (§4.1.2).
    pub fn replace_tag(&mut self, tag: &str, src: &str) -> Result<(), WsError> {
        Arc::make_mut(&mut self.rules).retain(|(t, r)| {
            if t == tag {
                self.installed.remove(&r.content_id());
                false
            } else {
                true
            }
        });
        Arc::make_mut(&mut self.constraints).retain(|(t, _)| t != tag);
        self.definitions_changed();
        self.load(tag, src)
    }

    // ---- facts -------------------------------------------------------------

    /// Asserts a base fact.
    pub fn assert_fact(&mut self, pred: Symbol, tuple: Tuple) {
        // Even a second copy of a present tuple is a change: the next
        // evaluation must carry the extra support into the rollback
        // baseline.
        self.owed = self.owed.max(Owed::Delta);
        if self.db.contains(pred, &tuple) {
            // Already present (possibly derived); still record as base so
            // it survives a rebuild.
            self.base_facts.push(pred, tuple);
            return;
        }
        let mark = self.db.end(pred);
        self.base_facts.push(pred, tuple.clone());
        self.db.insert(pred, tuple);
        self.seeds.entry(pred).or_insert(mark);
        self.epoch += 1;
    }

    /// Asserts a batch of base facts (one supporting copy each) — the
    /// certificate-import and log-replay reconciliation path, which
    /// asserts many `export`/`says` facts before one evaluation.
    pub fn assert_facts(&mut self, facts: &[(Symbol, Tuple)]) {
        for (pred, tuple) in facts {
            self.assert_fact(*pred, tuple.clone());
        }
    }

    /// Parses and asserts facts, e.g. `"neighbor(a,b). neighbor(b,c)."`.
    /// Quote arguments are allowed when they contain no pattern
    /// constructs (`important([| payload(1). |]).`).
    pub fn assert_src(&mut self, src: &str) -> Result<(), WsError> {
        let program = parse_program(src)?;
        let me_sym = names().me;
        for rule in &program.rules {
            let rule = rule.substitute_sym(me_sym, self.me);
            let fact = (rule.body.is_empty() && rule.agg.is_none() && rule.heads.len() == 1)
                .then(|| {
                    let head = &rule.heads[0];
                    let pred = head.pred.name()?;
                    let tuple: Option<Tuple> = head.all_args().map(term_to_ground_value).collect();
                    Some((pred, tuple?))
                })
                .flatten();
            let Some((pred, tuple)) = fact else {
                return Err(WsError::Parse(ParseError {
                    message: format!("'{rule}' is not a ground fact"),
                    line: 0,
                    col: 0,
                }));
            };
            self.assert_fact(pred, tuple);
        }
        if !program.constraints.is_empty() {
            return Err(WsError::Parse(ParseError {
                message: "assert_src takes facts only".into(),
                line: 0,
                col: 0,
            }));
        }
        Ok(())
    }

    /// Retracts a base fact (all copies). For positive programs the
    /// repair is incremental — the DRed delete-and-rederive algorithm
    /// (§3.1 "active rules are incrementally recomputed") — otherwise
    /// the next evaluation re-derives everything from the remaining base.
    pub fn retract_fact(&mut self, pred: Symbol, tuple: &[Value]) -> bool {
        let copies = self.base_facts.copies(pred, tuple).len();
        self.retract_facts(&vec![(pred, tuple.to_vec()); copies]);
        copies > 0
    }

    /// Retracts **one supporting copy** of each listed base fact, then
    /// repairs the database in a single DRed pass for every fact whose
    /// last copy disappeared. Duplicated base facts model multiple live
    /// credentials asserting the same conclusion: the conclusion stands
    /// while any copy remains (the certificate store's retraction path
    /// relies on this).
    pub fn retract_facts(&mut self, facts: &[(Symbol, Tuple)]) -> RetractOutcome {
        let mut gone: Vec<(Symbol, Tuple)> = Vec::new();
        let mark = self.committed.as_ref().map_or(0, |base| base.base_facts);
        for (pred, tuple) in facts {
            let copies = self.base_facts.copies(*pred, tuple);
            // A copy the baseline does not hold goes first: the baseline
            // gives one up only when the live EDB has no other left, so a
            // rollback neither brings a retracted copy back (a retraction
            // is never undone, and a tombstone below the mark stays) nor
            // drops a copy that is still supported.
            let unmarked = copies.iter().find(|&&pos| pos >= mark);
            let Some(&victim) = unmarked.or(copies.first()) else {
                continue;
            };
            self.base_facts.kill(victim);
            if copies.len() == 1 {
                gone.push((*pred, tuple.clone()));
            }
        }
        let moved = self.base_facts.repack_if_due();
        if let Some(base) = &mut self.committed {
            base.base_facts -= moved.partition_point(|&pos| pos < base.base_facts);
        }
        if gone.is_empty() {
            return RetractOutcome::Noop;
        }
        self.repair_after_retraction(gone)
    }

    /// Repairs derived state after `retracted` left the EDB: the DRed
    /// incremental path when the program admits it, otherwise marking
    /// the workspace for a full rebuild on the next evaluation.
    fn repair_after_retraction(&mut self, retracted: Vec<(Symbol, Tuple)>) -> RetractOutcome {
        // DRed needs a positive program over a database at its fixpoint.
        // With assertions still pending it has neither: the repair would
        // compact the relations under their growth marks, and the
        // repaired state — unevaluated assertions included — could not
        // become the rollback baseline. Those assertions stay alive in
        // `base_facts`, and the rebuild derives from them.
        if self.owed == Owed::Rebuild || !self.seeds.is_empty() || !self.program().is_monotone() {
            return self.defer_retraction();
        }
        let program = self.program().clone();
        let engine = Engine::for_compiled(&program, &self.builtins);
        // Whatever comes of the repair, it removes tuples as it goes.
        self.epoch += 1;
        match dred::retract_with(&engine, &mut self.db, &retracted) {
            // A repair that takes a rule out of `active`/`rule` has
            // withdrawn the reason a generated rule was installed; only a
            // rebuild uninstalls it (and what it concluded).
            Ok((stats, removed))
                if !removed.contains_key(&self.meta.active)
                    && !removed.contains_key(&self.meta.rule) =>
            {
                // Tombstones leave every position where it was; only a
                // re-pack moves tuples.
                if stats.repacks > 0 {
                    self.compactions += 1;
                }
                for (pred, tuples) in removed {
                    self.removed.entry(pred).or_default().extend(tuples);
                }
                self.owed = self.owed.max(Owed::Delta);
                // The repaired state is the new baseline: the marks are
                // re-taken over the repaired relations.
                self.commit();
                RetractOutcome::Incremental(stats)
            }
            // That, or a failure (e.g. a generated pattern construct the
            // DRed fragment rejects), falls back to full recomputation.
            // The attempt may have re-packed, so marks taken before it no
            // longer say which tuples are new.
            _ => {
                self.compactions += 1;
                if let Some(base) = &mut self.committed {
                    base.mark_relations(&self.db);
                }
                self.defer_retraction()
            }
        }
    }

    /// Leaves the repair to the next evaluation's rebuild. A rollback in
    /// between must rebuild as well: the baseline's materialized db still
    /// contains the stale derivations.
    fn defer_retraction(&mut self) -> RetractOutcome {
        self.owed = Owed::Rebuild;
        if let Some(base) = &mut self.committed {
            base.rebuild = true;
        }
        RetractOutcome::Deferred
    }

    // ---- queries -----------------------------------------------------------

    /// The tuples of `pred`, cloned in insertion order.
    pub fn tuples(&self, pred: Symbol) -> Vec<Tuple> {
        self.db
            .relation(pred)
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Whether `pred(tuple)` holds.
    pub fn holds(&self, pred: Symbol, tuple: &[Value]) -> bool {
        self.db.contains(pred, tuple)
    }

    /// Whether the fact written as `src` (e.g. `"access(alice,f,read)"`)
    /// holds.
    pub fn holds_src(&self, src: &str) -> Result<bool, WsError> {
        let (pred, atom) = self.parse_goal(src)?;
        let tuple: Option<Tuple> = atom.all_args().map(|t| t.as_val().cloned()).collect();
        match tuple {
            Some(t) => Ok(self.db.contains(pred, &t)),
            None => Ok(self.matching(pred, &atom).next().is_some()),
        }
    }

    /// The atom written as `src`, with `me` resolved, and its predicate.
    /// A pattern predicate is refused.
    fn parse_goal(&self, src: &str) -> Result<(Symbol, Atom), WsError> {
        let atom = lbtrust_datalog::parse_atom(src)?;
        let atom = atom.substitute_sym(names().me, self.me);
        let pred = atom.pred.name().ok_or(WsError::Parse(ParseError {
            message: "pattern queries not supported here".into(),
            line: 0,
            col: 0,
        }))?;
        Ok((pred, atom))
    }

    /// The tuples of `pred` that match `atom`, in insertion order.
    fn matching<'a>(&'a self, pred: Symbol, atom: &'a Atom) -> impl Iterator<Item = &'a Tuple> {
        self.db
            .relation(pred)
            .into_iter()
            .flat_map(|rel| rel.iter())
            .filter(|t| lbtrust_datalog::Bindings::new().matches(atom, t))
    }

    /// Serializes the workspace's rules, constraints and base facts as
    /// LBTrust source text. Loading the result into a fresh workspace
    /// (rules via [`Workspace::load`], facts via
    /// [`Workspace::assert_src`]) reproduces the same conclusions —
    /// canonical text is the durability format, exactly as it is the
    /// wire format.
    pub fn export_program(&self) -> String {
        let mut out = String::new();
        out.push_str("// constraints\n");
        for (tag, c) in self.constraints.iter() {
            out.push_str(&format!("// tag: {tag}\n{c}\n"));
        }
        out.push_str("// rules\n");
        for (tag, r) in self.rules.iter() {
            out.push_str(&format!("// tag: {tag}\n{r}\n"));
        }
        out.push_str("// base facts\n");
        for (pred, tuple) in self.base_facts.facts.iter() {
            let args: Vec<String> = tuple.iter().map(ToString::to_string).collect();
            out.push_str(&format!("{pred}({}).\n", args.join(",")));
        }
        out
    }

    /// Renders the named predicates as a table — the stand-in for the
    /// paper's §9 "visualization tool used in LogicBlox to display a
    /// table of the values of various predicates".
    pub fn dump(&self, preds: &[&str]) -> String {
        let mut out = String::new();
        for name in preds {
            let pred = Symbol::intern(name);
            out.push_str(&format!("{} @ {}:\n", name, self.me));
            let tuples = self.tuples(pred);
            if tuples.is_empty() {
                out.push_str("  (none)\n");
            }
            for t in tuples {
                let row: Vec<String> = t.iter().map(ToString::to_string).collect();
                out.push_str(&format!("  {}({})\n", name, row.join(", ")));
            }
        }
        out
    }

    /// The tuples of the goal's relation that match `goal_src` (e.g.
    /// `"access(alice, O, read)"`), in insertion order, after evaluating
    /// whatever is owed ([`Workspace::evaluate`]).
    ///
    /// The answer is the fixpoint's: the goal is matched against the
    /// materialized database, so every rule the workspace evaluates —
    /// aggregation, negation of derived predicates, meta-programming —
    /// is supported on the goal's dependency path. If the owed
    /// evaluation fails (say, a constraint is violated) that error is
    /// returned and the workspace is rolled back. A goal with a pattern
    /// predicate is a [`WsError::Parse`], as in [`Workspace::holds_src`].
    pub fn query_goal(&mut self, goal_src: &str) -> Result<Vec<Tuple>, WsError> {
        let (pred, atom) = self.parse_goal(goal_src)?;
        self.evaluate()?;
        Ok(self.matching(pred, &atom).cloned().collect())
    }

    /// Explains how a fact was derived (provenance, §7 of the paper):
    /// the rendered proof tree, one line per tuple. Every proof is
    /// well-founded — no tuple sits below itself — and its leaves are
    /// program facts, asserted facts and facts no rule instance
    /// concludes. Returns `None` if the fact does not hold, and also,
    /// failing closed, if it was not asserted and its only derivations
    /// lead back to it, or if the search tries more rule instances than a
    /// fixed bound allows
    /// ([`lbtrust_datalog::provenance::explain_with_base`]).
    pub fn explain(&self, fact_src: &str) -> Result<Option<String>, WsError> {
        Ok(self.explain_proof(fact_src)?.map(|proof| proof.to_string()))
    }

    /// [`Workspace::explain`], but returning the proof tree with the
    /// rules it indexes, unrendered — callers that need the
    /// derivation's *premises* (e.g. [`crate::System::authorize`] citing
    /// the certificates a grant rests on) walk [`ProofText::tree`].
    pub fn explain_proof(&self, fact_src: &str) -> Result<Option<ProofText>, WsError> {
        let rules = self.program().rules();
        explain_goal(
            self.me,
            rules,
            &self.db,
            &self.builtins,
            &self.base_facts,
            fact_src,
        )
    }

    /// The facts asserted from outside, shared.
    pub(crate) fn base_facts(&self) -> &BaseFacts {
        &self.base_facts
    }

    // ---- evaluation ---------------------------------------------------------

    /// Takes a snapshot to [`Workspace::restore`] later, sharing the
    /// database and the base facts with the workspace instead of copying
    /// them.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            db: self.db.clone(),
            rules: self.rules.clone(),
            constraints: self.constraints.clone(),
            generated: self.generated.clone(),
            base_facts: self.base_facts.clone(),
            rebuild: self.owed == Owed::Rebuild || !self.seeds.is_empty(),
            committed: self.committed.clone(),
        }
    }

    /// Restores a snapshot taken earlier, rollback baseline included. A
    /// restored state is never taken on trust: the next evaluation
    /// re-checks every constraint, and rebuilds if the snapshot — or the
    /// state it replaces, whose builtins stay — was owed a rebuild.
    pub fn restore(&mut self, snap: Snapshot) {
        let stale = self.owed == Owed::Rebuild;
        self.db = snap.db;
        self.rules = snap.rules;
        self.constraints = snap.constraints;
        self.generated = snap.generated;
        self.base_facts = snap.base_facts;
        self.committed = snap.committed;
        if let Some(base) = &mut self.committed {
            base.rebuild |= stale;
        }
        self.state_replaced(snap.rebuild || stale);
    }

    /// After a restore or a rollback put an earlier state in place:
    /// nothing is pending against it, everything derived from the rule
    /// lists is stale, and no tuple position can be relied on.
    fn state_replaced(&mut self, rebuild: bool) {
        self.installed = self.installed_rules().map(|r| r.content_id()).collect();
        self.seeds.clear();
        self.removed.clear();
        self.definitions_changed();
        if !rebuild {
            self.owed = Owed::Recheck;
        }
        // A rollback changes the database; the epoch stays monotone (it
        // counts changes, it does not identify states).
        self.epoch += 1;
        self.compactions += 1;
    }

    /// Makes the current state the rollback baseline by taking its marks.
    fn commit(&mut self) {
        let last = self.committed.take();
        let mut base = Committed {
            // The last baseline's map, for its allocation.
            relations: last.map(|base| base.relations).unwrap_or_default(),
            base_facts: self.base_facts.facts.end(),
            generated: self.generated.len(),
            rules: self.rules.clone(),
            constraints: self.constraints.clone(),
            epoch: self.epoch,
            rebuild: false,
        };
        base.mark_relations(&self.db);
        self.committed = Some(base);
    }

    /// Makes the current state the rollback baseline without evaluating
    /// it: the marks are taken over the base facts asserted so far, and
    /// the baseline is flagged as not the fixpoint, so a rollback to it
    /// rebuilds. What the state owes stays owed to the next evaluation.
    /// A registration marks a newcomer's introduced facts this way
    /// instead of evaluating a workspace its first policy load would
    /// rebuild anyway.
    pub(crate) fn mark_baseline(&mut self) {
        self.commit();
        if let Some(base) = &mut self.committed {
            base.rebuild = true;
        }
    }

    /// Undoes a failed evaluation: puts back what a rebuild `displaced`,
    /// then cuts everything that only grew back to the baseline's marks.
    fn roll_back(&mut self, base: &Committed, displaced: Displaced) {
        if let Some(db) = displaced.db {
            self.db = db;
        }
        if let Some(generated) = displaced.generated {
            self.generated = generated;
        }
        self.db.truncate(&base.relations);
        self.base_facts.truncate(base.base_facts);
        self.generated.truncate(base.generated);
        self.rules = base.rules.clone();
        self.constraints = base.constraints.clone();
        // Rules and constraints are the baseline's again, so unless
        // something they do not cover changed under it (the builtins, a
        // retraction left to a rebuild) its database still is their
        // fixpoint.
        self.state_replaced(base.rebuild);
    }

    /// Runs `f` transactionally: on error the workspace is rolled back to
    /// its state before the call.
    pub fn transaction<T>(
        &mut self,
        f: impl FnOnce(&mut Workspace) -> Result<T, WsError>,
    ) -> Result<T, WsError> {
        let snap = self.snapshot();
        match f(self) {
            Ok(v) => Ok(v),
            Err(e) => {
                self.restore(snap);
                Err(e)
            }
        }
    }

    /// Resets the database to base facts plus reflections of the current
    /// rule set (user and generated), returning the one it replaces.
    /// Generated rules are kept — callers that invalidated them clear
    /// `generated` first.
    fn reset_db(&mut self) -> Database {
        let old = std::mem::take(&mut self.db);
        self.compactions += 1;
        for (pred, tuple) in self.base_facts.facts.iter() {
            self.db.insert(*pred, tuple.clone());
        }
        for rule in self.rules.iter().map(|(_, r)| r).chain(&self.generated) {
            reflect_installed(rule, &self.meta, &mut self.db);
        }
        old
    }

    /// Brings the workspace to its (staged) fixpoint and checks its
    /// constraints, at a cost that follows what changed since the last
    /// successful evaluation rather than what is stored. One decision,
    /// cheapest first:
    ///
    /// 1. **Settled** — nothing was asserted, retracted, loaded, swapped
    ///    or restored, and the builtin registry was not handed out:
    ///    returns `EvalStats::default()` without touching the engine,
    ///    the constraints, the rollback baseline or the [`epoch`].
    /// 2. **Incremental** — only facts were asserted and/or DRed repaired
    ///    retractions in place, over a program without negation or
    ///    aggregation: the new facts are propagated semi-naively (a
    ///    repair left nothing to propagate), and each constraint without
    ///    negation is checked only for premise bindings that use a new
    ///    tuple or whose requirement could have used a removed one. A
    ///    stage that installs a generated rule, and any constraint with
    ///    negation, falls back to a full run and a full check.
    /// 3. **Rebuild** — rules, constraints or builtins changed, a
    ///    retraction could not be repaired in place, or the program has
    ///    negation/aggregation and anything changed: the database is
    ///    re-derived from the base facts and every constraint checked.
    ///
    /// Steps 1 and 2 rely on the **purity contract**: a builtin's answer
    /// is a function of its arguments alone. Key material reaches rules
    /// as facts (`rsapubkey`, `sharedsecret`), so a new key arrives as a
    /// seed like any other assertion and an old answer never goes stale.
    ///
    /// On failure (constraint violation, unsafe generated rule, …) the
    /// workspace rolls back to the state after its last *successful*
    /// evaluation, undoing the offending assertions.
    ///
    /// **Rollback is truncation.** No outcome copies the store to be able
    /// to undo itself. A successful evaluation records the *next
    /// positions* of every relation and of the base facts, the length of
    /// the generated rules, and keeps the rule and constraint lists by
    /// `Arc`. What each outcome then needs for undo: (1) nothing — it
    /// changed nothing; (2) those marks — an insert-only run appended to
    /// relations, and a failure cuts them (and the asserted base facts,
    /// and any rule generated on the way) back off; (3) the database and
    /// the generated rules it replaces, set aside by move until the
    /// rebuilt ones pass their checks, and put back — then cut to the same
    /// marks — if they do not. A DRed repair between evaluations is not
    /// undone by a later failure (a retraction never is): it re-takes the
    /// marks over the relations it repaired.
    ///
    /// [`epoch`]: Workspace::epoch
    pub fn evaluate(&mut self) -> Result<EvalStats, WsError> {
        let owed = match self.owed {
            Owed::Nothing => return Ok(EvalStats::default()),
            // Negation or aggregation can observe any change; such a
            // program re-derives from base (keeping its generated rules —
            // monotone extraction re-finds them anyway).
            Owed::Delta | Owed::Recheck if !self.program().is_monotone() => Owed::Rebuild,
            owed => owed,
        };
        let mut displaced = Displaced::default();
        match self.evaluate_inner(owed, &mut displaced) {
            Ok(stats) => {
                // A rebuild replaces the database wholesale, which changes
                // it even when zero tuples are "derived".
                if owed == Owed::Rebuild || stats.derived > 0 {
                    self.epoch += 1;
                }
                self.owed = Owed::Nothing;
                self.removed.clear();
                // After a DRed repair with nothing asserted since, the
                // marks the repair took still stand.
                let marked = self.committed.as_ref().is_some_and(|base| {
                    base.epoch == self.epoch && base.base_facts == self.base_facts.facts.end()
                });
                if !marked {
                    self.commit();
                }
                Ok(stats)
            }
            Err(e) => {
                match self.committed.take() {
                    Some(base) => {
                        self.roll_back(&base, displaced);
                        self.committed = Some(base);
                    }
                    None => {
                        // Nothing ever succeeded: reset to an empty,
                        // facts-free state with the loaded rules intact.
                        self.base_facts = BaseFacts::default();
                        self.db = Database::new();
                        self.seeds.clear();
                        self.removed.clear();
                        self.owed = Owed::Rebuild;
                        self.epoch += 1;
                        self.compactions += 1;
                    }
                }
                Err(e)
            }
        }
    }

    fn evaluate_inner(
        &mut self,
        owed: Owed,
        displaced: &mut Displaced,
    ) -> Result<EvalStats, WsError> {
        // An owed rebuild (rules changed / deferred retraction)
        // invalidates the generated rules along with the database; the
        // from-scratch run of a non-monotonic program keeps them.
        if self.owed == Owed::Rebuild {
            displaced.generated = Some(std::mem::take(&mut self.generated));
            self.installed = self.rules.iter().map(|(_, r)| r.content_id()).collect();
            self.program = OnceLock::new();
        }
        let mut fresh = owed == Owed::Rebuild;
        // The delta-scoped constraint check holds only while this
        // evaluation is one insert-only incremental run.
        let mut scoped = owed == Owed::Delta;
        let mut grown = std::mem::take(&mut self.seeds);
        let mut total = EvalStats::default();
        for stage in 0.. {
            if stage >= MAX_META_STAGES {
                return Err(WsError::MetaDivergence { stages: stage });
            }
            if fresh {
                // The first database set aside is the one to go back to.
                let old = self.reset_db();
                displaced.db.get_or_insert(old);
            }
            let program = self.program().clone();
            let engine = Engine::for_compiled(&program, &self.builtins);
            let incremental = stage == 0 && !fresh;
            let stats = if !incremental {
                engine.run(&mut self.db)?
            } else if grown.is_empty() {
                // Repaired in place, or only a duplicate base copy:
                // nothing to propagate.
                EvalStats::default()
            } else {
                engine.run_delta(&mut self.db, &mut grown)?
            };
            total.rounds += stats.rounds;
            total.derived += stats.derived;
            total.rule_evals += stats.rule_evals;

            // Code generation: install new rules derived into
            // active/rule, then run another stage (§3.3: "those new facts
            // turn into a new rule which must itself be evaluated"). An
            // incremental run that grew neither table generated nothing.
            if incremental
                && !grown.contains_key(&self.meta.active)
                && !grown.contains_key(&self.meta.rule)
            {
                break;
            }
            let me_sym = names().me;
            let mut new_rules = Vec::new();
            for quote in generated_rules(&self.db, &self.meta) {
                let resolved = quote.substitute_sym(me_sym, self.me);
                let id = resolved.content_id();
                if !self.installed.contains(&id) && !resolved.is_pattern() {
                    new_rules.push(Arc::new(resolved));
                }
            }
            if new_rules.is_empty() {
                break;
            }
            scoped = false;
            self.program = OnceLock::new();
            for rule in new_rules {
                check_rule(&rule, &self.builtins)?;
                self.installed.insert(rule.content_id());
                if !fresh {
                    reflect_installed(&rule, &self.meta, &mut self.db);
                }
                // A generated rule with negation/aggregation switches the
                // remaining stages to from-scratch mode so its
                // non-monotonic conclusions are sound.
                fresh |= rule.is_non_monotonic();
                self.generated.push(rule);
            }
        }

        // Constraint checking (schema constraints, meta-constraints, and
        // the fail() predicate).
        check_fail(&self.db)?;
        let constraints = &self.constraints;
        let checks = self.checks.get_or_insert_with(|| {
            ConstraintSet::compile(constraints.iter().map(|(_, c)| c.clone()))
        });
        let scope = if scoped {
            Scope::Delta {
                grown: &grown,
                removed: &self.removed,
            }
        } else {
            Scope::Full
        };
        checks.check(&self.db, &self.builtins, scope)?;
        self.stats.rounds += total.rounds;
        self.stats.derived += total.derived;
        self.stats.rule_evals += total.rule_evals;
        Ok(total)
    }
}

/// What a rebuild replaced, kept until the rebuilt state is accepted so a
/// failed evaluation can put it back.
#[derive(Default)]
struct Displaced {
    db: Option<Database>,
    generated: Option<Vec<Arc<Rule>>>,
}

/// Reflects an installed rule into the meta-model and the `active` table
/// (§3.3), which both enables reflection-style rules like `pull0` and
/// makes code generation idempotent.
fn reflect_installed(rule: &Arc<Rule>, meta: &MetaPreds, db: &mut Database) {
    reflect_into(rule, meta, db);
    db.insert(meta.active, vec![Value::Quote(rule.clone())]);
}

/// Proves the ground fact written as `fact_src` (with `me` resolved to
/// `me`) over `rules`, `db`, `builtins` and the asserted `base`. The one
/// goal parser behind [`Workspace::explain_proof`] on the live workspace
/// and the [`crate::AuthzReader`]s on a published snapshot of the same
/// four.
pub(crate) fn explain_goal(
    me: Principal,
    rules: &Arc<[Rule]>,
    db: &Database,
    builtins: &Builtins,
    base: &BaseFacts,
    fact_src: &str,
) -> Result<Option<ProofText>, WsError> {
    let atom = lbtrust_datalog::parse_atom(fact_src)?;
    let atom = atom.substitute_sym(names().me, me);
    let pred = atom.pred.name().ok_or(WsError::Parse(ParseError {
        message: "explain takes a concrete fact".into(),
        line: 0,
        col: 0,
    }))?;
    let tuple: Option<Tuple> = atom.all_args().map(|t| t.as_val().cloned()).collect();
    let Some(tuple) = tuple else {
        return Err(WsError::Parse(ParseError {
            message: "explain takes a ground fact".into(),
            line: 0,
            col: 0,
        }));
    };
    let asserted = base.asserted();
    let proof = explain_with_base(rules, db, builtins, &asserted, pred, &tuple);
    Ok(proof.map(|proof| ProofText::new(proof, rules.clone())))
}

/// Converts a term to a ground value, accepting concrete quotes (code
/// without pattern constructs) alongside ordinary values.
fn term_to_ground_value(term: &lbtrust_datalog::Term) -> Option<Value> {
    use lbtrust_datalog::Term;
    match term {
        Term::Val(v) => Some(v.clone()),
        Term::Quote(r) if !r.is_pattern() => Some(Value::Quote(r.clone())),
        _ => None,
    }
}

/// `me`-resolution for constraints.
fn substitute_constraint(c: &Constraint, from: Symbol, to: Symbol) -> Constraint {
    // Reuse the rule substitution by packing the constraint into a rule
    // body plus a formula walk.
    use lbtrust_datalog::ast::Formula;
    fn subst_formula(f: &Formula, from: Symbol, to: Symbol) -> Formula {
        match f {
            Formula::Item(item) => Formula::Item(subst_item(item, from, to)),
            Formula::And(parts) => {
                Formula::And(parts.iter().map(|p| subst_formula(p, from, to)).collect())
            }
            Formula::Or(parts) => {
                Formula::Or(parts.iter().map(|p| subst_formula(p, from, to)).collect())
            }
            Formula::Not(inner) => Formula::Not(Box::new(subst_formula(inner, from, to))),
        }
    }
    fn subst_item(item: &BodyItem, from: Symbol, to: Symbol) -> BodyItem {
        let carrier = Rule {
            heads: Vec::new(),
            body: vec![item.clone()],
            agg: None,
        };
        carrier.substitute_sym(from, to).body.remove(0)
    }
    Constraint {
        body: c.body.iter().map(|i| subst_item(i, from, to)).collect(),
        requires: subst_formula(&c.requires, from, to),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn vals(parts: &[&str]) -> Tuple {
        parts.iter().map(|p| Value::sym(p)).collect()
    }

    #[test]
    fn load_and_evaluate_simple_policy() {
        let mut ws = Workspace::new("alice");
        ws.load("policy", "access(P,file1,read) <- good(P).")
            .unwrap();
        ws.assert_src("good(carol). good(dave).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds_src("access(carol,file1,read)").unwrap());
        assert!(ws.holds_src("access(dave,file1,read)").unwrap());
        assert!(!ws.holds_src("access(eve,file1,read)").unwrap());
    }

    #[test]
    fn me_resolution() {
        let mut ws = Workspace::new("alice");
        ws.load("p", "mine(me).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("mine"), &vals(&["alice"])));
    }

    #[test]
    fn incremental_assertions() {
        let mut ws = Workspace::new("w");
        ws.load(
            "tc",
            "reach(X,Y) <- edge(X,Y). reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        )
        .unwrap();
        ws.assert_src("edge(a,b).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("reach"), &vals(&["a", "b"])));
        // Incremental: new edge extends reach without a rebuild.
        ws.assert_src("edge(b,c).").unwrap();
        let stats = ws.evaluate().unwrap();
        assert!(ws.holds(sym("reach"), &vals(&["a", "c"])));
        assert!(stats.derived >= 2);
    }

    #[test]
    fn constraint_violation_rolls_back() {
        let mut ws = Workspace::new("w");
        ws.load("schema", "access(P,O,M) -> principal(P).").unwrap();
        ws.assert_src("principal(alice).").unwrap();
        ws.assert_fact(sym("access"), vals(&["alice", "f", "read"]));
        ws.evaluate().unwrap();
        // A violating fact rolls everything back.
        ws.assert_fact(sym("access"), vals(&["mallory", "f", "read"]));
        let err = ws.evaluate().unwrap_err();
        assert!(matches!(err, WsError::Constraint(_)));
        // The poisoned fact is gone after rollback...
        assert!(!ws.holds(sym("access"), &vals(&["mallory", "f", "read"])));
        // ...and the workspace still evaluates cleanly.
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("access"), &vals(&["alice", "f", "read"])));
    }

    #[test]
    fn fail_rule_rolls_back() {
        let mut ws = Workspace::new("w");
        ws.load("schema", "fail() <- bad(X).").unwrap();
        ws.evaluate().unwrap();
        ws.assert_src("bad(thing).").unwrap();
        assert!(ws.evaluate().is_err());
        assert!(!ws.holds(sym("bad"), &vals(&["thing"])));
    }

    #[test]
    fn code_generation_via_active() {
        // A rule that activates another rule when a fact appears
        // (simplified del1).
        let mut ws = Workspace::new("alice");
        ws.load(
            "deleg",
            "active([| trusted(X) <- vouched(U2,X). |]) <- delegates(me,U2).",
        )
        .unwrap();
        ws.assert_src("delegates(alice,bob). vouched(bob,carol).")
            .unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("trusted"), &vals(&["carol"])));
        // The generated rule shows up among active rules.
        assert!(ws
            .active_rules()
            .iter()
            .any(|r| r.to_string().contains("trusted(X)")));
    }

    #[test]
    fn generated_rules_cascade() {
        // Generation that generates again (two stages).
        let mut ws = Workspace::new("w");
        ws.load(
            "gen",
            "active([| active([| final(done). |]) <- go2(). |]) <- go1().",
        )
        .unwrap();
        ws.assert_src("go1(). go2().").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("final"), &vals(&["done"])));
    }

    #[test]
    fn replace_tag_swaps_rules() {
        let mut ws = Workspace::new("w");
        ws.load("auth", "mode(rsa) <- on().").unwrap();
        ws.assert_src("on().").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("mode"), &vals(&["rsa"])));
        ws.replace_tag("auth", "mode(hmac) <- on().").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("mode"), &vals(&["hmac"])));
        // The old derivation is gone after the rebuild.
        assert!(!ws.holds(sym("mode"), &vals(&["rsa"])));
    }

    #[test]
    fn unstratifiable_program_rejected_at_load() {
        // Negation through recursion is refused at install time — before
        // any rule or constraint is added — and the error cites the
        // offending rule's source position.
        let mut ws = Workspace::new("w");
        ws.load("base", "win(X) <- move(X,Y), lose(Y).").unwrap();
        let err = ws.load("bad", "lose(X) <- pos(X), !win(X).").unwrap_err();
        match &err {
            WsError::Stratify(e) => {
                assert!(e.negation);
                assert_eq!(e.span, lbtrust_datalog::Span::new(1, 1));
            }
            other => panic!("expected Stratify, got {other}"),
        }
        // Structured error chain is intact.
        assert!(std::error::Error::source(&err).is_some());
        // The rejected program left no trace: the workspace still
        // evaluates, and only the first program's rule is installed.
        assert_eq!(ws.active_rules().len(), 1);
        ws.assert_src("move(a,b). pos(a).").unwrap();
        ws.evaluate().unwrap();
    }

    #[test]
    fn unsafe_rule_rejected_at_load_with_span() {
        let mut ws = Workspace::new("w");
        let err = ws
            .load("bad", "ok(X) <- good(Y).\nbad(X) <- !seen(X).")
            .unwrap_err();
        match &err {
            WsError::Safety(e) => {
                assert_eq!(e.span(), lbtrust_datalog::Span::new(1, 1));
            }
            other => panic!("expected Safety, got {other}"),
        }
        assert_eq!(ws.active_rules().len(), 0);
    }

    #[test]
    fn retraction_full_recompute() {
        let mut ws = Workspace::new("w");
        ws.load("p", "q(X) <- p(X).").unwrap();
        ws.assert_src("p(a). p(b).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("q"), &vals(&["a"])));
        assert!(ws.retract_fact(sym("p"), &vals(&["a"])));
        ws.evaluate().unwrap();
        assert!(!ws.holds(sym("q"), &vals(&["a"])));
        assert!(ws.holds(sym("q"), &vals(&["b"])));
    }

    #[test]
    fn retraction_incremental_repair_is_immediate() {
        // Positive program: the DRed path repairs the database inside
        // retract_fact, before any evaluate().
        let mut ws = Workspace::new("w");
        ws.load(
            "tc",
            "reach(X,Y) <- edge(X,Y). reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        )
        .unwrap();
        ws.assert_src("edge(a,b). edge(b,c).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("reach"), &vals(&["a", "c"])));
        assert!(ws.retract_fact(sym("edge"), &vals(&["b", "c"])));
        // No evaluate() needed: DRed already repaired.
        assert!(!ws.holds(sym("reach"), &vals(&["a", "c"])));
        assert!(!ws.holds(sym("reach"), &vals(&["b", "c"])));
        assert!(ws.holds(sym("reach"), &vals(&["a", "b"])));
        // Later evaluation keeps the repaired state consistent.
        ws.assert_src("edge(c,d).").unwrap();
        ws.evaluate().unwrap();
        assert!(!ws.holds(sym("reach"), &vals(&["a", "d"])));
        assert!(ws.holds(sym("reach"), &vals(&["c", "d"])));
    }

    #[test]
    fn negation_forces_rebuild_correctness() {
        let mut ws = Workspace::new("w");
        ws.load("p", "ok(X) <- candidate(X), !banned(X).").unwrap();
        ws.assert_src("candidate(a).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("ok"), &vals(&["a"])));
        // Banning later must retract the conclusion.
        ws.assert_src("banned(a).").unwrap();
        ws.evaluate().unwrap();
        assert!(!ws.holds(sym("ok"), &vals(&["a"])));
    }

    #[test]
    fn deferred_retraction_survives_constraint_rollback() {
        // Non-monotonic program: retraction repair is deferred to the
        // next evaluation. A constraint violation in between must not
        // resurrect the retracted fact through the rollback snapshot.
        let mut ws = Workspace::new("w");
        ws.load("p", "ok(X) <- candidate(X), !banned(X).").unwrap();
        ws.load("schema", "poison(X) -> never(X).").unwrap();
        ws.assert_src("candidate(a). candidate(b).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("ok"), &vals(&["a"])));

        // Deferred retraction (negation forces rebuild-on-evaluate).
        let outcome = ws.retract_facts(&[(sym("candidate"), vals(&["a"]))]);
        assert!(matches!(outcome, RetractOutcome::Deferred));

        // A poisoned assertion rolls the workspace back…
        ws.assert_fact(sym("poison"), vals(&["x"]));
        assert!(ws.evaluate().is_err());
        // …but the retracted fact must stay gone after the rollback.
        ws.evaluate().unwrap();
        assert!(
            !ws.holds(sym("ok"), &vals(&["a"])),
            "rollback must not resurrect a retracted base fact"
        );
        assert!(ws.holds(sym("ok"), &vals(&["b"])));
        assert!(!ws.holds(sym("poison"), &vals(&["x"])));
    }

    #[test]
    fn one_copy_retraction_keeps_duplicated_support() {
        let mut ws = Workspace::new("w");
        ws.load("p", "q(X) <- p(X).").unwrap();
        // Two credentials assert the same fact.
        ws.assert_fact(sym("p"), vals(&["a"]));
        ws.assert_fact(sym("p"), vals(&["a"]));
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("q"), &vals(&["a"])));
        // Removing one copy keeps the conclusion…
        ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("q"), &vals(&["a"])));
        // …removing the last copy retracts it.
        ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
        ws.evaluate().unwrap();
        assert!(!ws.holds(sym("q"), &vals(&["a"])));
    }

    #[test]
    fn triple_support_goes_one_copy_at_a_time() {
        let copies = |ws: &Workspace| ws.export_program().matches("p(a).").count();
        let mut ws = Workspace::new("w");
        ws.load("p", "q(X) <- p(X).").unwrap();
        for _ in 0..3 {
            ws.assert_fact(sym("p"), vals(&["a"]));
        }
        ws.evaluate().unwrap();
        for left in [2, 1] {
            let outcome = ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
            assert!(matches!(outcome, RetractOutcome::Noop));
            assert_eq!(copies(&ws), left);
            assert!(ws.holds(sym("q"), &vals(&["a"])));
        }
        let outcome = ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
        assert!(matches!(outcome, RetractOutcome::Incremental(_)));
        assert_eq!(copies(&ws), 0);
        assert!(!ws.holds(sym("q"), &vals(&["a"])));
        // `retract_fact` takes every copy in one repair.
        for _ in 0..3 {
            ws.assert_fact(sym("p"), vals(&["a"]));
        }
        ws.evaluate().unwrap();
        assert!(ws.retract_fact(sym("p"), &vals(&["a"])));
        assert_eq!(copies(&ws), 0);
        assert!(!ws.holds(sym("q"), &vals(&["a"])));
        assert!(!ws.retract_fact(sym("p"), &vals(&["a"])));
    }

    #[test]
    fn a_copy_asserted_since_the_baseline_is_retracted_first() {
        // One committed copy, one pending; one is retracted, then the
        // evaluation fails. The rollback drops what was pending — so the
        // retraction must have taken the pending copy, or the fact would
        // be left with a tuple and no support.
        let mut ws = Workspace::new("w");
        ws.load("p", "q(X) <- p(X).").unwrap();
        ws.load("schema", "poison(X) -> never(X).").unwrap();
        ws.assert_fact(sym("p"), vals(&["a"]));
        ws.evaluate().unwrap();
        ws.assert_fact(sym("p"), vals(&["a"]));
        ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
        ws.assert_fact(sym("poison"), vals(&["x"]));
        assert!(ws.evaluate().is_err());
        assert_eq!(ws.export_program().matches("p(a).").count(), 1);
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("q"), &vals(&["a"])));
        ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
        assert!(!ws.holds(sym("q"), &vals(&["a"])));
    }

    #[test]
    fn a_repair_is_committed_once_and_a_rollback_copies_nothing() {
        let mut ws = Workspace::new("w");
        ws.load("p", "q(X) <- p(X).").unwrap();
        ws.load("schema", "poison(X) -> never(X).").unwrap();
        for i in 0..200 {
            ws.assert_fact(sym("p"), vec![Value::Int(i)]);
        }
        ws.evaluate().unwrap();
        let watch = ws.snapshot();
        let shared = |ws: &Workspace, pred: &str| {
            let (live, then) = (ws.db.relation(sym(pred)), watch.db.relation(sym(pred)));
            live.unwrap().tuples_shared_with(then.unwrap())
        };
        // The repair re-takes the marks; the evaluation after it, with
        // nothing grown, leaves them alone.
        ws.retract_facts(&[(sym("p"), vec![Value::Int(199)])]);
        let marked = ws.committed.as_ref().unwrap().epoch;
        assert_eq!(marked, ws.epoch());
        ws.evaluate().unwrap();
        assert_eq!(ws.committed.as_ref().unwrap().epoch, marked);
        // A failed evaluation cuts back to the marks: the tuples before
        // them are still the very ones the earlier snapshot shares.
        ws.assert_fact(sym("p"), vec![Value::Int(1000)]);
        ws.assert_fact(sym("poison"), vals(&["x"]));
        assert!(ws.evaluate().is_err());
        assert_eq!(ws.db.count(sym("p")), 199);
        assert_eq!(ws.db.count(sym("poison")), 0);
        assert_eq!(shared(&ws, "q"), 192);
        assert_eq!(shared(&ws, "p"), 192);
        assert_eq!(
            ws.base_facts.facts.shared_with(&watch.base_facts.facts),
            192
        );
    }

    #[test]
    fn duplicate_support_survives_a_failed_evaluation() {
        // The second copy arrives while the workspace is settled and
        // changes no tuple; the rollback baseline must learn of it all
        // the same, or a later rollback drops it and retracting the
        // other copy wrongly deletes the conclusion.
        let mut ws = Workspace::new("w");
        ws.load("p", "q(X) <- p(X).").unwrap();
        ws.load("schema", "poison(X) -> never(X).").unwrap();
        ws.assert_fact(sym("p"), vals(&["a"]));
        ws.evaluate().unwrap();
        ws.assert_fact(sym("p"), vals(&["a"]));
        ws.evaluate().unwrap();
        ws.assert_fact(sym("poison"), vals(&["x"]));
        assert!(ws.evaluate().is_err());
        ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("q"), &vals(&["a"])));
        ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
        ws.evaluate().unwrap();
        assert!(!ws.holds(sym("q"), &vals(&["a"])));
    }

    #[test]
    fn retracted_copy_stays_retracted_across_a_rollback() {
        // The mirror image: one of two copies is retracted while the
        // workspace is settled (no tuple changes, nothing to repair); a
        // later rollback must not bring the copy back.
        let mut ws = Workspace::new("w");
        ws.load("p", "q(X) <- p(X).").unwrap();
        ws.load("schema", "poison(X) -> never(X).").unwrap();
        ws.assert_fact(sym("p"), vals(&["a"]));
        ws.assert_fact(sym("p"), vals(&["a"]));
        ws.evaluate().unwrap();
        let outcome = ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
        assert!(matches!(outcome, RetractOutcome::Noop));
        ws.assert_fact(sym("poison"), vals(&["x"]));
        assert!(ws.evaluate().is_err());
        ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
        ws.evaluate().unwrap();
        assert!(!ws.holds(sym("q"), &vals(&["a"])));
    }

    #[test]
    fn assertion_pending_at_a_retraction_is_not_lost() {
        // assert a, retract b, (assert c,) evaluate: a's consequences
        // must hold, and the whole state must equal a workspace built
        // from scratch. With the later assertion the old code evaluated
        // incrementally from c's seed alone and never propagated a.
        const TC: &str = "reach(X,Y) <- edge(X,Y). reach(X,Z) <- reach(X,Y), edge(Y,Z).";
        let mut ws = Workspace::new("w");
        ws.load("tc", TC).unwrap();
        ws.assert_src("edge(a,b). edge(b,c).").unwrap();
        ws.evaluate().unwrap();
        ws.assert_src("edge(c,d).").unwrap();
        ws.retract_facts(&[(sym("edge"), vals(&["a", "b"]))]);
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("reach"), &vals(&["b", "d"])));
        assert!(!ws.holds(sym("reach"), &vals(&["a", "b"])));
        ws.assert_src("edge(d,e).").unwrap();
        ws.retract_facts(&[(sym("edge"), vals(&["b", "c"]))]);
        ws.assert_src("edge(e,f).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("reach"), &vals(&["c", "f"])));

        let mut scratch = Workspace::new("w");
        scratch.load("tc", TC).unwrap();
        scratch
            .assert_src("edge(c,d). edge(d,e). edge(e,f).")
            .unwrap();
        scratch.evaluate().unwrap();
        let sorted = |w: &Workspace| {
            let mut tuples = w.tuples(sym("reach"));
            tuples.sort_by_key(|t| format!("{t:?}"));
            tuples
        };
        assert_eq!(sorted(&ws), sorted(&scratch));
    }

    #[test]
    fn settled_evaluate_runs_nothing_and_keeps_the_epoch() {
        // Negation: before, every evaluate of such a program rebuilt and
        // bumped the epoch, settled or not.
        let mut ws = Workspace::new("w");
        ws.load("p", "ok(X) <- candidate(X), !banned(X).").unwrap();
        ws.assert_src("candidate(a).").unwrap();
        assert!(ws.evaluate().unwrap().rule_evals > 0);
        let epoch = ws.epoch();
        let compactions = ws.compactions();
        assert_eq!(ws.evaluate().unwrap(), EvalStats::default());
        assert_eq!(ws.epoch(), epoch);
        assert_eq!(ws.compactions(), compactions);
        // A change un-settles it again.
        ws.assert_src("banned(a).").unwrap();
        assert!(ws.evaluate().unwrap().rule_evals > 0);
        assert!(!ws.holds(sym("ok"), &vals(&["a"])));
    }

    #[test]
    fn builtins_restore_and_transaction_rollback_unsettle() {
        fn settle(ws: &mut Workspace) {
            ws.evaluate().unwrap();
            assert_eq!(ws.evaluate().unwrap(), EvalStats::default());
        }
        let mut ws = Workspace::new("w");
        ws.load("p", "q(X) <- p(X), int(X).").unwrap();
        ws.load("schema", "q(X) -> p(X).").unwrap();
        ws.assert_fact(sym("p"), vec![Value::Int(1)]);
        settle(&mut ws);

        // Handing out the registry may change what `int` answers.
        ws.builtins_mut();
        assert!(ws.evaluate().unwrap().rule_evals > 0);
        settle(&mut ws);

        let snap = ws.snapshot();
        ws.restore(snap);
        // Nothing to propagate, but every constraint is checked again:
        // tamper with the database behind the workspace's back and the
        // restored state is caught.
        ws.db.insert(sym("q"), vec![Value::Int(7)]);
        assert!(matches!(ws.evaluate(), Err(WsError::Constraint(_))));
        settle(&mut ws);

        let failed: Result<(), WsError> =
            ws.transaction(|_| Err(WsError::MetaDivergence { stages: 0 }));
        assert!(failed.is_err());
        ws.db.insert(sym("q"), vec![Value::Int(7)]);
        assert!(matches!(ws.evaluate(), Err(WsError::Constraint(_))));
    }

    #[test]
    fn delta_check_catches_what_a_repair_or_an_assertion_breaks() {
        let mut ws = Workspace::new("w");
        ws.load("p", "q(X) <- p(X).").unwrap();
        ws.load("schema", "needs(X) -> q(X).").unwrap();
        ws.assert_src("p(a). p(b). needs(a).").unwrap();
        ws.evaluate().unwrap();
        // Growth: a premise binding over a new tuple with no witness.
        ws.assert_src("needs(c).").unwrap();
        assert!(matches!(ws.evaluate(), Err(WsError::Constraint(_))));
        // Shrinkage: a repair removes q(b), which nothing needs...
        let outcome = ws.retract_facts(&[(sym("p"), vals(&["b"]))]);
        assert!(matches!(outcome, RetractOutcome::Incremental(_)));
        ws.evaluate().unwrap();
        // ...then q(a), which needs(a) rested on.
        let outcome = ws.retract_facts(&[(sym("p"), vals(&["a"]))]);
        assert!(matches!(outcome, RetractOutcome::Incremental(_)));
        assert!(matches!(ws.evaluate(), Err(WsError::Constraint(_))));
    }

    #[test]
    fn rollback_undoes_a_tag_swap() {
        let mut ws = Workspace::new("w");
        ws.load("auth", "mode(rsa) <- on().").unwrap();
        ws.load("schema", "poison(X) -> never(X).").unwrap();
        ws.assert_src("on().").unwrap();
        ws.evaluate().unwrap();
        ws.replace_tag("auth", "mode(hmac) <- on().").unwrap();
        ws.assert_src("poison(x).").unwrap();
        assert!(ws.evaluate().is_err());
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("mode"), &vals(&["rsa"])));
        assert!(!ws.holds(sym("mode"), &vals(&["hmac"])));
        assert_eq!(ws.active_rules().len(), 1);
    }

    #[test]
    fn a_marked_baseline_is_evaluated_by_the_next_evaluation_and_rolled_back_to() {
        let mut ws = Workspace::new("w");
        ws.load("schema", "member(X) -> person(X).").unwrap();
        ws.assert_src("member(ann).").unwrap();
        ws.mark_baseline();
        assert_eq!(ws.compactions(), 0, "marking evaluates nothing");
        // A rule loaded after the mark, then a failed evaluation: back to
        // the marked facts, without the rule, owed a rebuild.
        ws.load("derive", "vip(X) <- member(X).").unwrap();
        assert!(ws.evaluate().is_err());
        assert!(ws.holds(sym("member"), &vals(&["ann"])));
        assert!(!ws.holds(sym("vip"), &vals(&["ann"])));
        assert_eq!(ws.active_rules().len(), 0);
        // The missing fact arrives; the next evaluation succeeds from the
        // marked facts.
        ws.assert_src("person(ann).").unwrap();
        ws.load("derive", "vip(X) <- member(X).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("vip"), &vals(&["ann"])));
    }

    #[test]
    fn meta_constraint_blocks_unauthorized_generated_rule() {
        // mayWrite-style meta-constraint: only rules writing predicates
        // the owner may write are admissible. Here: everything said to me
        // activates (says1), but writes to `secret` are forbidden.
        let mut ws = Workspace::new("alice");
        ws.load("says", "active(R) <- says(_,me,R).").unwrap();
        ws.load("authz", "active([| secret(T*) <- A*. |]) -> never().")
            .unwrap();
        // A benign said rule is fine.
        ws.assert_fact(
            sym("says"),
            vec![
                Value::sym("bob"),
                Value::sym("alice"),
                Value::Quote(Arc::new(
                    lbtrust_datalog::parse_rule("note(hello).").unwrap(),
                )),
            ],
        );
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("note"), &vals(&["hello"])));
        // A rule writing `secret` violates the meta-constraint and is
        // rolled back.
        ws.assert_fact(
            sym("says"),
            vec![
                Value::sym("bob"),
                Value::sym("alice"),
                Value::Quote(Arc::new(
                    lbtrust_datalog::parse_rule("secret(stolen).").unwrap(),
                )),
            ],
        );
        assert!(ws.evaluate().is_err());
        assert!(!ws.holds(sym("secret"), &vals(&["stolen"])));
    }

    #[test]
    fn load_owned_enforces_read_authorization() {
        let mut ws = Workspace::new("w");
        ws.load("authz", lbtrust_metamodel_free_authz()).unwrap();
        // u1 may read budget.
        ws.assert_src("access(u1, budget, read).").unwrap();
        ws.load_owned("p1", "spend(X) <- budget(X).", sym("u1"))
            .unwrap();
        ws.evaluate().unwrap();
        // u2 may not: the load is rolled back on evaluation.
        ws.load_owned("p2", "leak(X) <- budget(X).", sym("u2"))
            .unwrap();
        assert!(ws.evaluate().is_err());
        assert!(!ws
            .active_rules()
            .iter()
            .any(|r| r.to_string().contains("leak")));
        // The workspace still works afterwards.
        ws.assert_src("budget(500).").unwrap();
        ws.evaluate().unwrap();
        assert!(ws.holds(sym("spend"), &[Value::Int(500)]));
    }

    /// The §3.3 owner/access read meta-constraint source.
    fn lbtrust_metamodel_free_authz() -> &'static str {
        crate::authz::MAY_READ_OWNER
    }

    #[test]
    fn export_program_roundtrips() {
        let mut ws = Workspace::new("w");
        ws.load(
            "tc",
            "reach(X,Y) <- edge(X,Y). reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        )
        .unwrap();
        ws.load("schema", "edge(X,Y) -> node(X), node(Y).").unwrap();
        ws.assert_src("node(a). node(b). node(c). edge(a,b). edge(b,c).")
            .unwrap();
        ws.evaluate().unwrap();

        // Restore into a fresh workspace from the exported text.
        let text = ws.export_program();
        let mut restored = Workspace::new("w2");
        // Rules+constraints parse as a program; facts are the fact lines.
        let (defs, facts): (Vec<&str>, Vec<&str>) = text
            .lines()
            .filter(|l| !l.starts_with("//") && !l.is_empty())
            .partition(|l| l.contains("<-") || l.contains("->"));
        restored.load("restored", &defs.join("\n")).unwrap();
        restored.assert_src(&facts.join("\n")).unwrap();
        restored.evaluate().unwrap();
        assert_eq!(
            ws.tuples(sym("reach")).len(),
            restored.tuples(sym("reach")).len()
        );
        for t in ws.tuples(sym("reach")) {
            assert!(restored.holds(sym("reach"), &t));
        }
    }

    #[test]
    fn dump_renders_tables() {
        let mut ws = Workspace::new("alice");
        ws.assert_src("permission(alice, f1, read).").unwrap();
        ws.evaluate().unwrap();
        let text = ws.dump(&["permission", "nothing"]);
        assert!(text.contains("permission @ alice"), "{text}");
        assert!(text.contains("permission(alice, f1, read)"), "{text}");
        assert!(text.contains("(none)"), "{text}");
    }

    const REACH: &str = "reach(X,Y) <- edge(X,Y).\n\
                         reach(X,Z) <- reach(X,Y), edge(Y,Z).";

    #[test]
    fn query_goal_answers_through_aggregation() {
        let mut ws = Workspace::new("w");
        ws.load("reach", REACH).unwrap();
        ws.load("count", "n(N) <- agg<<N = count(Y)>> reach(a,Y).")
            .unwrap();
        ws.assert_src("edge(a,b). edge(b,c).").unwrap();
        // No evaluate() call: the query evaluates what is owed.
        assert_eq!(ws.query_goal("n(N)").unwrap(), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn query_goal_answers_through_idb_negation() {
        let mut ws = Workspace::new("w");
        ws.load("reach", REACH).unwrap();
        ws.load("cut", "cut(X) <- node(X), X != a, !reach(a,X).")
            .unwrap();
        ws.assert_src("node(a). node(b). node(c). node(d). edge(a,b). edge(b,c).")
            .unwrap();
        assert_eq!(ws.query_goal("cut(X)").unwrap(), vec![vals(&["d"])]);
        assert!(ws.query_goal("cut(b)").unwrap().is_empty());
    }

    #[test]
    fn query_goal_fails_closed_on_an_owed_violation() {
        let mut ws = Workspace::new("w");
        ws.load("policy", "access(P,O,M) <- grant(P,O,M).").unwrap();
        ws.load("schema", "access(P,O,M) -> principal(P).").unwrap();
        ws.assert_src("principal(alice). grant(alice,f,read).")
            .unwrap();
        ws.evaluate().unwrap();
        ws.assert_src("grant(mallory,f,read).").unwrap();
        let err = ws.query_goal("access(P, f, read)").unwrap_err();
        assert!(matches!(err, WsError::Constraint(_)), "{err}");
        // Rolled back, not half-evaluated: neither the assertion nor
        // what it derived remains.
        assert!(!ws.holds_src("grant(mallory,f,read)").unwrap());
        assert!(!ws.holds_src("access(mallory,f,read)").unwrap());
        assert!(ws.holds_src("access(alice,f,read)").unwrap());
        assert_eq!(
            ws.query_goal("access(P, f, read)").unwrap(),
            vec![vals(&["alice", "f", "read"])]
        );
    }

    #[test]
    fn explain_renders_derivation() {
        let mut ws = Workspace::new("w");
        ws.load("policy", "grant(P,O) <- owns(P,O), vetted(P).")
            .unwrap();
        ws.assert_src("owns(alice,f1). vetted(alice).").unwrap();
        ws.evaluate().unwrap();
        let proof = ws.explain("grant(alice,f1)").unwrap().expect("holds");
        assert!(proof.contains("grant(alice,f1)"), "{proof}");
        assert!(proof.contains("[fact]"), "{proof}");
        assert!(proof.contains("owns(alice,f1)"), "{proof}");
        // Absent facts have no explanation.
        assert!(ws.explain("grant(bob,f1)").unwrap().is_none());
    }

    /// An asserted fact whose only rule instances lead back to it is a
    /// leaf of its own proof and of the proofs resting on it — before
    /// the first retraction, and after it, when the base facts are
    /// looked up through their index.
    #[test]
    fn an_asserted_fact_in_a_vouching_cycle_is_explained() {
        let mut ws = Workspace::new("w");
        ws.load(
            "policy",
            "trusted(X) <- trusted(Y), vouches(Y,X).\n\
             vouches(a,b). vouches(b,a).",
        )
        .unwrap();
        ws.assert_src("trusted(a). spare(x).").unwrap();
        ws.evaluate().unwrap();
        for retracted in [false, true] {
            if retracted {
                assert!(ws.retract_fact(sym("spare"), &vals(&["x"])));
                ws.evaluate().unwrap();
            }
            assert_eq!(
                ws.explain("trusted(a)").unwrap().as_deref(),
                Some("trusted(a) [fact]\n")
            );
            assert_eq!(
                ws.explain("trusted(b)").unwrap().as_deref(),
                Some(
                    "trusted(b) [via trusted(X) <- trusted(Y), vouches(Y,X).]\n  \
                     trusted(a) [fact]\n  vouches(a,b) [fact]\n"
                ),
                "retracted: {retracted}"
            );
        }
    }

    #[test]
    fn transaction_rolls_back_on_error() {
        let mut ws = Workspace::new("w");
        ws.load("p", "q(X) <- p(X).").unwrap();
        ws.assert_src("p(a).").unwrap();
        ws.evaluate().unwrap();
        let result: Result<(), WsError> = ws.transaction(|w| {
            w.assert_src("p(b).").unwrap();
            Err(WsError::MetaDivergence { stages: 0 })
        });
        assert!(result.is_err());
        ws.evaluate().unwrap();
        assert!(!ws.holds(sym("q"), &vals(&["b"])));
    }
}

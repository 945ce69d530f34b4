//! Provenance: explaining how a tuple was derived.
//!
//! §7 of the paper: "we are currently adding provenance support to
//! LBTrust. In addition to reasoning about delegation and chains of
//! trust, provenance is useful for analyzing derivations of security
//! policies, runtime verification, and dynamic type checking."
//!
//! [`explain`] reconstructs a proof tree for a tuple of a
//! *materialized* database: it finds a rule and a satisfying binding
//! whose premises are all present and proves each of them in turn,
//! sharing the proof of every tuple it has proved already. Every proof
//! it returns is well-founded: no tuple appears twice on a path from
//! the root to a leaf. A tuple met again on its own path never becomes
//! a leaf; the search then starts over breadth first from the goal,
//! proving each tuple it meets through a rule instance whose premises
//! it proved before, until the goal is proved. A leaf is a tuple no rule
//! instance concludes (produced by a builtin, or asserted), one a
//! program fact states, or — once a cycle was met — one asserted from
//! outside the rules ([`explain_with_base`]).
//!
//! A proof names each rule by its position in the slice it was proved
//! over; [`Proof::render`] takes that slice and prints the text, and
//! [`ProofText`] keeps a proof together with its rules so it can be
//! printed whenever, if ever, someone reads it.

use crate::ast::{BodyItem, Rule};
use crate::builtins::Builtins;
use crate::db::{Database, Tuple};
use crate::eval::Engine;
use crate::intern::Symbol;
use crate::unify::Bindings;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::{self, Write};
use std::ops::ControlFlow;
use std::sync::Arc;

/// The rule instances each pass of one [`explain`] may try before it
/// gives up. The depth-first pass tries one per derived tuple of its
/// proof; the pass after a cycle tries every instance of each tuple it
/// expands, breadth first from the goal, and stops as soon as the goal
/// is proved. Past it the tuple is not explained, so a decision resting
/// on it fails closed to a deny.
const MAX_EXPANSIONS: usize = 1 << 16;

/// A proof tree for one tuple, as [`explain`] builds it: well-founded —
/// no tuple sits below itself — and printed only when someone asks
/// ([`Proof::render`], or [`ProofText`]'s `Display`). Sub-proofs are
/// shared: the proof of a tuple met twice in one search is one
/// allocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Proof {
    /// The tuple is a base fact (EDB, asserted, or builtin-produced).
    Fact {
        /// Predicate.
        pred: Symbol,
        /// The tuple.
        tuple: Tuple,
    },
    /// The tuple is the head of a rule instance.
    Derived {
        /// Predicate.
        pred: Symbol,
        /// The tuple.
        tuple: Tuple,
        /// The deriving rule: its position in the slice [`explain`] was
        /// given.
        rule: usize,
        /// Proofs of the positive body premises, in body order.
        premises: Vec<Arc<Proof>>,
    },
}

impl Proof {
    /// The concluded `(pred, tuple)`.
    pub fn conclusion(&self) -> (Symbol, &Tuple) {
        match self {
            Proof::Fact { pred, tuple } | Proof::Derived { pred, tuple, .. } => (*pred, tuple),
        }
    }

    /// Depth of the proof tree (a fact has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Proof::Fact { .. } => 1,
            Proof::Derived { premises, .. } => {
                1 + premises.iter().map(|p| p.depth()).max().unwrap_or(0)
            }
        }
    }

    /// Renders the tree with indentation, one line per node: the tuple,
    /// then `[fact]` or `[via <rule>]`. `rules` is the slice the proof
    /// was proved over; each derived node indexes it.
    pub fn render(&self, rules: &[Rule]) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write(&mut out, rules, 0);
        out
    }

    fn write(&self, out: &mut impl Write, rules: &[Rule], indent: usize) -> fmt::Result {
        for _ in 0..indent {
            out.write_str("  ")?;
        }
        let (pred, tuple) = self.conclusion();
        write!(out, "{pred}(")?;
        for (i, value) in tuple.iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            write!(out, "{value}")?;
        }
        match self {
            Proof::Fact { .. } => out.write_str(") [fact]\n"),
            Proof::Derived { rule, premises, .. } => {
                writeln!(out, ") [via {}]", rules[*rule])?;
                for premise in premises {
                    premise.write(out, rules, indent + 1)?;
                }
                Ok(())
            }
        }
    }
}

/// A proof and the rules it was proved over: what a decision carries
/// instead of the proof's text. `Display` prints [`Proof::render`]'s
/// text, so nothing is rendered until someone reads it; cloning shares
/// both halves.
#[derive(Clone)]
pub struct ProofText {
    proof: Arc<Proof>,
    rules: Arc<[Rule]>,
}

impl ProofText {
    /// Pairs `proof` with the rules [`explain`] was given for it.
    pub fn new(proof: Proof, rules: Arc<[Rule]>) -> ProofText {
        ProofText {
            proof: Arc::new(proof),
            rules,
        }
    }

    /// The proof tree.
    pub fn tree(&self) -> &Proof {
        &self.proof
    }
}

impl fmt::Display for ProofText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.proof.write(f, &self.rules, 0)
    }
}

impl fmt::Debug for ProofText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

/// Two proofs are equal when they render the same.
impl PartialEq for ProofText {
    fn eq(&self, other: &ProofText) -> bool {
        self.to_string() == other.to_string()
    }
}

/// Explains `pred(tuple)` over a materialized `db`: [`explain_with_base`]
/// told of no tuple asserted from outside the rules, so a tuple whose
/// rule instances all lead back to it is not explained even when it was
/// asserted.
pub fn explain(
    rules: &[Rule],
    db: &Database,
    builtins: &Builtins,
    pred: Symbol,
    tuple: &[Value],
) -> Option<Proof> {
    explain_with_base(rules, db, builtins, &|_, _| false, pred, tuple)
}

/// Explains `pred(tuple)` over a materialized `db`, where `base` answers
/// whether a tuple was asserted from outside the rules. Returns `None`
/// when the tuple is not present, when it has no well-founded proof —
/// it is not asserted, and each rule instance concluding it leads back
/// to it — or when the search tried more rule instances than a fixed
/// bound allows; a decision on `None` fails closed. Tuples present but
/// concluded by no rule instance are reported as facts.
///
/// The proof is the one a depth-first search finds — the first rule
/// instance, in rule then witness order, whose premises are present,
/// each premise proved the same way — unless that search meets a tuple
/// on its own path. Then a second search starts from the goal: it takes
/// the tuples in the order it meets them, breadth first, and proves each
/// through the first of its rule instances whose premises are all proved
/// already, a leaf being a tuple `base` answers for, one a program fact
/// states, or one no rule instance concludes. It stops once the goal is
/// proved, and tries each rule instance at most once, where a search
/// that backtracks through a cycle can try exponentially many paths.
pub fn explain_with_base(
    rules: &[Rule],
    db: &Database,
    builtins: &Builtins,
    base: &dyn Fn(Symbol, &[Value]) -> bool,
    pred: Symbol,
    tuple: &[Value],
) -> Option<Proof> {
    if !db.contains(pred, tuple) {
        return None;
    }
    let mut search = Explainer {
        rules,
        db,
        builtins,
        base,
        engine: Engine::new(rules, builtins),
        seen: HashMap::new(),
        proofs: Vec::new(),
        expansions: 0,
    };
    let proof = match search.first(pred, tuple) {
        Ok(proof) => proof,
        Err(Stop::Cycle) => search.well_founded(pred, tuple)?,
        Err(Stop::Exhausted) => return None,
    };
    drop(search);
    Some(Arc::try_unwrap(proof).unwrap_or_else(|shared| (*shared).clone()))
}

/// The positive premises of one rule instance, in body order.
type Premises = Vec<(Symbol, Tuple)>;

/// Per predicate, the positions of the program facts stating its tuples
/// and of the rules with a body concluding them.
type ByHead = HashMap<Symbol, (Vec<usize>, Vec<usize>)>;

struct Explainer<'a> {
    rules: &'a [Rule],
    db: &'a Database,
    builtins: &'a Builtins,
    /// Whether a tuple was asserted from outside the rules.
    base: &'a dyn Fn(Symbol, &[Value]) -> bool,
    /// Evaluates body items; one per `explain` call, not per proof node.
    engine: Engine<'a>,
    /// The first search's one map: each tuple it has met, as a position
    /// in `proofs`, which holds `None` while the tuple is being proved.
    seen: HashMap<(Symbol, Tuple), usize>,
    proofs: Vec<Option<Arc<Proof>>>,
    /// Rule instances the first search tried, against
    /// [`MAX_EXPANSIONS`].
    expansions: usize,
}

/// Why the first search stopped.
enum Stop {
    /// It met a tuple on its own path.
    Cycle,
    /// [`MAX_EXPANSIONS`] ran out.
    Exhausted,
}

impl Explainer<'_> {
    /// The depth-first search: the first rule instance whose premises
    /// are present, each premise proved the same way, once, its proof
    /// shared. Meeting a tuple on its own path stops it.
    fn first(&mut self, pred: Symbol, tuple: &[Value]) -> Result<Arc<Proof>, Stop> {
        let slot = match self.seen.entry((pred, tuple.to_vec())) {
            Entry::Occupied(seen) => return self.proofs[*seen.get()].clone().ok_or(Stop::Cycle),
            Entry::Vacant(new) => *new.insert(self.proofs.len()),
        };
        self.proofs.push(None);
        let mut first = None;
        self.instances(pred, tuple, 0..self.rules.len(), |found| {
            first = found;
            ControlFlow::Break(())
        });
        let proof = match first {
            // Stated by a program fact, or concluded by no rule instance.
            None => fact(pred, tuple),
            Some((rule, premises)) => {
                self.expansions += 1;
                if self.expansions > MAX_EXPANSIONS {
                    return Err(Stop::Exhausted);
                }
                let premises = (premises.iter())
                    .map(|(p, t)| self.first(*p, t))
                    .collect::<Result<_, _>>()?;
                Arc::new(Proof::Derived {
                    pred,
                    tuple: tuple.to_vec(),
                    rule,
                    premises,
                })
            }
        };
        self.proofs[slot] = Some(proof.clone());
        Ok(proof)
    }

    /// The search after a cycle. It expands the tuples in the order it
    /// meets them, breadth first from the goal, adding each one's rule
    /// instances to `graph`, which proves a tuple as soon as one of its
    /// instances has every premise proved — so no tuple sits below
    /// itself — and it stops once the goal is proved. A goal still
    /// unproved when no tuple is left to expand has no well-founded
    /// proof.
    fn well_founded(&self, pred: Symbol, tuple: &[Value]) -> Option<Arc<Proof>> {
        let mut by_head = ByHead::new();
        for (index, rule) in self.rules.iter().enumerate() {
            if rule.is_pattern() || rule.agg.is_some() {
                continue;
            }
            for pred in rule.heads.iter().filter_map(|h| h.pred.name()) {
                let (facts, bodies) = by_head.entry(pred).or_default();
                let positions = if rule.body.is_empty() { facts } else { bodies };
                if positions.last() != Some(&index) {
                    positions.push(index);
                }
            }
        }
        let mut graph = Graph::default();
        let goal = self.meet(&mut graph, &by_head, (pred, tuple.to_vec()));
        let mut expansions = 0;
        let mut next = 0;
        while graph.proved[goal].is_none() {
            let t = next;
            let (pred, tuple) = graph.tuples.get(t)?.clone();
            next += 1;
            // A leaf, proved when met.
            if graph.proved[t].is_some() {
                continue;
            }
            let rules = by_head.get(&pred).map_or(&[][..], |(_, rules)| &rules[..]);
            let mut concluded = false;
            self.instances(pred, &tuple, rules.iter().copied(), |instance| {
                let Some((rule, premises)) = instance else {
                    return ControlFlow::Continue(());
                };
                concluded = true;
                expansions += 1;
                if expansions > MAX_EXPANSIONS {
                    return ControlFlow::Break(());
                }
                let premises = (premises.into_iter())
                    .map(|key| self.meet(&mut graph, &by_head, key))
                    .collect();
                graph.add(t, rule, premises);
                match graph.proved[t] {
                    Some(_) => ControlFlow::Break(()),
                    None => ControlFlow::Continue(()),
                }
            });
            if expansions > MAX_EXPANSIONS {
                return None;
            }
            if !concluded {
                graph.prove(t, None);
            }
        }
        graph.build(goal, &mut vec![None; graph.tuples.len()])
    }

    /// The id of `key` in `graph`. A tuple met for the first time is a
    /// leaf, proved at once, when no rule with a body concludes its
    /// predicate, when `base` answers for it, or when a program fact
    /// states it.
    fn meet(&self, graph: &mut Graph, by_head: &ByHead, key: (Symbol, Tuple)) -> usize {
        let (id, new) = graph.id(key);
        if new {
            let (pred, tuple) = &graph.tuples[id];
            let (facts, rules) =
                (by_head.get(pred)).map_or((&[][..], &[][..]), |(f, r)| (&f[..], &r[..]));
            let mut leaf = rules.is_empty() || (self.base)(*pred, tuple);
            if !leaf {
                self.instances(*pred, tuple, facts.iter().copied(), |_| {
                    leaf = true;
                    ControlFlow::Break(())
                });
            }
            if leaf {
                graph.prove(id, None);
            }
        }
        id
    }

    /// Calls `each` with every way `pred(tuple)` is concluded by the
    /// rules at `positions`, in their then witness order, until it
    /// breaks: `None` for a program fact stating it, else a rule's
    /// position and the premises of one of its instances, each in the
    /// database.
    fn instances(
        &self,
        pred: Symbol,
        tuple: &[Value],
        positions: impl IntoIterator<Item = usize>,
        mut each: impl FnMut(Option<(usize, Premises)>) -> ControlFlow<()>,
    ) {
        for index in positions {
            let rule = &self.rules[index];
            if rule.is_pattern() || rule.agg.is_some() {
                continue;
            }
            for head in &rule.heads {
                if head.pred.name() != Some(pred) || head.arity() != tuple.len() {
                    continue;
                }
                let mut flow = ControlFlow::Continue(());
                if rule.body.is_empty() {
                    if head.is_ground() && Bindings::new().matches(head, tuple) {
                        flow = each(None);
                    }
                } else {
                    // An evaluation error ends this rule's instances.
                    let _ =
                        (self.engine).for_each_proof(rule, head, tuple, self.db, &mut |witness| {
                            if let Some(premises) = self.premises_of(rule, witness) {
                                flow = each(Some((index, premises)));
                            }
                            Ok(flow)
                        });
                }
                if flow.is_break() {
                    return;
                }
            }
        }
    }

    /// The premises of `rule` under `witness` — its positive, non-builtin
    /// literals — if each is a tuple of the database. One bound to code,
    /// or missing, cannot be reconstructed through this witness.
    fn premises_of(&self, rule: &Rule, witness: &Bindings) -> Option<Premises> {
        let mut premises = Vec::new();
        for item in &rule.body {
            let BodyItem::Lit {
                negated: false,
                atom,
            } = item
            else {
                continue;
            };
            let Some(p) = atom.pred.name() else {
                continue;
            };
            if self.builtins.contains(p) {
                continue;
            }
            let premise: Tuple = (atom.all_args())
                .map(|t| witness.resolve(t))
                .collect::<Option<_>>()?;
            if !self.db.contains(p, &premise) {
                return None;
            }
            premises.push((p, premise));
        }
        Some(premises)
    }
}

fn fact(pred: Symbol, tuple: &[Value]) -> Arc<Proof> {
    Arc::new(Proof::Fact {
        pred,
        tuple: tuple.to_vec(),
    })
}

/// A rule instance the search after a cycle met.
struct Instance {
    /// The id of the tuple it concludes.
    head: usize,
    /// The rule's position.
    rule: usize,
    /// Its premises' ids, in body order.
    premises: Vec<usize>,
    /// How many of `premises` are not proved yet.
    unproved: usize,
}

/// What the search after a cycle met — tuples by id and the rule
/// instances concluding them — and what it proved: Knuth's pass over
/// Horn clauses, run as the instances arrive.
#[derive(Default)]
struct Graph {
    ids: HashMap<(Symbol, Tuple), usize>,
    tuples: Vec<(Symbol, Tuple)>,
    /// Per tuple, once proved: `Some(None)` as a leaf, `Some(Some(i))`
    /// through instance `i`, every premise of which was proved before.
    proved: Vec<Option<Option<usize>>>,
    /// Per tuple: the instances with it among their unproved premises.
    uses: Vec<Vec<usize>>,
    instances: Vec<Instance>,
}

impl Graph {
    /// The id of `key`, and whether it is new.
    fn id(&mut self, key: (Symbol, Tuple)) -> (usize, bool) {
        match self.ids.entry(key) {
            Entry::Occupied(seen) => (*seen.get(), false),
            Entry::Vacant(new) => {
                self.tuples.push(new.key().clone());
                self.proved.push(None);
                self.uses.push(Vec::new());
                (*new.insert(self.tuples.len() - 1), true)
            }
        }
    }

    /// Adds an instance of rule `rule` concluding `head` from `premises`.
    fn add(&mut self, head: usize, rule: usize, premises: Vec<usize>) {
        let i = self.instances.len();
        let mut unproved = 0;
        for &p in &premises {
            if self.proved[p].is_none() {
                self.uses[p].push(i);
                unproved += 1;
            }
        }
        self.instances.push(Instance {
            head,
            rule,
            premises,
            unproved,
        });
        if unproved == 0 {
            self.prove(head, Some(i));
        }
    }

    /// Proves `t` through `how` (`None`: as a leaf) unless it is proved
    /// already, then every tuple this leaves an instance with no
    /// unproved premise.
    fn prove(&mut self, t: usize, how: Option<usize>) {
        if self.proved[t].is_some() {
            return;
        }
        self.proved[t] = Some(how);
        let mut done = vec![t];
        while let Some(p) = done.pop() {
            for i in std::mem::take(&mut self.uses[p]) {
                let instance = &mut self.instances[i];
                instance.unproved -= 1;
                if instance.unproved == 0 && self.proved[instance.head].is_none() {
                    self.proved[instance.head] = Some(Some(i));
                    done.push(instance.head);
                }
            }
        }
    }

    /// The proof of `t`, each tuple built once; `None` if `t` is not
    /// proved.
    fn build(&self, t: usize, built: &mut [Option<Arc<Proof>>]) -> Option<Arc<Proof>> {
        if let Some(proof) = &built[t] {
            return Some(proof.clone());
        }
        let (pred, tuple) = &self.tuples[t];
        let proof = match self.proved[t]? {
            None => fact(*pred, tuple),
            Some(i) => {
                let instance = &self.instances[i];
                Arc::new(Proof::Derived {
                    pred: *pred,
                    tuple: tuple.clone(),
                    rule: instance.rule,
                    premises: (instance.premises.iter())
                        .map(|&p| self.build(p, built))
                        .collect::<Option<_>>()?,
                })
            }
        };
        built[t] = Some(proof.clone());
        Some(proof)
    }
}

/// The eager explainer this module replaced, kept as the model the
/// lazy rendering is checked against: it prints each rule as it proves,
/// copies every memoized sub-proof, and turns a tuple met again on its
/// own path into a `[fact]` leaf. Where that never happens its text is
/// what [`Proof::render`] must print.
#[cfg(test)]
mod eager {
    use super::*;
    use std::collections::HashSet;

    #[derive(Clone)]
    enum EagerProof {
        Fact(Symbol, Tuple),
        Derived(Symbol, Tuple, String, Vec<EagerProof>),
    }

    impl EagerProof {
        fn render_into(&self, out: &mut String, indent: usize) {
            let pad = "  ".repeat(indent);
            match self {
                EagerProof::Fact(pred, tuple) => {
                    out.push_str(&format!("{pad}{pred}{} [fact]\n", fmt_tuple(tuple)));
                }
                EagerProof::Derived(pred, tuple, rule, premises) => {
                    out.push_str(&format!("{pad}{pred}{} [via {rule}]\n", fmt_tuple(tuple)));
                    for p in premises {
                        p.render_into(out, indent + 1);
                    }
                }
            }
        }
    }

    fn fmt_tuple(tuple: &[Value]) -> String {
        let inner: Vec<String> = tuple.iter().map(ToString::to_string).collect();
        format!("({})", inner.join(","))
    }

    /// The model's rendering of `pred(tuple)`, and whether its cycle
    /// guard cut the search anywhere.
    pub(super) fn explain(
        rules: &[Rule],
        db: &Database,
        builtins: &Builtins,
        pred: Symbol,
        tuple: &[Value],
    ) -> Option<(String, bool)> {
        if !db.contains(pred, tuple) {
            return None;
        }
        let mut ctx = Model {
            search: Explainer {
                rules,
                db,
                builtins,
                base: &|_, _| false,
                engine: Engine::new(rules, builtins),
                seen: HashMap::new(),
                proofs: Vec::new(),
                expansions: 0,
            },
            memo: HashMap::new(),
            in_progress: HashSet::new(),
            cut: false,
        };
        let proof = ctx.prove(pred, tuple);
        let mut out = String::new();
        proof.render_into(&mut out, 0);
        Some((out, ctx.cut))
    }

    struct Model<'a> {
        search: Explainer<'a>,
        memo: HashMap<(Symbol, Tuple), EagerProof>,
        in_progress: HashSet<(Symbol, Tuple)>,
        cut: bool,
    }

    impl Model<'_> {
        fn prove(&mut self, pred: Symbol, tuple: &[Value]) -> EagerProof {
            let key = (pred, tuple.to_vec());
            if let Some(p) = self.memo.get(&key) {
                return p.clone();
            }
            if !self.in_progress.insert(key.clone()) {
                self.cut = true;
                return EagerProof::Fact(pred, tuple.to_vec());
            }
            let proof = self
                .find_rule_instance(pred, tuple)
                .unwrap_or(EagerProof::Fact(pred, tuple.to_vec()));
            self.in_progress.remove(&key);
            self.memo.insert(key, proof.clone());
            proof
        }

        fn find_rule_instance(&mut self, pred: Symbol, tuple: &[Value]) -> Option<EagerProof> {
            let rules = self.search.rules;
            for rule in rules {
                if rule.is_pattern() || rule.agg.is_some() {
                    continue;
                }
                for head in &rule.heads {
                    if head.pred.name() != Some(pred) || head.arity() != tuple.len() {
                        continue;
                    }
                    if rule.body.is_empty() {
                        if head.is_ground() && Bindings::new().matches(head, tuple) {
                            return None;
                        }
                        continue;
                    }
                    let search = &self.search;
                    let mut premises = None;
                    let searched =
                        (search.engine).for_each_proof(rule, head, tuple, search.db, &mut |w| {
                            premises = search.premises_of(rule, w);
                            Ok(match premises {
                                Some(_) => ControlFlow::Break(()),
                                None => ControlFlow::Continue(()),
                            })
                        });
                    if let (Ok(_), Some(premises)) = (searched, premises) {
                        let premises = premises.iter().map(|(p, t)| self.prove(*p, t)).collect();
                        return Some(EagerProof::Derived(
                            pred,
                            tuple.to_vec(),
                            rule.to_string(),
                            premises,
                        ));
                    }
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use proptest::prelude::*;

    fn setup(src: &str) -> (Vec<Rule>, Database, Builtins) {
        setup_over(src, Database::new())
    }

    /// [`setup`], evaluated over the tuples already in `db`: asserted
    /// ones, which no program fact states.
    fn setup_over(src: &str, mut db: Database) -> (Vec<Rule>, Database, Builtins) {
        let program = parse_program(src).unwrap();
        let builtins = Builtins::new();
        Engine::new(&program.rules, &builtins).run(&mut db).unwrap();
        (program.rules, db, builtins)
    }

    fn t(parts: &[&str]) -> Tuple {
        parts.iter().map(|p| Value::sym(p)).collect()
    }

    #[test]
    fn base_fact_is_a_leaf() {
        let (rules, db, builtins) = setup("edge(a,b). reach(X,Y) <- edge(X,Y).");
        let proof = explain(
            &rules,
            &db,
            &builtins,
            Symbol::intern("edge"),
            &t(&["a", "b"]),
        )
        .expect("present");
        assert_eq!(
            proof,
            Proof::Fact {
                pred: Symbol::intern("edge"),
                tuple: t(&["a", "b"]),
            }
        );
    }

    #[test]
    fn one_step_derivation() {
        let (rules, db, builtins) = setup("edge(a,b). reach(X,Y) <- edge(X,Y).");
        let proof = explain(
            &rules,
            &db,
            &builtins,
            Symbol::intern("reach"),
            &t(&["a", "b"]),
        )
        .expect("present");
        match &proof {
            Proof::Derived { rule, premises, .. } => {
                let rule = rules[*rule].to_string();
                assert!(rule.contains("reach(X,Y)"), "{rule}");
                assert_eq!(premises.len(), 1);
                assert_eq!(premises[0].conclusion().0, Symbol::intern("edge"));
            }
            other => panic!("expected derivation, got {other:?}"),
        }
        assert_eq!(proof.depth(), 2);
    }

    #[test]
    fn recursive_derivation_chain() {
        let (rules, db, builtins) = setup(
            "edge(a,b). edge(b,c). edge(c,d).\n\
             reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        );
        let proof = explain(
            &rules,
            &db,
            &builtins,
            Symbol::intern("reach"),
            &t(&["a", "d"]),
        )
        .expect("present");
        let rendered = proof.render(&rules);
        // a->d needs at least 3 levels: reach(a,d) <- reach(a,c) <- reach(a,b).
        assert!(
            proof.depth() >= 3,
            "depth {} too shallow:\n{rendered}",
            proof.depth()
        );
        assert!(rendered.contains("reach(a,d)"), "{rendered}");
        assert!(rendered.contains("[fact]"), "{rendered}");
        assert!(
            rendered.contains("[via reach(X,Z) <- reach(X,Y), edge(Y,Z).]"),
            "{rendered}"
        );
    }

    #[test]
    fn absent_tuple_unexplained() {
        let (rules, db, builtins) = setup("edge(a,b). reach(X,Y) <- edge(X,Y).");
        assert!(explain(
            &rules,
            &db,
            &builtins,
            Symbol::intern("reach"),
            &t(&["b", "a"])
        )
        .is_none());
    }

    #[test]
    fn cyclic_graph_terminates() {
        let (rules, db, builtins) = setup(
            "edge(a,b). edge(b,a).\n\
             reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        );
        // reach(a,a) exists via the cycle; explanation must terminate.
        let proof = explain(
            &rules,
            &db,
            &builtins,
            Symbol::intern("reach"),
            &t(&["a", "a"]),
        )
        .expect("present");
        assert!(proof.depth() >= 2);
    }

    #[test]
    fn negation_premises_skipped_but_checked() {
        let (rules, db, builtins) = setup(
            "candidate(a). candidate(b). banned(b).\n\
             ok(X) <- candidate(X), !banned(X).",
        );
        let proof =
            explain(&rules, &db, &builtins, Symbol::intern("ok"), &t(&["a"])).expect("present");
        match proof {
            Proof::Derived { premises, .. } => {
                // Only the positive premise appears.
                assert_eq!(premises.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    /// The recursive rule comes first, so the first instance the search
    /// meets for `trusted(a)` goes through `trusted(b)`, whose only
    /// instance leads back to `trusted(a)`. The eager explainer turned
    /// that second `trusted(a)` into a fact, and its proof cited no
    /// `says`; here the cycle fails and the proof rests on the `says`
    /// premise, for both tuples.
    #[test]
    fn a_cycle_is_not_a_fact() {
        let (rules, db, builtins) = setup(
            "trusted(X) <- trusted(Y), vouches(Y,X).\n\
             trusted(X) <- says(hub,me,[| good(X) |]).\n\
             vouches(a,b). vouches(b,a).\n\
             says(hub,me,[| good(a) |]).",
        );
        let trusted = Symbol::intern("trusted");
        let says = Symbol::intern("says");
        let (eager, cut) = eager::explain(&rules, &db, &builtins, trusted, &t(&["a"])).unwrap();
        assert!(cut, "{eager}");
        assert!(
            !eager.contains("says"),
            "the eager proof cites no says:\n{eager}"
        );

        for subject in ["a", "b"] {
            let proof = explain(&rules, &db, &builtins, trusted, &t(&[subject])).expect("holds");
            let rendered = proof.render(&rules);
            let facts = leaves(&proof);
            assert!(facts.contains(&says), "{rendered}");
            assert!(!facts.contains(&trusted), "{rendered}");
            assert_well_founded(&proof, &mut Vec::new());
        }
        let proof = explain(&rules, &db, &builtins, trusted, &t(&["a"])).unwrap();
        assert_eq!(
            proof.render(&rules),
            "trusted(a) [via trusted(X) <- says(hub,me,[| good(X). |]).]\n  \
             says(hub,me,[| good(a). |]) [fact]\n"
        );
    }

    /// A program fact stated for a tuple whose only rule instances cycle
    /// is a leaf, whichever comes first.
    #[test]
    fn a_stated_fact_in_a_cycle_is_a_leaf() {
        let (rules, db, builtins) = setup(
            "p(X) <- p(Y), e(Y,X).\n\
             e(a,b). e(b,a).\n\
             p(a).",
        );
        let p = Symbol::intern("p");
        let a = explain(&rules, &db, &builtins, p, &t(&["a"])).expect("holds");
        assert_eq!(a.render(&rules), "p(a) [fact]\n");
        let b = explain(&rules, &db, &builtins, p, &t(&["b"])).expect("holds");
        assert_eq!(
            b.render(&rules),
            "p(b) [via p(X) <- p(Y), e(Y,X).]\n  p(a) [fact]\n  e(a,b) [fact]\n"
        );
    }

    /// A tuple some rule instance concludes but that only follows from
    /// itself has no well-founded proof: it is not explained.
    #[test]
    fn a_tuple_that_only_follows_from_itself_is_unexplained() {
        let (rules, mut db, builtins) = setup("p(X) <- p(Y), e(Y,X). e(a,b). e(b,a).");
        let p = Symbol::intern("p");
        db.insert(p, t(&["a"]));
        db.insert(p, t(&["b"]));
        assert!(explain(&rules, &db, &builtins, p, &t(&["a"])).is_none());
    }

    /// A tuple asserted from outside the rules is a leaf once the search
    /// has met a cycle, though rule instances conclude it too: here its
    /// only ones lead back to it, so without `base` neither it nor what
    /// follows from it is explained.
    #[test]
    fn an_asserted_tuple_in_a_cycle_is_a_leaf() {
        let trusted = Symbol::intern("trusted");
        let mut db = Database::new();
        db.insert(trusted, t(&["a"]));
        let (rules, db, builtins) = setup_over(
            "trusted(X) <- trusted(Y), vouches(Y,X).\n\
             vouches(a,b). vouches(b,a).",
            db,
        );
        let base = |pred: Symbol, tuple: &[Value]| pred == trusted && tuple == t(&["a"]);
        let explained = |subject| {
            explain_with_base(&rules, &db, &builtins, &base, trusted, &t(&[subject]))
                .map(|proof| proof.render(&rules))
        };
        assert_eq!(explained("a").as_deref(), Some("trusted(a) [fact]\n"));
        assert_eq!(
            explained("b").as_deref(),
            Some(
                "trusted(b) [via trusted(X) <- trusted(Y), vouches(Y,X).]\n  \
                 trusted(a) [fact]\n  vouches(a,b) [fact]\n"
            )
        );
        for subject in ["a", "b"] {
            assert!(explain(&rules, &db, &builtins, trusted, &t(&[subject])).is_none());
        }
    }

    /// 260 principals vouch for each other and one is certified, the
    /// recursive rule first: 67,340 rule instances conclude a `trusted`
    /// tuple, more than a search may try. A search that collected every
    /// instance below the goal before proving any gave up on every
    /// subject; one that proves as it goes, breadth first, stops at the
    /// certified member's instance and proves each subject through it.
    #[test]
    fn a_proof_is_found_in_a_graph_past_the_bound() {
        const N: usize = 260;
        const { assert!(N * (N - 1) > MAX_EXPANSIONS) };
        let vouches = Symbol::intern("vouches");
        let mut db = Database::new();
        for x in 0..N {
            for y in (0..N).filter(|&y| y != x) {
                db.insert(vouches, t(&[&format!("n{x}"), &format!("n{y}")]));
            }
        }
        let (rules, db, builtins) = setup_over(
            "trusted(X) <- trusted(Y), vouches(Y,X).\n\
             trusted(X) <- says(hub,me,[| good(X) |]).\n\
             says(hub,me,[| good(n0) |]).",
            db,
        );
        let (trusted, says) = (Symbol::intern("trusted"), Symbol::intern("says"));
        for name in ["n0", "n1", "n137", "n259"] {
            let proof = explain(&rules, &db, &builtins, trusted, &t(&[name])).expect(name);
            assert!(leaves(&proof).contains(&says), "{name}");
            assert!(!leaves(&proof).contains(&trusted), "{name}");
            assert!(proof.depth() <= 3, "{name}");
            assert_well_founded(&proof, &mut Vec::new());
        }
    }

    /// Eight principals vouch for each other and one is certified, the
    /// recursive rule first. A search that backtracks through the cycles
    /// tries every simple path of the clique before it reaches the
    /// certificate rule; the second search tries each instance at most
    /// once, and every subject's proof rests on the one `says` fact.
    #[test]
    fn a_vouching_clique_is_proved_through_its_certificate() {
        let names: Vec<String> = (0..8).map(|i| format!("n{i}")).collect();
        let mut src = String::from(
            "trusted(X) <- trusted(Y), vouches(Y,X).\n\
             trusted(X) <- says(hub,me,[| good(X) |]).\n\
             says(hub,me,[| good(n0) |]).\n",
        );
        for x in &names {
            for y in names.iter().filter(|y| *y != x) {
                src.push_str(&format!("vouches({x},{y}). "));
            }
        }
        let (rules, db, builtins) = setup(&src);
        let (trusted, says) = (Symbol::intern("trusted"), Symbol::intern("says"));
        for name in &names {
            let proof = explain(&rules, &db, &builtins, trusted, &t(&[name])).expect(name);
            assert!(leaves(&proof).contains(&says), "{name}");
            assert!(!leaves(&proof).contains(&trusted), "{name}");
            assert_well_founded(&proof, &mut Vec::new());
        }
    }

    /// Explaining a grant shows it the one certificate tuple it rests
    /// on, however many the store holds: the premise's closed quote
    /// pattern is an index key, not a filter over a scan of `says`. The
    /// certificates are stored newest first, so a scan would meet `s5`
    /// only near the end of the relation.
    #[test]
    fn an_explanation_probes_what_it_cites_not_the_store() {
        let probed = |certs: usize| {
            let facts: String = (0..certs)
                .rev()
                .map(|i| format!("says(hub,me,[| good(s{i}). |]). "))
                .collect();
            let (_, stored, _) = setup(&facts);
            let (rules, db, builtins) =
                setup_over("access(P,f,read) <- says(hub,me,[| good(P). |]).", stored);
            let goal = t(&["s5", "f", "read"]);
            let before = crate::db::PROBED.with(std::cell::Cell::get);
            let proof = explain(&rules, &db, &builtins, Symbol::intern("access"), &goal);
            assert!(proof.is_some(), "{certs} certificates");
            crate::db::PROBED.with(std::cell::Cell::get) - before
        };
        assert_eq!(probed(256), probed(2048));
    }

    /// Past its bound of rule instances a search gives up, and a
    /// decision resting on the tuple fails closed — though a proof
    /// exists: here every `w` fact makes one more instance of the cycle.
    #[test]
    fn a_search_past_its_bound_fails_closed() {
        let (rules, mut db, builtins) = setup(
            "p(X) <- p(Y), e(Y,X), w(Z).\n\
             p(X) <- f(X).\n\
             e(a,b). e(b,a). f(a). w(0).",
        );
        let (p, w) = (Symbol::intern("p"), Symbol::intern("w"));
        assert!(explain(&rules, &db, &builtins, p, &t(&["a"])).is_some());
        for i in 1..=MAX_EXPANSIONS as i64 {
            db.insert(w, vec![Value::Int(i)]);
        }
        assert!(explain(&rules, &db, &builtins, p, &t(&["a"])).is_none());
    }

    /// The predicates of a proof's leaves.
    fn leaves(proof: &Proof) -> Vec<Symbol> {
        let mut facts = Vec::new();
        let mut frontier = vec![proof];
        while let Some(node) = frontier.pop() {
            match node {
                Proof::Fact { pred, .. } => facts.push(*pred),
                Proof::Derived { premises, .. } => frontier.extend(premises.iter().map(|p| &**p)),
            }
        }
        facts
    }

    /// Panics unless no `(pred, tuple)` repeats on a root-to-leaf path.
    fn assert_well_founded<'p>(proof: &'p Proof, path: &mut Vec<(Symbol, &'p Tuple)>) {
        let here = proof.conclusion();
        assert!(!path.contains(&here), "{here:?} repeats below itself");
        path.push(here);
        if let Proof::Derived { premises, .. } = proof {
            for premise in premises {
                assert_well_founded(premise, path);
            }
        }
        path.pop();
    }

    /// Rules over `p/1`, `q/1`, `r/2`, `s/1` and the base `e/2`, `f/1`:
    /// most recursive, several mutually, some cycling through each
    /// other, two with two derived premises.
    const MENU: &[&str] = &[
        "p(X) <- p(Y), e(Y,X).",
        "p(X) <- f(X).",
        "p(X) <- q(X).",
        "q(X) <- p(Y), e(X,Y).",
        "q(X) <- r(X,X).",
        "r(X,Y) <- e(X,Y).",
        "r(X,Z) <- r(X,Y), e(Y,Z).",
        "r(X,Z) <- e(X,Y), r(Y,Z).",
        "p(X) <- r(X,Y), f(Y).",
        "r(X,Y) <- r(Y,X).",
        "s(X) <- p(X), !f(X).",
        "r(X,Z) <- r(X,Y), r(Y,Z).",
        "p(X) <- q(X), r(X,Y).",
    ];

    const CONSTANTS: [&str; 4] = ["a", "b", "c", "d"];

    /// A program from the menu (rules in a drawn order) over drawn
    /// `e`, `f` and stated `p` facts.
    fn program(order: &[usize], edges: u16, marks: u8, stated: u8) -> String {
        let mut src = String::new();
        for &i in order {
            src.push_str(MENU[i % MENU.len()]);
            src.push('\n');
        }
        for (i, x) in CONSTANTS.iter().enumerate() {
            for (j, y) in CONSTANTS.iter().enumerate() {
                if edges & (1 << (4 * i + j)) != 0 {
                    src.push_str(&format!("e({x},{y}). "));
                }
            }
            if marks & (1 << i) != 0 {
                src.push_str(&format!("f({x}). "));
            }
            if stated & (1 << i) != 0 {
                src.push_str(&format!("p({x}). "));
            }
        }
        src
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Over small recursive programs, some of their `p` and `q`
        /// tuples asserted from outside, every tuple of the fixpoint has
        /// a proof, every proof is well-founded with each node's
        /// conclusion in the database and each leaf of a derived
        /// predicate stated or asserted, and wherever the eager model
        /// never cut a cycle the proof renders exactly as the model did.
        #[test]
        fn provenance_proofs_are_well_founded_and_render_as_the_eager_model(
            order in prop::collection::vec(0usize..64, 1..9),
            edges in any::<u16>(),
            marks in 0u8..16,
            stated in 0u8..16,
            asserted in any::<u8>(),
        ) {
            let src = program(&order, edges, marks, stated);
            let (p, q) = (Symbol::intern("p"), Symbol::intern("q"));
            let mut base: Vec<(Symbol, Tuple)> = Vec::new();
            for (i, x) in CONSTANTS.iter().enumerate() {
                for (shift, pred) in [(0, p), (4, q)] {
                    if asserted & (1 << (i + shift)) != 0 {
                        base.push((pred, t(&[x])));
                    }
                }
            }
            let mut db = Database::new();
            for (pred, tuple) in &base {
                db.insert(*pred, tuple.clone());
            }
            let (rules, db, builtins) = setup_over(&src, db);
            let is_base = |pred: Symbol, tuple: &[Value]| {
                base.iter().any(|(p, t)| *p == pred && t[..] == *tuple)
            };
            let is_stated = |pred: Symbol, tuple: &[Value]| {
                (CONSTANTS.iter().enumerate())
                    .any(|(i, x)| pred == p && stated & (1 << i) != 0 && *tuple == t(&[x])[..])
            };
            let derived = ["p", "q", "r", "s"].map(Symbol::intern);
            let mut explained = 0;
            for (pred, relation) in db.iter() {
                for tuple in relation.iter() {
                    let proof = explain_with_base(&rules, &db, &builtins, &is_base, pred, tuple)
                        .unwrap_or_else(|| panic!("{pred}{tuple:?} unexplained in\n{src}\n{base:?}"));
                    assert_well_founded(&proof, &mut Vec::new());
                    let mut frontier = vec![&proof];
                    while let Some(node) = frontier.pop() {
                        let (p, t) = node.conclusion();
                        prop_assert!(db.contains(p, t), "{src}");
                        match node {
                            Proof::Fact { .. } => prop_assert!(
                                !derived.contains(&p) || is_base(p, t) || is_stated(p, t),
                                "{p}{t:?} is a leaf in\n{src}\n{base:?}"
                            ),
                            Proof::Derived { premises, .. } => {
                                frontier.extend(premises.iter().map(|p| &**p))
                            }
                        }
                    }
                    let (model, cut) = eager::explain(&rules, &db, &builtins, pred, tuple)
                        .expect("present");
                    if !cut {
                        prop_assert_eq!(proof.render(&rules), model, "{}", src);
                        explained += 1;
                    }
                }
            }
            prop_assert!(explained > 0 || db.total_tuples() == 0, "{src}");
        }
    }
}

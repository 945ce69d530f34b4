//! Binding environments, tuple matching, quote-pattern matching, and
//! template instantiation.
//!
//! Two kinds of matching coexist (§3.3 of the paper):
//!
//! * **Object-level**: a rule-body atom matches tuples of ground
//!   [`Value`]s from a relation, binding variables to values.
//! * **Meta-level**: a quote term used as a *pattern* matches a quoted
//!   rule (code as data). Pattern variables can bind to values, to code
//!   terms (including the matched rule's own variables), to whole atoms,
//!   to argument sequences (`T*`), or to body-item sequences (`A*`).
//!
//! Both feed the same [`Bindings`] environment, which is what lets the
//! paper write rules like `bex1'` where variables bound inside a quote
//! flow into ordinary head atoms.
//!
//! Pattern matching is nondeterministic (a pattern with a body-rest
//! variable can embed into a concrete body in several ways), so a
//! matching function *visits* every consistent extension of the
//! environment it is given — mirroring the existential meta-model
//! translation in the paper, where `owner(U, [| A <- P(T2*), A*. |])`
//! expands to a conjunction over existentially quantified
//! `body(R1,A1), functor(A1,P)`. The extension is made in place and
//! taken back before the function returns; see [`Bindings`].

use crate::ast::{Atom, BodyItem, Expr, PredRef, Rule, Term};
use crate::intern::Symbol;
use crate::value::Value;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow::{self, Break, Continue};
use std::sync::Arc;

#[cfg(test)]
mod model;

/// What a variable can be bound to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Binding {
    /// A ground value (the common case).
    Val(Value),
    /// A term of quoted code that is not a ground value (e.g. a code
    /// variable captured by a meta-variable, as in `pull0`'s `R`).
    CodeTerm(Term),
    /// A whole atom captured by a bare meta-variable (`A`).
    CodeAtom(Atom),
    /// An argument sequence captured by `T*`.
    Terms(Vec<Term>),
    /// A body-item sequence captured by `A*`.
    Items(Vec<BodyItem>),
}

impl Binding {
    /// Normalizes `CodeTerm(Val(v))` to `Val(v)` so equal bindings
    /// compare equal regardless of the path that created them.
    fn normalized(self) -> Binding {
        match self {
            Binding::CodeTerm(Term::Val(v)) => Binding::Val(v),
            Binding::CodeTerm(Term::Quote(r)) if !r.is_pattern() => Binding::Val(Value::Quote(r)),
            other => other,
        }
    }
}

/// One bound variable. Sequence meta-variables (`T*`, `A*`) live in
/// their own namespace, the `seq` bit: the paper freely reuses a letter
/// for both an atom meta-variable and a rest wildcard
/// (`[| A <- P(T2*), A*. |]`), so `A` and `A*` must not collide.
#[derive(Clone, Debug)]
struct Entry {
    var: Symbol,
    seq: bool,
    binding: Binding,
}

/// What a matcher calls once per solution, with the environment extended
/// to that solution; `Break` ends the search.
pub type Visit<'a> = dyn FnMut(&mut Bindings) -> ControlFlow<()> + 'a;

/// A binding environment: the variables bound so far, in the order they
/// were bound.
///
/// **The vector is its own trail.** A variable is bound by pushing an
/// entry and never rebound, so the environment before any sequence of
/// bindings is a prefix of the one after it, and undoing them is a
/// `truncate` to the length it had. That is what lets one environment
/// serve a whole rule evaluation: nothing is cloned to try a candidate.
///
/// **Restore on return.** Every `match_*` function binds in place, calls
/// its visitor once per solution with the environment extended to that
/// solution, and leaves the environment exactly as it found it when it
/// returns — whether it matched nothing, visited every solution, or the
/// visitor answered `Break` (which it passes on). A visitor may itself
/// match further against the environment it is handed; what it binds is
/// gone when it returns. Only [`Bindings::insert`] and
/// [`Bindings::bind_value`] leave a binding behind.
///
/// **Solution order.** Solutions are visited depth-first, which is the
/// lexicographic order of the choices made left to right: an earlier
/// argument's (or pattern item's) alternatives vary slowest. Only `A*`
/// patterns have alternatives; every other match has at most one
/// solution.
///
/// **Lookup is a scan.** A rule binds a handful of variables, so
/// comparing a few `(Symbol, bool)` pairs costs less than hashing one.
///
/// Two environments are equal when they bind the same variables to the
/// same things, in whatever order.
#[derive(Default, Debug)]
pub struct Bindings {
    entries: Vec<Entry>,
}

#[cfg(test)]
thread_local! {
    /// How many times this thread has cloned a `Bindings`.
    pub(crate) static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Clone for Bindings {
    fn clone(&self) -> Bindings {
        #[cfg(test)]
        CLONES.with(|n| n.set(n.get() + 1));
        Bindings {
            entries: self.entries.clone(),
        }
    }
}

impl PartialEq for Bindings {
    fn eq(&self, other: &Bindings) -> bool {
        self.len() == other.len()
            && self
                .entries
                .iter()
                .all(|e| other.lookup(e.var, e.seq) == Some(&e.binding))
    }
}

impl Eq for Bindings {}

/// What a pattern term is matched against: a stored value, or a term of
/// quoted code that is not one.
#[derive(Clone, Copy)]
enum Code<'a> {
    Val(&'a Value),
    Term(&'a Term),
}

impl<'a> From<&'a Term> for Code<'a> {
    fn from(term: &'a Term) -> Code<'a> {
        match term {
            Term::Val(value) => Code::Val(value),
            other => Code::Term(other),
        }
    }
}

impl Bindings {
    /// The empty environment.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    fn lookup(&self, var: Symbol, seq: bool) -> Option<&Binding> {
        let entry = self.entries.iter().find(|e| e.var == var && e.seq == seq);
        entry.map(|e| &e.binding)
    }

    /// Looks up a variable.
    pub fn get(&self, var: Symbol) -> Option<&Binding> {
        self.lookup(var, false)
    }

    /// Looks up a sequence meta-variable: `T` for what `T*` captured.
    pub fn get_seq(&self, var: Symbol) -> Option<&Binding> {
        self.lookup(var, true)
    }

    /// The bound value of `var`, if it is bound to a ground value.
    pub fn value(&self, var: Symbol) -> Option<&Value> {
        match self.get(var) {
            Some(Binding::Val(v)) => Some(v),
            _ => None,
        }
    }

    fn bind(&mut self, var: Symbol, seq: bool, binding: Binding) -> bool {
        let binding = binding.normalized();
        match self.lookup(var, seq) {
            Some(existing) => *existing == binding,
            None => {
                self.entries.push(Entry { var, seq, binding });
                true
            }
        }
    }

    /// [`Bindings::bind_value`] that clones `value` only to store it.
    fn bind_to(&mut self, var: Symbol, value: &Value) -> bool {
        match self.get(var) {
            Some(existing) => matches!(existing, Binding::Val(v) if v == value),
            None => {
                let binding = Binding::Val(value.clone());
                self.entries.push(Entry {
                    var,
                    seq: false,
                    binding,
                });
                true
            }
        }
    }

    /// Binds `var`, returning `false` (and leaving the environment
    /// unchanged) when `var` is already bound to something different.
    pub fn insert(&mut self, var: Symbol, binding: Binding) -> bool {
        self.bind(var, false, binding)
    }

    /// Convenience: bind to a ground value.
    pub fn bind_value(&mut self, var: Symbol, value: Value) -> bool {
        self.insert(var, Binding::Val(value))
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(variable, is a sequence variable, binding)` in
    /// binding order: the order the matcher met the variables in, which
    /// for a rule body is left to right.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, bool, &Binding)> {
        self.entries.iter().map(|e| (e.var, e.seq, &e.binding))
    }

    /// The solutions `run` visits, cloned into a list: for callers that
    /// want to hold them after the search, which a visitor cannot.
    pub fn solutions(
        &mut self,
        run: impl FnOnce(&mut Bindings, &mut Visit<'_>) -> ControlFlow<()>,
    ) -> Vec<Bindings> {
        let mut out = Vec::new();
        let _ = run(self, &mut |env| {
            out.push(env.clone());
            Continue(())
        });
        out
    }

    // ---- resolution ------------------------------------------------------

    /// Resolves a term to a ground value under these bindings, if
    /// possible. Quote terms are instantiated as templates; the result
    /// must not be a top-level pattern (nested quotes may still contain
    /// pattern constructs — they are data).
    pub fn resolve(&self, term: &Term) -> Option<Value> {
        match term {
            Term::Val(v) => Some(v.clone()),
            Term::Var(v) => self.value(*v).cloned(),
            Term::SeqVar(_) => None,
            Term::Quote(rule) => {
                let instantiated = self.instantiate_rule(rule);
                if instantiated.is_pattern() {
                    None
                } else {
                    Some(Value::Quote(Arc::new(instantiated)))
                }
            }
        }
    }

    // ---- probe keys --------------------------------------------------------

    /// Whether `term` is *closed* under these bindings — stands for
    /// exactly one ground value as far as matching is concerned — and, if
    /// so, feeds that value's hash to `state`, so the argument can join
    /// an index key ([`crate::db::ProbeKey`]). On `false`, `state` holds
    /// garbage.
    ///
    /// Closed are: a value; a variable bound to a value (not to code); and
    /// a quote pattern all of whose variables are bound to values and that
    /// has no `T*` sequence, `A*` rest, functor variable or aggregate,
    /// nested quotes included. Everything else — an unbound variable, a
    /// variable bound to code, any open quote pattern — can match many
    /// stored values and must be found by scanning.
    ///
    /// The hash is taken in the matcher's view, not `derive(Hash)`'s:
    /// [`Bindings::match_rule`] compares an atom's `all_args()` flat, so
    /// `[| p(a,b) |]` matches a stored `[| p[a](b) |]` although the two
    /// `Rule`s are not `==`; and it treats the code terms `Term::Quote(r)`
    /// and `Term::Val(Value::Quote(r))` alike. Argument lists are
    /// therefore hashed as one flat list and both quote forms the same
    /// way, which makes the hash of a closed term equal the
    /// [`hash_value`] of every value it matches (and of some it does not:
    /// a key may over-approximate, so candidates are always re-matched).
    pub(crate) fn hash_closed<H: Hasher>(&self, term: &Term, state: &mut H) -> bool {
        hash_term(term, Some(self), state)
    }

    // ---- matching ----------------------------------------------------------

    /// Visits `self` extended by `var = binding`, if that is consistent.
    fn bound(
        &mut self,
        var: Symbol,
        seq: bool,
        binding: Binding,
        visit: &mut Visit<'_>,
    ) -> ControlFlow<()> {
        let mark = self.entries.len();
        let flow = if self.bind(var, seq, binding) {
            visit(self)
        } else {
            Continue(())
        };
        self.entries.truncate(mark);
        flow
    }

    /// Matches pattern terms against as many of `codes`, pairwise. The
    /// one loop under both levels of matching: everything but a quote
    /// pattern has at most one solution and is bound without a call.
    fn match_args<'p, 'c>(
        &mut self,
        mut patterns: impl Iterator<Item = &'p Term> + Clone,
        mut codes: impl Iterator<Item = Code<'c>> + Clone,
        visit: &mut Visit<'_>,
    ) -> ControlFlow<()> {
        let mark = self.entries.len();
        let flow = loop {
            let Some(pattern) = patterns.next() else {
                break visit(self);
            };
            let matched = match (pattern, codes.next()) {
                (Term::Val(v), Some(Code::Val(w))) => v == w,
                (Term::Var(var), Some(Code::Val(w))) => self.bind_to(*var, w),
                (Term::Var(var), Some(Code::Term(t))) => {
                    self.bind(*var, false, Binding::CodeTerm(t.clone()))
                }
                (
                    Term::Quote(pat),
                    Some(Code::Val(Value::Quote(rule)) | Code::Term(Term::Quote(rule))),
                ) => {
                    break self.match_rule(pat, rule, &mut |env| {
                        env.match_args(patterns.clone(), codes.clone(), visit)
                    });
                }
                // A value against code that is not one, a quote pattern
                // against anything but a quote, a `T*` that is not last.
                _ => false,
            };
            if !matched {
                break Continue(());
            }
        };
        self.entries.truncate(mark);
        flow
    }

    /// Matches one atom-argument term against a ground value (at most
    /// one solution, unless `pattern` is a quote pattern with `A*`).
    pub fn match_value(
        &mut self,
        pattern: &Term,
        value: &Value,
        visit: &mut Visit<'_>,
    ) -> ControlFlow<()> {
        self.match_args(
            std::iter::once(pattern),
            std::iter::once(Code::Val(value)),
            visit,
        )
    }

    /// Matches an atom's arguments against a stored tuple. `tuple` covers
    /// key arguments first, then ordinary arguments.
    pub fn match_tuple(
        &mut self,
        atom: &Atom,
        tuple: &[Value],
        visit: &mut Visit<'_>,
    ) -> ControlFlow<()> {
        if atom.arity() != tuple.len() {
            return Continue(());
        }
        self.match_args(atom.all_args(), tuple.iter().map(Code::Val), visit)
    }

    /// Whether `atom` matches `tuple` under these bindings at all.
    pub fn matches(&mut self, atom: &Atom, tuple: &[Value]) -> bool {
        self.match_tuple(atom, tuple, &mut |_| Break(())).is_break()
    }

    /// Matches a pattern atom against a concrete (code) atom.
    pub fn match_code_atom(
        &mut self,
        pattern: &Atom,
        code: &Atom,
        visit: &mut Visit<'_>,
    ) -> ControlFlow<()> {
        // Arguments: keys then args, with an optional trailing `T*`
        // absorbing the remainder.
        let seq_tail = match pattern.all_args().last() {
            Some(Term::SeqVar(v)) => Some(*v),
            _ => None,
        };
        let fixed = pattern.arity() - usize::from(seq_tail.is_some());
        let mut args = |env: &mut Bindings| {
            if code.arity() < fixed || (seq_tail.is_none() && code.arity() > fixed) {
                return Continue(());
            }
            let codes = code.all_args().map(Code::from);
            env.match_args(pattern.all_args().take(fixed), codes, &mut |env| {
                let Some(seq) = seq_tail else {
                    return visit(env);
                };
                let tail = code.all_args().skip(fixed).cloned().collect();
                env.bound(seq, true, Binding::Terms(tail), visit)
            })
        };
        match (pattern.pred, code.pred) {
            // Bare meta-variable: capture the whole atom.
            (PredRef::Var(v), _) if pattern.arity() == 0 => {
                self.bound(v, false, Binding::CodeAtom(code.clone()), visit)
            }
            (PredRef::Name(p), PredRef::Name(c)) if p == c => args(self),
            (PredRef::Var(v), PredRef::Name(c)) => {
                self.bound(v, false, Binding::Val(Value::Sym(c)), &mut args)
            }
            _ => Continue(()),
        }
    }

    /// Matches a pattern body item against a concrete body item.
    fn match_code_item(
        &mut self,
        pattern: &BodyItem,
        code: &BodyItem,
        visit: &mut Visit<'_>,
    ) -> ControlFlow<()> {
        match (pattern, code) {
            (
                BodyItem::Lit {
                    negated: pn,
                    atom: pa,
                },
                BodyItem::Lit {
                    negated: cn,
                    atom: ca,
                },
            ) if pn == cn => self.match_code_atom(pa, ca, visit),
            (
                BodyItem::Cmp { op, lhs, rhs },
                BodyItem::Cmp {
                    op: cop,
                    lhs: clhs,
                    rhs: crhs,
                },
            ) if op == cop => {
                self.match_code_expr(lhs, clhs, &mut |env| env.match_code_expr(rhs, crhs, visit))
            }
            _ => Continue(()),
        }
    }

    fn match_code_expr(
        &mut self,
        pattern: &Expr,
        code: &Expr,
        visit: &mut Visit<'_>,
    ) -> ControlFlow<()> {
        match (pattern, code) {
            (Expr::Term(p), Expr::Term(c)) => {
                self.match_args(std::iter::once(p), std::iter::once(Code::from(c)), visit)
            }
            (Expr::BinOp(op, pl, pr), Expr::BinOp(cop, cl, cr)) if op == cop => {
                self.match_code_expr(pl, cl, &mut |env| env.match_code_expr(pr, cr, visit))
            }
            _ => Continue(()),
        }
    }

    /// Matches `patterns[i]` against `codes[i]` by `step`, for every `i`
    /// the two slices share.
    fn match_each<T>(
        &mut self,
        patterns: &[T],
        codes: &[T],
        step: fn(&mut Bindings, &T, &T, &mut Visit<'_>) -> ControlFlow<()>,
        visit: &mut Visit<'_>,
    ) -> ControlFlow<()> {
        match (patterns.split_first(), codes.split_first()) {
            (Some((p, patterns)), Some((c, codes))) => step(self, p, c, &mut |env| {
                env.match_each(patterns, codes, step, visit)
            }),
            _ => visit(self),
        }
    }

    /// Matches each of `items` against *some* item of `body`.
    fn match_some(
        &mut self,
        items: &[BodyItem],
        body: &[BodyItem],
        visit: &mut Visit<'_>,
    ) -> ControlFlow<()> {
        let Some((item, items)) = items.split_first() else {
            return visit(self);
        };
        body.iter().try_for_each(|code| {
            self.match_code_item(item, code, &mut |env| env.match_some(items, body, visit))
        })
    }

    /// Matches a quote pattern against a concrete quoted rule.
    ///
    /// Head atoms match positionally. Body matching depends on whether the
    /// pattern ends in a body-rest variable (`A*`):
    ///
    /// * with `A*`: each pattern item matches *some* concrete body item
    ///   (existential, unordered — the paper's meta-model translation), so
    ///   there can be several solutions; the rest variable captures the
    ///   full concrete body;
    /// * without: bodies match positionally and exactly.
    pub fn match_rule(
        &mut self,
        pattern: &Rule,
        code: &Rule,
        visit: &mut Visit<'_>,
    ) -> ControlFlow<()> {
        if pattern.heads.len() != code.heads.len() || pattern.agg != code.agg {
            return Continue(());
        }
        let heads = Bindings::match_code_atom;
        match pattern.body.split_last() {
            Some((BodyItem::Rest(rest), items)) => {
                self.match_each(&pattern.heads, &code.heads, heads, &mut |env| {
                    env.match_some(items, &code.body, &mut |env| {
                        env.bound(*rest, true, Binding::Items(code.body.clone()), visit)
                    })
                })
            }
            _ if pattern.body.len() != code.body.len() => Continue(()),
            _ => self.match_each(&pattern.heads, &code.heads, heads, &mut |env| {
                env.match_each(&pattern.body, &code.body, Bindings::match_code_item, visit)
            }),
        }
    }

    // ---- template instantiation --------------------------------------------

    /// Instantiates a term of a template: bound variables are substituted
    /// ("unquoted in-place"), unbound ones remain as object variables.
    pub fn instantiate_term(&self, term: &Term) -> Term {
        match term {
            Term::Val(_) => term.clone(),
            Term::Var(v) => match self.get(*v) {
                Some(Binding::Val(value)) => Term::Val(value.clone()),
                Some(Binding::CodeTerm(t)) => t.clone(),
                _ => term.clone(),
            },
            Term::SeqVar(_) => term.clone(), // expanded by instantiate_atom
            Term::Quote(rule) => {
                let inst = self.instantiate_rule(rule);
                if inst.is_pattern() {
                    Term::Quote(Arc::new(inst))
                } else {
                    Term::Val(Value::Quote(Arc::new(inst)))
                }
            }
        }
    }

    fn instantiate_args(&self, args: &[Term]) -> Vec<Term> {
        let mut out = Vec::with_capacity(args.len());
        for term in args {
            if let Term::SeqVar(v) = term {
                if let Some(Binding::Terms(ts)) = self.get_seq(*v) {
                    out.extend(ts.iter().map(|t| self.instantiate_term(t)));
                    continue;
                }
            }
            out.push(self.instantiate_term(term));
        }
        out
    }

    /// Instantiates an atom of a template. A bare atom meta-variable bound
    /// to a whole atom expands to that atom.
    pub fn instantiate_atom(&self, atom: &Atom) -> Atom {
        if let PredRef::Var(v) = atom.pred {
            if atom.key_args.is_empty() && atom.args.is_empty() {
                if let Some(Binding::CodeAtom(a)) = self.get(v) {
                    return self.instantiate_atom(a);
                }
            }
        }
        let pred = match atom.pred {
            PredRef::Name(_) => atom.pred,
            PredRef::Var(v) => match self.get(v) {
                Some(Binding::Val(Value::Sym(name))) => PredRef::Name(*name),
                _ => atom.pred,
            },
        };
        Atom {
            pred,
            key_args: self.instantiate_args(&atom.key_args),
            args: self.instantiate_args(&atom.args),
        }
    }

    fn instantiate_expr(&self, expr: &Expr) -> Expr {
        match expr {
            Expr::Term(t) => Expr::Term(self.instantiate_term(t)),
            Expr::BinOp(op, l, r) => Expr::BinOp(
                *op,
                Box::new(self.instantiate_expr(l)),
                Box::new(self.instantiate_expr(r)),
            ),
        }
    }

    fn instantiate_item(&self, item: &BodyItem, out: &mut Vec<BodyItem>) {
        match item {
            BodyItem::Lit { negated, atom } => out.push(BodyItem::Lit {
                negated: *negated,
                atom: self.instantiate_atom(atom),
            }),
            BodyItem::Cmp { op, lhs, rhs } => out.push(BodyItem::Cmp {
                op: *op,
                lhs: self.instantiate_expr(lhs),
                rhs: self.instantiate_expr(rhs),
            }),
            BodyItem::Rest(v) => match self.get_seq(*v) {
                Some(Binding::Items(items)) => {
                    for sub in items {
                        self.instantiate_item(sub, out);
                    }
                }
                _ => out.push(item.clone()),
            },
        }
    }

    /// Instantiates a whole rule template under these bindings.
    pub fn instantiate_rule(&self, rule: &Rule) -> Rule {
        let mut body = Vec::with_capacity(rule.body.len());
        for item in &rule.body {
            self.instantiate_item(item, &mut body);
        }
        Rule {
            heads: rule
                .heads
                .iter()
                .map(|h| self.instantiate_atom(h))
                .collect(),
            body,
            agg: rule.agg.clone(),
        }
    }
}

/// Feeds the hash of a stored value to `state`, in the matcher's view
/// (see [`Bindings::hash_closed`]): values the matcher can tell apart only
/// by key/ordinary argument split or by quote form hash alike.
pub(crate) fn hash_value<H: Hasher>(value: &Value, state: &mut H) {
    match value {
        Value::Quote(rule) => {
            hash_quote(rule, None, state);
        }
        other => other.hash(state),
    }
}

// One traversal serves both sides of a probe. With `env`, the term is a
// pattern: variables hash as the values they are bound to and anything
// not closed returns `false`. Without, it is stored code: every construct
// hashes as itself and the result is always `true`.

fn hash_term<H: Hasher>(term: &Term, env: Option<&Bindings>, state: &mut H) -> bool {
    match (term, env) {
        (Term::Val(value), _) => {
            hash_value(value, state);
            true
        }
        (Term::Quote(rule), _) => hash_quote(rule, env, state),
        (Term::Var(var), Some(env)) => match env.value(*var) {
            Some(value) => {
                hash_value(value, state);
                true
            }
            None => false,
        },
        (Term::SeqVar(_), Some(_)) => false,
        (Term::Var(var), None) => {
            state.write_u8(0xfd);
            var.hash(state);
            true
        }
        (Term::SeqVar(var), None) => {
            state.write_u8(0xfc);
            var.hash(state);
            true
        }
    }
}

fn hash_quote<H: Hasher>(rule: &Rule, env: Option<&Bindings>, state: &mut H) -> bool {
    if env.is_some() && rule.agg.is_some() {
        return false;
    }
    state.write_u8(0xfe);
    rule.agg.hash(state);
    state.write_usize(rule.heads.len());
    state.write_usize(rule.body.len());
    rule.heads.iter().all(|head| hash_atom(head, env, state))
        && rule.body.iter().all(|item| match item {
            BodyItem::Lit { negated, atom } => {
                state.write_u8(u8::from(*negated));
                hash_atom(atom, env, state)
            }
            BodyItem::Cmp { op, lhs, rhs } => {
                state.write_u8(2);
                op.hash(state);
                hash_expr(lhs, env, state) && hash_expr(rhs, env, state)
            }
            BodyItem::Rest(var) => {
                state.write_u8(3);
                var.hash(state);
                env.is_none()
            }
        })
}

fn hash_atom<H: Hasher>(atom: &Atom, env: Option<&Bindings>, state: &mut H) -> bool {
    if env.is_some() && matches!(atom.pred, PredRef::Var(_)) {
        return false;
    }
    atom.pred.hash(state);
    state.write_usize(atom.arity());
    atom.all_args().all(|term| hash_term(term, env, state))
}

fn hash_expr<H: Hasher>(expr: &Expr, env: Option<&Bindings>, state: &mut H) -> bool {
    match expr {
        Expr::Term(term) => {
            state.write_u8(0);
            hash_term(term, env, state)
        }
        Expr::BinOp(op, lhs, rhs) => {
            state.write_u8(1);
            op.hash(state);
            hash_expr(lhs, env, state) && hash_expr(rhs, env, state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_atom, parse_rule};

    /// Parses `src` as quoted code (so meta-variable syntax is allowed)
    /// by wrapping it in a holder fact and extracting the quote term.
    fn quote_of(src: &str) -> Arc<Rule> {
        let holder = parse_rule(&format!("holder([| {src} |])."))
            .unwrap_or_else(|e| panic!("parse failed for {src:?}: {e}"));
        match &holder.heads[0].args[0] {
            Term::Quote(r) => r.clone(),
            other => panic!("expected quote, got {other}"),
        }
    }

    fn tuple_matches(env: &Bindings, atom: &Atom, tuple: &[Value]) -> Vec<Bindings> {
        (env.clone()).solutions(|env, visit| env.match_tuple(atom, tuple, visit))
    }

    fn value_matches(env: &Bindings, pattern: &Term, value: &Value) -> Vec<Bindings> {
        (env.clone()).solutions(|env, visit| env.match_value(pattern, value, visit))
    }

    fn rule_matches(pattern: &Rule, code: &Rule) -> Vec<Bindings> {
        Bindings::new().solutions(|env, visit| env.match_rule(pattern, code, visit))
    }

    #[test]
    fn bind_and_conflict() {
        let mut b = Bindings::new();
        let x = Symbol::intern("X");
        assert!(b.bind_value(x, Value::sym("alice")));
        assert!(b.bind_value(x, Value::sym("alice"))); // same again: fine
        assert!(!b.bind_value(x, Value::sym("bob"))); // conflict
        assert_eq!(b.value(x), Some(&Value::sym("alice")));
    }

    #[test]
    fn match_tuple_simple() {
        let atom = parse_atom("access(P,O,read)").unwrap();
        let tuple = vec![Value::sym("alice"), Value::sym("file1"), Value::sym("read")];
        let envs = tuple_matches(&Bindings::new(), &atom, &tuple);
        assert_eq!(envs.len(), 1);
        assert_eq!(
            envs[0].value(Symbol::intern("P")),
            Some(&Value::sym("alice"))
        );
        // Mode mismatch: constant 'read' vs 'write'.
        let bad = vec![
            Value::sym("alice"),
            Value::sym("file1"),
            Value::sym("write"),
        ];
        assert!(tuple_matches(&Bindings::new(), &atom, &bad).is_empty());
    }

    #[test]
    fn match_tuple_repeated_var() {
        let atom = parse_atom("edge(X,X)").unwrap();
        let same = vec![Value::sym("a"), Value::sym("a")];
        let diff = vec![Value::sym("a"), Value::sym("b")];
        assert_eq!(tuple_matches(&Bindings::new(), &atom, &same).len(), 1);
        assert!(tuple_matches(&Bindings::new(), &atom, &diff).is_empty());
    }

    #[test]
    fn quote_pattern_matches_fact() {
        // says(bob,me,[|access(P,O,read)|]) binding P,O from the fact.
        let pattern = Term::Quote(quote_of("access(P,O,read)."));
        let value = Value::Quote(quote_of("access(alice,file1,read)."));
        let envs = value_matches(&Bindings::new(), &pattern, &value);
        assert_eq!(envs.len(), 1);
        assert_eq!(
            envs[0].value(Symbol::intern("P")),
            Some(&Value::sym("alice"))
        );
        assert_eq!(
            envs[0].value(Symbol::intern("O")),
            Some(&Value::sym("file1"))
        );
    }

    #[test]
    fn quote_pattern_functor_var() {
        // [| P(T*) <- A*. |] — mayWrite-style pattern.
        let pattern = quote_of("P(T*) <- A*.");
        let code = quote_of("access(alice,file1,read) <- good(alice).");
        let envs = rule_matches(&pattern, &code);
        assert_eq!(envs.len(), 1);
        assert_eq!(
            envs[0].value(Symbol::intern("P")),
            Some(&Value::sym("access"))
        );
        // Sequence bindings live in their own namespace.
        assert_eq!(envs[0].get(Symbol::intern("T")), None);
        match envs[0].get_seq(Symbol::intern("T")) {
            Some(Binding::Terms(ts)) => assert_eq!(ts.len(), 3),
            other => panic!("expected Terms, got {other:?}"),
        }
    }

    #[test]
    fn quote_pattern_body_existential() {
        // [| A <- P(T2*), A*. |] matches each body atom of the rule.
        let pattern = quote_of("A <- P(T2*), A*.");
        let code = quote_of("safe(X) <- good(X), vetted(X).");
        let envs = rule_matches(&pattern, &code);
        // P binds to 'good' in one extension and 'vetted' in the other.
        let mut preds: Vec<String> = envs
            .iter()
            .filter_map(|e| e.value(Symbol::intern("P")).map(|v| v.to_string()))
            .collect();
        preds.sort();
        assert_eq!(preds, vec!["good", "vetted"]);
    }

    #[test]
    fn exact_body_match_without_rest() {
        let pattern = quote_of("p(X) <- q(X).");
        assert_eq!(rule_matches(&pattern, &quote_of("p(a) <- q(a).")).len(), 1);
        // Extra body literal: no match without A*.
        assert!(rule_matches(&pattern, &quote_of("p(a) <- q(a), r(a).")).is_empty());
    }

    #[test]
    fn meta_var_captures_code_variable() {
        // pull0: R captures the code term at that position even when it is
        // a variable of the matched rule.
        let pattern = quote_of("A <- says(X,me,R), A*.");
        let code = quote_of("access(P) <- says(bob,me,[|access(P)|]).");
        let envs = rule_matches(&pattern, &code);
        assert_eq!(envs.len(), 1);
        assert_eq!(envs[0].value(Symbol::intern("X")), Some(&Value::sym("bob")));
        match envs[0].get(Symbol::intern("R")) {
            Some(Binding::Val(Value::Quote(_))) => {}
            other => panic!("expected quote binding, got {other:?}"),
        }
    }

    #[test]
    fn instantiate_template_substitutes_bound_only() {
        // del1: bound U2 substitutes, unbound R stays an object variable.
        let template = parse_rule("active(R) <- says(U2,me,R).").unwrap();
        let mut b = Bindings::new();
        b.bind_value(Symbol::intern("U2"), Value::sym("accessMgr"));
        let inst = b.instantiate_rule(&template);
        assert_eq!(inst.to_string(), "active(R) <- says(accessMgr,me,R).");
    }

    #[test]
    fn instantiate_splices_sequences() {
        let pattern = quote_of("P(T*) <- A*.");
        let code = quote_of("perm(alice,f,read) <- owner(alice,f).");
        let env = rule_matches(&pattern, &code).pop().expect("match");
        // Re-instantiating the pattern under the match reproduces the code.
        let rebuilt = env.instantiate_rule(&pattern);
        assert_eq!(rebuilt.to_string(), code.to_string());
    }

    #[test]
    fn resolve_quote_term() {
        let mut b = Bindings::new();
        b.bind_value(Symbol::intern("Z"), Value::sym("nodeB"));
        b.bind_value(Symbol::intern("D"), Value::sym("nodeC"));
        // ls2's head quote [|reachable(Z,D)|] resolves to a ground fact.
        let term = Term::Quote(quote_of("reachable(Z,D)."));
        let v = b.resolve(&term).expect("resolves");
        assert_eq!(v.to_string(), "[| reachable(nodeB,nodeC). |]");
    }

    #[test]
    fn resolve_pattern_quote_fails() {
        let term = Term::Quote(quote_of("P(T*) <- A*."));
        assert!(Bindings::new().resolve(&term).is_none());
    }

    #[test]
    fn whole_atom_capture_and_reuse() {
        let pattern = quote_of("A <- B, C*.");
        let code = quote_of("p(a) <- q(b), r(c).");
        let envs = rule_matches(&pattern, &code);
        // B matches q(b) and r(c) existentially.
        assert_eq!(envs.len(), 2);
        let rebuilt: Vec<String> = envs
            .iter()
            .map(|e| e.instantiate_atom(&pattern.heads[0]).to_string())
            .collect();
        assert!(rebuilt.iter().all(|s| s == "p(a)"), "{rebuilt:?}");
    }

    #[test]
    fn equality_is_a_maps() {
        let (x, y) = (Symbol::intern("X"), Symbol::intern("Y"));
        let mut xy = Bindings::new();
        let mut yx = Bindings::new();
        assert!(xy.bind_value(x, Value::sym("a")) && xy.bind_value(y, Value::sym("b")));
        assert!(yx.bind_value(y, Value::sym("b")) && yx.bind_value(x, Value::sym("a")));
        assert_eq!(xy, yx);
        // `iter` is in binding order, which differs.
        assert_eq!(xy.iter().next().map(|(var, ..)| var), Some(x));
        assert_eq!(yx.iter().next().map(|(var, ..)| var), Some(y));
        // Same variables, another value; a variable more; `T` is not `T*`.
        let mut other = Bindings::new();
        assert!(other.bind_value(x, Value::sym("a")) && other.bind_value(y, Value::sym("c")));
        assert_ne!(xy, other);
        assert!(yx.bind_value(Symbol::intern("Z"), Value::sym("c")));
        assert_ne!(xy, yx);
        let (mut plain, mut seq) = (Bindings::new(), Bindings::new());
        assert!(plain.bind(x, false, Binding::Terms(Vec::new())));
        assert!(seq.bind(x, true, Binding::Terms(Vec::new())));
        assert_ne!(plain, seq);
    }

    #[test]
    fn matching_clones_no_environment() {
        let payload = |i: usize| Value::Quote(quote_of(&format!("payload({i}).")));
        let (alice, bob) = (Value::sym("alice"), Value::sym("bob"));
        let export = |i| vec![bob.clone(), alice.clone(), payload(i), Value::Int(7)];
        let says = |i| vec![alice.clone(), bob.clone(), payload(i)];
        let body = |src: &str| {
            parse_rule(&format!("h() <- {src}."))
                .unwrap()
                .body
                .remove(0)
        };
        for (src, tuple) in [
            (
                "export[bob](U,R,S)",
                &export as &dyn Fn(usize) -> Vec<Value>,
            ),
            ("says(U,bob,R)", &says),
            ("says(alice,bob,[| payload(I) |])", &says),
        ] {
            let item = body(src);
            let atom = item.atom().unwrap();
            let tuples: Vec<Vec<Value>> = (0..1000).map(tuple).collect();
            let mut env = Bindings::new();
            let mut matched = 0;
            let before = CLONES.with(std::cell::Cell::get);
            for tuple in &tuples {
                let _ = env.match_tuple(atom, tuple, &mut |env| {
                    matched += usize::from(!env.is_empty());
                    Continue(())
                });
            }
            assert_eq!(CLONES.with(std::cell::Cell::get), before, "{src}");
            assert_eq!(matched, 1000, "{src}");
            assert!(env.is_empty());
        }
    }

    #[test]
    fn a_failed_alternative_leaves_no_binding_behind() {
        // `q(X)` first matches `q(a)`, under which `r(X)` finds nothing:
        // X = a must be gone when `q(b)` is tried, or nothing matches.
        let pattern = quote_of("A <- q(X), r(X), A*.");
        let code = quote_of("p() <- q(a), q(b), r(b).");
        let mut env = Bindings::new();
        assert!(env.bind_value(Symbol::intern("K"), Value::sym("kept")));
        let before = env.clone();
        let found = env.solutions(|env, visit| env.match_rule(&pattern, &code, visit));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].value(Symbol::intern("X")), Some(&Value::sym("b")));
        assert_eq!(found[0].len(), 4); // K, A, X, A*
        assert_eq!(env, before);
        // The same for a functor variable and a `T*`: P = q and T* = (a)
        // are undone before r(b), then s(b) itself, are tried.
        let pattern = quote_of("A <- P(T*), s(T*), A*.");
        let code = quote_of("p() <- q(a), r(b), s(b).");
        let found = env.solutions(|env, visit| env.match_rule(&pattern, &code, visit));
        let functors: Vec<_> = (found.iter())
            .map(|env| env.value(Symbol::intern("P")).cloned())
            .collect();
        assert_eq!(functors, [Some(Value::sym("r")), Some(Value::sym("s"))]);
        assert_eq!(env, before);
        // And when the visitor stops the search half-way.
        let flow = env.match_rule(&quote_of("A <- B, A*."), &code, &mut |_| Break(()));
        assert!(flow.is_break());
        assert_eq!(env, before);
    }

    fn closed_hash(env: &Bindings, term: &Term) -> Option<u64> {
        let mut state = std::collections::hash_map::DefaultHasher::new();
        env.hash_closed(term, &mut state).then(|| state.finish())
    }

    fn value_hash(value: &Value) -> u64 {
        let mut state = std::collections::hash_map::DefaultHasher::new();
        hash_value(value, &mut state);
        state.finish()
    }

    fn env(pairs: &[(&str, Value)]) -> Bindings {
        let mut b = Bindings::new();
        for (var, value) in pairs {
            assert!(b.bind_value(Symbol::intern(var), value.clone()));
        }
        b
    }

    #[test]
    fn closed_terms_hash_like_every_value_they_match() {
        let none = Bindings::new();
        let keyed = Value::Quote(quote_of("p[a](b)."));
        let flat = Value::Quote(quote_of("p(a,b)."));
        // Not `==`, yet each matches the other as a pattern: one hash.
        assert_ne!(keyed, flat);
        assert_eq!(value_hash(&keyed), value_hash(&flat));
        let ab = env(&[("X", Value::sym("a")), ("Y", Value::sym("b"))]);
        for (bindings, pattern) in [
            (&none, "p(a,b)."),
            (&none, "p[a](b)."),
            (&ab, "p(X,Y)."),
            (&ab, "p[X](Y)."),
            (&ab, "p(X,b)."),
        ] {
            let term = Term::Quote(quote_of(pattern));
            assert!(
                !value_matches(bindings, &term, &keyed).is_empty(),
                "{pattern}"
            );
            assert_eq!(
                closed_hash(bindings, &term),
                Some(value_hash(&keyed)),
                "{pattern}"
            );
        }
        assert_ne!(
            value_hash(&flat),
            value_hash(&Value::Quote(quote_of("p(b,a).")))
        );
        // Values, and variables bound to them — quotes included.
        let r = env(&[("R", keyed.clone())]);
        assert_eq!(
            closed_hash(&none, &Term::sym("a")),
            Some(value_hash(&Value::sym("a")))
        );
        assert_eq!(closed_hash(&r, &Term::var("R")), Some(value_hash(&keyed)));
        assert_eq!(
            closed_hash(&none, &Term::Val(flat)),
            Some(value_hash(&keyed))
        );
        // Bodies, comparisons, negation.
        for rule in ["p(a) <- q(a), r(b).", "p(a) <- !q(a), a != b."] {
            let value = Value::Quote(quote_of(rule));
            let pattern = Term::Quote(quote_of(&rule.replace('a', "X")));
            let xa = env(&[("X", Value::sym("a"))]);
            assert!(!value_matches(&xa, &pattern, &value).is_empty(), "{rule}");
            assert_eq!(closed_hash(&xa, &pattern), Some(value_hash(&value)));
        }
    }

    #[test]
    fn nested_quotes_hash_alike_in_both_code_forms() {
        // Parsed code nests a quote as `Term::Quote`; instantiated code as
        // `Term::Val(Value::Quote(..))`. A pattern matches both.
        let pattern = quote_of("p(a,[| q(X,R). |]).");
        let bound = env(&[
            ("X", Value::sym("b")),
            ("R", Value::Quote(quote_of("r(c)."))),
        ]);
        let parsed = Value::Quote(quote_of("p(a,[| q[b]([| r(c). |]). |])."));
        let instantiated = bound.resolve(&Term::Quote(pattern.clone())).unwrap();
        let term = Term::Quote(pattern);
        for value in [&parsed, &instantiated] {
            assert!(!value_matches(&bound, &term, value).is_empty(), "{value}");
            assert_eq!(closed_hash(&bound, &term), Some(value_hash(value)));
        }
    }

    #[test]
    fn open_terms_are_not_keys() {
        let x = env(&[("X", Value::sym("a"))]);
        for open in [
            "p(X,Y).",               // Y unbound
            "p(X,T*).",              // argument sequence
            "p(X) <- A*.",           // body rest
            "P(X).",                 // functor variable
            "A <- q(X).",            // whole-atom variable
            "p(X) <- q(X), X != Y.", // unbound in a comparison
            "p(X,[| q(Y). |]).",     // unbound in a nested quote
        ] {
            let term = Term::Quote(quote_of(open));
            assert_eq!(closed_hash(&x, &term), None, "{open}");
        }
        // An aggregate only parses outside a quote.
        let agg = parse_rule("c(a,N) <- agg<<N = count(U)>> q(U).").unwrap();
        let nu = env(&[("N", Value::Int(1)), ("U", Value::sym("a"))]);
        assert_eq!(closed_hash(&nu, &Term::Quote(Arc::new(agg))), None);
        assert_eq!(closed_hash(&x, &Term::var("Y")), None);
        assert_eq!(closed_hash(&x, &Term::SeqVar(Symbol::intern("T"))), None);
        // Bound, but to code: it matches a code variable, not a value.
        let mut code = Bindings::new();
        code.insert(Symbol::intern("X"), Binding::CodeTerm(Term::var("V")));
        let pattern = Term::Quote(quote_of("p(X)."));
        let stored = Value::Quote(quote_of("p(V)."));
        assert!(!value_matches(&code, &pattern, &stored).is_empty());
        assert_eq!(closed_hash(&code, &pattern), None);
        assert_eq!(closed_hash(&code, &Term::var("X")), None);
    }
}

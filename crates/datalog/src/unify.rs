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
//! variable can embed into a concrete body in several ways), so matching
//! functions return *all* consistent extensions of the input bindings —
//! mirroring the existential meta-model translation in the paper, where
//! `owner(U, [| A <- P(T2*), A*. |])` expands to a conjunction over
//! existentially quantified `body(R1,A1), functor(A1,P)`.

use crate::ast::{Atom, BodyItem, Expr, PredRef, Rule, Term};
use crate::intern::Symbol;
use crate::value::Value;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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

/// An immutable-style binding environment. Cloned on extension; rule
/// bodies are short, so environments stay small.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Bindings {
    map: HashMap<Symbol, Binding>,
}

/// Sequence meta-variables (`T*`, `A*`) live in their own namespace: the
/// paper freely reuses a letter for both an atom meta-variable and a rest
/// wildcard (`[| A <- P(T2*), A*. |]`), so `A` and `A*` must not collide.
/// Decorating with `*` is safe because user variables cannot contain it.
fn seq_key(var: Symbol) -> Symbol {
    Symbol::intern(&format!("{var}*"))
}

impl Bindings {
    /// The empty environment.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Looks up a variable.
    pub fn get(&self, var: Symbol) -> Option<&Binding> {
        self.map.get(&var)
    }

    /// The bound value of `var`, if it is bound to a ground value.
    pub fn value(&self, var: Symbol) -> Option<&Value> {
        match self.map.get(&var) {
            Some(Binding::Val(v)) => Some(v),
            _ => None,
        }
    }

    /// Binds `var`, returning `false` (and leaving the environment
    /// unchanged) when `var` is already bound to something different.
    pub fn insert(&mut self, var: Symbol, binding: Binding) -> bool {
        let binding = binding.normalized();
        match self.map.get(&var) {
            Some(existing) => *existing == binding,
            None => {
                self.map.insert(var, binding);
                true
            }
        }
    }

    /// Convenience: bind to a ground value.
    pub fn bind_value(&mut self, var: Symbol, value: Value) -> bool {
        self.insert(var, Binding::Val(value))
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(variable, binding)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Binding)> {
        self.map.iter().map(|(k, v)| (*k, v))
    }

    // ---- resolution ------------------------------------------------------

    /// Resolves a term to a ground value under these bindings, if
    /// possible. Quote terms are instantiated as templates; the result
    /// must not be a top-level pattern (nested quotes may still contain
    /// pattern constructs — they are data).
    pub fn resolve(&self, term: &Term) -> Option<Value> {
        match term {
            Term::Val(v) => Some(v.clone()),
            Term::Var(v) => match self.map.get(v)? {
                Binding::Val(value) => Some(value.clone()),
                _ => None,
            },
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

    // ---- object-level matching -------------------------------------------

    /// Matches one atom-argument term against a ground value, returning
    /// all consistent extensions (usually zero or one; quote patterns can
    /// yield several).
    pub fn match_value(&self, pattern: &Term, value: &Value) -> Vec<Bindings> {
        match pattern {
            Term::Val(v) => {
                if v == value {
                    vec![self.clone()]
                } else {
                    Vec::new()
                }
            }
            Term::Var(var) => {
                let mut next = self.clone();
                if next.bind_value(*var, value.clone()) {
                    vec![next]
                } else {
                    Vec::new()
                }
            }
            Term::SeqVar(_) => Vec::new(), // invalid at object level
            Term::Quote(pat) => match value {
                Value::Quote(rule) => self.match_rule(pat, rule),
                _ => Vec::new(),
            },
        }
    }

    /// Matches an atom's arguments against a stored tuple. `tuple` covers
    /// key arguments first, then ordinary arguments.
    pub fn match_tuple(&self, atom: &Atom, tuple: &[Value]) -> Vec<Bindings> {
        if atom.arity() != tuple.len() {
            return Vec::new();
        }
        let mut envs = vec![self.clone()];
        for (term, value) in atom.all_args().zip(tuple.iter()) {
            let mut next = Vec::new();
            for env in &envs {
                next.extend(env.match_value(term, value));
            }
            if next.is_empty() {
                return Vec::new();
            }
            envs = next;
        }
        envs
    }

    // ---- meta-level matching ----------------------------------------------

    /// Matches a pattern term against a *code* term of a quoted rule.
    pub fn match_code_term(&self, pattern: &Term, code: &Term) -> Vec<Bindings> {
        match pattern {
            Term::Var(var) => {
                let binding = match code {
                    Term::Val(v) => Binding::Val(v.clone()),
                    other => Binding::CodeTerm(other.clone()),
                };
                let mut next = self.clone();
                if next.insert(*var, binding) {
                    vec![next]
                } else {
                    Vec::new()
                }
            }
            Term::Val(v) => match code {
                Term::Val(w) if v == w => vec![self.clone()],
                _ => Vec::new(),
            },
            Term::Quote(pat) => match code {
                Term::Quote(rule) => self.match_rule(pat, rule),
                Term::Val(Value::Quote(rule)) => self.match_rule(pat, rule),
                _ => Vec::new(),
            },
            Term::SeqVar(_) => Vec::new(), // handled by the arg-list matcher
        }
    }

    /// Matches a pattern atom against a concrete (code) atom.
    pub fn match_code_atom(&self, pattern: &Atom, code: &Atom) -> Vec<Bindings> {
        // Bare meta-variable: capture the whole atom.
        if let PredRef::Var(v) = pattern.pred {
            if pattern.key_args.is_empty() && pattern.args.is_empty() {
                let mut next = self.clone();
                if next.insert(v, Binding::CodeAtom(code.clone())) {
                    return vec![next];
                }
                return Vec::new();
            }
        }
        // Functor.
        let mut envs = match (&pattern.pred, &code.pred) {
            (PredRef::Name(p), PredRef::Name(c)) if p == c => vec![self.clone()],
            (PredRef::Name(_), _) => return Vec::new(),
            (PredRef::Var(v), PredRef::Name(c)) => {
                let mut next = self.clone();
                if next.bind_value(*v, Value::Sym(*c)) {
                    vec![next]
                } else {
                    return Vec::new();
                }
            }
            (PredRef::Var(_), PredRef::Var(_)) => return Vec::new(),
        };
        // Arguments: keys then args, with an optional trailing `T*`
        // absorbing the remainder.
        let pattern_args: Vec<&Term> = pattern.all_args().collect();
        let code_args: Vec<&Term> = code.all_args().collect();
        let (fixed, seq_tail) = match pattern_args.split_last() {
            Some((Term::SeqVar(v), init)) => (init.to_vec(), Some(*v)),
            _ => (pattern_args.clone(), None),
        };
        if seq_tail.is_some() {
            if code_args.len() < fixed.len() {
                return Vec::new();
            }
        } else if code_args.len() != fixed.len() {
            return Vec::new();
        }
        for (p, c) in fixed.iter().zip(code_args.iter()) {
            let mut next = Vec::new();
            for env in &envs {
                next.extend(env.match_code_term(p, c));
            }
            if next.is_empty() {
                return Vec::new();
            }
            envs = next;
        }
        if let Some(seq) = seq_tail {
            let tail: Vec<Term> = code_args[fixed.len()..]
                .iter()
                .map(|t| (*t).clone())
                .collect();
            envs.retain_mut(|env| env.insert(seq_key(seq), Binding::Terms(tail.clone())));
        }
        envs
    }

    /// Matches a pattern body item against a concrete body item.
    fn match_code_item(&self, pattern: &BodyItem, code: &BodyItem) -> Vec<Bindings> {
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
            ) if pn == cn => self.match_code_atom(pa, ca),
            (
                BodyItem::Cmp { op, lhs, rhs },
                BodyItem::Cmp {
                    op: cop,
                    lhs: clhs,
                    rhs: crhs,
                },
            ) if op == cop => {
                let mut envs = self.match_code_expr(lhs, clhs);
                let mut out = Vec::new();
                for env in envs.drain(..) {
                    out.extend(env.match_code_expr(rhs, crhs));
                }
                out
            }
            _ => Vec::new(),
        }
    }

    fn match_code_expr(&self, pattern: &Expr, code: &Expr) -> Vec<Bindings> {
        match (pattern, code) {
            (Expr::Term(p), Expr::Term(c)) => self.match_code_term(p, c),
            (Expr::BinOp(op, pl, pr), Expr::BinOp(cop, cl, cr)) if op == cop => {
                let mut out = Vec::new();
                for env in self.match_code_expr(pl, cl) {
                    out.extend(env.match_code_expr(pr, cr));
                }
                out
            }
            _ => Vec::new(),
        }
    }

    /// Matches a quote pattern against a concrete quoted rule, returning
    /// all consistent binding extensions.
    ///
    /// Head atoms match positionally. Body matching depends on whether the
    /// pattern ends in a body-rest variable (`A*`):
    ///
    /// * with `A*`: each pattern item matches *some* concrete body item
    ///   (existential, unordered — the paper's meta-model translation);
    ///   the rest variable captures the full concrete body;
    /// * without: bodies match positionally and exactly.
    pub fn match_rule(&self, pattern: &Rule, code: &Rule) -> Vec<Bindings> {
        if pattern.heads.len() != code.heads.len() || pattern.agg != code.agg {
            return Vec::new();
        }
        let mut envs = vec![self.clone()];
        for (p, c) in pattern.heads.iter().zip(code.heads.iter()) {
            let mut next = Vec::new();
            for env in &envs {
                next.extend(env.match_code_atom(p, c));
            }
            if next.is_empty() {
                return Vec::new();
            }
            envs = next;
        }
        let (items, rest) = match pattern.body.split_last() {
            Some((BodyItem::Rest(v), init)) => (init, Some(*v)),
            _ => (&pattern.body[..], None),
        };
        match rest {
            None => {
                if items.len() != code.body.len() {
                    return Vec::new();
                }
                for (p, c) in items.iter().zip(code.body.iter()) {
                    let mut next = Vec::new();
                    for env in &envs {
                        next.extend(env.match_code_item(p, c));
                    }
                    if next.is_empty() {
                        return Vec::new();
                    }
                    envs = next;
                }
                envs
            }
            Some(rest_var) => {
                for p in items {
                    let mut next = Vec::new();
                    for env in &envs {
                        for c in &code.body {
                            next.extend(env.match_code_item(p, c));
                        }
                    }
                    if next.is_empty() {
                        return Vec::new();
                    }
                    envs = next;
                }
                envs.retain_mut(|env| {
                    env.insert(seq_key(rest_var), Binding::Items(code.body.clone()))
                });
                envs
            }
        }
    }

    // ---- template instantiation --------------------------------------------

    /// Instantiates a term of a template: bound variables are substituted
    /// ("unquoted in-place"), unbound ones remain as object variables.
    pub fn instantiate_term(&self, term: &Term) -> Term {
        match term {
            Term::Val(_) => term.clone(),
            Term::Var(v) => match self.map.get(v) {
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
                if let Some(Binding::Terms(ts)) = self.map.get(&seq_key(*v)) {
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
                if let Some(Binding::CodeAtom(a)) = self.map.get(&v) {
                    return self.instantiate_atom(a);
                }
            }
        }
        let pred = match atom.pred {
            PredRef::Name(_) => atom.pred,
            PredRef::Var(v) => match self.map.get(&v) {
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
            BodyItem::Rest(v) => match self.map.get(&seq_key(*v)) {
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
        let envs = Bindings::new().match_tuple(&atom, &tuple);
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
        assert!(Bindings::new().match_tuple(&atom, &bad).is_empty());
    }

    #[test]
    fn match_tuple_repeated_var() {
        let atom = parse_atom("edge(X,X)").unwrap();
        let same = vec![Value::sym("a"), Value::sym("a")];
        let diff = vec![Value::sym("a"), Value::sym("b")];
        assert_eq!(Bindings::new().match_tuple(&atom, &same).len(), 1);
        assert!(Bindings::new().match_tuple(&atom, &diff).is_empty());
    }

    #[test]
    fn quote_pattern_matches_fact() {
        // says(bob,me,[|access(P,O,read)|]) binding P,O from the fact.
        let pattern = Term::Quote(quote_of("access(P,O,read)."));
        let value = Value::Quote(quote_of("access(alice,file1,read)."));
        let envs = Bindings::new().match_value(&pattern, &value);
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
        let envs = Bindings::new().match_rule(&pattern, &code);
        assert_eq!(envs.len(), 1);
        assert_eq!(
            envs[0].value(Symbol::intern("P")),
            Some(&Value::sym("access"))
        );
        // Sequence bindings live in the decorated namespace.
        match envs[0].get(Symbol::intern("T*")) {
            Some(Binding::Terms(ts)) => assert_eq!(ts.len(), 3),
            other => panic!("expected Terms, got {other:?}"),
        }
    }

    #[test]
    fn quote_pattern_body_existential() {
        // [| A <- P(T2*), A*. |] matches each body atom of the rule.
        let pattern = quote_of("A <- P(T2*), A*.");
        let code = quote_of("safe(X) <- good(X), vetted(X).");
        let envs = Bindings::new().match_rule(&pattern, &code);
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
        assert_eq!(
            Bindings::new()
                .match_rule(&pattern, &quote_of("p(a) <- q(a)."))
                .len(),
            1
        );
        // Extra body literal: no match without A*.
        assert!(Bindings::new()
            .match_rule(&pattern, &quote_of("p(a) <- q(a), r(a)."))
            .is_empty());
    }

    #[test]
    fn meta_var_captures_code_variable() {
        // pull0: R captures the code term at that position even when it is
        // a variable of the matched rule.
        let pattern = quote_of("A <- says(X,me,R), A*.");
        let code = quote_of("access(P) <- says(bob,me,[|access(P)|]).");
        let envs = Bindings::new().match_rule(&pattern, &code);
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
        let env = Bindings::new()
            .match_rule(&pattern, &code)
            .pop()
            .expect("match");
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
        let envs = Bindings::new().match_rule(&pattern, &code);
        // B matches q(b) and r(c) existentially.
        assert_eq!(envs.len(), 2);
        let rebuilt: Vec<String> = envs
            .iter()
            .map(|e| e.instantiate_atom(&pattern.heads[0]).to_string())
            .collect();
        assert!(rebuilt.iter().all(|s| s == "p(a)"), "{rebuilt:?}");
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
            assert!(!bindings.match_value(&term, &keyed).is_empty(), "{pattern}");
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
            assert!(!xa.match_value(&pattern, &value).is_empty(), "{rule}");
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
            assert!(!bound.match_value(&term, value).is_empty(), "{value}");
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
        assert!(!code.match_value(&pattern, &stored).is_empty());
        assert_eq!(closed_hash(&code, &pattern), None);
        assert_eq!(closed_hash(&code, &Term::var("X")), None);
    }
}

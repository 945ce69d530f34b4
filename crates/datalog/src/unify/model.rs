//! The matcher as it was before it bound in place, kept as the model the
//! in-place matcher is tested against: every function returns the list of
//! all consistent extensions of the environment it is given, cloning the
//! environment to try each step. The bodies are the old ones; only the
//! names (`model_*`) and the way a sequence variable is bound (a bit, not
//! a decorated name) differ.

use super::{Binding, Bindings};
use crate::ast::{Atom, BodyItem, Expr, PredRef, Rule, Term};
use crate::value::Value;

impl Bindings {
    // ---- object-level matching -------------------------------------------

    /// Matches one atom-argument term against a ground value, returning
    /// all consistent extensions (usually zero or one; quote patterns can
    /// yield several).
    pub(super) fn model_match_value(&self, pattern: &Term, value: &Value) -> Vec<Bindings> {
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
                Value::Quote(rule) => self.model_match_rule(pat, rule),
                _ => Vec::new(),
            },
        }
    }

    /// Matches an atom's arguments against a stored tuple. `tuple` covers
    /// key arguments first, then ordinary arguments.
    pub(super) fn model_match_tuple(&self, atom: &Atom, tuple: &[Value]) -> Vec<Bindings> {
        if atom.arity() != tuple.len() {
            return Vec::new();
        }
        let mut envs = vec![self.clone()];
        for (term, value) in atom.all_args().zip(tuple.iter()) {
            let mut next = Vec::new();
            for env in &envs {
                next.extend(env.model_match_value(term, value));
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
    pub(super) fn model_match_code_term(&self, pattern: &Term, code: &Term) -> Vec<Bindings> {
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
                Term::Quote(rule) => self.model_match_rule(pat, rule),
                Term::Val(Value::Quote(rule)) => self.model_match_rule(pat, rule),
                _ => Vec::new(),
            },
            Term::SeqVar(_) => Vec::new(), // handled by the arg-list matcher
        }
    }

    /// Matches a pattern atom against a concrete (code) atom.
    pub(super) fn model_match_code_atom(&self, pattern: &Atom, code: &Atom) -> Vec<Bindings> {
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
                next.extend(env.model_match_code_term(p, c));
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
            envs.retain_mut(|env| env.bind(seq, true, Binding::Terms(tail.clone())));
        }
        envs
    }

    /// Matches a pattern body item against a concrete body item.
    fn model_match_code_item(&self, pattern: &BodyItem, code: &BodyItem) -> Vec<Bindings> {
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
            ) if pn == cn => self.model_match_code_atom(pa, ca),
            (
                BodyItem::Cmp { op, lhs, rhs },
                BodyItem::Cmp {
                    op: cop,
                    lhs: clhs,
                    rhs: crhs,
                },
            ) if op == cop => {
                let mut envs = self.model_match_code_expr(lhs, clhs);
                let mut out = Vec::new();
                for env in envs.drain(..) {
                    out.extend(env.model_match_code_expr(rhs, crhs));
                }
                out
            }
            _ => Vec::new(),
        }
    }

    fn model_match_code_expr(&self, pattern: &Expr, code: &Expr) -> Vec<Bindings> {
        match (pattern, code) {
            (Expr::Term(p), Expr::Term(c)) => self.model_match_code_term(p, c),
            (Expr::BinOp(op, pl, pr), Expr::BinOp(cop, cl, cr)) if op == cop => {
                let mut out = Vec::new();
                for env in self.model_match_code_expr(pl, cl) {
                    out.extend(env.model_match_code_expr(pr, cr));
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
    pub(super) fn model_match_rule(&self, pattern: &Rule, code: &Rule) -> Vec<Bindings> {
        if pattern.heads.len() != code.heads.len() || pattern.agg != code.agg {
            return Vec::new();
        }
        let mut envs = vec![self.clone()];
        for (p, c) in pattern.heads.iter().zip(code.heads.iter()) {
            let mut next = Vec::new();
            for env in &envs {
                next.extend(env.model_match_code_atom(p, c));
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
                        next.extend(env.model_match_code_item(p, c));
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
                            next.extend(env.model_match_code_item(p, c));
                        }
                    }
                    if next.is_empty() {
                        return Vec::new();
                    }
                    envs = next;
                }
                envs.retain_mut(|env| env.bind(rest_var, true, Binding::Items(code.body.clone())));
                envs
            }
        }
    }
}

mod equivalence {
    use super::*;
    use crate::intern::Symbol;
    use crate::parser::parse_rule;
    use proptest::prelude::*;
    use std::ops::ControlFlow::{Break, Continue};

    /// Quoted rules a matched value may be (the table of
    /// `tests/tests/probe_index.rs`, plus bodies long enough for `A*`
    /// patterns to have several solutions).
    const STORED: &[&str] = &[
        "p(a,b).",
        "p[a](b).",
        "p(b,a).",
        "p(a,c).",
        "q(a,b).",
        "p(a).",
        "p(a) <- q(a).",
        "p(b) <- q(b).",
        "p(X) <- q(X).",
        "p(a) <- q(a), r(b).",
        "p(a) <- q(a), a != b.",
        "p(a) <- !q(a).",
        "p(c,[| q(a,b). |]).",
        "p(c,[| q[a](b). |]).",
        "p(c,[| q(b,a). |]).",
        "p(a,X).",
        "p(a) <- q(a), q(b), r(b).",
        "p(a) <- q(a,b), r(b,a), q(b,b).",
        "p(X) <- q(X,Y), Y != a, r(Y).",
        "p(a,b) <- q(a), r(b), q(b).",
        "q(b) <- r(a,b), r(b,b).",
        "p(a) <- q(a,b), q(b,a), a != b.",
    ];

    /// Arguments of the matching atom: constants, variables, quote
    /// patterns — closed and open, `T*`, `A*`, functor and whole-atom
    /// variables, nested quotes.
    const ARGS: &[&str] = &[
        "a",
        "b",
        "X",
        "Y",
        "R",
        "[| p(a,b). |]",
        "[| p(X,Y). |]",
        "[| p[X](Y). |]",
        "[| p(X,b). |]",
        "[| p(X) <- q(X). |]",
        "[| p(X) <- q(Y). |]",
        "[| p(X) <- q(X), Y != b. |]",
        "[| p(X) <- !q(X). |]",
        "[| p(c,[| q(X,Y). |]). |]",
        "[| p(c,R). |]",
        "[| p(X,R). |]",
        "[| P(T*) <- A*. |]",
        "[| p(T*). |]",
        "[| p(X,T*). |]",
        "[| A <- q(X), A*. |]",
        "[| p(X) <- A*. |]",
        "[| F(X,Y). |]",
        "[| A <- q(a). |]",
        "[| A <- B, A*. |]",
        "[| A <- B, C, A*. |]",
        "[| A <- q(X), r(X), A*. |]",
        "[| A <- P(T*), Q(X,Y), A*. |]",
        "[| A <- P(X,T*), P(Y,T*), A*. |]",
        "[| A <- X != Y, A*. |]",
    ];

    fn quoted(src: &str) -> Value {
        let holder = parse_rule(&format!("holder([| {src} |]).")).unwrap();
        match &holder.heads[0].args[0] {
            Term::Quote(rule) => Value::Quote(rule.clone()),
            other => panic!("expected a quote, got {other}"),
        }
    }

    /// How many values [`stored_value`] tells apart.
    const VALUES: usize = STORED.len() + 3;

    /// A matched value: below `STORED.len()` a quote, above it a symbol.
    fn stored_value(choice: usize) -> Value {
        match STORED.get(choice) {
            Some(src) => quoted(src),
            None => Value::sym(["a", "b", "c"][(choice - STORED.len()) % 3]),
        }
    }

    /// What the environment already holds for `var`: mostly nothing, or
    /// a symbol, a variable of matched code, a whole atom, a quote — and,
    /// in the sequence namespace, arguments a `T*` captured earlier.
    fn prebind(env: &mut Bindings, var: &str, choice: usize) {
        let atom = |src: &str| parse_rule(&format!("{src}.")).unwrap().heads.remove(0);
        let (seq, binding) = match choice {
            0 => (false, Binding::Val(Value::sym("a"))),
            1 => (false, Binding::Val(Value::sym("b"))),
            2 => (false, Binding::Val(Value::sym("q"))),
            3 => (false, Binding::CodeTerm(Term::var("X"))),
            4 => (false, Binding::CodeAtom(atom("q(a)"))),
            5 => (true, Binding::Terms(vec![Term::sym("b")])),
            6 => (true, Binding::Terms(vec![Term::sym("a"), Term::sym("b")])),
            n if n - 7 < VALUES => (false, Binding::Val(stored_value(n - 7))),
            _ => return,
        };
        assert!(env.bind(Symbol::intern(var), seq, binding));
    }

    /// One in four variables is bound before the match.
    fn arb_env() -> impl Strategy<Value = Vec<usize>> {
        prop::collection::vec(0..4 * (VALUES + 7), 7)
    }

    fn env_of(choices: &[usize]) -> Bindings {
        let mut env = Bindings::new();
        for (var, &choice) in ["X", "Y", "R", "P", "A", "B", "T"].iter().zip(choices) {
            prebind(&mut env, var, choice);
        }
        env
    }

    /// A value for `pattern` to meet: three times in four one it matches
    /// on its own (an environment may still get in the way), so that
    /// most cases have solutions to compare.
    fn steered(pattern: &Term, steer: usize, pick: usize) -> Value {
        let matching: Vec<Value> = (0..VALUES)
            .map(stored_value)
            .filter(|value| !Bindings::new().model_match_value(pattern, value).is_empty())
            .collect();
        if steer == 0 || matching.is_empty() {
            stored_value(pick % VALUES)
        } else {
            matching[pick % matching.len()].clone()
        }
    }

    /// An environment's entries in binding order: what must be the same
    /// before and after a match, which `==` (a map's) would not show.
    fn trail(env: &Bindings) -> Vec<(Symbol, bool, Binding)> {
        (env.iter())
            .map(|(var, seq, binding)| (var, seq, binding.clone()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The in-place matcher visits the model's solutions, in the
        /// model's order, and puts the environment back — after a full
        /// search, an empty one, and one broken off at any solution.
        #[test]
        fn matcher_model_equivalence(
            args in prop::collection::vec((0..ARGS.len(), 0..4usize, 0..1000usize), 1..4),
            keyed in any::<bool>(),
            extra in 0..8usize,
            pre in arb_env(),
        ) {
            let sources: Vec<&str> = args.iter().map(|&(a, ..)| ARGS[a]).collect();
            let src = match (keyed, sources.split_first()) {
                (true, Some((key, rest))) if !rest.is_empty() => {
                    format!("h() <- r[{key}]({}).", rest.join(","))
                }
                _ => format!("h() <- r({}).", sources.join(",")),
            };
            let rule = parse_rule(&src).unwrap();
            let atom = rule.body[0].atom().unwrap();
            let mut tuple: Vec<Value> = (atom.all_args().zip(&args))
                .map(|(pattern, &(_, steer, pick))| steered(pattern, steer, pick))
                .collect();
            if extra == 0 {
                tuple.push(Value::sym("a")); // the arity is wrong
            }
            let mut env = env_of(&pre);
            let before = trail(&env);

            let expected = env.model_match_tuple(atom, &tuple);
            let found = env.solutions(|env, visit| env.match_tuple(atom, &tuple, visit));
            prop_assert_eq!(&found, &expected, "{} against {:?} under {:?}", src, tuple, env);
            prop_assert_eq!(trail(&env), before.clone(), "after a full search");
            for (have, want) in found.iter().zip(&expected) {
                // Not just the same map: bound in the same order.
                prop_assert_eq!(trail(have), trail(want));
            }

            for stop_at in 0..expected.len() {
                let mut seen = Vec::new();
                let flow = env.match_tuple(atom, &tuple, &mut |env| {
                    seen.push(env.clone());
                    if seen.len() > stop_at { Break(()) } else { Continue(()) }
                });
                prop_assert!(flow.is_break());
                prop_assert_eq!(&seen[..], &expected[..=stop_at]);
                prop_assert_eq!(trail(&env), before.clone(), "after a break at {}", stop_at);
            }
        }

        /// The same over the meta level alone: a pattern rule against a
        /// code rule, where most of the alternatives are.
        #[test]
        fn matcher_model_equivalence_of_rules(
            pattern in 5..ARGS.len(),
            steer in 0..4usize,
            pick in 0..1000usize,
            pre in arb_env(),
        ) {
            let holder = parse_rule(&format!("h() <- r({}).", ARGS[pattern])).unwrap();
            let term = holder.body[0].atom().unwrap().args[0].clone();
            let value = steered(&term, steer, pick);
            // A symbol is nothing for a rule to match.
            prop_assume!(value.as_quote().is_some());
            let (Term::Quote(pattern), Some(code)) = (&term, value.as_quote()) else {
                unreachable!("the table holds quotes from 5 on");
            };
            let mut env = env_of(&pre);
            let before = trail(&env);
            let expected = env.model_match_rule(pattern, code);
            let found = env.solutions(|env, visit| env.match_rule(pattern, code, visit));
            prop_assert_eq!(&found, &expected, "{} against {} under {:?}", pattern, code, env);
            prop_assert_eq!(trail(&env), before);
        }
    }
}

//! Property tests for the AST, parser and meta-matching machinery:
//! print/parse roundtrips over *generated* rules, and match/instantiate
//! laws for quote patterns.

use lbtrust_datalog::ast::{Atom, BodyItem, CmpOp, Expr, PredRef, Rule, Term};
use lbtrust_datalog::{parse_rule, Bindings, Symbol, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Lowercase identifiers for predicates/constants.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("reserved words", |s| s != "agg" && s != "me")
}

/// Variable names: uppercase identifiers, and the `_G1` an anonymous
/// variable prints as.
fn var_name() -> impl Strategy<Value = String> {
    prop_oneof!["[A-Z][a-z0-9]{0,4}".boxed(), "_[A-Z][a-z0-9]{0,3}".boxed()]
}

/// The full `i64` range, its ends drawn often: `i64::MIN` is the one
/// literal whose magnitude alone does not fit.
fn arb_int() -> impl Strategy<Value = i64> {
    prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX)]
}

/// Any string: plain runs, what the dialect's own punctuation and
/// escapes are made of, control characters, and characters of every
/// encoded width (the shim's `any::<char>()` draws printable ASCII only).
fn arb_string() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        "[a-z ]{0,4}".boxed(),
        prop_oneof![
            Just("\""),
            Just("\\"),
            Just("|]"),
            Just("[|"),
            Just("#"),
            Just("//"),
            Just("\n"),
            Just("\t"),
            Just("\r"),
            Just("\0"),
            Just("\u{1}"),
            Just("\u{7f}"),
            Just("\u{85}"),
            Just("\u{e9}"),
            Just("\u{20ac}5"),
        ]
        .prop_map(str::to_string)
        .boxed(),
        any::<u32>()
            .prop_map(|u| char::from_u32(u % 0x11_0000).map_or_else(String::new, String::from))
            .boxed(),
        (0u32..0x20)
            .prop_map(|u| char::from_u32(u).map_or_else(String::new, String::from))
            .boxed(),
    ];
    prop::collection::vec(piece, 0..5).prop_map(|pieces| pieces.concat())
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        ident().prop_map(|s| Value::sym(&s)),
        arb_int().prop_map(Value::Int),
        arb_string().prop_map(|s| Value::str(&s)),
        prop::collection::vec(any::<u8>(), 0..6).prop_map(|b| Value::bytes(&b)),
    ]
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        var_name().prop_map(|v| Term::var(&v)),
        arb_value().prop_map(Term::Val),
    ]
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    (ident(), prop::collection::vec(arb_term(), 0..4)).prop_map(|(p, args)| Atom {
        pred: PredRef::Name(Symbol::intern(&p)),
        key_args: Vec::new(),
        args,
    })
}

fn arb_body_item() -> impl Strategy<Value = BodyItem> {
    prop_oneof![
        (arb_atom(), any::<bool>()).prop_map(|(atom, negated)| BodyItem::Lit { negated, atom }),
        (
            var_name(),
            arb_int(),
            prop_oneof![
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Gt),
                Just(CmpOp::Ge),
                Just(CmpOp::Ne)
            ]
        )
            .prop_map(|(v, n, op)| BodyItem::Cmp {
                op,
                lhs: Expr::var(&v),
                rhs: Expr::Term(Term::int(n)),
            }),
    ]
}

fn arb_rule() -> impl Strategy<Value = Rule> {
    (arb_atom(), prop::collection::vec(arb_body_item(), 0..4)).prop_map(|(head, body)| Rule {
        heads: vec![head],
        body,
        agg: None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print ∘ parse ∘ print = print: the canonical form is a fixpoint.
    #[test]
    fn rule_display_parse_roundtrip(rule in arb_rule()) {
        let text = rule.to_string();
        match parse_rule(&text) {
            Ok(reparsed) => {
                prop_assert_eq!(&text, &reparsed.to_string());
                prop_assert_eq!(rule, reparsed, "{}", text);
            }
            Err(e) => prop_assert!(false, "generated rule failed to parse: {text}: {e}"),
        }
    }

    /// Content ids are stable under reparse.
    #[test]
    fn content_id_stable_under_reparse(rule in arb_rule()) {
        let reparsed = parse_rule(&rule.to_string()).unwrap();
        prop_assert_eq!(rule.content_id(), reparsed.content_id());
    }

    /// Matching a ground fact against itself as a pattern succeeds, and
    /// instantiating the pattern under the match reproduces the fact.
    #[test]
    fn match_instantiate_identity(args in prop::collection::vec(arb_value(), 0..4)) {
        let fact = Rule::fact(Atom {
            pred: PredRef::Name(Symbol::intern("p")),
            key_args: Vec::new(),
            args: args.iter().cloned().map(Term::Val).collect(),
        });
        // Pattern with fresh variables in each position.
        let pattern = Rule::fact(Atom {
            pred: PredRef::Name(Symbol::intern("p")),
            key_args: Vec::new(),
            args: (0..args.len()).map(|i| Term::var(&format!("V{i}"))).collect(),
        });
        let fact = Arc::new(fact);
        let envs = Bindings::new().solutions(|env, visit| env.match_rule(&pattern, &fact, visit));
        prop_assert_eq!(envs.len(), 1);
        let rebuilt = envs[0].instantiate_rule(&pattern);
        prop_assert_eq!(rebuilt.to_string(), fact.to_string());
    }

    /// Substituting a symbol that does not occur is the identity.
    #[test]
    fn substitution_identity(rule in arb_rule()) {
        let fresh = Symbol::intern("zz_never_generated_zz");
        let to = Symbol::intern("target");
        prop_assert_eq!(
            rule.substitute_sym(fresh, to).to_string(),
            rule.to_string()
        );
    }

    /// me-substitution reaches every occurrence: after substituting, the
    /// `me` symbol never survives.
    #[test]
    fn substitution_total(args in prop::collection::vec(arb_term(), 0..3)) {
        let me = Symbol::intern("me");
        let alice = Symbol::intern("alice");
        let mut with_me = args.clone();
        with_me.push(Term::sym("me"));
        let inner = Rule::fact(Atom {
            pred: PredRef::Name(Symbol::intern("q")),
            key_args: Vec::new(),
            args: with_me.clone(),
        });
        let rule = Rule::new(
            Atom {
                pred: PredRef::Name(Symbol::intern("p")),
                key_args: Vec::new(),
                args: vec![Term::sym("me"), Term::Quote(Arc::new(inner))],
            },
            vec![],
        );
        let out = rule.substitute_sym(me, alice).to_string();
        // "me" must not remain as a standalone symbol (word-boundary
        // check: not preceded/followed by identifier chars).
        for (i, _) in out.match_indices("me") {
            let before = out[..i].chars().last();
            let after = out[i + 2..].chars().next();
            let standalone = !before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
                && !after.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
            prop_assert!(!standalone, "unsubstituted me in {out}");
        }
    }
}

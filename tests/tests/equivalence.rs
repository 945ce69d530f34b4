//! Property-based equivalence tests across evaluation strategies and
//! substrates: semi-naive ≡ naive, incremental ≡ from-scratch, plus
//! crypto and wire-format roundtrip laws.

use lbtrust_crypto::{BigUint, KeyPair};
use lbtrust_datalog::eval::run_naive;
use lbtrust_datalog::{parse_program, parse_rule, Builtins, Database, Engine, Symbol, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Random positive two-relation programs over a tiny constant universe.
fn arb_edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..6, 0u8..6), 1..20)
}

fn edge_db(edges: &[(u8, u8)]) -> Database {
    let mut db = Database::new();
    let edge = Symbol::intern("edge");
    for (a, b) in edges {
        db.insert(
            edge,
            vec![Value::sym(&format!("c{a}")), Value::sym(&format!("c{b}"))],
        );
    }
    db
}

const TC: &str = "reach(X,Y) <- edge(X,Y).\nreach(X,Z) <- reach(X,Y), edge(Y,Z).";

fn relation_set(db: &Database, pred: &str) -> Vec<Vec<String>> {
    let mut v: Vec<Vec<String>> = db
        .relation(Symbol::intern(pred))
        .map(|r| {
            r.iter()
                .map(|t| t.iter().map(ToString::to_string).collect())
                .collect()
        })
        .unwrap_or_default();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn seminaive_equals_naive(edges in arb_edges()) {
        let program = parse_program(TC).unwrap();
        let builtins = Builtins::new();
        let mut a = edge_db(&edges);
        Engine::new(&program.rules, &builtins).run(&mut a).unwrap();
        let mut b = edge_db(&edges);
        run_naive(&program.rules, &mut b, &builtins).unwrap();
        prop_assert_eq!(relation_set(&a, "reach"), relation_set(&b, "reach"));
    }

    #[test]
    fn incremental_equals_from_scratch(
        initial in arb_edges(),
        added in arb_edges(),
    ) {
        let program = parse_program(TC).unwrap();
        let builtins = Builtins::new();
        let edge = Symbol::intern("edge");
        // From scratch over the union.
        let mut scratch = edge_db(&initial);
        for (a, b) in &added {
            scratch.insert(edge, vec![Value::sym(&format!("c{a}")), Value::sym(&format!("c{b}"))]);
        }
        Engine::new(&program.rules, &builtins).run(&mut scratch).unwrap();
        // Incremental: evaluate the initial set, then add the rest.
        let mut inc = edge_db(&initial);
        Engine::new(&program.rules, &builtins).run(&mut inc).unwrap();
        let mark = inc.count(edge);
        for (a, b) in &added {
            inc.insert(edge, vec![Value::sym(&format!("c{a}")), Value::sym(&format!("c{b}"))]);
        }
        if inc.count(edge) > mark {
            Engine::new(&program.rules, &builtins)
                .run_incremental(&mut inc, &[(edge, mark)])
                .unwrap();
        }
        prop_assert_eq!(relation_set(&scratch, "reach"), relation_set(&inc, "reach"));
    }

    #[test]
    fn dred_retraction_equals_from_scratch(
        edges in arb_edges(),
        victim in 0usize..20,
    ) {
        prop_assume!(!edges.is_empty());
        let program = parse_program(TC).unwrap();
        let builtins = Builtins::new();
        let edge = Symbol::intern("edge");
        let victim = &edges[victim % edges.len()];
        // Materialize the closure, then DRed-retract one edge.
        let mut dred_db = edge_db(&edges);
        Engine::new(&program.rules, &builtins).run(&mut dred_db).unwrap();
        let victim_tuple = vec![
            Value::sym(&format!("c{}", victim.0)),
            Value::sym(&format!("c{}", victim.1)),
        ];
        lbtrust_datalog::dred::retract(
            &program.rules,
            &mut dred_db,
            &builtins,
            &[(edge, victim_tuple.clone())],
        )
        .unwrap();
        // Reference: from scratch over the reduced edge set.
        let reduced: Vec<(u8, u8)> = edges
            .iter()
            .copied()
            .filter(|e| e != victim)
            .collect();
        let mut scratch = edge_db(&reduced);
        Engine::new(&program.rules, &builtins).run(&mut scratch).unwrap();
        prop_assert_eq!(relation_set(&dred_db, "reach"), relation_set(&scratch, "reach"));
        prop_assert_eq!(relation_set(&dred_db, "edge"), relation_set(&scratch, "edge"));
    }

    #[test]
    fn rule_text_roundtrips(payload in 0i64..100_000, name in "[a-z][a-z0-9]{0,8}") {
        // print ∘ parse ∘ print = print for generated facts and rules.
        let fact = parse_rule(&format!("{name}(alice, {payload}, \"s\")."))
            .unwrap();
        let reparsed = parse_rule(&fact.to_string()).unwrap();
        prop_assert_eq!(fact.to_string(), reparsed.to_string());
        let rule = parse_rule(&format!("{name}(X, N) <- base(X, N), N >= {payload}."))
            .unwrap();
        let reparsed = parse_rule(&rule.to_string()).unwrap();
        prop_assert_eq!(rule.to_string(), reparsed.to_string());
    }

    #[test]
    fn wire_roundtrip_any_auth(auth in prop::collection::vec(any::<u8>(), 0..200)) {
        let msg = lbtrust_net::WireMessage {
            from: Symbol::intern("alice"),
            to: Symbol::intern("bob"),
            rule: Arc::new(parse_rule("p(X) <- q(X), r(X, 42).").unwrap()),
            auth,
        };
        let decoded = lbtrust_net::decode(&lbtrust_net::encode(&msg)).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn bignum_mul_div_laws(a in any::<u64>(), b in 1u64..u64::MAX, c in any::<u64>()) {
        let (ba, bb, bc) = (BigUint::from_u64(a), BigUint::from_u64(b), BigUint::from_u64(c));
        // (a * b + c) / b == a + c/b with remainder laws, via div_rem.
        let prod = ba.mul(&bb).add(&bc);
        let (q, r) = prod.div_rem(&bb);
        prop_assert_eq!(q.mul(&bb).add(&r), prod);
        prop_assert!(r.cmp_big(&bb) == std::cmp::Ordering::Less);
        // Commutativity.
        prop_assert_eq!(ba.mul(&bc), bc.mul(&ba));
        prop_assert_eq!(ba.add(&bc), bc.add(&ba));
    }

    #[test]
    fn hmac_distinguishes(key1 in "[a-z]{4,16}", key2 in "[a-z]{4,16}", msg in ".*") {
        let m1 = lbtrust_crypto::hmac::hmac_sha1(key1.as_bytes(), msg.as_bytes());
        let m2 = lbtrust_crypto::hmac::hmac_sha1(key2.as_bytes(), msg.as_bytes());
        if key1 == key2 {
            prop_assert_eq!(m1, m2);
        } else {
            prop_assert_ne!(m1, m2);
        }
    }
}

#[test]
fn rsa_roundtrip_many_messages() {
    // Not proptest (keygen is slow); one key, many messages.
    let kp = KeyPair::generate(512, &mut StdRng::seed_from_u64(5));
    for i in 0..50 {
        let msg = format!("says(alice,bob,[| payload({i}). |])");
        let sig = kp.private.sign(msg.as_bytes()).unwrap();
        assert!(kp.public_key().verify(msg.as_bytes(), &sig).is_ok());
        // Any other message fails.
        let other = format!("says(alice,bob,[| payload({}). |])", i + 1);
        assert!(kp.public_key().verify(other.as_bytes(), &sig).is_err());
    }
}

//! Integration: the authenticated communication pipeline (§4.1) across
//! crates — workspaces, crypto builtins, wire encoding, simulated
//! network — including tampering, forgery, loss, and duplication.

use lbtrust::{AuthScheme, System};
use lbtrust_datalog::{parse_rule, Symbol, Value};
use lbtrust_net::NetworkConfig;
use std::sync::Arc;

fn say_policy(sys: &mut System, from: lbtrust::Principal, to: &str, n: usize) {
    sys.workspace_mut(from)
        .unwrap()
        .load(
            "policy",
            &format!("says(me,{to},[| item(I). |]) <- queue(I)."),
        )
        .unwrap();
    let queue = Symbol::intern("queue");
    let ws = sys.workspace_mut(from).unwrap();
    for i in 0..n {
        ws.assert_fact(queue, vec![Value::Int(i as i64)]);
    }
}

fn count_received(sys: &System, who: lbtrust::Principal) -> usize {
    sys.workspace(who)
        .unwrap()
        .tuples(Symbol::intern("received"))
        .len()
}

fn receive_policy(sys: &mut System, who: lbtrust::Principal, from: &str) {
    sys.workspace_mut(who)
        .unwrap()
        .load(
            "policy",
            &format!("received(I) <- says({from},me,[| item(I) |])."),
        )
        .unwrap();
}

#[test]
fn every_scheme_delivers_all_messages() {
    for scheme in AuthScheme::ALL {
        let mut sys = System::new().with_rsa_bits(512);
        let a = sys.add_principal("alice", "n1").unwrap();
        let b = sys.add_principal("bob", "n2").unwrap();
        sys.establish_shared_secret(a, b).unwrap();
        sys.set_auth_scheme(a, scheme).unwrap();
        sys.set_auth_scheme(b, scheme).unwrap();
        say_policy(&mut sys, a, "bob", 25);
        receive_policy(&mut sys, b, "alice");
        sys.run_to_quiescence(32).unwrap();
        assert_eq!(count_received(&sys, b), 25, "scheme {scheme}");
        assert_eq!(sys.stats().messages_rejected, 0, "scheme {scheme}");
    }
}

#[test]
fn forged_signature_rejected_under_rsa() {
    let mut sys = System::new().with_rsa_bits(512);
    let a = sys.add_principal("alice", "n1").unwrap();
    let b = sys.add_principal("bob", "n2").unwrap();
    receive_policy(&mut sys, b, "alice");
    let _ = a;
    // Mallory crafts an export fact claiming to be from alice, with a
    // garbage signature, directly into bob's import partition.
    let export = Symbol::intern("export");
    let forged = vec![
        Value::Sym(b),
        Value::sym("alice"),
        Value::Quote(Arc::new(parse_rule("item(666).").unwrap())),
        Value::bytes(&[0xBA; 64]),
    ];
    let ws = sys.workspace_mut(b).unwrap();
    ws.assert_fact(export, forged);
    let err = ws.evaluate();
    assert!(err.is_err(), "forged message must violate exp3");
    // Rolled back: nothing imported, workspace still healthy.
    assert_eq!(count_received(&sys, b), 0);
    sys.workspace_mut(b).unwrap().evaluate().unwrap();
}

#[test]
fn tampered_rule_rejected_under_hmac() {
    let mut sys = System::new().with_rsa_bits(512);
    let a = sys.add_principal("alice", "n1").unwrap();
    let b = sys.add_principal("bob", "n2").unwrap();
    sys.establish_shared_secret(a, b).unwrap();
    sys.set_auth_scheme(a, AuthScheme::HmacSha1).unwrap();
    sys.set_auth_scheme(b, AuthScheme::HmacSha1).unwrap();
    receive_policy(&mut sys, b, "alice");

    // Produce a genuine MAC for one rule, then attach it to another
    // (a classic splice attack).
    let genuine = Arc::new(parse_rule("item(1).").unwrap());
    let mac = {
        let ws = sys.workspace(a).unwrap();
        let handle = lbtrust::principal::shared_secret_handle(a, b);
        let out = ws
            .builtins()
            .invoke(
                Symbol::intern("hmacsign"),
                &[Some(Value::Quote(genuine.clone())), Some(handle), None],
            )
            .unwrap()
            .unwrap();
        out[0][2].clone()
    };
    let spliced = vec![
        Value::Sym(b),
        Value::Sym(a),
        Value::Quote(Arc::new(parse_rule("item(31337).").unwrap())),
        mac,
    ];
    let ws = sys.workspace_mut(b).unwrap();
    ws.assert_fact(Symbol::intern("export"), spliced);
    assert!(ws.evaluate().is_err(), "spliced MAC must fail verification");
    assert_eq!(count_received(&sys, b), 0);
}

#[test]
fn forgery_between_runs_is_rolled_back_alone() {
    // Rollback is transactional: everything since the last *successful*
    // evaluation is undone. So policies are committed by a first run,
    // then a forgery planted between runs is rolled back on its own
    // while genuine traffic flows.
    let mut sys = System::new().with_rsa_bits(512);
    let a = sys.add_principal("alice", "n1").unwrap();
    let b = sys.add_principal("bob", "n2").unwrap();
    say_policy(&mut sys, a, "bob", 0); // policy only, nothing queued yet
    receive_policy(&mut sys, b, "alice");
    sys.run_to_quiescence(8).unwrap(); // commit the policies

    // Plant the forgery and queue genuine traffic.
    sys.workspace_mut(b).unwrap().assert_fact(
        Symbol::intern("export"),
        vec![
            Value::Sym(b),
            Value::Sym(a),
            Value::Quote(Arc::new(parse_rule("item(666).").unwrap())),
            Value::bytes(&[0u8; 64]),
        ],
    );
    let queue = Symbol::intern("queue");
    {
        let ws = sys.workspace_mut(a).unwrap();
        for i in 0..5 {
            ws.assert_fact(queue, vec![Value::Int(i)]);
        }
    }
    sys.run_to_quiescence(32).unwrap();

    // Bob's local fixpoint rejected the forgery (rollback), then the
    // five genuine messages arrived.
    assert!(sys.stats().local_rollbacks >= 1);
    let received = sys.workspace(b).unwrap().tuples(Symbol::intern("received"));
    assert_eq!(received.len(), 5);
    assert!(!sys
        .workspace(b)
        .unwrap()
        .holds(Symbol::intern("received"), &[Value::Int(666)]));
}

#[test]
fn lossy_network_still_quiesces() {
    let mut sys = System::with_network(
        NetworkConfig {
            drop_prob: 0.5,
            ..NetworkConfig::default()
        },
        42,
    )
    .with_rsa_bits(512);
    let a = sys.add_principal("alice", "n1").unwrap();
    let b = sys.add_principal("bob", "n2").unwrap();
    say_policy(&mut sys, a, "bob", 40);
    receive_policy(&mut sys, b, "alice");
    sys.run_to_quiescence(64).unwrap();
    let delivered = count_received(&sys, b);
    let dropped = sys.net_stats().dropped;
    assert!(dropped > 0, "seeded loss model should drop something");
    assert_eq!(delivered + dropped, 40);
}

#[test]
fn duplicated_messages_import_idempotently() {
    let mut sys = System::with_network(
        NetworkConfig {
            duplicate_prob: 1.0,
            ..NetworkConfig::default()
        },
        7,
    )
    .with_rsa_bits(512);
    let a = sys.add_principal("alice", "n1").unwrap();
    let b = sys.add_principal("bob", "n2").unwrap();
    say_policy(&mut sys, a, "bob", 10);
    receive_policy(&mut sys, b, "alice");
    sys.run_to_quiescence(32).unwrap();
    assert_eq!(sys.net_stats().duplicated, 10);
    // Exactly 10 distinct items regardless of duplication.
    assert_eq!(count_received(&sys, b), 10);
}

#[test]
fn jittery_network_reorders_but_converges() {
    let mut sys = System::with_network(
        NetworkConfig {
            latency_min: 1,
            latency_max: 10_000,
            ..NetworkConfig::default()
        },
        99,
    )
    .with_rsa_bits(512);
    let a = sys.add_principal("alice", "n1").unwrap();
    let b = sys.add_principal("bob", "n2").unwrap();
    say_policy(&mut sys, a, "bob", 30);
    receive_policy(&mut sys, b, "alice");
    sys.run_to_quiescence(32).unwrap();
    assert_eq!(count_received(&sys, b), 30);
}

#[test]
fn third_party_cannot_read_hmac_traffic_content() {
    // Confidentiality (§4.1.3): alice encrypts a rule for bob; carol
    // (different secret) cannot decrypt it.
    let mut sys = System::new().with_rsa_bits(512);
    let a = sys.add_principal("alice", "n1").unwrap();
    let b = sys.add_principal("bob", "n2").unwrap();
    let c = sys.add_principal("carol", "n3").unwrap();
    sys.establish_shared_secret(a, b).unwrap();
    sys.establish_shared_secret(a, c).unwrap();

    let secret_rule = Value::Quote(Arc::new(parse_rule("launchcode(1234).").unwrap()));
    let ab = lbtrust::principal::shared_secret_handle(a, b);
    let cipher = {
        let ws = sys.workspace(a).unwrap();
        ws.builtins()
            .invoke(
                Symbol::intern("encryptrule"),
                &[Some(secret_rule.clone()), Some(ab.clone()), None],
            )
            .unwrap()
            .unwrap()[0][2]
            .clone()
    };
    // Bob decrypts.
    let out = sys
        .workspace(b)
        .unwrap()
        .builtins()
        .invoke(
            Symbol::intern("decryptrule"),
            &[Some(cipher.clone()), Some(ab.clone()), None],
        )
        .unwrap()
        .unwrap();
    assert_eq!(out[0][2], secret_rule);
    // Carol cannot: she is not a party to the a-b secret.
    let denied = sys
        .workspace(c)
        .unwrap()
        .builtins()
        .invoke(
            Symbol::intern("decryptrule"),
            &[Some(cipher), Some(ab), None],
        )
        .unwrap()
        .unwrap();
    assert!(denied.is_empty());
}

/// A certificate is accepted whatever `says` scheme its receiver runs:
/// alice certifies `good(carol)` to bob, and bob's grant holds under
/// RSA, HMAC-SHA1 and plaintext alike, citing the certificate. The
/// store checked its one signature; the workspace files it as
/// `certified`, which every scheme's `exp3` accepts. Switching bob's
/// scheme afterwards keeps the grant.
#[test]
fn a_certificate_is_accepted_under_every_scheme() {
    for scheme in AuthScheme::ALL {
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        sys.establish_shared_secret(alice, bob).unwrap();
        sys.set_auth_scheme(bob, scheme).unwrap();
        sys.workspace_mut(bob)
            .unwrap()
            .load("policy", "ok(X) <- says(alice,me,[| good(X) |]).")
            .unwrap();
        let cert = sys
            .issue_certificate(alice, "good(carol).", &[], None)
            .unwrap();
        let digest = cert.digest();
        let outcomes = sys.import_certificates(bob, vec![cert]).unwrap();
        assert!(outcomes[0].newly_added, "scheme {scheme}");
        sys.run_to_quiescence(16).unwrap();
        let decision = sys.authorize(bob, "ok(carol)").unwrap();
        assert!(decision.granted, "scheme {scheme}");
        assert_eq!(decision.supporting, [digest], "scheme {scheme}");

        for next in AuthScheme::ALL {
            sys.set_auth_scheme(bob, next).unwrap();
            sys.run_to_quiescence(16).unwrap();
            let decision = sys.authorize(bob, "ok(carol)").unwrap();
            assert!(decision.granted, "imported under {scheme}, now {next}");
        }
    }
}

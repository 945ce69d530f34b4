//! Integration: the §4.1.3 confidentiality construct expressed in rules
//! (an untrusted relay forwards ciphertext it cannot read), and the §7
//! provenance extension explaining trust decisions.

use lbtrust::System;
use lbtrust_datalog::Symbol;

#[test]
fn encrypted_payload_through_untrusted_relay() {
    // alice -> relay -> bob. alice and bob share a secret; the relay does
    // not hold it. The payload rule travels encrypted: the relay forwards
    // bytes it cannot interpret, bob decrypts declaratively.
    let mut sys = System::new().with_rsa_bits(512);
    let alice = sys.add_principal("alice", "n1").unwrap();
    let relay = sys.add_principal("relay", "n2").unwrap();
    let bob = sys.add_principal("bob", "n3").unwrap();
    sys.establish_shared_secret(alice, bob).unwrap();
    let handle = lbtrust::principal::shared_secret_handle(alice, bob);

    // Alice: encrypt the secret rule under the a-b key and say the
    // ciphertext (as bytes) to the relay, addressed for bob.
    sys.workspace_mut(alice)
        .unwrap()
        .load(
            "policy",
            &format!(
                "says(me,relay,[| forward(bob, C). |]) <- \
                 secretfact(R), encryptrule(R, {handle}, C)."
            ),
        )
        .unwrap();
    // The secret payload is itself a quoted rule.
    sys.workspace_mut(alice)
        .unwrap()
        .load("payload", "secretfact([| launchcode(4242). |]) <- arm().")
        .unwrap();
    sys.workspace_mut(alice)
        .unwrap()
        .assert_src("arm().")
        .unwrap();

    // Relay: blind forwarding — no shared secret, no decryption.
    sys.workspace_mut(relay)
        .unwrap()
        .load(
            "policy",
            "says(me,D,[| delivered(C). |]) <- says(alice,me,[| forward(D, C) |]).",
        )
        .unwrap();

    // Bob: decrypt what the relay delivers and activate the payload.
    sys.workspace_mut(bob)
        .unwrap()
        .load(
            "policy",
            &format!(
                "active(R) <- says(relay,me,[| delivered(C) |]), \
                 decryptrule(C, {handle}, R)."
            ),
        )
        .unwrap();

    sys.run_to_quiescence(32).unwrap();

    // Bob got the secret.
    assert!(sys
        .workspace(bob)
        .unwrap()
        .holds_src("launchcode(4242)")
        .unwrap());
    // The relay never learned it: no launchcode fact, and its only view
    // of the payload is the ciphertext bytes.
    let relay_ws = sys.workspace(relay).unwrap();
    assert!(!relay_ws.holds_src("launchcode(4242)").unwrap());
    assert!(relay_ws.tuples(Symbol::intern("launchcode")).is_empty());
    // The wire never carried the plaintext either.
    // (Check the relay's says tuples textually.)
    for t in relay_ws.tuples(Symbol::intern("says")) {
        let text = t
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        assert!(
            !text.contains("4242") || !text.contains("launchcode"),
            "plaintext leaked to relay: {text}"
        );
    }
}

#[test]
fn provenance_explains_imported_trust_decision() {
    // A cross-principal decision: bob's word reaches alice over the
    // network; provenance at alice shows the derivation chain down to
    // the imported says fact.
    let mut sys = System::new().with_rsa_bits(512);
    let alice = sys.add_principal("alice", "n1").unwrap();
    let bob = sys.add_principal("bob", "n2").unwrap();
    sys.workspace_mut(alice)
        .unwrap()
        .load(
            "policy",
            "grant(P) <- says(bob,me,[| good(P) |]), registered(P).",
        )
        .unwrap();
    sys.workspace_mut(alice)
        .unwrap()
        .assert_src("registered(carol).")
        .unwrap();
    sys.workspace_mut(bob)
        .unwrap()
        .load("policy", "says(me,alice,[| good(X). |]) <- vouched(X).")
        .unwrap();
    sys.workspace_mut(bob)
        .unwrap()
        .assert_src("vouched(carol).")
        .unwrap();
    sys.run_to_quiescence(16).unwrap();

    let alice_ws = sys.workspace(alice).unwrap();
    assert!(alice_ws.holds_src("grant(carol)").unwrap());
    let proof = alice_ws.explain("grant(carol)").unwrap().expect("holds");
    // The proof shows the rule and both premises: the imported says fact
    // and the local registration.
    assert!(proof.contains("grant(carol)"), "{proof}");
    assert!(proof.contains("says"), "{proof}");
    assert!(proof.contains("registered(carol)"), "{proof}");
}

#[test]
fn goal_query_over_delegation_chain() {
    // Binder-style top-down question answered from the workspace's
    // fixpoint under a recursive policy.
    let mut sys = System::new().with_rsa_bits(512);
    let root = sys.add_principal("root", "n1").unwrap();
    let ws = sys.workspace_mut(root).unwrap();
    ws.load(
        "policy",
        "access(P,O,M) <- owns(P,O), mode(M).\n\
         access(P,O,M) <- handoff(Q,P), access(Q,O,M).",
    )
    .unwrap();
    ws.assert_src("owns(u0,fileA). mode(read). handoff(u0,u1). handoff(u1,u2). handoff(u2,u3).")
        .unwrap();
    let answers = ws.query_goal("access(u3, O, read)").unwrap();
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0][1].to_string(), "fileA");
    // Unreached principal: no answers.
    assert!(ws
        .query_goal("access(stranger, O, read)")
        .unwrap()
        .is_empty());
}

#[test]
fn integrity_checksums_detect_corruption() {
    // §4.1.3 integrity: crc32/sha1 builtins over rules, usable in
    // policies to pin a rule's digest.
    let mut sys = System::new().with_rsa_bits(512);
    let a = sys.add_principal("alice", "n1").unwrap();
    let ws = sys.workspace_mut(a).unwrap();
    ws.load(
        "policy",
        "digest(R, H) <- important(R), sha1digest(R, H).\n\
         checksum(R, C) <- important(R), crc32sum(R, C).",
    )
    .unwrap();
    ws.assert_src("important([| payload(1). |]). important([| payload(2). |]).")
        .unwrap();
    ws.evaluate().unwrap();
    let digests = ws.tuples(Symbol::intern("digest"));
    assert_eq!(digests.len(), 2);
    // Distinct rules produce distinct digests.
    assert_ne!(digests[0][1], digests[1][1]);
    let checksums = ws.tuples(Symbol::intern("checksum"));
    assert_eq!(checksums.len(), 2);
    assert_ne!(checksums[0][1], checksums[1][1]);
}

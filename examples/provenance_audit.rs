//! Provenance and what-if auditing (§7 of the paper): "provenance
//! is useful for analyzing derivations of security policies, runtime
//! verification, and dynamic type checking."
//!
//! A security officer audits *why* an access was granted — tracing the
//! derivation through a delegation chain down to the imported `says`
//! facts — and asks what-if questions of the materialized policy.
//!
//! Run with: `cargo run -p lbtrust-tests --example provenance_audit`

use lbtrust::obs::JsonlSink;
use lbtrust::System;
use lbtrust_d1lp::D1lpPolicy;
use std::sync::Arc;

fn main() {
    let mut sys = System::new().with_rsa_bits(512);
    let hq = sys.add_principal("hq", "dc1").unwrap();
    let contractor = sys.add_principal("contractor", "dc2").unwrap();
    sys.add_principal("auditor", "dc3").unwrap();

    // HQ delegates badge decisions to the contractor.
    D1lpPolicy::new()
        .delegate("hq", "contractor", "badge", Some(0))
        .apply_to(&mut sys)
        .unwrap();

    // HQ policy: building access requires a badge and a schedule entry.
    sys.workspace_mut(hq)
        .unwrap()
        .load(
            "policy",
            "enter(P,B) <- badge(P), scheduled(P,B).\n\
             scheduled(P,B) <- shift(P,B,_).",
        )
        .unwrap();
    sys.workspace_mut(hq)
        .unwrap()
        .assert_src("shift(dana, hq_tower, 1). shift(evan, hq_tower, 2).")
        .unwrap();

    // The contractor issues badges.
    sys.workspace_mut(contractor)
        .unwrap()
        .load("grant", "says(me,hq,[| badge(P). |]) <- vetted(P).")
        .unwrap();
    sys.workspace_mut(contractor)
        .unwrap()
        .assert_src("vetted(dana).")
        .unwrap();

    sys.run_to_quiescence(32).unwrap();

    // Evan's badge arrives as a *certificate* — a signed, durable
    // credential imported into hq's store — so the decision below can
    // cite a content address, not just a derivation.
    let badge_cert = sys
        .issue_certificates(contractor, "badge(evan).", &[], None)
        .unwrap();
    sys.import_certificates(hq, badge_cert).unwrap();
    sys.run_to_quiescence(32).unwrap();

    // Every authorization decision from here on is journaled as one
    // JSON object per line — principal, goal, verdict, and the digests
    // of the certificates the proof rests on.
    let journal_path = std::env::temp_dir().join(format!(
        "provenance_audit_decisions_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal_path);
    sys.enable_decision_journal(Arc::new(JsonlSink::create(&journal_path).unwrap()));

    let hq_ws = sys.workspace(hq).unwrap();
    println!("== Access audit at hq ==\n");
    for (person, building) in [("dana", "hq_tower"), ("evan", "hq_tower")] {
        let fact = format!("enter({person},{building})");
        match hq_ws.explain(&fact).unwrap() {
            Some(proof) => {
                println!("{fact}: GRANTED — derivation:\n{proof}");
            }
            None => println!("{fact}: denied (no derivation)\n"),
        }
    }

    // What-if: what can dana enter? Answered from hq's fixpoint.
    let answers = sys
        .workspace_mut(hq)
        .unwrap()
        .query_goal("enter(dana, B)")
        .unwrap();
    println!("goal query enter(dana, B):");
    for t in answers {
        println!("  B = {}", t[1]);
    }

    // Table dump — the stand-in for the paper's §9 visualizer.
    let hq_ws = sys.workspace(hq).unwrap();
    println!("\n{}", hq_ws.dump(&["badge", "scheduled", "enter"]));

    // The officer's decision log: authorize() walks the proof for
    // `says` premises and traces each certified rule back through the
    // store's audit trail to the credential that introduced it.
    println!("== Journaled decisions ==\n");
    for goal in [
        "enter(evan,hq_tower)",
        "enter(dana,hq_tower)",
        "enter(mallory,hq_tower)",
    ] {
        let decision = sys.authorize(hq, goal).unwrap();
        let verdict = if decision.granted {
            "GRANTED"
        } else {
            "denied"
        };
        println!("{goal}: {verdict}");
        for digest in &decision.supporting {
            println!("  supported by certificate {}", digest.to_hex());
        }
    }

    // Evan's grant must cite the badge certificate the audit trail
    // attributes to the contractor.
    let audited = sys.audit_introducers(hq, "badge(evan).").unwrap();
    assert!(!audited.is_empty(), "audit trail lost the badge credential");
    let evan = sys.authorize(hq, "enter(evan,hq_tower)").unwrap();
    assert!(evan.granted);
    assert!(evan
        .supporting
        .iter()
        .any(|d| audited.iter().any(|e| e.digest == *d)));

    sys.flush_decision_journal();
    println!("\n== Decision journal ({}) ==\n", journal_path.display());
    print!("{}", std::fs::read_to_string(&journal_path).unwrap());
    let _ = std::fs::remove_file(&journal_path);
}

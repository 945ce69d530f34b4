//! The paper's demonstration scenario (§9): a multi-principal file system
//! with access control, delegation to an AccessManager, depth
//! restriction, and threshold confirmation.
//!
//! Workflow of Figure 3(b):
//!
//! ```text
//!   requester ──(1) request──▶ filestore ──(2) check──▶ fileowner
//!                                  ▲                        │ delegates
//!                                  │                        ▼
//!              (4) data ◀──────────┘        (3) decide  accessmgr(s)
//! ```
//!
//! Run with: `cargo run -p lbtrust-tests --example file_server`

use lbtrust::{System, Workspace};
use lbtrust_d1lp::D1lpPolicy;
use lbtrust_datalog::{Symbol, Value};

fn show(ws: &Workspace, pred: &str) {
    let tuples = ws.tuples(Symbol::intern(pred));
    println!("  {} @ {}:", pred, ws.me());
    if tuples.is_empty() {
        println!("    (none)");
    }
    for t in tuples {
        let row: Vec<String> = t.iter().map(ToString::to_string).collect();
        println!("    {}({})", pred, row.join(", "));
    }
}

fn main() {
    let mut sys = System::new().with_rsa_bits(512);
    let requester = sys.add_principal("requester", "laptop").unwrap();
    let filestore = sys.add_principal("filestore", "server1").unwrap();
    let fileowner = sys.add_principal("fileowner", "server2").unwrap();
    // Three access managers for the threshold variant.
    for m in ["mgr1", "mgr2", "mgr3"] {
        sys.add_principal(m, "server3").unwrap();
    }

    println!("== LBTrust file server (the paper's §9 demonstration) ==\n");

    // ---- file metadata at the store (f1-f6 of the paper) --------------
    sys.workspace_mut(filestore)
        .unwrap()
        .assert_src(
            "file(f1). filename(f1, \"report.txt\"). filedata(f1, \"Q2 numbers...\").\n\
             fileowner(f1, fileowner). filestore(f1, filestore).",
        )
        .unwrap();

    // The store grants read access iff the owner's side says the
    // requester has permission (dfs1/dfs2, simplified to the read path).
    sys.workspace_mut(filestore)
        .unwrap()
        .load(
            "policy",
            "grant(U,F,read) <- request(U,F,read), \
                               says(fileowner,me,[| permission(U,F,read) |]).\n\
             says(me,U,[| filecontent(F,D). |]) <- grant(U,F,read), filedata(F,D).",
        )
        .unwrap();

    // ---- the owner delegates decisions to the access managers ----------
    // Depth 0: managers may not re-delegate.
    D1lpPolicy::new()
        .delegate("fileowner", "mgr1", "mayread", Some(0))
        .delegate("fileowner", "mgr2", "mayread", Some(0))
        .delegate("fileowner", "mgr3", "mayread", Some(0))
        .apply_to(&mut sys)
        .unwrap();
    // Threshold: the owner's permission stands only when at least 2 of 3
    // managers confirm. The owner also *exports* says facts, so the
    // cycle-free vote variant is required (see
    // `lbtrust::delegation::threshold_vote_rules`).
    sys.workspace_mut(fileowner)
        .unwrap()
        .load(
            "threshold",
            &lbtrust::delegation::threshold_vote_rules("accessMgrGroup", "mayread", 2),
        )
        .unwrap();
    for m in ["mgr1", "mgr2", "mgr3"] {
        sys.workspace_mut(fileowner)
            .unwrap()
            .assert_src(&format!("pringroup({m}, accessMgrGroup)."))
            .unwrap();
    }

    // Owner: permission follows the threshold-confirmed mayread for the
    // file actually asked about, and is exported to the store.
    sys.workspace_mut(fileowner)
        .unwrap()
        .load(
            "policy",
            "permission(U,F,read) <- mayread(U), askedfor(U,F).\n\
             says(me,filestore,[| permission(U,F,read). |]) <- permission(U,F,read).",
        )
        .unwrap();
    sys.workspace_mut(fileowner)
        .unwrap()
        .assert_src("askedfor(requester, f1).")
        .unwrap();

    // Managers 1 and 2 confirm the requester; manager 3 stays silent.
    // Votes carry the voter's name (pinned to the sender by the
    // threshold prelude's authenticity constraint).
    for m in ["mgr1", "mgr2"] {
        let p = Symbol::intern(m);
        sys.workspace_mut(p)
            .unwrap()
            .load(
                "decision",
                "says(me,fileowner,[| mayreadVote(me,requester). |]) <- approve(requester).",
            )
            .unwrap();
        sys.workspace_mut(p)
            .unwrap()
            .assert_src("approve(requester).")
            .unwrap();
    }

    // The requester asks the store for the file (message ① of Fig. 3).
    sys.workspace_mut(requester)
        .unwrap()
        .load(
            "request",
            "says(me,filestore,[| request(requester,F,read). |]) <- want(F).",
        )
        .unwrap();
    sys.workspace_mut(requester)
        .unwrap()
        .assert_src("want(f1).")
        .unwrap();

    // The store accepts request facts said to it.
    sys.workspace_mut(filestore)
        .unwrap()
        .load(
            "import",
            "request(U,F,M) <- says(U,me,[| request(U,F,M) |]).",
        )
        .unwrap();
    // And the requester accepts file content said to it.
    sys.workspace_mut(requester)
        .unwrap()
        .load(
            "import",
            "filecontent(F,D) <- says(filestore,me,[| filecontent(F,D) |]).",
        )
        .unwrap();

    let stats = sys.run_to_quiescence(64).expect("quiescence");
    println!(
        "fixpoint: {} messages, {} accepted, {} rejected\n",
        stats.messages_sent, stats.messages_accepted, stats.messages_rejected
    );

    println!("state after the read workflow:");
    show(sys.workspace(fileowner).unwrap(), "mayreadCount");
    show(sys.workspace(fileowner).unwrap(), "permission");
    show(sys.workspace(filestore).unwrap(), "grant");
    show(sys.workspace(requester).unwrap(), "filecontent");

    let got = sys
        .workspace(requester)
        .unwrap()
        .holds_src("filecontent(f1, \"Q2 numbers...\")")
        .unwrap();
    println!(
        "\nrequester received the file: {}",
        if got { "YES" } else { "no" }
    );

    // ---- depth restriction in action -----------------------------------
    // mgr1 (depth 0) tries to re-delegate its authority: rejected.
    println!("\nmgr1 attempts to re-delegate mayread (depth budget 0)...");
    let mgr1 = Symbol::intern("mgr1");
    sys.workspace_mut(mgr1).unwrap().assert_fact(
        Symbol::intern("delegates"),
        vec![
            Value::sym("mgr1"),
            Value::sym("requester"),
            Value::sym("mayread"),
        ],
    );
    match sys.workspace_mut(mgr1).unwrap().evaluate() {
        Err(e) => println!("  rejected as expected: {e}"),
        Ok(_) => println!("  UNEXPECTED: re-delegation was allowed"),
    }
}

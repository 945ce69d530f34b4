//! The whole-program static analyzer, end to end: the in-tree SeNDlog
//! protocols lint clean at the strictest level *through the real
//! translation pipeline*, the `System` front door refuses deny-level
//! programs before any workspace sees them, and ill-formed programs
//! (unsafe, unstratifiable) are rejected at install time with source
//! positions — not at first evaluation.

use lbtrust::{SysError, System, WsError};
use lbtrust_analysis::{analyze, AnalyzerConfig, DiagKind, LintLevel};
use lbtrust_datalog::{parse_program, Span};
use lbtrust_sendlog::{rev_gossip_program, sendlog_to_lbtrust, PATH_VECTOR, REACHABILITY};

/// Every in-tree protocol — exactly as the runtime loads it — is clean
/// even with every lint promoted to `Deny`. `lint_cli.rs` holds the
/// `lbtrust-lint` CLI to the same bar over `examples/programs/*.sdl`.
#[test]
fn in_tree_programs_lint_clean_at_deny() {
    let translated = [
        (
            "REACHABILITY",
            sendlog_to_lbtrust(REACHABILITY).unwrap().lbtrust_src,
        ),
        (
            "PATH_VECTOR",
            sendlog_to_lbtrust(PATH_VECTOR).unwrap().lbtrust_src,
        ),
        ("REV_GOSSIP", rev_gossip_program().unwrap()),
    ];
    for (name, src) in translated {
        let program = parse_program(&src).unwrap();
        let analysis = analyze(&program, &AnalyzerConfig::strict());
        let denials: Vec<String> = analysis.denials().map(|d| d.to_string()).collect();
        assert!(denials.is_empty(), "{name}:\n{src}\n{denials:?}");
    }
}

/// `System::load_program` refuses a deny-level program with the finding
/// kind and the position in the *SeNDlog* source (the translation is
/// line-preserving), leaving the workspace untouched.
#[test]
fn system_refuses_deny_level_program() {
    let mut sys = System::new().with_rsa_bits(512);
    let bob = sys.add_principal("bob", "n1").unwrap();
    let baseline = sys.workspace(bob).unwrap().active_rules().len();

    // An authorization policy that grants on any signed claim without
    // pinning who may make it — translated from SeNDlog like any user
    // program would be.
    let sendlog = "At S:\np1: access(P, file1, read) :- W says good(P).\n";
    let translated = sendlog_to_lbtrust(sendlog).unwrap().lbtrust_src;
    let err = sys.load_program(bob, "policy", &translated).unwrap_err();
    match &err {
        SysError::Lint(e) => {
            assert_eq!(e.tag, "policy");
            assert_eq!(e.denials[0].kind, DiagKind::UnsignedAuthority);
            // Line 2 of the SeNDlog source, thanks to line-preserving
            // translation.
            assert_eq!(e.denials[0].span, Span::new(2, 1));
        }
        other => panic!("expected Lint, got {other}"),
    }
    // The structured error chains down to the first denial.
    let source = std::error::Error::source(&err).expect("source");
    assert!(source.to_string().contains("unconstrained sender"));
    assert_eq!(sys.workspace(bob).unwrap().active_rules().len(), baseline);

    // The guarded variant sails through and reports its analysis.
    let ok = "At S:\np1: access(P, file1, read) :- W says good(P), trustedca(W).\n";
    let translated = sendlog_to_lbtrust(ok).unwrap().lbtrust_src;
    let analysis = sys.load_program(bob, "policy", &translated).unwrap();
    assert!(!analysis.has_denials());
    assert_eq!(
        sys.workspace(bob).unwrap().active_rules().len(),
        baseline + 1
    );
}

/// The gossip front door runs the same preflight: the real revocation
/// gossip program passes, an amplifying one is refused for every
/// workspace at once when the lint is promoted.
#[test]
fn enable_gossip_preflights_the_program() {
    let mut sys = System::new().with_rsa_bits(512);
    sys.add_principal("a", "n1").unwrap();
    sys.add_principal("b", "n2").unwrap();
    sys.enable_gossip(&rev_gossip_program().unwrap()).unwrap();
    assert!(sys.gossip_enabled());

    // An echo-storm variant: re-advertise everything heard to every
    // peer, destination uncorrelated with the payload.
    let mut sys2 = System::new()
        .with_rsa_bits(512)
        .with_lint_level(DiagKind::CommAmplification, LintLevel::Deny);
    sys2.add_principal("a", "n1").unwrap();
    let storm = "alarm(me,D) <- gsays(W,me,[| alarm(W,D). |]).\n\
                 gsays(me,N,[| alarm(me,D). |]) <- prin(N), alarm(me,D).";
    let err = sys2.enable_gossip(storm).unwrap_err();
    match &err {
        SysError::Lint(e) => {
            assert!(e
                .denials
                .iter()
                .any(|d| d.kind == DiagKind::CommAmplification));
        }
        other => panic!("expected Lint, got {other}"),
    }
    assert!(!sys2.gossip_enabled());
}

/// Safety and stratification are install-time checks: a bad program is
/// refused by `Workspace::load` with a cited position, before any fact
/// or rule lands — not at the first `evaluate()`.
#[test]
fn ill_formed_programs_rejected_at_install_time() {
    let mut sys = System::new().with_rsa_bits(512);
    let w = sys.add_principal("w", "n1").unwrap();
    let ws = sys.workspace_mut(w).unwrap();
    let baseline = ws.active_rules().len();

    ws.load("game", "win(X) <- move(X,Y), lose(Y).").unwrap();
    let err = ws.load("bad", "lose(X) <- pos(X), !win(X).").unwrap_err();
    match &err {
        WsError::Stratify(e) => {
            assert!(e.negation);
            assert_eq!(e.span, Span::new(1, 1));
        }
        other => panic!("expected Stratify, got {other}"),
    }
    assert!(std::error::Error::source(&err).is_some());
    assert_eq!(ws.active_rules().len(), baseline + 1);

    // The surviving half of the program still evaluates.
    ws.assert_src("move(a,b). pos(b).").unwrap();
    ws.evaluate().unwrap();
}

//! # lbtrust-analysis — whole-program trust analysis for LBTrust/SeNDlog
//!
//! A static analyzer over parsed LBTrust programs (SeNDlog programs
//! after `sendlog_to_lbtrust` translation, which preserves line numbers,
//! so diagnostics cite positions in the *original* SeNDlog source).
//! Three pass families:
//!
//! 1. **Dependency lints** — the cross-principal predicate dependency
//!    graph (edges flow through `says`/`gsays` payloads) drives
//!    dead-rule, never-consumed, unreachable-predicate, arity-mismatch,
//!    and typo-suspect findings;
//! 2. **Authority flow** — derivation paths ending in grant-shaped
//!    heads must not accept unauthenticated channels or `says` imports
//!    from unconstrained senders;
//! 3. **Communication amplification** — broadcast heads joined with
//!    recursive premises, the shape behind revocation message storms.
//!
//! Each finding carries a [`LintLevel`] resolved from the
//! [`AnalyzerConfig`]; `lbtrust::System` refuses to load a program with
//! any [`LintLevel::Deny`] finding.
//!
//! ```
//! use lbtrust_analysis::{analyze, AnalyzerConfig, DiagKind};
//! use lbtrust_datalog::parse_program;
//!
//! let program = parse_program(
//!     "access(P,file1,read) <- says(W,me,[| good(P). |]).",
//! )
//! .unwrap();
//! let analysis = analyze(&program, &AnalyzerConfig::default());
//! let denial = analysis.denials().next().unwrap();
//! assert_eq!(denial.kind, DiagKind::UnsignedAuthority);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod graph;
pub mod passes;

pub use config::{AnalyzerConfig, DiagKind, LintLevel};
pub use diag::{Analysis, Diagnostic};
pub use graph::ProgramGraph;

use lbtrust_datalog::ast::Program;

/// Analyzes `program` under `config`, running all three pass families.
pub fn analyze(program: &Program, config: &AnalyzerConfig) -> Analysis {
    let graph = ProgramGraph::build(program, config);
    let mut diagnostics = Vec::new();
    passes::deps::run(program, &graph, config, &mut diagnostics);
    passes::authority::run(program, &graph, config, &mut diagnostics);
    passes::amplify::run(program, &graph, config, &mut diagnostics);
    Analysis { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbtrust_datalog::parse_program;

    /// The three in-tree SeNDlog protocols, pre-translated: they must
    /// lint clean even with every lint at `Deny` (the per-pass exemption
    /// logic is pinned by the pass unit tests; this is the integration
    /// bar the CI gate enforces).
    #[test]
    fn in_tree_protocol_shapes_are_clean_at_deny() {
        for src in [
            // REACHABILITY, translated.
            "reachable(me,D) <- neighbor(me,D).\n\
             says(me,Z,[| reachable(Z,D). |]) <- neighbor(me,Z), reachable(me,D), Z != D.",
            // PATH_VECTOR, translated.
            "path(me,D,P) <- neighbor(me,D), mkpath(me,D,P).\n\
             path(me,D,P2) <- says(Z,me,[| path(Z,D,P). |]), neighbor(me,Z), offpath(P,me), \
             extendpath(me,P,P2).\n\
             says(me,Z2,[| path(me,D,P). |]) <- neighbor(me,Z2), path(me,D,P), offpath(P,Z2).",
            // REV_GOSSIP, translated.
            "gossippeer(me,N) <- prin(N), N != me.\n\
             gsays(me,N,[| revsummary(me,I,F). |]) <- gossippeer(me,N), revfp(me,I,F).\n\
             gsays(me,W,[| revpull(me,I). |]) <- gsays(W,me,[| revsummary(W,I,F). |]), \
             revfp(me,I,L), F != L.",
        ] {
            let program = parse_program(src).unwrap();
            let analysis = analyze(&program, &AnalyzerConfig::strict());
            let findings: Vec<String> = analysis.denials().map(|d| d.to_string()).collect();
            assert!(findings.is_empty(), "{src}\n{findings:?}");
        }
    }

    /// One seeded violation per pass family, each flagged with the
    /// expected kind at the expected source position.
    #[test]
    fn every_pass_family_reports() {
        // Line 1: dead rule (self-recursion, no base case); line 2:
        // unsigned authority (unconstrained sender on a grant path);
        // lines 3-4: amplification (uncorrelated broadcast over a
        // recursive premise).
        let program = parse_program(concat!(
            "ghost(X) <- ghost(X).\n",
            "access(P,file1,read) <- says(W,me,[| good(P). |]).\n",
            "alarm(me,D) <- says(V,me,[| alarm(V,D). |]), prin(V).\n",
            "says(me,N,[| alarm(me,D). |]) <- prin(N), alarm(me,D).\n",
            "alarms(N) <- agg<<N = count(D)>> alarm(me,D).\n",
            "fail() <- ghost(X), alarms(N), N > 9.",
        ))
        .unwrap();
        let analysis = analyze(&program, &AnalyzerConfig::default());
        let kind_at = |kind: DiagKind| {
            analysis
                .diagnostics
                .iter()
                .find(|d| d.kind == kind)
                .unwrap_or_else(|| panic!("no {kind} diagnostic: {analysis}"))
                .span
        };
        assert_eq!(
            kind_at(DiagKind::DeadRule),
            lbtrust_datalog::Span::new(1, 1)
        );
        assert_eq!(
            kind_at(DiagKind::UnsignedAuthority),
            lbtrust_datalog::Span::new(2, 1)
        );
        assert_eq!(
            kind_at(DiagKind::CommAmplification),
            lbtrust_datalog::Span::new(4, 1)
        );
    }
}

//! Pass 1: dependency-graph lints.
//!
//! Five lints fall out of the cross-principal dependency graph:
//!
//! * **dead-rule** — a rule with a positive premise on a predicate the
//!   program can never populate (no facts, no deriving rule that could
//!   itself fire, no import). Computed as a possibly-nonempty fixpoint,
//!   so `p(X) <- p(X).` with no base case is dead but mutual recursion
//!   over a seeded base is not.
//! * **never-consumed** — derived, but nothing reads, ships, or checks
//!   it.
//! * **unreachable-predicate** — derived and consumed, but no consumer
//!   chain reaches anything observable (grant, export, constraint, or
//!   configured root).
//! * **arity-mismatch** — one predicate, several arities.
//! * **typo-suspect** — an undefined premise predicate one edit away
//!   from a defined one.

use crate::config::{AnalyzerConfig, DiagKind};
use crate::diag::Diagnostic;
use crate::graph::ProgramGraph;
use lbtrust_datalog::ast::Program;
use lbtrust_datalog::Symbol;
use std::collections::HashSet;

/// Runs the dependency lints, appending to `out`.
pub fn run(
    program: &Program,
    graph: &ProgramGraph,
    config: &AnalyzerConfig,
    out: &mut Vec<Diagnostic>,
) {
    arity_mismatches(graph, config, out);
    dead_rules(program, graph, config, out);
    liveness(graph, config, out);
    typo_suspects(graph, config, out);
}

fn arity_mismatches(graph: &ProgramGraph, config: &AnalyzerConfig, out: &mut Vec<Diagnostic>) {
    let mut preds: Vec<&Symbol> = graph.arities.keys().collect();
    preds.sort_by_key(|p| p.as_str());
    for pred in preds {
        let arities = &graph.arities[pred];
        if arities.len() < 2 {
            continue;
        }
        let list: Vec<String> = arities.keys().map(|a| a.to_string()).collect();
        // Report at the position of the *second* arity observed in
        // source order — the first occurrence established the shape.
        let span = arities
            .values()
            .copied()
            .max_by_key(|s| (s.line, s.col))
            .unwrap_or_default();
        out.push(Diagnostic {
            kind: DiagKind::ArityMismatch,
            level: config.level(DiagKind::ArityMismatch),
            span,
            pred: Some(pred.to_string()),
            rule: None,
            message: format!(
                "predicate `{pred}` is used at {} different arities ({})",
                arities.len(),
                list.join(", ")
            ),
        });
    }
}

fn dead_rules(
    program: &Program,
    graph: &ProgramGraph,
    config: &AnalyzerConfig,
    out: &mut Vec<Diagnostic>,
) {
    // Possibly-nonempty fixpoint. Base: every predicate without a local
    // deriving rule is assumed EDB (the runtime may assert facts into
    // it); pattern rules are opaque, so whatever they produce is assumed
    // derivable.
    let mut nonempty: HashSet<Symbol> = HashSet::new();
    for info in &graph.rules {
        if info.is_pattern || info.body_is_empty() {
            nonempty.extend(info.produces.iter().copied());
            nonempty.extend(info.exports.iter().copied());
        }
    }
    let rule_can_fire = |info: &crate::graph::RuleInfo, nonempty: &HashSet<Symbol>| {
        // Imports and builtins are satisfiable by the runtime; negated
        // premises never block satisfiability.
        info.pos_deps
            .iter()
            .all(|p| nonempty.contains(p) || !graph.defined.contains_key(p))
    };
    let mut changed = true;
    while changed {
        changed = false;
        for info in &graph.rules {
            if info.is_pattern || !rule_can_fire(info, &nonempty) {
                continue;
            }
            for &p in info.produces.iter().chain(&info.exports) {
                if nonempty.insert(p) {
                    changed = true;
                }
            }
        }
    }
    for (ri, info) in graph.rules.iter().enumerate() {
        if info.is_pattern || info.body_is_empty() || rule_can_fire(info, &nonempty) {
            continue;
        }
        let empty: Vec<String> = info
            .pos_deps
            .iter()
            .filter(|p| !nonempty.contains(p) && graph.defined.contains_key(p))
            .map(|p| format!("`{p}`"))
            .collect();
        out.push(Diagnostic {
            kind: DiagKind::DeadRule,
            level: config.level(DiagKind::DeadRule),
            span: info.span,
            pred: None,
            rule: Some(program.rules[ri].to_string()),
            message: format!(
                "rule can never fire: premise {} has no derivation with a base case",
                empty.join(", ")
            ),
        });
    }
}

fn liveness(graph: &ProgramGraph, config: &AnalyzerConfig, out: &mut Vec<Diagnostic>) {
    // Observable predicates: configured roots and grants, constraint
    // subjects, and everything needed (transitively) by a rule that
    // communicates or derives an observable predicate.
    let is_root = |p: &Symbol| {
        config.roots.contains(p.as_str())
            || config.grant_preds.contains(p.as_str())
            || graph.constraint_preds.contains(p)
    };
    let mut needed: HashSet<Symbol> = graph
        .defined
        .keys()
        .chain(graph.exported.keys())
        .chain(graph.consumed.keys())
        .filter(|p| is_root(p))
        .copied()
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for info in &graph.rules {
            let observable =
                !info.comm_heads.is_empty() || info.produces.iter().any(|p| needed.contains(p));
            if !observable {
                continue;
            }
            for &p in info
                .pos_deps
                .iter()
                .chain(&info.neg_deps)
                .chain(&info.import_deps)
            {
                if needed.insert(p) {
                    changed = true;
                }
            }
        }
    }
    let mut defined: Vec<&Symbol> = graph.defined.keys().collect();
    defined.sort_by_key(|p| p.as_str());
    for pred in defined {
        if is_root(pred) || graph.quoted_mentions.contains(pred) {
            continue;
        }
        let span = graph.defined[pred]
            .first()
            .map(|&ri| graph.rules[ri].span)
            .unwrap_or_default();
        let consumed = graph.consumed.contains_key(pred);
        let exported = graph.exported.contains_key(pred);
        if !consumed && !exported {
            out.push(Diagnostic {
                kind: DiagKind::NeverConsumed,
                level: config.level(DiagKind::NeverConsumed),
                span,
                pred: Some(pred.to_string()),
                rule: None,
                message: format!(
                    "predicate `{pred}` is derived but never consumed, shipped, or checked"
                ),
            });
        } else if !needed.contains(pred) {
            out.push(Diagnostic {
                kind: DiagKind::UnreachablePredicate,
                level: config.level(DiagKind::UnreachablePredicate),
                span,
                pred: Some(pred.to_string()),
                rule: None,
                message: format!(
                    "predicate `{pred}` never reaches a grant, export, constraint, or root"
                ),
            });
        }
    }
}

fn typo_suspects(graph: &ProgramGraph, config: &AnalyzerConfig, out: &mut Vec<Diagnostic>) {
    let defined: Vec<&Symbol> = graph.defined.keys().chain(graph.exported.keys()).collect();
    let mut consumed: Vec<&Symbol> = graph.consumed.keys().collect();
    consumed.sort_by_key(|p| p.as_str());
    for pred in consumed {
        let name = pred.as_str();
        if graph.defined.contains_key(pred)
            || graph.exported.contains_key(pred)
            || config.is_builtin(name)
            || config.is_comm(name)
            || config.roots.contains(name)
            || name.len() < 4
        {
            continue;
        }
        let Some(near) = defined
            .iter()
            .find(|d| d.as_str().len() >= 4 && edit_distance_is_one(name, d.as_str()))
        else {
            continue;
        };
        let span = graph.consumed[pred]
            .first()
            .map(|&ri| graph.rules[ri].span)
            .unwrap_or_default();
        out.push(Diagnostic {
            kind: DiagKind::TypoSuspect,
            level: config.level(DiagKind::TypoSuspect),
            span,
            pred: Some(pred.to_string()),
            rule: None,
            message: format!("predicate `{pred}` is never defined; did you mean `{near}`?"),
        });
    }
}

/// Whether `a` and `b` differ by exactly one edit (substitution,
/// insertion, or deletion).
fn edit_distance_is_one(a: &str, b: &str) -> bool {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    match long.len() - short.len() {
        0 => a.iter().zip(&b).filter(|(x, y)| x != y).count() == 1,
        1 => {
            // One insertion: skip the first mismatch in the longer
            // string, then the tails must agree.
            let mut i = 0;
            while i < short.len() && short[i] == long[i] {
                i += 1;
            }
            short[i..] == long[i + 1..]
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalyzerConfig, DiagKind};
    use lbtrust_datalog::{parse_program, Span};

    fn kinds(src: &str) -> Vec<(DiagKind, Span)> {
        let program = parse_program(src).unwrap();
        analyze(&program, &AnalyzerConfig::default())
            .diagnostics
            .iter()
            .map(|d| (d.kind, d.span))
            .collect()
    }

    #[test]
    fn edit_distance_basics() {
        assert!(edit_distance_is_one("neighbor", "neighbour"));
        assert!(edit_distance_is_one("revfp", "revfq"));
        assert!(!edit_distance_is_one("path", "path"));
        assert!(!edit_distance_is_one("path", "mkpath"));
    }

    #[test]
    fn self_recursion_without_base_is_dead() {
        // `p` only derives from itself; `fail` makes `q`→observable.
        let found = kinds(
            "p(X) <- p(X).\n\
             fail() <- p(X), bad(X).",
        );
        assert!(
            found.contains(&(DiagKind::DeadRule, Span::new(1, 1))),
            "{found:?}"
        );
    }

    #[test]
    fn recursion_over_a_base_is_alive() {
        let found = kinds(
            "reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).\n\
             fail() <- reach(X,X).",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn derived_but_never_consumed_flagged() {
        let found = kinds(
            "audit(X) <- says(W,me,[| event(X). |]).\n\
             fail() <- bad(X).",
        );
        assert_eq!(found, vec![(DiagKind::NeverConsumed, Span::new(1, 1))]);
    }

    #[test]
    fn consumers_that_reach_nothing_are_unreachable() {
        let found = kinds(
            "a(X) <- base(X).\n\
             b(X) <- a(X).\n\
             fail() <- base(X), bad(X).",
        );
        // `b` consumes `a`, but `b` itself goes nowhere; `a` is consumed
        // yet unreachable from any sink through live consumers.
        assert!(
            found.contains(&(DiagKind::NeverConsumed, Span::new(2, 1))),
            "{found:?}"
        );
        assert!(
            found.contains(&(DiagKind::UnreachablePredicate, Span::new(1, 1))),
            "{found:?}"
        );
    }

    #[test]
    fn exported_predicates_are_live() {
        let found = kinds(
            "says(me,Z,[| alert(me). |]) <- peer(me,Z), alert(me).\nalert(me) <- tripped(me).",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn arity_mismatch_cites_second_use() {
        let found = kinds(
            "p(a,b).\n\
             q(X) <- p(X).",
        );
        assert!(
            found.contains(&(DiagKind::ArityMismatch, Span::new(2, 1))),
            "{found:?}"
        );
    }

    #[test]
    fn typo_one_edit_away_flagged() {
        let program = parse_program(
            "neighbor(a,b).\n\
             fail() <- neigbor(X,Y).",
        )
        .unwrap();
        let analysis = analyze(&program, &AnalyzerConfig::default());
        let typo: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.kind == DiagKind::TypoSuspect)
            .collect();
        assert_eq!(typo.len(), 1);
        assert_eq!(typo[0].span, Span::new(2, 1));
        assert!(typo[0].message.contains("did you mean `neighbor`"));
    }

    #[test]
    fn unrelated_edb_premises_are_not_typos() {
        let found = kinds(
            "reach(X,Y) <- edge(X,Y).\n\
             fail() <- reach(X,X).",
        );
        assert!(found.is_empty(), "{found:?}");
    }
}

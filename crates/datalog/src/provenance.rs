//! Provenance: explaining how a tuple was derived.
//!
//! §7 of the paper: "we are currently adding provenance support to
//! LBTrust. In addition to reasoning about delegation and chains of
//! trust, provenance is useful for analyzing derivations of security
//! policies, runtime verification, and dynamic type checking."
//!
//! [`explain`] reconstructs a proof tree for a derived tuple over a
//! *materialized* database: it finds a rule and a satisfying binding
//! whose premises are all present (recursively explained), memoizing
//! sub-proofs and refusing cycles. Base facts (no deriving rule
//! instance, or present before evaluation) are leaves.

use crate::ast::{BodyItem, Rule};
use crate::builtins::Builtins;
use crate::db::{Database, Tuple};
use crate::eval::Engine;
use crate::intern::Symbol;
use crate::unify::Bindings;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::ControlFlow;

/// A proof tree for one tuple.
#[derive(Clone, Debug, PartialEq)]
pub enum Proof {
    /// The tuple is a base fact (EDB, asserted, or builtin-produced).
    Fact {
        /// Predicate.
        pred: Symbol,
        /// The tuple.
        tuple: Tuple,
    },
    /// The tuple is the head of a rule instance.
    Derived {
        /// Predicate.
        pred: Symbol,
        /// The tuple.
        tuple: Tuple,
        /// The deriving rule, printed canonically.
        rule: String,
        /// Proofs of the positive body premises, in body order.
        premises: Vec<Proof>,
    },
}

impl Proof {
    /// The concluded `(pred, tuple)`.
    pub fn conclusion(&self) -> (Symbol, &Tuple) {
        match self {
            Proof::Fact { pred, tuple } | Proof::Derived { pred, tuple, .. } => (*pred, tuple),
        }
    }

    /// Depth of the proof tree (a fact has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Proof::Fact { .. } => 1,
            Proof::Derived { premises, .. } => {
                1 + premises.iter().map(Proof::depth).max().unwrap_or(0)
            }
        }
    }

    /// Renders the tree with indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Proof::Fact { pred, tuple } => {
                out.push_str(&format!("{pad}{pred}{} [fact]\n", fmt_tuple(tuple)));
            }
            Proof::Derived {
                pred,
                tuple,
                rule,
                premises,
            } => {
                out.push_str(&format!("{pad}{pred}{} [via {rule}]\n", fmt_tuple(tuple)));
                for p in premises {
                    p.render_into(out, indent + 1);
                }
            }
        }
    }
}

fn fmt_tuple(tuple: &[Value]) -> String {
    let inner: Vec<String> = tuple.iter().map(ToString::to_string).collect();
    format!("({})", inner.join(","))
}

impl fmt::Display for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Explains `pred(tuple)` over a materialized `db`. Returns `None` when
/// the tuple is not present. Tuples present but derivable by no rule
/// instance are reported as facts.
pub fn explain(
    rules: &[Rule],
    db: &Database,
    builtins: &Builtins,
    pred: Symbol,
    tuple: &[Value],
) -> Option<Proof> {
    if !db.contains(pred, tuple) {
        return None;
    }
    let mut ctx = Explainer {
        rules,
        db,
        builtins,
        engine: Engine::new(rules, builtins),
        memo: HashMap::new(),
        in_progress: HashSet::new(),
    };
    Some(ctx.prove(pred, tuple))
}

struct Explainer<'a> {
    rules: &'a [Rule],
    db: &'a Database,
    builtins: &'a Builtins,
    /// Evaluates body items; one per `explain` call, not per proof node.
    engine: Engine<'a>,
    memo: HashMap<(Symbol, Tuple), Proof>,
    in_progress: HashSet<(Symbol, Tuple)>,
}

impl<'a> Explainer<'a> {
    fn prove(&mut self, pred: Symbol, tuple: &[Value]) -> Proof {
        let key = (pred, tuple.to_vec());
        if let Some(p) = self.memo.get(&key) {
            return p.clone();
        }
        // Cycle guard: while proving this tuple, treat re-occurrences as
        // facts (the well-founded derivation exists because the fixpoint
        // derived it; we just avoid infinite regress).
        if !self.in_progress.insert(key.clone()) {
            return Proof::Fact {
                pred,
                tuple: tuple.to_vec(),
            };
        }

        let proof = self.find_rule_instance(pred, tuple).unwrap_or(Proof::Fact {
            pred,
            tuple: tuple.to_vec(),
        });
        self.in_progress.remove(&key);
        self.memo.insert(key, proof.clone());
        proof
    }

    /// Finds some rule instance concluding `pred(tuple)` whose premises
    /// hold in the database: the first one the search meets.
    fn find_rule_instance(&mut self, pred: Symbol, tuple: &[Value]) -> Option<Proof> {
        for rule in self.rules {
            if rule.is_pattern() || rule.agg.is_some() {
                continue;
            }
            for head in &rule.heads {
                if head.pred.name() != Some(pred) || head.arity() != tuple.len() {
                    continue;
                }
                if rule.body.is_empty() {
                    // A fact-rule concluding exactly this tuple.
                    if head.is_ground() && Bindings::new().matches(head, tuple) {
                        return None; // it IS a base fact
                    }
                    continue;
                }
                // Bind the head against the tuple, then check the body.
                let mut premises = None;
                let searched =
                    (self.engine).for_each_proof(rule, head, tuple, self.db, &mut |witness| {
                        premises = self.premises_of(rule, witness);
                        Ok(match premises {
                            Some(_) => ControlFlow::Break(()),
                            None => ControlFlow::Continue(()),
                        })
                    });
                if let (Ok(_), Some(premises)) = (searched, premises) {
                    return Some(Proof::Derived {
                        pred,
                        tuple: tuple.to_vec(),
                        rule: rule.to_string(),
                        premises: premises.iter().map(|(p, t)| self.prove(*p, t)).collect(),
                    });
                }
            }
        }
        None
    }

    /// The premises of `rule` under `witness` — its positive, non-builtin
    /// literals — if each is a tuple of the database. One bound to code,
    /// or missing, cannot be reconstructed through this witness.
    fn premises_of(&self, rule: &Rule, witness: &Bindings) -> Option<Vec<(Symbol, Tuple)>> {
        let mut premises = Vec::new();
        for item in &rule.body {
            let BodyItem::Lit {
                negated: false,
                atom,
            } = item
            else {
                continue;
            };
            let Some(p) = atom.pred.name() else {
                continue;
            };
            if self.builtins.contains(p) {
                continue;
            }
            let premise: Tuple = (atom.all_args())
                .map(|t| witness.resolve(t))
                .collect::<Option<_>>()?;
            if !self.db.contains(p, &premise) {
                return None;
            }
            premises.push((p, premise));
        }
        Some(premises)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn setup(src: &str) -> (Vec<Rule>, Database, Builtins) {
        let program = parse_program(src).unwrap();
        let builtins = Builtins::new();
        let mut db = Database::new();
        Engine::new(&program.rules, &builtins).run(&mut db).unwrap();
        (program.rules, db, builtins)
    }

    fn t(parts: &[&str]) -> Tuple {
        parts.iter().map(|p| Value::sym(p)).collect()
    }

    #[test]
    fn base_fact_is_a_leaf() {
        let (rules, db, builtins) = setup("edge(a,b). reach(X,Y) <- edge(X,Y).");
        let proof = explain(
            &rules,
            &db,
            &builtins,
            Symbol::intern("edge"),
            &t(&["a", "b"]),
        )
        .expect("present");
        assert_eq!(
            proof,
            Proof::Fact {
                pred: Symbol::intern("edge"),
                tuple: t(&["a", "b"]),
            }
        );
    }

    #[test]
    fn one_step_derivation() {
        let (rules, db, builtins) = setup("edge(a,b). reach(X,Y) <- edge(X,Y).");
        let proof = explain(
            &rules,
            &db,
            &builtins,
            Symbol::intern("reach"),
            &t(&["a", "b"]),
        )
        .expect("present");
        match &proof {
            Proof::Derived { rule, premises, .. } => {
                assert!(rule.contains("reach(X,Y)"), "{rule}");
                assert_eq!(premises.len(), 1);
                assert_eq!(premises[0].conclusion().0, Symbol::intern("edge"));
            }
            other => panic!("expected derivation, got {other:?}"),
        }
        assert_eq!(proof.depth(), 2);
    }

    #[test]
    fn recursive_derivation_chain() {
        let (rules, db, builtins) = setup(
            "edge(a,b). edge(b,c). edge(c,d).\n\
             reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        );
        let proof = explain(
            &rules,
            &db,
            &builtins,
            Symbol::intern("reach"),
            &t(&["a", "d"]),
        )
        .expect("present");
        // a->d needs at least 3 levels: reach(a,d) <- reach(a,c) <- reach(a,b).
        assert!(
            proof.depth() >= 3,
            "depth {} too shallow:\n{proof}",
            proof.depth()
        );
        let rendered = proof.render();
        assert!(rendered.contains("reach(a,d)"), "{rendered}");
        assert!(rendered.contains("[fact]"), "{rendered}");
    }

    #[test]
    fn absent_tuple_unexplained() {
        let (rules, db, builtins) = setup("edge(a,b). reach(X,Y) <- edge(X,Y).");
        assert!(explain(
            &rules,
            &db,
            &builtins,
            Symbol::intern("reach"),
            &t(&["b", "a"])
        )
        .is_none());
    }

    #[test]
    fn cyclic_graph_terminates() {
        let (rules, db, builtins) = setup(
            "edge(a,b). edge(b,a).\n\
             reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).",
        );
        // reach(a,a) exists via the cycle; explanation must terminate.
        let proof = explain(
            &rules,
            &db,
            &builtins,
            Symbol::intern("reach"),
            &t(&["a", "a"]),
        )
        .expect("present");
        assert!(proof.depth() >= 2);
    }

    #[test]
    fn negation_premises_skipped_but_checked() {
        let (rules, db, builtins) = setup(
            "candidate(a). candidate(b). banned(b).\n\
             ok(X) <- candidate(X), !banned(X).",
        );
        let proof =
            explain(&rules, &db, &builtins, Symbol::intern("ok"), &t(&["a"])).expect("present");
        match proof {
            Proof::Derived { premises, .. } => {
                // Only the positive premise appears.
                assert_eq!(premises.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }
}

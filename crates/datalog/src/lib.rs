//! # lbtrust-datalog — the Datalog substrate of LBTrust
//!
//! This crate implements the language and evaluation machinery that the
//! LBTrust paper (CIDR 2009) obtains from the LogicBlox platform:
//!
//! * the **LBTrust Datalog dialect** — rules, facts, schema constraints
//!   (`F1 -> F2.`), partitioned atoms (`p[X](Y)`), quoted code terms
//!   (`[| ... |]`) with meta-variables and Kleene star, aggregation
//!   (`agg<<N = count(U)>>`), arithmetic and comparisons
//!   ([`lexer`], [`parser`], [`ast`]);
//! * **normalization** — DNF splitting of nested bodies ([`dnf`]) and
//!   range-restriction/safety checking ([`safety`]);
//! * **evaluation** — stratified semi-naive bottom-up fixpoint with
//!   incremental recomputation, plus a naive baseline ([`eval`],
//!   [`strata`], [`db`], [`shared`]);
//! * **meta-matching** — quote-pattern matching and template
//!   instantiation ([`unify`]), the mechanism behind LogicBlox
//!   meta-programming as used by LBTrust;
//! * **external builtins** — the registry through which the trust layer
//!   plugs in cryptographic predicates like `rsasign` ([`builtins`]);
//! * **provenance** — proof-tree reconstruction for derived tuples
//!   ([`provenance`]), the §7 extension the paper lists as in-progress.
//!
//! Higher layers live in their own crates: `lbtrust-metamodel` (the
//! Figure 1 meta-model, reflection, meta-constraints), `lbtrust`
//! (workspaces, `says`, delegation, distribution), and the case-study
//! crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builtins;
pub mod db;
pub mod dnf;
pub mod dred;
pub mod eval;
pub mod hex;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod provenance;
pub mod safety;
pub mod shared;
pub mod strata;
pub mod unify;
pub mod value;

pub use ast::{Atom, BodyItem, Constraint, Formula, Program, Rule, Term};
pub use builtins::Builtins;
pub use db::{Database, PositionIndex, Relation, Tuple};
pub use eval::{CompiledRules, Engine, EvalError, EvalStats};
pub use intern::Symbol;
pub use lexer::Span;
pub use parser::{parse_atom, parse_program, parse_quoted_rule, parse_rule, ParseError};
pub use shared::{SharedMap, SharedVec};
pub use unify::{Binding, Bindings};
pub use value::Value;

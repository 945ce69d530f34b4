//! The analyzer's pass families.
//!
//! Each pass consumes the shared [`crate::graph::ProgramGraph`] and
//! appends [`crate::diag::Diagnostic`]s:
//!
//! 1. [`deps`] — dependency-graph lints: dead rules, never-consumed and
//!    unreachable predicates, arity mismatches, typo suspects;
//! 2. [`authority`] — authority-flow: unauthenticated or unguarded
//!    premises on grant derivation paths;
//! 3. [`amplify`] — communication-amplification shapes.

pub mod amplify;
pub mod authority;
pub mod deps;

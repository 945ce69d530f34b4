//! # lbtrust-metamodel — meta-programming for LBTrust
//!
//! Implements §3.3 of the LBTrust paper (CIDR 2009): the meta-model of
//! Figure 1, reflection of installed rules into it, constraint and
//! **meta-constraint** checking, and code generation from derived
//! `active`/`rule` facts.
//!
//! The quote-pattern matching machinery itself lives in
//! `lbtrust_datalog::unify`; this crate supplies the schema, the
//! rule→facts translation, and the checking/generation drivers that the
//! `lbtrust` workspace layer composes into the staged evaluation loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod constraintcheck;
pub mod reflect;
pub mod schema;

pub use codegen::generated_rules;
pub use constraintcheck::{
    check_constraint, check_constraints, check_fail, CheckError, ConstraintSet, Scope, Violation,
};
pub use reflect::{reflect_into, reflect_rule};
pub use schema::{meta_model_schema, MetaPreds, META_MODEL_SCHEMA};

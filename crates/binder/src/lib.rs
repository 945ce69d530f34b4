//! # lbtrust-binder — the Binder case study (§5.1 of the paper)
//!
//! Binder (DeTreville, 2002) is "one of the simplest" logic-based trust
//! management languages: Datalog plus the `says` operator and
//! certificate-based cross-context import. This crate implements Binder
//! *on top of* LBTrust, exactly as the paper's case study does:
//!
//! * [`translate`] — `bob says p(X)` → `says(bob,me,[| p(X) |])`;
//! * [`certificate`] — a Binder certificate is a bundle of the
//!   runtime's own linked credentials (one per fact) under the issuer's
//!   batch signature; the runtime issues, verifies and files them, so a
//!   Binder certificate expires and is revoked like any other;
//! * [`context`] — multi-principal Binder deployments over the LBTrust
//!   system runtime, inheriting its reconfigurable authentication and
//!   its certificate store ([`BinderSystem::issue_certificate`],
//!   [`BinderSystem::import_certificate`]).
//!
//! ```
//! use lbtrust_binder::BinderSystem;
//!
//! let mut sys = BinderSystem::new(512); // small keys for doc-test speed
//! let alice = sys.add_context("alice", "n1").unwrap();
//! let bob = sys.add_context("bob", "n2").unwrap();
//! sys.load_binder(alice, "ok(X) :- bob says good(X).").unwrap();
//! sys.load_binder(bob, "good(X) :- vetted(X).").unwrap();
//! sys.assert(bob, "vetted(zoe).").unwrap();
//! sys.export_facts(bob, "good", 1, alice).unwrap();
//! sys.run(16).unwrap();
//! assert!(sys.holds(alice, "ok(zoe)").unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
pub mod context;
pub mod translate;

pub use certificate::Certificate;
pub use context::{BinderSysError, BinderSystem};
pub use translate::{binder_to_lbtrust, parse_binder, BinderError};

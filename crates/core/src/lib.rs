//! # lbtrust — Declarative Reconfigurable Trust Management
//!
//! A from-scratch reproduction of *LBTrust* (Marczak, Zook, Zhou, Aref,
//! Loo — CIDR 2009): a unified declarative system in which security
//! constructs — authentication (`says`), confidentiality, integrity,
//! delegation (speaks-for, restricted depth/width, thresholds) — are
//! expressed, customized and composed in the same Datalog dialect as the
//! policies themselves.
//!
//! ## Layering
//!
//! * [`workspace`] — the LogicBlox-style workspace (§3.1): active rules,
//!   staged meta-evaluation (§3.3 reflection + code generation), schema
//!   and meta-constraint enforcement with transactional rollback (§3.2).
//! * [`principal`], [`auth`] — principals, key material, and the
//!   **reconfigurable** authentication schemes of §4.1: Plaintext,
//!   HMAC-SHA1 and RSA, each a two-rule prelude (`exp1`/`exp3`).
//! * [`says`], [`delegation`], [`authz`], [`pull`] — the security
//!   construct preludes of §4 and §5.1, as LBTrust source.
//! * [`system`] — the multi-principal runtime (§3.5): placement (`loc`),
//!   export/import over a deterministic simulated network, and the
//!   distributed fixpoint — a sequencer over its principals, each of
//!   which is one self-contained value (workspace, certificate store,
//!   placement, counters).
//!
//! ## Quickstart
//!
//! ```
//! use lbtrust::{AuthScheme, System};
//!
//! let mut sys = System::new().with_rsa_bits(512); // 512 for doc-test speed
//! let alice = sys.add_principal("alice", "node1").unwrap();
//! let bob = sys.add_principal("bob", "node2").unwrap();
//!
//! // Alice tells bob who is good; bob's policy grants access on alice's
//! // word (Binder's b2, §2.2).
//! sys.workspace_mut(alice).unwrap()
//!     .load("policy", "says(me,bob,[| good(X). |]) <- vouched(X).").unwrap();
//! sys.workspace_mut(alice).unwrap().assert_src("vouched(carol).").unwrap();
//! sys.workspace_mut(bob).unwrap()
//!     .load("policy", "access(P,file1,read) <- says(alice,me,[| good(P) |]).").unwrap();
//!
//! sys.run_to_quiescence(16).unwrap();
//! assert!(sys.workspace(bob).unwrap().holds_src("access(carol,file1,read)").unwrap());
//!
//! // Reconfigure: swap RSA for HMAC — two rules change, no policy does.
//! sys.establish_shared_secret(alice, bob).unwrap();
//! sys.set_auth_scheme(alice, AuthScheme::HmacSha1).unwrap();
//! sys.set_auth_scheme(bob, AuthScheme::HmacSha1).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod authz;
pub mod authz_read;
pub mod delegation;
pub mod gossip;
mod node;
pub mod obs;
mod pool;
pub mod principal;
pub mod pull;
pub mod says;
pub mod system;
pub mod workspace;

pub use auth::{AuthScheme, KeyVerifier};
pub use authz_read::{AuthzReader, AuthzSnapshot};
pub use obs::QuiescePhase;
pub use principal::{KeyDirectory, Principal, SharedKeys};
pub use system::{
    AuthzDecision, DegradedError, LintError, RetryPolicy, StoreHealth, SyncPolicy, SysError,
    System, SystemStats,
};
pub use workspace::{RetractOutcome, Workspace, WsError};

// Re-export the substrate crates so downstream users need one dependency.
pub use lbtrust_analysis as analysis;
pub use lbtrust_certstore as certstore;
pub use lbtrust_crypto as crypto;
pub use lbtrust_datalog as datalog;
pub use lbtrust_metamodel as metamodel;
pub use lbtrust_net as net;

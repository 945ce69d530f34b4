//! # lbtrust-certstore — a linked-credential certificate store
//!
//! The LBTrust runtime imports signed rules from remote principals, but
//! the paper's model keeps every imported certificate implicitly and
//! forever. Deployed logical trust systems (SAFE-style certificate
//! linking and caching; GEM's goal-based revocation) need three more
//! things, which this crate supplies as a host-level subsystem every
//! import flows through:
//!
//! * **Content addressing + verification caching** ([`store`],
//!   [`verify`]) — certificates are keyed by the SHA-256 digest of
//!   their canonical wire bytes (`lbtrust-net::wire`), and a signature
//!   over identical bytes is checked once, then reused across
//!   principals and fixpoint rounds.
//! * **Linked credentials** ([`cert`]) — a certificate may reference
//!   supporting certificates by digest; links are resolved transitively
//!   at import and a broken link rejects the credential.
//! * **Freshness and revocation** ([`store`], [`revocation`]) —
//!   certificates carry TTL metadata against the store's logical clock,
//!   and issuers can withdraw them with signed revocation objects.
//!   Expiry and revocation emit [`store::RetractionEvent`]s that the
//!   runtime feeds to the DRed delete-and-rederive machinery
//!   (`lbtrust-datalog::dred`), so derived conclusions (`says`,
//!   `access`, …) are repaired incrementally instead of rebuilding the
//!   workspace.
//!
//! * **Durability and audit** ([`backend`], [`audit`]) — since PR 2,
//!   every mutation flows through a pluggable [`backend::StorageBackend`]
//!   as an append-only record: the in-memory backend reproduces the old
//!   ephemeral behaviour, while the segmented log backend makes stores
//!   survive restarts ([`CertStore::open`] replays the segment set,
//!   skipping signature re-verification by priming recorded outcomes
//!   into the shared cache, and filing each certificate under the
//!   content address its record carries). The log has a full lifecycle:
//!   size-triggered segment rotation under a CRC-framed manifest,
//!   [`CertStore::checkpoint`] bounding replay to checkpoint + suffix,
//!   and [`CertStore::compact`] reclaiming dead records while folding
//!   their audit entries into a durable audit segment. The audit trail
//!   records every lifecycle transition so conclusions can be traced to
//!   the credential that introduced them even after revocation — and
//!   after compaction.
//!
//! Nothing in this crate bounds memory: the verification memo and a
//! store's dead-certificate tombstones grow with history, as they have
//! in every configuration the system builds (the one bounded map is the
//! runtime's decision cache: at most 4,096 decisions per principal
//! snapshot).
//!
//! The crate deliberately sits *below* the runtime: it knows rules,
//! digests and signatures, but resolves keys through the
//! [`verify::SignatureVerifier`] trait the runtime implements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod backend;
pub mod cert;
pub mod digest;
pub mod revocation;
pub mod store;
pub mod verify;

pub use audit::{AuditAction, AuditEntry, AuditLog};
pub use backend::fault::{Fault, FaultConfig, FaultCounts, FaultHandle, FaultingBackend};
pub use backend::{
    CheckpointCert, CheckpointState, Footprint, LogRecord, StorageBackend, StorageError,
};
pub use cert::LinkedCert;
pub use digest::CertDigest;
pub use revocation::Revocation;
pub use store::{
    CertStatus, CertStore, CertStoreError, GroundHeads, ImportOutcome, MaintenanceReport,
    ReplayReport, RetractReason, RetractionEvent, RevokeOutcome, StoreStats,
};
pub use verify::{shared_verify_cache, SharedVerifyCache, SignatureVerifier, VerifyCache};

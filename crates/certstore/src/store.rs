//! The content-addressed certificate store.
//!
//! Since PR 2 the store is layered over a pluggable
//! [`StorageBackend`]: every mutation — verified import, verified
//! revocation, clock advance — is appended as a [`LogRecord`] *before*
//! the in-memory indexes change, and [`CertStore::open`] rebuilds the
//! entire store (entries, revocation set, logical clock, audit trail)
//! by replaying a durable log. Replay never re-runs signature checks:
//! a record's presence in the log is its recorded verification
//! outcome, which replay primes into the shared verification cache.

use crate::audit::{AuditAction, AuditEntry, AuditLog};
use crate::backend::log::LogBackend;
use crate::backend::memory::MemoryBackend;
use crate::backend::{
    CheckpointCert, CheckpointState, LogRecord, ReplayLog, StorageBackend, StorageError,
};
use crate::cert::LinkedCert;
use crate::digest::CertDigest;
use crate::revocation::Revocation;
use crate::verify::{shared_verify_cache, SharedVerifyCache, SignatureVerifier};
use lbtrust_datalog::ast::{PredRef, Rule, Term};
use lbtrust_datalog::{SharedMap, Symbol, Tuple};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// The ground-head index ([`CertStore::ground_heads`]): predicate → ground
/// head tuple → digests of the live bodyless certificates asserting it.
pub type GroundHeads = HashMap<Symbol, SharedMap<Tuple, Vec<CertDigest>>>;

/// Lifecycle state of a stored certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertStatus {
    /// Verified and live.
    Active,
    /// Past its TTL.
    Expired,
    /// Withdrawn by its issuer.
    Revoked,
    /// A certificate it links to (transitively) died.
    Broken,
}

impl fmt::Display for CertStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CertStatus::Active => "active",
            CertStatus::Expired => "expired",
            CertStatus::Revoked => "revoked",
            CertStatus::Broken => "broken",
        })
    }
}

/// Why a certificate stopped being live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetractReason {
    /// The TTL elapsed against the store's logical clock.
    Expired,
    /// A verified revocation arrived.
    Revoked,
    /// A supporting (linked) certificate died.
    LinkBroken,
}

/// Emitted when a live certificate dies. The runtime maps each event
/// back to the workspace facts the certificate introduced and feeds
/// them to DRed, so derived conclusions are deleted and re-derived
/// incrementally.
#[derive(Clone, Debug)]
pub struct RetractionEvent {
    /// Content address of the dead certificate.
    pub digest: CertDigest,
    /// Its issuer.
    pub issuer: Symbol,
    /// The certified rule whose imported facts must be retracted.
    pub rule: Arc<Rule>,
    /// Why the certificate died.
    pub reason: RetractReason,
}

/// Outcome of one import.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImportOutcome {
    /// Content address of the certificate.
    pub digest: CertDigest,
    /// Whether signature verification was answered from the cache.
    pub cache_hit: bool,
    /// Whether this import added a new entry (false: already stored).
    pub newly_added: bool,
}

/// Outcome of applying one revocation object.
#[derive(Clone, Debug)]
pub struct RevokeOutcome {
    /// Whether the store changed: the object was new (remembered,
    /// logged, audited) rather than a re-application. Duplicate
    /// deliveries — a duplicated wire packet, a gossip re-pull — come
    /// back with `applied: false` and must not be re-counted.
    pub applied: bool,
    /// Whether the signer holds authority over the target here: the
    /// certificate is unknown (a pre-arrival object, which will gate
    /// its import) or was issued by the signer. A tolerantly absorbed
    /// foreign object comes back `applied && !authoritative` — stored
    /// and re-servable, but it revoked nothing and must not count as a
    /// revocation.
    pub authoritative: bool,
    /// The workspace facts to retract (certificates whose lifecycle
    /// ended because of this object). Always empty when `!applied`.
    pub events: Vec<RetractionEvent>,
}

/// Store errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertStoreError {
    /// A signature failed verification.
    BadSignature(CertDigest),
    /// A link names a certificate the store does not hold.
    BrokenLink {
        /// The certificate whose link failed.
        cert: CertDigest,
        /// The missing or dead support.
        missing: CertDigest,
    },
    /// A link resolves to a non-live certificate.
    DeadLink {
        /// The certificate whose link failed.
        cert: CertDigest,
        /// The dead support and its state.
        link: CertDigest,
        /// The support's state.
        status: CertStatus,
    },
    /// The certificate was revoked (possibly before it arrived).
    Revoked(CertDigest),
    /// The certificate is already stored but no longer live.
    NotLive(CertDigest, CertStatus),
    /// A revocation failed verification.
    BadRevocation(CertDigest),
    /// A revocation's issuer does not match the certificate's.
    IssuerMismatch {
        /// The revocation target.
        cert: CertDigest,
        /// Who actually issued the certificate.
        cert_issuer: Symbol,
        /// Who tried to revoke it.
        revoker: Symbol,
    },
    /// The storage backend failed; the in-memory state is unchanged.
    Storage(StorageError),
}

impl fmt::Display for CertStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertStoreError::BadSignature(d) => {
                write!(f, "certificate {} failed signature verification", d.short())
            }
            CertStoreError::BrokenLink { cert, missing } => write!(
                f,
                "certificate {} links to unknown certificate {}",
                cert.short(),
                missing.short()
            ),
            CertStoreError::DeadLink { cert, link, status } => write!(
                f,
                "certificate {} links to {} certificate {}",
                cert.short(),
                status,
                link.short()
            ),
            CertStoreError::Revoked(d) => write!(f, "certificate {} is revoked", d.short()),
            CertStoreError::NotLive(d, s) => {
                write!(f, "certificate {} is {s}, not active", d.short())
            }
            CertStoreError::BadRevocation(d) => {
                write!(
                    f,
                    "revocation of {} failed signature verification",
                    d.short()
                )
            }
            CertStoreError::IssuerMismatch {
                cert,
                cert_issuer,
                revoker,
            } => write!(
                f,
                "revocation of {} by {revoker}, but it was issued by {cert_issuer}",
                cert.short()
            ),
            CertStoreError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CertStoreError {}

impl From<StorageError> for CertStoreError {
    fn from(e: StorageError) -> Self {
        CertStoreError::Storage(e)
    }
}

/// Counters for the harness and benches: the store's only record of
/// them. A runtime keeping a metrics registry sums them over its stores
/// into `store.*` when the registry is read.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Certificates added.
    pub imports: u64,
    /// Imports of already-stored certificates (served from the store).
    pub reimports: u64,
    /// Verified revocations applied.
    pub revocations: u64,
    /// Certificates expired by the clock.
    pub expirations: u64,
    /// Certificates broken by a dead link (cascade).
    pub link_breaks: u64,
    /// Records rebuilt from the backend at open time.
    pub replayed: u64,
    /// Backend syncs actually performed ([`CertStore::sync`] on a
    /// clean store is a no-op and does not count). For the log backend
    /// each one is a flush + fsync, so this counter is what the
    /// group-commit durability policy drives down.
    pub syncs: u64,
    /// Record segments the backend currently holds on disk (1 for an
    /// unrotated log, 0 for the memory backend).
    pub segments: u64,
    /// Estimated bytes of *live* records: the active certificates and
    /// remembered revocations a compaction would keep. Maintained
    /// incrementally, so it is an estimate, not an fstat.
    pub live_bytes: u64,
    /// Bytes of dead (compactable) records: the backend's on-disk
    /// record bytes minus [`StoreStats::live_bytes`]. What the
    /// compactor exists to reclaim.
    pub dead_bytes: u64,
    /// Compactions performed ([`CertStore::compact`]: checkpoint +
    /// prune of superseded segments).
    pub compactions: u64,
    /// Checkpoints installed without pruning ([`CertStore::checkpoint`]).
    pub checkpoints: u64,
    /// Records whose state was restored from a checkpoint at open time
    /// instead of raw log replay (active certificates + remembered
    /// revocations inside the checkpoint).
    pub replayed_from_checkpoint: u64,
}

/// What [`CertStore::open`] recovered from its backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayReport {
    /// Valid records replayed (for a checkpointed log: the checkpoint
    /// record plus the suffix after it — independent of how much
    /// history the checkpoint superseded).
    pub records: usize,
    /// Bytes of log covered by valid records.
    pub bytes: u64,
    /// Whether a torn/corrupt tail followed the last valid record (it
    /// was discarded and physically truncated).
    pub truncated_tail: bool,
    /// Whether replay was anchored at a checkpoint rather than the
    /// start of history.
    pub from_checkpoint: bool,
    /// Audit entries restored from the durable audit segment (history
    /// folded away by compaction).
    pub audit_restored: usize,
}

/// What one [`CertStore::compact`] / [`CertStore::checkpoint`] call
/// did to the backend's footprint.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaintenanceReport {
    /// Whether the backend installed anything (the memory backend never
    /// does — its in-memory store *is* the state).
    pub performed: bool,
    /// Record segments before the call.
    pub segments_before: u64,
    /// Record segments after the call.
    pub segments_after: u64,
    /// On-disk record bytes before the call.
    pub bytes_before: u64,
    /// On-disk record bytes after the call.
    pub bytes_after: u64,
}

/// One stored certificate with lifecycle metadata.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The certificate.
    pub cert: LinkedCert,
    /// Current lifecycle state.
    pub status: CertStatus,
    /// Logical time of import.
    pub imported_at: u64,
    /// Logical expiry deadline (from TTL), if any.
    pub expires_at: Option<u64>,
}

/// A content-addressed store of verified, linked, revocable
/// certificates over a logical clock, durably backed by a
/// [`StorageBackend`].
pub struct CertStore {
    entries: HashMap<CertDigest, Entry>,
    /// Insertion order, for deterministic iteration.
    order: Vec<CertDigest>,
    /// Reverse link index: support -> certificates citing it.
    dependents: HashMap<CertDigest, Vec<CertDigest>>,
    /// Who has issued a verified revocation for each digest — mapped to
    /// the signature bytes so the store can *serve* its revocation
    /// objects to anti-entropy peers — including revocations that
    /// arrived before their certificate (a later import is rejected iff
    /// the certificate's own issuer is among the revokers — another
    /// principal's self-signed revocation object carries no authority
    /// and must not mask the real issuer's). Outlives the certificate's
    /// entry across a compacted reopen, so revoked stays revoked. An
    /// empty signature marks an object restored from a pre-signature
    /// checkpoint: it still blocks imports but cannot be re-served.
    revoked: HashMap<CertDigest, HashMap<Symbol, Vec<u8>>>,
    /// Maintained XOR fold, per signer, of the re-servable (non-empty
    /// signature) objects in `revoked` — kept current by
    /// `apply_revoke`/checkpoint restore, so the per-step anti-entropy
    /// summary is O(signers), not a rescan of every object.
    fp_cache: HashMap<Symbol, lbtrust_net::WireDigest>,
    /// The same objects indexed by signer (sorted targets), so serving
    /// one signer's pull is O(that signer's objects), not a walk of
    /// every target's signer map. Maintained in lockstep with
    /// `fp_cache`.
    by_signer: HashMap<Symbol, std::collections::BTreeSet<CertDigest>>,
    clock: u64,
    cache: SharedVerifyCache,
    stats: StoreStats,
    /// The durability substrate; every mutation appends here first.
    backend: Box<dyn StorageBackend>,
    /// The append-only lifecycle trail.
    audit: AuditLog,
    /// Min-heap of `(deadline, digest)` so clock advances touch only
    /// certificates actually due, not every entry.
    expiry: BinaryHeap<Reverse<(u64, CertDigest)>>,
    /// Number of live certificates.
    active_len: usize,
    /// Maintained ground-head index over *active* certificates:
    /// predicate → ground head tuple → digests of the live bodyless
    /// certificates asserting that fact. Kept in [`CertStore::file`] and
    /// [`CertStore::kill`] so authorization citation never rebuilds it
    /// per query, and in [`SharedMap`]s so a published snapshot shares it:
    /// filing or unfiling a certificate while a snapshot holds the index
    /// copies one shard, not the map.
    ground_heads: GroundHeads,
    /// Monotone active-set version: bumped on every mutation of the
    /// live certificate set (import, revocation death, expiry, link
    /// break, checkpoint restore) and *not* on inert bookkeeping
    /// (pre-arrival revocation memory, foreign objects), so a cached
    /// read keyed on it stays valid exactly as long as the facts it
    /// rests on.
    version: u64,
    replay_report: ReplayReport,
    /// Whether records were appended since the last [`CertStore::sync`].
    /// Lets group-commit callers sync many stores cheaply: a clean
    /// store's sync is a no-op, not an fsync.
    dirty: bool,
    /// Estimated bytes of live records (what a compaction keeps):
    /// incremented when a certificate lands or a revocation is
    /// recorded, decremented when a certificate dies.
    live_bytes: u64,
    /// Audit entries already folded into the backend's durable audit
    /// segment; the suffix past this marker rides the next checkpoint.
    audit_persisted: usize,
}

/// Encoded size of a certificate record, mirroring
/// [`crate::backend::encode_record`] byte-for-byte without building the
/// encoding: the rule render is measured through a counting
/// `fmt::Write`, every other field's length is arithmetic. Runs on the
/// import/revoke/expiry hot paths, so no allocation; pinned against the
/// real encoder by a unit test.
fn cert_record_bytes(cert: &LinkedCert) -> u64 {
    use std::fmt::Write;
    struct Count(usize);
    impl Write for Count {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut rule = Count(0);
    let _ = write!(rule, "{}", cert.rule);
    let links = if cert.links.is_empty() {
        0
    } else {
        cert.links.len() * 64 + (cert.links.len() - 1)
    };
    let ttl = match cert.ttl {
        Some(t) => "ttl:\n".len() + decimal_digits(t),
        None => "ttl:none\n".len(),
    };
    // The raw content address, then the wire bytes.
    let payload = 32
        + "lbtrust-cert:v1\n".len()
        + "issuer:\n".len()
        + cert.issuer.as_str().len()
        + "rule:\n".len()
        + rule.0
        + "links:\n".len()
        + links
        + ttl
        + "sig:\n".len()
        + 2 * cert.signature.len();
    (lbtrust_net::FRAME_OVERHEAD + 1 + payload) as u64
}

/// Digits in the decimal rendering of `n`.
fn decimal_digits(mut n: u64) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Encoded size of a revocation record (`sig_len` in raw bytes).
fn revoke_record_bytes(issuer: Symbol, sig_len: usize) -> u64 {
    let payload = "lbtrust-revokerec:v1\n".len()
        + "issuer:\n".len()
        + issuer.as_str().len()
        + "target:\n".len()
        + 64
        + "sig:\n".len()
        + 2 * sig_len;
    (lbtrust_net::FRAME_OVERHEAD + 1 + payload) as u64
}

/// The `(predicate, tuple)` facts a certified rule asserts outright:
/// every ground head of a bodyless rule. Rules with bodies derive
/// rather than assert, and non-ground heads materialize per-binding —
/// both are cited through `says` premises instead, so neither is
/// indexed.
fn asserted_ground_heads(rule: &Rule) -> impl Iterator<Item = (Symbol, Tuple)> + '_ {
    let heads = if rule.body.is_empty() {
        rule.heads.as_slice()
    } else {
        &[]
    };
    heads.iter().filter_map(|head| {
        let PredRef::Name(pred) = head.pred else {
            return None;
        };
        let ground: Option<Tuple> = head
            .args
            .iter()
            .map(|t| match t {
                Term::Val(v) => Some(v.clone()),
                _ => None,
            })
            .collect();
        Some((pred, ground?))
    })
}

/// Nominal revocation-record size used when the signature is no longer
/// on hand (checkpoint restore keeps `(issuer, target)` only).
const REVOKE_RECORD_NOMINAL: u64 = 384;

impl CertStore {
    /// An empty in-memory store with a private verification cache.
    pub fn new() -> CertStore {
        CertStore::with_cache(shared_verify_cache())
    }

    /// An empty in-memory store sharing `cache` with other
    /// stores/components, so a signature checked anywhere is checked
    /// nowhere else again.
    pub fn with_cache(cache: SharedVerifyCache) -> CertStore {
        CertStore::with_backend(Box::new(MemoryBackend::new()), cache)
    }

    /// An empty store over an explicit backend (no replay; see
    /// [`CertStore::open_backend`] to recover existing state).
    pub fn with_backend(backend: Box<dyn StorageBackend>, cache: SharedVerifyCache) -> CertStore {
        CertStore {
            entries: HashMap::new(),
            order: Vec::new(),
            dependents: HashMap::new(),
            revoked: HashMap::new(),
            fp_cache: HashMap::new(),
            by_signer: HashMap::new(),
            clock: 0,
            cache,
            stats: StoreStats::default(),
            backend,
            audit: AuditLog::new(),
            expiry: BinaryHeap::new(),
            active_len: 0,
            ground_heads: GroundHeads::new(),
            version: 0,
            replay_report: ReplayReport::default(),
            dirty: false,
            live_bytes: 0,
            audit_persisted: 0,
        }
    }

    /// Opens (creating if absent) a durable store over the segment log
    /// at `path`, replaying its records: active/revoked/expired state,
    /// the logical clock, and the audit trail are rebuilt
    /// deterministically, and every recorded verification outcome is
    /// primed into `cache` so nothing is re-verified. When the log
    /// holds a checkpoint, replay starts there — checkpoint + suffix,
    /// not full history.
    pub fn open(
        path: impl AsRef<Path>,
        cache: SharedVerifyCache,
    ) -> Result<CertStore, CertStoreError> {
        CertStore::open_backend(Box::new(LogBackend::open(path)?), cache)
    }

    /// [`CertStore::open`] with an explicit segment-rotation budget in
    /// bytes (the default is
    /// [`crate::backend::log::DEFAULT_ROTATE_BYTES`]).
    pub fn open_with_budget(
        path: impl AsRef<Path>,
        cache: SharedVerifyCache,
        rotate_bytes: u64,
    ) -> Result<CertStore, CertStoreError> {
        CertStore::open_backend(
            Box::new(LogBackend::open_with_budget(path, rotate_bytes)?),
            cache,
        )
    }

    /// Opens a store over any backend, replaying whatever it holds.
    pub fn open_backend(
        mut backend: Box<dyn StorageBackend>,
        cache: SharedVerifyCache,
    ) -> Result<CertStore, CertStoreError> {
        let log = backend.replay()?;
        let mut store = CertStore::with_backend(backend, cache);
        store.apply_replay(log);
        Ok(store)
    }

    /// The store's logical time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// The shared verification cache.
    pub fn cache(&self) -> &SharedVerifyCache {
        &self.cache
    }

    /// Counters (footprint counters read from the backend).
    pub fn stats(&self) -> StoreStats {
        let mut s = self.stats;
        let fp = self.backend.footprint();
        s.segments = fp.segments;
        s.live_bytes = self.live_bytes;
        s.dead_bytes = fp.bytes.saturating_sub(self.live_bytes);
        s
    }

    /// Bytes of dead (compactable) records on the backend's medium —
    /// the compaction trigger.
    pub fn dead_bytes(&self) -> u64 {
        self.backend
            .footprint()
            .bytes
            .saturating_sub(self.live_bytes)
    }

    /// Installs a checkpoint — the serialized materialized state (live
    /// certificates, remembered revocations, the logical clock) — as
    /// the new replay anchor, and folds the audit-trail suffix into the
    /// durable audit segment. Reopening afterwards replays checkpoint +
    /// log suffix instead of full history. Superseded segments stay on
    /// disk; see [`CertStore::compact`] to reclaim them.
    pub fn checkpoint(&mut self) -> Result<MaintenanceReport, CertStoreError> {
        self.run_maintenance(false)
    }

    /// Compacts the log: installs a checkpoint (see
    /// [`CertStore::checkpoint`]) and prunes every superseded segment,
    /// reclaiming the disk held by dead records — revoked and expired
    /// certificates, superseded clock ticks. What compaction forgets:
    /// dead non-revoked certificates lose their in-memory tombstone on
    /// the *next* reopen, while revocations keep blocking re-imports
    /// forever and the folded audit segment keeps every lifecycle entry
    /// citable.
    pub fn compact(&mut self) -> Result<MaintenanceReport, CertStoreError> {
        self.run_maintenance(true)
    }

    fn run_maintenance(&mut self, prune: bool) -> Result<MaintenanceReport, CertStoreError> {
        let before = self.backend.footprint();
        let state = self.checkpoint_state();
        let suffix: Vec<AuditEntry> = self.audit.entries()[self.audit_persisted..].to_vec();
        let record = LogRecord::Checkpoint(Box::new(state));
        let performed = self.backend.install_checkpoint(&record, &suffix, prune)?;
        if performed {
            self.audit_persisted = self.audit.len();
            // The checkpoint durably captures everything appended so
            // far, buffered or not.
            self.dirty = false;
            if prune {
                self.stats.compactions += 1;
                // Everything a pruned log holds is the checkpoint —
                // live by definition. Re-anchor the estimate (the
                // checkpoint encodes revocations denser than their raw
                // records, so the incremental estimate drifts high).
                self.live_bytes = self.backend.footprint().bytes;
            } else {
                self.stats.checkpoints += 1;
            }
        }
        let after = self.backend.footprint();
        Ok(MaintenanceReport {
            performed,
            segments_before: before.segments,
            segments_after: after.segments,
            bytes_before: before.bytes,
            bytes_after: after.bytes,
        })
    }

    /// The materialized state a checkpoint serializes: live
    /// certificates in insertion order plus every remembered
    /// revocation, deterministically ordered.
    fn checkpoint_state(&self) -> CheckpointState {
        let active = self
            .active()
            .iter()
            .map(|d| {
                let e = self.entries.get(d).expect("active digest is stored");
                CheckpointCert {
                    digest: *d,
                    cert: e.cert.clone(),
                    imported_at: e.imported_at,
                    expires_at: e.expires_at,
                }
            })
            .collect();
        let mut revoked: Vec<(Symbol, CertDigest, Vec<u8>)> = self
            .revoked
            .iter()
            .flat_map(|(target, issuers)| {
                issuers
                    .iter()
                    .map(move |(i, sig)| (*i, *target, sig.clone()))
            })
            .collect();
        revoked.sort_by(|a, b| (a.1, a.0.as_str()).cmp(&(b.1, b.0.as_str())));
        CheckpointState {
            clock: self.clock,
            active,
            revoked,
        }
    }

    /// The append-only lifecycle trail: every import, revocation,
    /// expiry and link break this store (or the log it was reopened
    /// from) ever witnessed.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// What replay recovered when this store was opened (zeros for a
    /// fresh or in-memory store).
    pub fn replay_report(&self) -> ReplayReport {
        self.replay_report
    }

    /// Where this store's records live ("memory" or the segment path).
    pub fn backend_describe(&self) -> String {
        self.backend.describe()
    }

    /// Flushes buffered appends to the backend's medium. A no-op on a
    /// clean store (nothing appended since the last sync), so callers
    /// running a group commit can sweep every store and pay an fsync
    /// only where one is due.
    pub fn sync(&mut self) -> Result<(), CertStoreError> {
        if !self.dirty {
            return Ok(());
        }
        self.backend.sync()?;
        self.dirty = false;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Whether records were appended since the last [`CertStore::sync`]
    /// — i.e. whether in-memory state is ahead of the durable medium.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Number of stored certificates (any status).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no certificates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a certificate entry by content address.
    pub fn get(&self, digest: &CertDigest) -> Option<&Entry> {
        self.entries.get(digest)
    }

    /// A certificate's lifecycle state, if stored.
    pub fn status(&self, digest: &CertDigest) -> Option<CertStatus> {
        self.entries.get(digest).map(|e| e.status)
    }

    /// Digests of live certificates in insertion order: a pass over every
    /// certificate this store has held, for the callers that want the list
    /// — replay reconciliation at open, checkpoints, tests.
    pub fn active(&self) -> Vec<CertDigest> {
        let live = |d: &&CertDigest| self.status(d) == Some(CertStatus::Active);
        self.order.iter().filter(live).copied().collect()
    }

    /// Number of live certificates, O(1).
    pub fn active_len(&self) -> usize {
        self.active_len
    }

    /// The store's active-set version: a monotone counter bumped on
    /// every mutation of the live certificate set (import, revocation,
    /// expiry, link break, checkpoint restore) and on nothing else.
    /// Two reads of the same store at the same version saw the same
    /// live set, so decisions keyed on it can be reused safely.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The maintained ground-head index: predicate → ground head tuple
    /// → digests of the *live* bodyless certificates asserting that
    /// fact. Maintained at every lifecycle transition, so citation
    /// lookups ("which credential asserted this fact?") are a hash probe,
    /// never a store rescan. A clone shares the index as of now, a
    /// pointer per shard; the store's next change to it copies the shard
    /// it touches and leaves that clone as it was.
    pub fn ground_heads(&self) -> &GroundHeads {
        &self.ground_heads
    }

    /// Files a live certificate in the ground-head index under its
    /// content address: every ground head of a bodyless rule.
    fn index_citations(&mut self, digest: CertDigest, rule: &Rule) {
        for (pred, tuple) in asserted_ground_heads(rule) {
            let by_tuple = self.ground_heads.entry(pred).or_default();
            by_tuple.upsert(tuple, || vec![digest], |digests| digests.push(digest));
        }
    }

    /// Reverses [`CertStore::index_citations`] when a certificate leaves
    /// the active set, pruning emptied slots so the index tracks the
    /// live set's size, not history.
    fn unindex_citations(&mut self, digest: CertDigest, rule: &Rule) {
        for (pred, tuple) in asserted_ground_heads(rule) {
            let Some(by_tuple) = self.ground_heads.get_mut(&pred) else {
                continue;
            };
            if let Some(digests) = by_tuple.get_mut(&tuple) {
                digests.retain(|d| *d != digest);
                if digests.is_empty() {
                    by_tuple.remove(&tuple);
                }
            }
            if by_tuple.is_empty() {
                self.ground_heads.remove(&pred);
            }
        }
    }

    /// The store's anti-entropy revocation summary: for every signer
    /// with at least one remembered, re-servable revocation object, the
    /// XOR fold of the revoked target digests, sorted by signer name.
    /// XOR is order-independent and incremental — the fold is
    /// maintained as objects land, so this is O(signers) — and two
    /// stores holding the same object set fingerprint identically
    /// regardless of arrival order; distinct sets collide with
    /// SHA-256-collision probability. Objects restored without their
    /// signature (a pre-signature checkpoint) are excluded — they
    /// cannot be served to a pulling peer, so advertising them would
    /// gossip forever without converging.
    pub fn revocation_fingerprints(&self) -> Vec<(Symbol, lbtrust_net::WireDigest)> {
        let mut out: Vec<(Symbol, lbtrust_net::WireDigest)> =
            self.fp_cache.iter().map(|(s, fp)| (*s, *fp)).collect();
        out.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        out
    }

    /// Records a newly re-servable `(signer, target)` object in the
    /// maintained summary structures: XOR-folds the target into the
    /// signer's fingerprint and files it in the per-signer serve index.
    fn index_servable(&mut self, signer: Symbol, target: CertDigest) {
        let fp = self.fp_cache.entry(signer).or_default();
        for (acc, byte) in fp.iter_mut().zip(target.as_bytes()) {
            *acc ^= byte;
        }
        self.by_signer.entry(signer).or_default().insert(target);
    }

    /// Every remembered revocation object signed by `signer`, sorted by
    /// target digest — what this store serves when an anti-entropy peer
    /// pulls `signer`'s revocations. Objects whose signature did not
    /// survive (pre-signature checkpoints) are skipped; they still
    /// block local imports but cannot be relayed. Answered from the
    /// maintained per-signer index: O(that signer's objects).
    pub fn revocations_by(&self, signer: Symbol) -> Vec<Revocation> {
        let Some(targets) = self.by_signer.get(&signer) else {
            return Vec::new();
        };
        targets
            .iter()
            .map(|target| {
                let signature = self
                    .revoked
                    .get(target)
                    .and_then(|signers| signers.get(&signer))
                    .expect("by_signer indexes only objects present in revoked");
                Revocation {
                    issuer: signer,
                    target: *target,
                    signature: signature.clone(),
                }
            })
            .collect()
    }

    /// Imports one certificate: resolves its links against the store,
    /// verifies its signature through the shared cache, appends the
    /// record to the backend, and files it under its content address.
    /// Re-importing an already-stored live certificate is answered from
    /// the store and cache without a fresh signature check or a new log
    /// record — the caching fast path.
    pub fn insert(
        &mut self,
        cert: LinkedCert,
        verifier: &dyn SignatureVerifier,
    ) -> Result<ImportOutcome, CertStoreError> {
        let digest = cert.digest();
        // A pre-arrival revocation blocks import only when its signer
        // is the certificate's own issuer — anybody can sign a
        // revocation *object* for any digest, but only the issuer's
        // carries authority over this certificate.
        if self
            .revoked
            .get(&digest)
            .is_some_and(|revokers| revokers.contains_key(&cert.issuer))
        {
            return Err(CertStoreError::Revoked(digest));
        }
        if let Some(entry) = self.entries.get(&digest) {
            return match entry.status {
                CertStatus::Active => {
                    // The content address proves these are byte-for-byte
                    // the certificate whose signature was verified at
                    // first import — no re-verification needed.
                    self.stats.reimports += 1;
                    Ok(ImportOutcome {
                        digest,
                        cache_hit: true,
                        newly_added: false,
                    })
                }
                status => Err(CertStoreError::NotLive(digest, status)),
            };
        }
        self.check_links(digest, &cert.links)?;
        let (ok, hit) = self.cache.lock().unwrap_or_else(|e| e.into_inner()).check(
            verifier,
            cert.issuer,
            &cert.signing_bytes(),
            &cert.signature,
        );
        if !ok {
            return Err(CertStoreError::BadSignature(digest));
        }
        // Durability first: the record reaches the backend before the
        // in-memory state changes, so an append failure leaves the
        // store consistent.
        let record = LogRecord::Cert { digest, cert };
        self.backend.append(&record)?;
        self.dirty = true;
        let LogRecord::Cert { cert, .. } = record else {
            unreachable!("constructed above")
        };
        self.apply_insert(digest, cert);
        Ok(ImportOutcome {
            digest,
            cache_hit: hit,
            newly_added: true,
        })
    }

    /// Transitive link resolution: every cited support must be held
    /// and live. (Supports themselves were link-checked when they were
    /// imported, so one level of checking here is transitive in
    /// effect.)
    fn check_links(&self, digest: CertDigest, links: &[CertDigest]) -> Result<(), CertStoreError> {
        for link in links {
            match self.entries.get(link) {
                None => {
                    return Err(CertStoreError::BrokenLink {
                        cert: digest,
                        missing: *link,
                    })
                }
                Some(e) if e.status != CertStatus::Active => {
                    return Err(CertStoreError::DeadLink {
                        cert: digest,
                        link: *link,
                        status: e.status,
                    })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Lands a verified (or replayed-as-verified) certificate at the
    /// current logical time, under the content address `digest` its
    /// caller already computed.
    fn apply_insert(&mut self, digest: CertDigest, cert: LinkedCert) {
        self.audit.record(
            digest,
            cert.issuer,
            AuditAction::Imported,
            self.clock,
            Some(cert.rule.clone()),
        );
        self.version += 1;
        self.stats.imports += 1;
        let expires_at = cert.ttl.map(|t| self.clock.saturating_add(t));
        self.file(digest, cert, self.clock, expires_at);
    }

    /// Files a live certificate in every index — the one place an
    /// [`Entry`] is built. A landing import stamps it with the clock and
    /// a deadline from its TTL; a checkpoint restore passes the import
    /// time and deadline the checkpoint recorded.
    fn file(
        &mut self,
        digest: CertDigest,
        cert: LinkedCert,
        imported_at: u64,
        expires_at: Option<u64>,
    ) {
        self.live_bytes += cert_record_bytes(&cert);
        for link in &cert.links {
            self.dependents.entry(*link).or_default().push(digest);
        }
        if let Some(deadline) = expires_at {
            self.expiry.push(Reverse((deadline, digest)));
        }
        self.index_citations(digest, &cert.rule);
        self.entries.insert(
            digest,
            Entry {
                cert,
                status: CertStatus::Active,
                imported_at,
                expires_at,
            },
        );
        self.order.push(digest);
        self.active_len += 1;
    }

    /// Ends a live certificate's life — the one place a stored
    /// certificate's status leaves [`CertStatus::Active`], so
    /// revocation, clock advance and link cascade cannot drift apart:
    /// status, reclaimed bytes, counters, citation indexes, version,
    /// trail. Returns the retraction event, or `None` when no
    /// live certificate is filed under `digest`: a revocation may
    /// arrive before its certificate, a revoked certificate's deadline
    /// still sits in the expiry heap, and a dependent citing two
    /// supports breaks with the first.
    fn kill(&mut self, digest: CertDigest, reason: RetractReason) -> Option<RetractionEvent> {
        let entry = self
            .entries
            .get_mut(&digest)
            .filter(|e| e.status == CertStatus::Active)?;
        let (status, action, total) = match reason {
            RetractReason::Revoked => (
                CertStatus::Revoked,
                AuditAction::Revoked,
                &mut self.stats.revocations,
            ),
            RetractReason::Expired => (
                CertStatus::Expired,
                AuditAction::Expired,
                &mut self.stats.expirations,
            ),
            RetractReason::LinkBroken => (
                CertStatus::Broken,
                AuditAction::LinkBroken,
                &mut self.stats.link_breaks,
            ),
        };
        entry.status = status;
        *total += 1;
        let event = RetractionEvent {
            digest,
            issuer: entry.cert.issuer,
            rule: entry.cert.rule.clone(),
            reason,
        };
        self.live_bytes = self
            .live_bytes
            .saturating_sub(cert_record_bytes(&entry.cert));
        self.active_len -= 1;
        self.unindex_citations(digest, &event.rule);
        self.version += 1;
        self.audit
            .record(digest, event.issuer, action, self.clock, None);
        Some(event)
    }

    /// Imports a batch whose members may link to each other: passes are
    /// repeated so supports land before dependents regardless of input
    /// order. Returns outcomes in the original order.
    pub fn import_bundle(
        &mut self,
        certs: Vec<LinkedCert>,
        verifier: &dyn SignatureVerifier,
    ) -> Result<Vec<ImportOutcome>, CertStoreError> {
        let mut pending: Vec<(usize, LinkedCert)> = certs.into_iter().enumerate().collect();
        let mut outcomes: Vec<(usize, ImportOutcome)> = Vec::with_capacity(pending.len());
        loop {
            let mut progressed = false;
            let mut still_pending = Vec::new();
            for (idx, cert) in pending {
                // A certificate whose support has not landed yet is
                // deferred to the next pass without paying for a clone
                // or a digest; insert() re-checks liveness anyway.
                let unresolved = cert.links.iter().any(|l| !self.entries.contains_key(l));
                if unresolved {
                    still_pending.push((idx, cert));
                    continue;
                }
                outcomes.push((idx, self.insert(cert, verifier)?));
                progressed = true;
            }
            pending = still_pending;
            if pending.is_empty() {
                outcomes.sort_by_key(|(idx, _)| *idx);
                return Ok(outcomes.into_iter().map(|(_, o)| o).collect());
            }
            if !progressed {
                // No pass can make progress: report the first member
                // whose support is missing from store and bundle alike.
                let (_, cert) = &pending[0];
                let missing = *cert
                    .links
                    .iter()
                    .find(|l| !self.entries.contains_key(l))
                    .expect("unresolved implies a missing support");
                return Err(CertStoreError::BrokenLink {
                    cert: cert.digest(),
                    missing,
                });
            }
        }
    }

    /// Applies a signed revocation. Verified revocations of unknown
    /// certificates are remembered and block their later import.
    /// Revocation is idempotent: re-revoking yields no new events and
    /// no new log record. (Compatibility wrapper over
    /// [`CertStore::revoke_with_outcome`].)
    pub fn revoke(
        &mut self,
        revocation: &Revocation,
        verifier: &dyn SignatureVerifier,
    ) -> Result<Vec<RetractionEvent>, CertStoreError> {
        self.revoke_with_outcome(revocation, verifier)
            .map(|o| o.events)
    }

    /// [`CertStore::revoke`], reporting whether the store actually
    /// changed — callers maintaining counters use `applied` to stay
    /// idempotent under duplicated deliveries.
    pub fn revoke_with_outcome(
        &mut self,
        revocation: &Revocation,
        verifier: &dyn SignatureVerifier,
    ) -> Result<RevokeOutcome, CertStoreError> {
        // Authority before authenticity: both are hard errors, and the
        // delegated absorb path verifies the signature (through the
        // shared cache) exactly once.
        if let Some(entry) = self.entries.get(&revocation.target) {
            if entry.cert.issuer != revocation.issuer {
                return Err(CertStoreError::IssuerMismatch {
                    cert: revocation.target,
                    cert_issuer: entry.cert.issuer,
                    revoker: revocation.issuer,
                });
            }
        }
        self.absorb_revocation(revocation, verifier)
    }

    /// Applies a revocation object tolerantly — the anti-entropy repair
    /// path. Where [`CertStore::revoke`] rejects an object whose signer
    /// is not the target certificate's issuer, this remembers it as
    /// inert (no lifecycle change, no import gate — only the
    /// certificate's own issuer ever gets either), so gossiping peers
    /// converge on the full set of signed revocation objects regardless
    /// of which certificates each store happens to hold. Bad signatures
    /// are still rejected, and re-absorption is a no-op.
    pub fn absorb_revocation(
        &mut self,
        revocation: &Revocation,
        verifier: &dyn SignatureVerifier,
    ) -> Result<RevokeOutcome, CertStoreError> {
        let target = revocation.target;
        {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            if !revocation.verify(&mut cache, verifier) {
                return Err(CertStoreError::BadRevocation(target));
            }
        }
        // Idempotence gate: a known signer whose object can no longer
        // change any lifecycle means nothing changes and nothing is
        // appended — unless the incoming object carries the signature a
        // checkpoint-restored one lost, in which case it re-applies to
        // make the object re-servable (otherwise a legacy store could
        // never converge and gossip would never go dormant). (An
        // authoritative signer over a still-active entry also
        // re-applies; that only happens when the first application is
        // being retried.)
        let authoritative = self
            .entries
            .get(&target)
            .is_none_or(|e| e.cert.issuer == revocation.issuer);
        let stored = self
            .revoked
            .get(&target)
            .and_then(|r| r.get(&revocation.issuer));
        let known_revoker = stored.is_some();
        let signature_upgrade =
            stored.is_some_and(|s| s.is_empty()) && !revocation.signature.is_empty();
        let entry_active = self.status(&target) == Some(CertStatus::Active);
        if known_revoker && !signature_upgrade && !(authoritative && entry_active) {
            return Ok(RevokeOutcome {
                applied: false,
                authoritative,
                events: Vec::new(),
            });
        }
        self.backend.append(&LogRecord::Revoke {
            issuer: revocation.issuer,
            target,
            signature: revocation.signature.clone(),
        })?;
        self.dirty = true;
        self.live_bytes += revoke_record_bytes(revocation.issuer, revocation.signature.len());
        let events = self.apply_revoke(revocation.issuer, target, &revocation.signature);
        Ok(RevokeOutcome {
            applied: true,
            authoritative,
            events,
        })
    }

    /// Applies a revocation whose signature already verified (or was
    /// recorded as verified in the log).
    fn apply_revoke(
        &mut self,
        issuer: Symbol,
        target: CertDigest,
        signature: &[u8],
    ) -> Vec<RetractionEvent> {
        let prev = self
            .revoked
            .entry(target)
            .or_default()
            .insert(issuer, signature.to_vec());
        // The maintained fingerprint covers re-servable objects only:
        // fold when the (signer, target) pair first gains a signature
        // (a re-apply with the signature already on file changes
        // nothing; XOR-ing twice would un-fold it).
        if prev.is_none_or(|s| s.is_empty()) && !signature.is_empty() {
            self.index_servable(issuer, target);
        }
        if (self.entries.get(&target)).is_some_and(|e| e.cert.issuer != issuer) {
            // Foreign revocation object: no authority, no trail entry.
            return Vec::new();
        }
        let Some(event) = self.kill(target, RetractReason::Revoked) else {
            // No lifecycle to end — a pre-arrival revocation (remembered,
            // blocks the later import) or the issuer's revocation of an
            // already-dead certificate. The two count and leave the same
            // trail entry on purpose: replaying the record after a
            // compaction forgot the tombstone rebuilds an identical
            // audit trail.
            self.stats.revocations += 1;
            self.audit
                .record(target, issuer, AuditAction::Revoked, self.clock, None);
            return Vec::new();
        };
        let mut events = vec![event];
        self.cascade_broken(&[target], &mut events);
        events
    }

    /// Advances the logical clock, expiring overdue certificates and
    /// breaking their dependents. The advance is appended to the
    /// backend so reopened stores resume at the same logical time.
    pub fn advance_clock(&mut self, ticks: u64) -> Result<Vec<RetractionEvent>, CertStoreError> {
        self.backend.append(&LogRecord::Tick(ticks))?;
        self.dirty = true;
        Ok(self.apply_advance(ticks))
    }

    fn apply_advance(&mut self, ticks: u64) -> Vec<RetractionEvent> {
        self.clock = self.clock.saturating_add(ticks);
        let mut events = Vec::new();
        // Only certificates actually due are touched: the heap is keyed
        // by TTL deadline, so a tick expiring nothing is O(1).
        while let Some(&Reverse((deadline, digest))) = self.expiry.peek() {
            if deadline > self.clock {
                break;
            }
            self.expiry.pop();
            events.extend(self.kill(digest, RetractReason::Expired));
        }
        let expired: Vec<CertDigest> = events.iter().map(|e| e.digest).collect();
        self.cascade_broken(&expired, &mut events);
        events
    }

    /// Marks every live transitive dependent of `roots` as broken,
    /// appending a retraction event per casualty.
    fn cascade_broken(&mut self, roots: &[CertDigest], events: &mut Vec<RetractionEvent>) {
        let mut frontier: Vec<CertDigest> = roots.to_vec();
        while let Some(dead) = frontier.pop() {
            let dependents = self.dependents.get(&dead).cloned().unwrap_or_default();
            for dep in dependents {
                if let Some(event) = self.kill(dep, RetractReason::LinkBroken) {
                    events.push(event);
                    frontier.push(dep);
                }
            }
        }
    }

    /// Rebuilds state from a backend's records: inserts skip signature
    /// re-verification (the recorded outcome is primed into the shared
    /// cache instead) and file each certificate under the address its
    /// record carries (trusted exactly like that outcome: both sit behind
    /// the frame CRC of a log this store wrote), revocations and clock
    /// advances re-run the same transition logic the live paths use, so
    /// the result is byte-for-byte the state an uninterrupted store would
    /// hold.
    fn apply_replay(&mut self, log: ReplayLog) {
        let records = log.records.len();
        // The audit segment holds everything folded out of compacted
        // history; replaying the suffix regenerates the rest.
        let audit_restored = log.audit.len();
        self.audit = AuditLog::restore(log.audit);
        self.audit_persisted = audit_restored;
        // The retraction events the transitions return are dropped: a
        // store is opened before its workspace holds any fact to retract.
        for record in log.records {
            self.stats.replayed += 1;
            match record {
                LogRecord::Cert { digest, cert } => {
                    self.prime_recorded(cert.issuer, &cert.signing_bytes(), &cert.signature);
                    // A faithful log cannot trip these guards (the
                    // original insert validated them), but a log from a
                    // newer/older version might; skipping keeps replay
                    // total.
                    let blocked = self
                        .revoked
                        .get(&digest)
                        .is_some_and(|r| r.contains_key(&cert.issuer));
                    if blocked
                        || self.entries.contains_key(&digest)
                        || self.check_links(digest, &cert.links).is_err()
                    {
                        continue;
                    }
                    self.apply_insert(digest, cert);
                }
                LogRecord::Revoke {
                    issuer,
                    target,
                    signature,
                } => {
                    let signed = lbtrust_net::revoke_signing_bytes(issuer, target.as_bytes());
                    self.prime_recorded(issuer, &signed, &signature);
                    // Foreign objects (signer ≠ the held certificate's
                    // issuer) replay too: `absorb_revocation` logged
                    // them, and `apply_revoke` already remembers them
                    // without granting authority — dropping them here
                    // would shrink a reopened store's fingerprint and
                    // make gossip re-pull (and re-append) the same
                    // object after every restart.
                    self.live_bytes += revoke_record_bytes(issuer, signature.len());
                    self.apply_revoke(issuer, target, &signature);
                }
                LogRecord::Tick(ticks) => drop(self.apply_advance(ticks)),
                LogRecord::Checkpoint(state) => self.restore_checkpoint(*state),
            }
        }
        self.replay_report = ReplayReport {
            records,
            bytes: log.valid_bytes,
            truncated_tail: log.truncated_tail,
            from_checkpoint: log.from_checkpoint,
            audit_restored,
        };
    }

    /// Installs a recorded verification outcome in the shared cache: a
    /// record's presence in the log or in a checkpoint says `signature`
    /// over `message` verified under `signer` before it was written, so
    /// replay never re-runs a signature check.
    fn prime_recorded(&self, signer: Symbol, message: &[u8], signature: &[u8]) {
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.prime(signer, message, signature);
    }

    /// Resets the store to a checkpoint's materialized state: live
    /// certificates land under their recorded addresses with their
    /// original import time and expiry deadline (signatures primed as
    /// verified, nothing re-verified or re-hashed),
    /// remembered revocations resume blocking imports. No audit entries
    /// are generated — the checkpoint's history lives in the restored
    /// audit segment.
    fn restore_checkpoint(&mut self, state: CheckpointState) {
        self.entries.clear();
        self.order.clear();
        self.dependents.clear();
        self.revoked.clear();
        self.fp_cache.clear();
        self.by_signer.clear();
        self.expiry.clear();
        self.active_len = 0;
        self.ground_heads.clear();
        // One bump for the whole swap: the restored live set replaces
        // whatever was held, so any decision keyed on an older version
        // is stale (the counter stays monotone — it never resets).
        self.version += 1;
        self.live_bytes = 0;
        self.clock = state.clock;
        for CheckpointCert {
            digest,
            cert,
            imported_at,
            expires_at,
        } in state.active
        {
            self.prime_recorded(cert.issuer, &cert.signing_bytes(), &cert.signature);
            self.file(digest, cert, imported_at, expires_at);
            self.stats.replayed_from_checkpoint += 1;
        }
        for (issuer, target, signature) in state.revoked {
            self.live_bytes += if signature.is_empty() {
                REVOKE_RECORD_NOMINAL
            } else {
                // The signature survives the checkpoint, so the object
                // can be re-served to anti-entropy peers after a reopen
                // — prime the cache like replaying its raw record would.
                let signed = lbtrust_net::revoke_signing_bytes(issuer, target.as_bytes());
                self.prime_recorded(issuer, &signed, &signature);
                self.index_servable(issuer, target);
                revoke_record_bytes(issuer, signature.len())
            };
            self.revoked
                .entry(target)
                .or_default()
                .insert(issuer, signature);
            self.stats.replayed_from_checkpoint += 1;
        }
    }
}

impl Default for CertStore {
    fn default() -> Self {
        CertStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::signing_bytes;
    use lbtrust_datalog::parse_rule;
    use lbtrust_net::revoke_signing_bytes;

    /// Toy signing: signature = "signed:<issuer>:" + message. The store
    /// never interprets signatures, so any scheme works for unit tests;
    /// the integration tests use real RSA.
    fn sign(issuer: Symbol, message: &[u8]) -> Vec<u8> {
        let mut out = format!("signed:{issuer}:").into_bytes();
        out.extend_from_slice(message);
        out
    }

    fn toy_verifier() -> impl SignatureVerifier {
        |signer: Symbol, message: &[u8], sig: &[u8]| sig == sign(signer, message).as_slice()
    }

    fn cert(issuer: &str, rule_src: &str, links: Vec<CertDigest>, ttl: Option<u64>) -> LinkedCert {
        let issuer = Symbol::intern(issuer);
        let rule = std::sync::Arc::new(parse_rule(rule_src).unwrap());
        let to_sign = signing_bytes(issuer, &rule, &links, ttl);
        LinkedCert {
            issuer,
            rule,
            links,
            ttl,
            signature: sign(issuer, &to_sign),
        }
    }

    fn revocation(issuer: &str, target: CertDigest) -> Revocation {
        let issuer = Symbol::intern(issuer);
        Revocation {
            issuer,
            target,
            signature: sign(issuer, &revoke_signing_bytes(issuer, target.as_bytes())),
        }
    }

    #[test]
    fn revocation_fingerprints_are_order_independent_and_served_back() {
        let order_a = [b"c1".as_slice(), b"c2", b"c3"];
        let order_b = [b"c3".as_slice(), b"c1", b"c2"];
        let build = |targets: &[&[u8]]| {
            let mut store = CertStore::new();
            for t in targets {
                store
                    .revoke(&revocation("alice", CertDigest::of(t)), &toy_verifier())
                    .unwrap();
            }
            store
        };
        let a = build(&order_a);
        let b = build(&order_b);
        assert_eq!(
            a.revocation_fingerprints(),
            b.revocation_fingerprints(),
            "the XOR fold must not depend on arrival order"
        );
        assert_eq!(a.revocation_fingerprints().len(), 1);
        // Serving returns the exact signed objects, sorted by target.
        let served = a.revocations_by(Symbol::intern("alice"));
        assert_eq!(served.len(), 3);
        assert!(served.windows(2).all(|w| w[0].target <= w[1].target));
        for obj in &served {
            assert_eq!(obj, &revocation("alice", obj.target));
        }
        // Unknown signer: nothing to serve.
        assert!(a.revocations_by(Symbol::intern("nobody")).is_empty());
        // A second signer fingerprints separately, sorted by name.
        let mut c = build(&order_a);
        c.revoke(&revocation("bob", CertDigest::of(b"x")), &toy_verifier())
            .unwrap();
        let fps = c.revocation_fingerprints();
        assert_eq!(fps.len(), 2);
        assert_eq!(fps[0].0.as_str(), "alice");
        assert_eq!(fps[1].0.as_str(), "bob");
    }

    #[test]
    fn revoke_outcome_reports_reapplication() {
        let mut store = CertStore::new();
        let c = cert("alice", "good(carol).", vec![], None);
        let d = store.insert(c, &toy_verifier()).unwrap().digest;
        let first = store
            .revoke_with_outcome(&revocation("alice", d), &toy_verifier())
            .unwrap();
        assert!(first.applied);
        assert_eq!(first.events.len(), 1);
        let again = store
            .revoke_with_outcome(&revocation("alice", d), &toy_verifier())
            .unwrap();
        assert!(!again.applied, "re-application must report a no-op");
        assert!(again.events.is_empty());
        assert_eq!(store.stats().revocations, 1);
    }

    #[test]
    fn absorb_remembers_foreign_objects_inertly() {
        let mut store = CertStore::new();
        let c = cert("alice", "good(carol).", vec![], None);
        let d = store.insert(c, &toy_verifier()).unwrap().digest;
        // The strict path rejects mallory's object while the entry is
        // held …
        assert!(matches!(
            store.revoke(&revocation("mallory", d), &toy_verifier()),
            Err(CertStoreError::IssuerMismatch { .. })
        ));
        // … the gossip path absorbs it as inert: remembered and
        // re-servable, but no lifecycle change and no import gate.
        let outcome = store
            .absorb_revocation(&revocation("mallory", d), &toy_verifier())
            .unwrap();
        assert!(outcome.applied);
        assert!(
            !outcome.authoritative,
            "an inert absorption must not read as a revocation"
        );
        assert!(outcome.events.is_empty());
        assert_eq!(store.status(&d), Some(CertStatus::Active));
        assert_eq!(store.revocations_by(Symbol::intern("mallory")).len(), 1);
        // Re-absorbing is a no-op.
        assert!(
            !store
                .absorb_revocation(&revocation("mallory", d), &toy_verifier())
                .unwrap()
                .applied
        );
        // The issuer's own object still has full authority afterwards.
        let real = store
            .absorb_revocation(&revocation("alice", d), &toy_verifier())
            .unwrap();
        assert!(real.applied && real.authoritative);
        assert_eq!(real.events.len(), 1);
        assert_eq!(store.status(&d), Some(CertStatus::Revoked));
        // Bad signatures are rejected even on the tolerant path.
        let mut forged = revocation("eve", d);
        forged.signature = b"garbage".to_vec();
        assert!(matches!(
            store.absorb_revocation(&forged, &toy_verifier()),
            Err(CertStoreError::BadRevocation(_))
        ));
    }

    #[test]
    fn empty_signature_objects_upgrade_when_the_signed_object_arrives() {
        // A pre-gossip checkpoint restores objects with empty
        // signatures: invisible to fingerprints and unservable. The
        // signed object arriving later (a gossip pull answer) must
        // re-apply — otherwise the store could never converge and
        // anti-entropy would never go dormant.
        let mut store = CertStore::new();
        let d = CertDigest::of(b"legacy");
        let cp = crate::backend::CheckpointState {
            clock: 0,
            active: vec![],
            revoked: vec![(Symbol::intern("alice"), d, Vec::new())],
        };
        store.restore_checkpoint(cp);
        assert!(store.revocation_fingerprints().is_empty());
        assert!(store.revocations_by(Symbol::intern("alice")).is_empty());
        let outcome = store
            .absorb_revocation(&revocation("alice", d), &toy_verifier())
            .unwrap();
        assert!(outcome.applied, "the signed object must upgrade the stub");
        assert_eq!(store.revocation_fingerprints().len(), 1);
        assert_eq!(store.revocations_by(Symbol::intern("alice")).len(), 1);
        // And only once.
        assert!(
            !store
                .absorb_revocation(&revocation("alice", d), &toy_verifier())
                .unwrap()
                .applied
        );
    }

    #[test]
    fn store_fetch_identity() {
        let mut store = CertStore::new();
        let c = cert("alice", "good(carol).", vec![], None);
        let out = store.insert(c.clone(), &toy_verifier()).unwrap();
        assert!(out.newly_added);
        let entry = store.get(&out.digest).unwrap();
        assert_eq!(entry.cert, c);
        assert_eq!(entry.status, CertStatus::Active);
    }

    #[test]
    fn reimport_hits_cache() {
        let mut store = CertStore::new();
        let c = cert("alice", "good(carol).", vec![], None);
        let first = store.insert(c.clone(), &toy_verifier()).unwrap();
        assert!(!first.cache_hit);
        let second = store.insert(c, &toy_verifier()).unwrap();
        assert!(second.cache_hit, "identical bytes re-verified from cache");
        assert!(!second.newly_added);
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().reimports, 1);
    }

    #[test]
    fn bad_signature_rejected() {
        let mut store = CertStore::new();
        let mut c = cert("alice", "good(carol).", vec![], None);
        c.signature = b"forged".to_vec();
        assert!(matches!(
            store.insert(c, &toy_verifier()),
            Err(CertStoreError::BadSignature(_))
        ));
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn linked_chain_resolves_and_broken_link_rejected() {
        let mut store = CertStore::new();
        let root = cert("alice", "root(alice).", vec![], None);
        let root_d = root.digest();
        store.insert(root, &toy_verifier()).unwrap();
        let mid = cert("alice", "mid(x).", vec![root_d], None);
        let mid_d = mid.digest();
        store.insert(mid, &toy_verifier()).unwrap();
        let leaf = cert("alice", "leaf(y).", vec![mid_d], None);
        store.insert(leaf, &toy_verifier()).unwrap();
        // A link to nowhere is rejected.
        let orphan = cert("alice", "orphan(z).", vec![CertDigest::of(b"nope")], None);
        assert!(matches!(
            store.insert(orphan, &toy_verifier()),
            Err(CertStoreError::BrokenLink { .. })
        ));
    }

    #[test]
    fn bundle_imports_out_of_order() {
        let mut store = CertStore::new();
        let root = cert("alice", "root(alice).", vec![], None);
        let mid = cert("alice", "mid(x).", vec![root.digest()], None);
        let leaf = cert("alice", "leaf(y).", vec![mid.digest()], None);
        // Dependents first: the bundle must still resolve.
        let outcomes = store
            .import_bundle(vec![leaf, mid, root], &toy_verifier())
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        assert_eq!(store.active().len(), 3);
        assert_eq!(store.active_len(), 3);
    }

    #[test]
    fn bundle_with_unresolvable_link_errors() {
        let mut store = CertStore::new();
        let dangling = cert("alice", "p(x).", vec![CertDigest::of(b"ghost")], None);
        assert!(matches!(
            store.import_bundle(vec![dangling], &toy_verifier()),
            Err(CertStoreError::BrokenLink { .. })
        ));
    }

    #[test]
    fn revocation_emits_event_and_cascades() {
        let mut store = CertStore::new();
        let root = cert("alice", "root(alice).", vec![], None);
        let root_d = root.digest();
        store.insert(root, &toy_verifier()).unwrap();
        let leaf = cert("bob", "leaf(y).", vec![root_d], None);
        let leaf_d = leaf.digest();
        store.insert(leaf, &toy_verifier()).unwrap();

        let events = store
            .revoke(&revocation("alice", root_d), &toy_verifier())
            .unwrap();
        assert_eq!(events.len(), 2, "root revoked + leaf broken");
        assert_eq!(events[0].reason, RetractReason::Revoked);
        assert_eq!(events[1].reason, RetractReason::LinkBroken);
        assert_eq!(store.status(&root_d), Some(CertStatus::Revoked));
        assert_eq!(store.status(&leaf_d), Some(CertStatus::Broken));
        // Idempotent.
        let again = store
            .revoke(&revocation("alice", root_d), &toy_verifier())
            .unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn only_issuer_may_revoke() {
        let mut store = CertStore::new();
        let c = cert("alice", "good(carol).", vec![], None);
        let d = c.digest();
        store.insert(c, &toy_verifier()).unwrap();
        assert!(matches!(
            store.revoke(&revocation("mallory", d), &toy_verifier()),
            Err(CertStoreError::IssuerMismatch { .. })
        ));
        assert_eq!(store.status(&d), Some(CertStatus::Active));
    }

    #[test]
    fn pre_arrival_revocation_blocks_import() {
        let mut store = CertStore::new();
        let c = cert("alice", "good(carol).", vec![], None);
        let d = c.digest();
        store
            .revoke(&revocation("alice", d), &toy_verifier())
            .unwrap();
        assert!(matches!(
            store.insert(c, &toy_verifier()),
            Err(CertStoreError::Revoked(_))
        ));
    }

    #[test]
    fn foreign_revocation_neither_blocks_nor_masks() {
        let mut store = CertStore::new();
        let c = cert("alice", "good(carol).", vec![], None);
        let d = c.digest();
        // Mallory validly signs a revocation object for alice's digest:
        // no authority, and it must not mask alice's own revocation
        // arriving afterwards.
        store
            .revoke(&revocation("mallory", d), &toy_verifier())
            .unwrap();
        store
            .revoke(&revocation("alice", d), &toy_verifier())
            .unwrap();
        assert!(
            matches!(
                store.insert(c.clone(), &toy_verifier()),
                Err(CertStoreError::Revoked(_))
            ),
            "issuer's revocation must survive a foreign one"
        );
        // With only the foreign revocation on file, import succeeds.
        let mut fresh = CertStore::new();
        fresh
            .revoke(&revocation("mallory", d), &toy_verifier())
            .unwrap();
        assert!(fresh.insert(c, &toy_verifier()).unwrap().newly_added);
    }

    #[test]
    fn ttl_expiry_and_cascade() {
        let mut store = CertStore::new();
        let root = cert("alice", "root(alice).", vec![], Some(5));
        let root_d = root.digest();
        store.insert(root, &toy_verifier()).unwrap();
        let leaf = cert("bob", "leaf(y).", vec![root_d], None);
        let leaf_d = leaf.digest();
        store.insert(leaf, &toy_verifier()).unwrap();

        assert!(store.advance_clock(4).unwrap().is_empty(), "not yet due");
        let events = store.advance_clock(1).unwrap();
        assert_eq!(events.len(), 2, "root expired + leaf broken");
        assert_eq!(events[0].reason, RetractReason::Expired);
        assert_eq!(store.status(&root_d), Some(CertStatus::Expired));
        assert_eq!(store.status(&leaf_d), Some(CertStatus::Broken));
        // Importing a fresh cert that links to the dead root fails.
        let late = cert("carol", "late(z).", vec![root_d], None);
        assert!(matches!(
            store.insert(late, &toy_verifier()),
            Err(CertStoreError::DeadLink { .. })
        ));
    }

    #[test]
    fn shared_cache_reuses_verifications_across_stores() {
        let cache = shared_verify_cache();
        let mut store_a = CertStore::with_cache(cache.clone());
        let mut store_b = CertStore::with_cache(cache.clone());
        let c = cert("alice", "good(carol).", vec![], None);
        let a = store_a.insert(c.clone(), &toy_verifier()).unwrap();
        assert!(!a.cache_hit);
        // The second principal's store never runs the real check.
        let b = store_b.insert(c, &toy_verifier()).unwrap();
        assert!(b.cache_hit, "verification reused across principals");
        let stats = cache.lock().unwrap().stats();
        assert_eq!(stats.misses, 1, "one signature checked once");
        assert!(stats.hits >= 1);
    }

    #[test]
    fn audit_trail_cites_introducer_after_revocation() {
        let mut store = CertStore::new();
        let c = cert("alice", "good(carol).", vec![], None);
        let rule_text = c.rule.to_string();
        let d = store.insert(c, &toy_verifier()).unwrap().digest;
        store
            .revoke(&revocation("alice", d), &toy_verifier())
            .unwrap();
        let intro = store.audit().introducers(&rule_text);
        assert_eq!(intro.len(), 1, "introducer cited after revocation");
        assert_eq!(intro[0].digest, d);
        assert_eq!(store.audit().latest_action(&d), Some(AuditAction::Revoked));
    }

    fn tmp_store_path(tag: &str) -> std::path::PathBuf {
        let base = std::env::var_os("CARGO_TARGET_TMPDIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        base.join(format!(
            "lbtrust-store-{}-{tag}.certlog",
            std::process::id()
        ))
    }

    fn wipe(path: &std::path::Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_dir_all(path.with_extension(""));
    }

    #[test]
    fn compact_reclaims_dead_records_and_preserves_blocking() {
        let path = tmp_store_path("compact");
        wipe(&path);
        let mut store = CertStore::open_with_budget(&path, shared_verify_cache(), 1024).unwrap();
        // 12 certificates, 10 revoked: ≥80% dead cert records plus the
        // revocation records themselves.
        let mut digests = Vec::new();
        for i in 0..12 {
            let c = cert("alice", &format!("p(x{i})."), vec![], None);
            digests.push(store.insert(c, &toy_verifier()).unwrap().digest);
        }
        for d in &digests[..10] {
            store
                .revoke(&revocation("alice", *d), &toy_verifier())
                .unwrap();
        }
        let audit_before = store.audit().len();
        let stats = store.stats();
        assert!(stats.dead_bytes > 0, "dead records accumulate: {stats:?}");
        let report = store.compact().unwrap();
        assert!(report.performed);
        assert!(
            report.bytes_after < report.bytes_before,
            "compaction must shrink the record footprint: {report:?}"
        );
        assert_eq!(store.stats().compactions, 1);
        assert!(store.stats().dead_bytes < stats.dead_bytes);
        drop(store);

        let mut reopened = CertStore::open(&path, shared_verify_cache()).unwrap();
        let report = reopened.replay_report();
        assert!(report.from_checkpoint);
        assert_eq!(report.records, 1, "one checkpoint record, no suffix");
        assert!(reopened.stats().replayed_from_checkpoint > 0);
        assert_eq!(reopened.active_len(), 2);
        assert_eq!(reopened.audit().len(), audit_before, "trail folded intact");
        // Revocations keep blocking after the compacted reopen.
        let again = cert("alice", "p(x0).", vec![], None);
        assert!(matches!(
            reopened.insert(again, &toy_verifier()),
            Err(CertStoreError::Revoked(_))
        ));
        wipe(&path);
    }

    #[test]
    fn checkpoint_without_prune_keeps_segments_but_bounds_replay() {
        let path = tmp_store_path("ckptonly");
        wipe(&path);
        let mut store = CertStore::open_with_budget(&path, shared_verify_cache(), 512).unwrap();
        for i in 0..6 {
            let c = cert("alice", &format!("q(x{i})."), vec![], None);
            store.insert(c, &toy_verifier()).unwrap();
        }
        store.advance_clock(2).unwrap();
        let report = store.checkpoint().unwrap();
        assert!(report.performed);
        assert!(
            report.segments_after > report.segments_before
                || report.bytes_after >= report.bytes_before,
            "checkpoint keeps history on disk: {report:?}"
        );
        assert_eq!(store.stats().checkpoints, 1);
        store.advance_clock(1).unwrap();
        store.sync().unwrap();
        drop(store);

        let reopened = CertStore::open(&path, shared_verify_cache()).unwrap();
        assert!(reopened.replay_report().from_checkpoint);
        assert_eq!(
            reopened.replay_report().records,
            2,
            "checkpoint + one suffix tick"
        );
        assert_eq!(reopened.active_len(), 6);
        assert_eq!(reopened.now(), 3);
        wipe(&path);
    }

    #[test]
    fn record_size_arithmetic_matches_the_encoder() {
        use crate::backend::encode_record;
        for c in [
            cert("alice", "good(carol).", vec![], None),
            cert(
                "a-longer-principal",
                "p(x) <- q(x), !r(x).",
                vec![],
                Some(7),
            ),
            cert(
                "alice",
                "p(x).",
                vec![CertDigest::of(b"l1"), CertDigest::of(b"l2")],
                Some(1234567),
            ),
        ] {
            assert_eq!(
                cert_record_bytes(&c),
                encode_record(&LogRecord::Cert {
                    digest: c.digest(),
                    cert: c.clone()
                })
                .len() as u64,
                "size arithmetic drifted from the encoder for {c:?}"
            );
            // The payload is the raw 32-byte address, then the wire bytes.
            assert_eq!(
                cert_record_bytes(&c),
                (lbtrust_net::FRAME_OVERHEAD + 1 + 32 + c.wire_bytes().len()) as u64
            );
        }
        let issuer = Symbol::intern("alice");
        let sig = vec![9u8; 37];
        assert_eq!(
            revoke_record_bytes(issuer, sig.len()),
            encode_record(&LogRecord::Revoke {
                issuer,
                target: CertDigest::of(b"t"),
                signature: sig,
            })
            .len() as u64
        );
    }

    #[test]
    fn a_reopen_hashes_no_certificate() {
        let hashed = || crate::digest::HASHED.with(std::cell::Cell::get);
        let path = tmp_store_path("nohash");
        wipe(&path);
        let mut store = CertStore::open(&path, shared_verify_cache()).unwrap();
        let root = cert("alice", "root(alice).", vec![], None);
        let root_d = store.insert(root, &toy_verifier()).unwrap().digest;
        for i in 0..8 {
            let c = cert("alice", &format!("p(x{i})."), vec![root_d], Some(50));
            store.insert(c, &toy_verifier()).unwrap();
        }
        store.advance_clock(1).unwrap();
        let active = store.active();
        store.sync().unwrap();
        drop(store);

        // From the log's records, then from a checkpoint.
        for compact in [false, true] {
            let before = hashed();
            let mut reopened = CertStore::open(&path, shared_verify_cache()).unwrap();
            assert_eq!(hashed() - before, 0, "open computed a digest");
            assert_eq!(reopened.replay_report().from_checkpoint, compact);
            assert_eq!(reopened.active(), active);
            for d in &active {
                let entry = reopened.get(d).unwrap();
                assert_eq!(entry.cert.digest(), *d, "filed under its own address");
            }
            if !compact {
                assert!(reopened.compact().unwrap().performed);
            }
        }
        wipe(&path);
    }

    /// Opens a log holding a tick record and then `old`, a record in a
    /// retired layout: the open must fail with a structured
    /// `UnsupportedRecord` at `old`'s offset and leave every byte as it was.
    fn assert_refused_without_a_write(old: Vec<u8>, what: &str) {
        let tick = crate::backend::encode_record(&LogRecord::Tick(1));
        let path = tmp_store_path(what);
        wipe(&path);
        let bytes = [tick.as_slice(), &old].concat();
        std::fs::write(&path, &bytes).unwrap();
        match CertStore::open(&path, shared_verify_cache()) {
            Err(CertStoreError::Storage(StorageError::UnsupportedRecord { offset, .. })) => {
                assert_eq!(offset, tick.len() as u64, "{what}")
            }
            Err(e) => panic!("{what}: refused for another reason: {e}"),
            Ok(_) => panic!("opened a log in the {what} layout"),
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "{what}: a byte changed"
        );
        wipe(&path);
    }

    /// A retired layout's checkpoint record: a header frame, then one
    /// nested certificate frame of tag `tag` around `body`.
    fn old_checkpoint(tag: u8, body: &[u8]) -> Vec<u8> {
        use lbtrust_net::wire::{frame_record, META_CHECKPOINT};
        let mut payload = frame_record(
            META_CHECKPOINT,
            b"lbtrust-checkpoint:v1\nclock:0\nactive:1\nrevoked:0\n",
        );
        payload.extend_from_slice(&frame_record(tag, body));
        frame_record(crate::backend::REC_CHECKPOINT, &payload)
    }

    #[test]
    fn an_address_less_certificate_refuses_the_open_and_changes_no_byte() {
        use lbtrust_net::wire::frame_record;
        let c = cert("alice", "good(carol).", vec![], None);
        // Tag 1 held a certificate's wire bytes alone, and a checkpoint's
        // tag 0xA2 its metadata and wire bytes.
        let old_record = frame_record(1, &c.wire_bytes());
        let body = [b"at:0\nexp:none\n".as_slice(), &c.wire_bytes()].concat();
        for old in [old_record, old_checkpoint(0xA2, &body)] {
            assert_refused_without_a_write(old, "oldlayout");
        }
    }

    /// The layout before a certificate carried one signature: tag 6 (a
    /// checkpoint's 0xA4) held the address and wire bytes that ended in
    /// a second signature, over the rule alone. A frame under either tag
    /// is refused whatever it holds, so today's payload under the old
    /// tag stands in for the old payload.
    #[test]
    fn a_two_signature_certificate_refuses_the_open_and_changes_no_byte() {
        use lbtrust_net::wire::frame_record;
        let c = cert("alice", "good(carol).", vec![], None);
        let address = c.digest();
        let old_record = frame_record(
            6,
            &[address.as_bytes().as_slice(), &c.wire_bytes()].concat(),
        );
        let body = [
            address.as_bytes().as_slice(),
            b"at:0\nexp:none\n",
            &c.wire_bytes(),
        ]
        .concat();
        for old in [old_record, old_checkpoint(0xA4, &body)] {
            assert_refused_without_a_write(old, "twosig");
        }
    }

    #[test]
    fn memory_store_maintenance_is_a_noop() {
        let mut store = CertStore::new();
        store
            .insert(cert("alice", "p(x).", vec![], None), &toy_verifier())
            .unwrap();
        let report = store.compact().unwrap();
        assert!(!report.performed, "the in-memory store IS the state");
        assert_eq!(store.stats().compactions, 0);
        assert_eq!(store.stats().segments, 0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn heap_expiry_handles_interleaved_deadlines() {
        let mut store = CertStore::new();
        let c1 = cert("alice", "a(x).", vec![], Some(10));
        let c2 = cert("alice", "b(x).", vec![], Some(3));
        let c3 = cert("alice", "c(x).", vec![], None);
        let (d1, d2, d3) = (c1.digest(), c2.digest(), c3.digest());
        for c in [c1, c2, c3] {
            store.insert(c, &toy_verifier()).unwrap();
        }
        // Revoke the one that would expire first: its heap entry must
        // not double-fire.
        store
            .revoke(&revocation("alice", d2), &toy_verifier())
            .unwrap();
        assert!(store.advance_clock(5).unwrap().is_empty());
        let events = store.advance_clock(5).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].digest, d1);
        assert_eq!(store.status(&d1), Some(CertStatus::Expired));
        assert_eq!(store.status(&d2), Some(CertStatus::Revoked));
        assert_eq!(store.status(&d3), Some(CertStatus::Active));
        assert_eq!(store.active(), vec![d3]);
    }
}

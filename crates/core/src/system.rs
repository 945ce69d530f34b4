//! The multi-principal runtime: workspaces + keys + simulated network.
//!
//! A [`System`] plays the role of the paper's deployed environment
//! (§3.5): each principal owns a workspace (its *context*), principals
//! are placed on physical nodes (the `loc` mapping; one or many
//! principals per node), and `export` partitions are drained into the
//! network and imported on delivery. `run_to_quiescence` alternates local
//! fixpoints with message delivery until nothing moves — the
//! distributed fixpoint of the declarative-networking execution model.

use crate::auth::{register_crypto_builtins_cached, AuthScheme, KeyVerifier};
use crate::authz_read::{decide, AuthzReader, AuthzShared};
use crate::gossip::{fingerprint_hex, parse_gossip_send, GossipSend, GOSSIP_SAYS};
use crate::node::{is_storage_io, PrincipalState, Routed};
use crate::obs::{DeliveryPart, QuiescePhase, SystemObs};
use crate::principal::{
    rsa_priv_handle, rsa_pub_handle, rsa_sign, shared_keys, shared_secret_handle, Principal,
    SharedKeys,
};
use crate::says::SAYS_DECLS;
use crate::workspace::{Workspace, WsError};
use lbtrust_analysis::{analyze, Analysis, AnalyzerConfig, Diagnostic, LintLevel};
use lbtrust_certstore::backend::{log::LogBackend, memory::MemoryBackend};
use lbtrust_certstore::{
    cert, shared_verify_cache, AuditEntry, CertDigest, CertStore, CertStoreError, FaultConfig,
    FaultCounts, FaultHandle, FaultingBackend, ImportOutcome, LinkedCert, Revocation,
    SharedVerifyCache, StorageBackend, StoreStats,
};
use lbtrust_datalog::intern::names;
use lbtrust_datalog::provenance::ProofText;
use lbtrust_datalog::{parse_program, Symbol, Value};
use lbtrust_net::{
    NetworkConfig, NodeId, RevPullMessage, RevSummaryMessage, RevokeMessage, SimNetwork, WirePacket,
};
use lbtrust_obs::{Counter, Event, EventSink, Journal, Registry};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// System-level errors.
#[derive(Debug)]
pub enum SysError {
    /// No such principal registered.
    UnknownPrincipal(Principal),
    /// [`System::add_principal`] was given a name that programs, printed
    /// rules and wire packets could not spell
    /// ([`lbtrust_datalog::lexer::is_principal_name`]).
    InvalidName(String),
    /// A workspace operation failed.
    Workspace(WsError),
    /// The distributed fixpoint did not quiesce within the step budget.
    NoQuiescence {
        /// Steps executed.
        steps: usize,
    },
    /// A certificate-store operation failed.
    Cert(CertStoreError),
    /// Certificate issuing failed (bad body, missing keys, RSA error).
    Issue(String),
    /// Setting up the persistence directory failed.
    Persist(String),
    /// The principal's store is quarantined after persistent storage
    /// failures: it still answers reads ([`System::authorize`] works),
    /// but refuses writes until the fault heals and a step-based probe
    /// re-admits it.
    Degraded(DegradedError),
    /// Static analysis refused the program: one or more findings at
    /// [`LintLevel::Deny`] under the system's lint configuration (see
    /// [`System::load_program`] and [`System::with_lint_level`]).
    Lint(LintError),
}

impl fmt::Display for SysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysError::UnknownPrincipal(p) => write!(f, "unknown principal {p}"),
            SysError::InvalidName(name) => write!(
                f,
                "{name:?} cannot name a principal: a name is a lower-case letter, then \
                 letters, digits, _, ' and interior colons, and is not `me`"
            ),
            SysError::Workspace(e) => write!(f, "{e}"),
            SysError::NoQuiescence { steps } => {
                write!(f, "system did not quiesce after {steps} steps")
            }
            SysError::Cert(e) => write!(f, "{e}"),
            SysError::Issue(m) => write!(f, "certificate issue failed: {m}"),
            SysError::Persist(m) => write!(f, "persistence setup failed: {m}"),
            SysError::Degraded(d) => write!(f, "{d}"),
            SysError::Lint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SysError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SysError::Workspace(e) => Some(e),
            SysError::Cert(e) => Some(e),
            SysError::Lint(e) => Some(e),
            SysError::UnknownPrincipal(_)
            | SysError::InvalidName(_)
            | SysError::NoQuiescence { .. }
            | SysError::Issue(_)
            | SysError::Persist(_)
            | SysError::Degraded(_) => None,
        }
    }
}

/// Structured refusal from the static-analysis preflight (see
/// [`SysError::Lint`]): which program was refused and every deny-level
/// finding, each carrying its lint kind and source position.
#[derive(Clone, Debug)]
pub struct LintError {
    /// The tag the program was being installed under.
    pub tag: String,
    /// The deny-level findings (never empty).
    pub denials: Vec<Diagnostic>,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program `{}` refused by static analysis ({} deny-level finding{}):",
            self.tag,
            self.denials.len(),
            if self.denials.len() == 1 { "" } else { "s" },
        )?;
        for d in &self.denials {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.denials.first().map(|d| d as _)
    }
}

/// Structured refusal for writes against a quarantined store (see
/// [`SysError::Degraded`]): who is degraded, since when, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradedError {
    /// The principal whose store is quarantined.
    pub principal: Principal,
    /// The distributed-fixpoint step at which quarantine began.
    pub since_step: usize,
    /// Storage attempts that failed before the store was quarantined.
    pub attempts: u32,
    /// The last storage error observed, rendered.
    pub last_error: String,
}

impl fmt::Display for DegradedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "store for {} quarantined since step {} after {} failed attempts: {}",
            self.principal, self.since_step, self.attempts, self.last_error
        )
    }
}

/// A principal store's position in the fault-handling lifecycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreHealth {
    /// All storage operations succeeding.
    #[default]
    Healthy,
    /// A group commit failed transiently; the store stays writable and
    /// is retried with step-based backoff.
    Degraded,
    /// Retries exhausted: the store serves reads, refuses writes with
    /// [`DegradedError`], is skipped by group commit and
    /// auto-compaction, and is probed for re-admission each step.
    Quarantined,
}

/// Deterministic step-based retry policy for transient storage faults.
///
/// Attempts and backoff are counted in distributed-fixpoint *steps*
/// (`SystemStats::steps`), never wall time, so runs replay exactly
/// under a fixed seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive failed attempts before the store is quarantined.
    pub max_attempts: u32,
    /// Backoff after the first failure, in steps; doubles per failure.
    pub backoff_base_steps: usize,
    /// Upper bound on the per-retry backoff, in steps.
    pub backoff_cap_steps: usize,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_steps: 1,
            backoff_cap_steps: 8,
        }
    }
}

impl RetryPolicy {
    /// Steps to wait after `attempts` consecutive failures:
    /// `min(cap, base << (attempts - 1))`, at least one step.
    pub(crate) fn backoff_steps(&self, attempts: u32) -> usize {
        let shift = attempts.saturating_sub(1).min(usize::BITS - 1);
        self.backoff_base_steps
            .max(1)
            .checked_shl(shift)
            .unwrap_or(usize::MAX)
            .min(self.backoff_cap_steps.max(1))
    }
}

impl From<WsError> for SysError {
    fn from(e: WsError) -> Self {
        SysError::Workspace(e)
    }
}

impl From<CertStoreError> for SysError {
    fn from(e: CertStoreError) -> Self {
        SysError::Cert(e)
    }
}

/// Counters for the harness (message rejections feed the tamper tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct SystemStats {
    /// Messages exported into the network.
    pub messages_sent: usize,
    /// Messages imported successfully.
    pub messages_accepted: usize,
    /// Messages rejected (verification constraint violation).
    pub messages_rejected: usize,
    /// Local fixpoints that violated a constraint and rolled back
    /// (e.g. facts asserted between steps that a policy forbids).
    pub local_rollbacks: usize,
    /// Distributed fixpoint steps executed.
    pub steps: usize,
    /// Certificates imported through the stores.
    pub certs_imported: usize,
    /// Revocations applied (locally or off the wire).
    pub revocations: usize,
    /// Certificate-backed base facts retracted (expiry/revocation).
    pub retractions: usize,
    /// Retractions repaired incrementally by DRed.
    pub dred_repairs: usize,
    /// Retractions that forced a full rebuild on the next evaluation.
    pub retraction_rebuilds: usize,
    /// Certificates reconciled from durable logs at principal
    /// registration (replayed, not re-verified).
    pub certs_replayed: usize,
    /// Anti-entropy rounds in which gossip traffic was generated
    /// (steps where at least two stores' revocation summaries
    /// disagreed).
    pub gossip_rounds: usize,
    /// `revsummary` advertisements handed to the network.
    pub gossip_summaries: usize,
    /// `revpull` requests handed to the network.
    pub gossip_pulls: usize,
    /// Signed revocation objects relayed in answer to pulls
    /// (`revgossip` frames handed to the network).
    pub gossip_served: usize,
}

/// RSA modulus size used for principals (the paper's §6 uses 1024-bit).
pub const DEFAULT_RSA_BITS: usize = 1024;

/// When persistent certificate stores flush appended records to the
/// durable medium.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every mutation — each import bundle, each applied
    /// revocation, each clock advance pays its own fsync immediately.
    /// Nothing acknowledged is ever lost, at the price of an fsync per
    /// mutation per store.
    #[default]
    Eager,
    /// Group commit: mutations leave their store dirty and
    /// [`System::run_to_quiescence`] syncs every dirty store once per
    /// step (and [`System::import_certificates`] once per bundle). A
    /// crash between group commits loses at most the mutations since
    /// the last one; replay recovers exactly the synced prefix. Call
    /// [`System::flush`] to force a commit point outside a quiescence
    /// run.
    Batched,
}

/// The outcome of [`System::authorize`]: the verdict plus the
/// credentials it rests on.
#[derive(Clone, Debug)]
pub struct AuthzDecision {
    /// Whose workspace was consulted.
    pub principal: Principal,
    /// The goal as asked (LBTrust fact source).
    pub goal: String,
    /// Whether the goal holds.
    pub granted: bool,
    /// Content addresses of the certificates whose certified rules
    /// appear as `says` premises in the proof or whose certified facts
    /// ground a proof step — sorted by digest bytes, deduplicated.
    /// Empty for denials and for grants derivable from local facts
    /// alone.
    pub supporting: Vec<CertDigest>,
    /// The proof tree, when granted, with the rules it indexes. It is
    /// rendered when read (`to_string()`, `{}`), not when decided, and it
    /// is well-founded: no tuple sits below itself, so a grant cites
    /// every certificate its derivation rests on. Its leaves are program
    /// facts, asserted facts (a certificate's among them) and facts no
    /// rule instance concludes. A goal whose search exceeds a fixed bound
    /// of rule instances is denied
    /// ([`lbtrust_datalog::provenance::explain_with_base`]).
    pub proof: Option<ProofText>,
}

/// The multi-principal LBTrust runtime: a sequencer over its
/// principals. Each principal is one self-contained value (workspace,
/// certificate store, placement, health, counters); the system owns
/// what they share — the key directory, the simulated network, the
/// verification cache, the metrics registry and the configuration —
/// and runs the phases of the distributed fixpoint over them in
/// registration order, on its caller's thread.
pub struct System {
    keys: SharedKeys,
    /// Every registered principal, in registration order — the order
    /// every phase, every merge and [`System::stats`] walk.
    nodes: Vec<PrincipalState>,
    /// Name → position in `nodes`; every public method taking a
    /// [`Principal`] resolves it here, once.
    index: HashMap<Principal, usize>,
    /// The registered names, in registration order.
    order: Vec<Principal>,
    net: SimNetwork,
    rsa_bits: usize,
    /// The sequencer's own counters; each principal keeps the rest (see
    /// [`System::stats`]).
    stats: SystemStats,
    seed: u64,
    /// Process-wide verification cache: a signature over identical
    /// canonical bytes is checked once, by whichever principal sees it
    /// first, and every later check anywhere is a memo lookup.
    vcache: SharedVerifyCache,
    /// When set, each principal's certificate store is a durable
    /// segment log at `<dir>/<principal>.certlog`, replayed (and the
    /// workspace reconciled) at registration.
    persist_dir: Option<PathBuf>,
    /// When stores fsync (see [`SyncPolicy`]).
    sync_policy: SyncPolicy,
    /// Segment-rotation budget for persistent stores (`None` = the
    /// backend default). Applied at principal registration.
    rotate_bytes: Option<u64>,
    /// Auto-compaction threshold: during a batched group commit, any
    /// store holding at least this many dead (compactable) bytes is
    /// compacted. `None` disables the trigger.
    auto_compact_dead_bytes: Option<u64>,
    /// The anti-entropy revocation gossip program, when enabled (see
    /// [`System::enable_gossip`]): the propagation logic as translated
    /// LBTrust source, loaded into every workspace under the `gossip`
    /// tag. `None` keeps the pre-gossip behaviour: revocations
    /// propagate only through the eager broadcast.
    gossip: Option<String>,
    /// The unified observability surface: metrics registry, quiescence
    /// phase spans, decision journal (see [`System::obs_registry`]).
    obs: SystemObs,
    /// Step-based retry/quarantine policy for storage faults.
    retry_policy: RetryPolicy,
    /// When set (see [`System::with_storage_faults`]), every store
    /// registered afterwards is wrapped in a seeded
    /// [`lbtrust_certstore::FaultingBackend`], with a per-store
    /// schedule derived from this spec and the principal's name.
    fault_spec: Option<FaultConfig>,
    /// State shared with [`crate::AuthzReader`] handles: the snapshot
    /// cell and the volatile cache counters.
    authz_shared: Arc<AuthzShared>,
    /// Lint levels and predicate vocabulary for the static-analysis
    /// preflight ([`System::load_program`], [`System::enable_gossip`]).
    lint: AnalyzerConfig,
}

impl System {
    /// Creates a system over a perfect network.
    pub fn new() -> System {
        System::with_network(NetworkConfig::default(), 0)
    }

    /// Creates a system with the given network behaviour and RNG seed
    /// (key generation derives per-principal seeds from it).
    pub fn with_network(config: NetworkConfig, seed: u64) -> System {
        let registry = Registry::new();
        let authz_shared = Arc::new(AuthzShared::new(&registry));
        System {
            keys: shared_keys(),
            nodes: Vec::new(),
            index: HashMap::new(),
            order: Vec::new(),
            net: SimNetwork::new(config, seed),
            rsa_bits: DEFAULT_RSA_BITS,
            stats: SystemStats::default(),
            seed,
            vcache: shared_verify_cache(),
            persist_dir: None,
            sync_policy: SyncPolicy::default(),
            rotate_bytes: None,
            auto_compact_dead_bytes: None,
            gossip: None,
            obs: SystemObs::new(registry),
            retry_policy: RetryPolicy::default(),
            fault_spec: None,
            authz_shared,
            lint: AnalyzerConfig::default(),
        }
    }

    /// Arms deterministic storage-fault injection: every principal
    /// registered *after* this call gets a store wrapped in a seeded
    /// [`lbtrust_certstore::FaultingBackend`], its schedule derived
    /// from `spec` and the principal's name (registration-order
    /// invariant). Use [`System::fault_handle`] to inject explicit
    /// faults or heal a store from tests.
    pub fn with_storage_faults(mut self, spec: FaultConfig) -> System {
        self.fault_spec = Some(spec);
        self
    }

    /// Overrides the step-based retry/quarantine policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> System {
        self.retry_policy = policy;
        self
    }

    /// Position of `who` in registration order.
    fn index_of(&self, who: Principal) -> Result<usize, SysError> {
        self.index
            .get(&who)
            .copied()
            .ok_or(SysError::UnknownPrincipal(who))
    }

    /// Borrows everything held for `who`.
    pub(crate) fn node(&self, who: Principal) -> Result<&PrincipalState, SysError> {
        Ok(&self.nodes[self.index_of(who)?])
    }

    /// The fault-schedule handle for `p`'s store, when fault injection
    /// is armed (see [`System::with_storage_faults`]).
    pub fn fault_handle(&self, p: Principal) -> Option<FaultHandle> {
        self.node(p).ok()?.faults.clone()
    }

    /// Where `p`'s store sits in the fault-handling lifecycle.
    /// Unregistered principals read as healthy.
    pub fn store_health(&self, p: Principal) -> StoreHealth {
        self.node(p).map(|n| n.health.health).unwrap_or_default()
    }

    /// The currently quarantined principals, in registration order.
    pub fn quarantined(&self) -> Vec<Principal> {
        let quarantined = self.nodes.iter().filter(|n| n.quarantined());
        quarantined.map(|n| n.me).collect()
    }

    // ---- observability -------------------------------------------------------

    /// The unified metrics registry: `net.*`, `store.*` and
    /// `fault.injected.*` counters and the `system.*` and store-footprint
    /// gauges, written from the component structs by this call; the
    /// `storelog.*` lifecycle metrics (persistent stores), `quiesce.*`
    /// phase-timing histograms and `authz.*` decision counters, recorded
    /// as they happen. The registry belongs to this system alone; a clone
    /// of it shows component counts as of the last call here.
    pub fn obs_registry(&self) -> &Registry {
        self.publish_obs();
        self.obs.registry()
    }

    /// Turns the `quiesce.*` phase spans on or off. On by default; the
    /// off path costs one branch per phase, which the bench suite's
    /// overhead microbench pins under its noise floor.
    pub fn with_phase_timing(mut self, on: bool) -> Self {
        self.obs.set_timing(on);
        self
    }

    /// Routes authorization decisions ([`System::authorize`]) to
    /// `sink` as structured events — each carrying the principal, the
    /// goal, the verdict, and the supporting certificate digests.
    pub fn enable_decision_journal(&mut self, sink: Arc<dyn EventSink>) {
        self.obs.journal = Journal::to_sink(sink);
    }

    /// Flushes the decision journal's sink — a JSONL sink buffers, so
    /// call this before reading the file while the system is alive
    /// (dropping the system flushes too).
    pub fn flush_decision_journal(&self) {
        self.obs.journal.flush();
    }

    /// Writes every component's counts into the registry, each under the
    /// one name and kind it has: `net.*` and the nine `store.*` event
    /// counts (summed over stores, once there is a store) as counters
    /// raised to the struct totals, `system.*` and the store footprint as
    /// gauges, and `fault.injected.*` as volatile counters once some store
    /// has a fault handle. Components count only in their own structs;
    /// this is the one place those counts reach the registry, and
    /// [`System::obs_registry`] its one caller.
    fn publish_obs(&self) {
        type Field<T> = fn(&T) -> u64;
        let r = self.obs.registry();
        let raise = |counter: Counter, total: u64| counter.add(total.saturating_sub(counter.get()));
        let n = self.net.stats();
        for (name, total) in [
            ("net.sent", n.sent),
            ("net.delivered", n.delivered),
            ("net.dropped", n.dropped),
            ("net.duplicated", n.duplicated),
            ("net.blackholed", n.blackholed),
            ("net.delayed", n.delayed),
            ("net.reordered", n.reordered),
            ("net.bytes_sent", n.bytes_sent),
        ] {
            raise(r.counter(name), total as u64);
        }
        let s = self.stats();
        for (name, value) in [
            ("system.messages_sent", s.messages_sent),
            ("system.messages_accepted", s.messages_accepted),
            ("system.messages_rejected", s.messages_rejected),
            ("system.local_rollbacks", s.local_rollbacks),
            ("system.steps", s.steps),
            ("system.certs_imported", s.certs_imported),
            ("system.revocations", s.revocations),
            ("system.retractions", s.retractions),
            ("system.dred_repairs", s.dred_repairs),
            ("system.retraction_rebuilds", s.retraction_rebuilds),
            ("system.certs_replayed", s.certs_replayed),
            ("system.gossip_rounds", s.gossip_rounds),
            ("system.gossip_summaries", s.gossip_summaries),
            ("system.gossip_pulls", s.gossip_pulls),
            ("system.gossip_served", s.gossip_served),
        ] {
            r.gauge(name).set(value as u64);
        }
        let stores: Vec<StoreStats> = self.nodes.iter().map(|n| n.store.stats()).collect();
        let sum = |field: Field<StoreStats>| stores.iter().map(field).sum::<u64>();
        let events: [(&str, Field<StoreStats>); 9] = [
            ("store.imports", |s| s.imports),
            ("store.reimports", |s| s.reimports),
            ("store.revocations", |s| s.revocations),
            ("store.expirations", |s| s.expirations),
            ("store.link_breaks", |s| s.link_breaks),
            ("store.replayed", |s| s.replayed),
            ("store.syncs", |s| s.syncs),
            ("store.compactions", |s| s.compactions),
            ("store.checkpoints", |s| s.checkpoints),
        ];
        if !stores.is_empty() {
            for (name, field) in events {
                raise(r.counter(name), sum(field));
            }
        }
        r.gauge("store.live_bytes").set(sum(|s| s.live_bytes));
        r.gauge("store.dead_bytes").set(sum(|s| s.dead_bytes));
        r.gauge("store.segments").set(sum(|s| s.segments));
        let faults: Vec<FaultCounts> = self
            .nodes
            .iter()
            .filter_map(|n| n.faults.as_ref().map(FaultHandle::counts))
            .collect();
        let injected: [(&str, Field<FaultCounts>); 4] = [
            ("fault.injected.io", |f| f.io),
            ("fault.injected.enospc", |f| f.enospc),
            ("fault.injected.torn", |f| f.torn),
            ("fault.injected.fsync_lie", |f| f.fsync_lies),
        ];
        if !faults.is_empty() {
            for (name, field) in injected {
                raise(r.volatile_counter(name), faults.iter().map(field).sum());
            }
        }
    }

    /// Creates a system whose certificate stores are durable: each
    /// principal registered afterwards opens (or creates) a segment log
    /// under `dir`, replays it, and reconciles its workspace — active
    /// certificates re-assert their `export`/`says` facts without any
    /// signature re-verification, and previously revoked certificates
    /// stay rejected. Reopening the same directory with the same
    /// principals (same registration order) reproduces the pre-restart
    /// state.
    pub fn open_persistent(dir: impl AsRef<Path>) -> Result<System, SysError> {
        System::new().persist_at(dir)
    }

    /// Builder form: makes this system's stores durable under `dir`
    /// (see [`System::open_persistent`]). Must be called before
    /// principals are registered.
    pub fn persist_at(mut self, dir: impl AsRef<Path>) -> Result<Self, SysError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SysError::Persist(format!("creating {}: {e}", dir.display())))?;
        self.persist_dir = Some(dir);
        Ok(self)
    }

    /// Overrides the RSA modulus size (tests use 512 for speed; the
    /// Figure 2 harness keeps the paper's 1024). A principal's size is
    /// fixed when it registers, though its key is generated later (see
    /// [`System::add_principal`]), so this must be called before the
    /// principals it should apply to are registered.
    pub fn with_rsa_bits(mut self, bits: usize) -> Self {
        self.rsa_bits = bits;
        self
    }

    /// Sets when persistent stores fsync (see [`SyncPolicy`]).
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Builder form: sets the segment-rotation budget (bytes) for
    /// persistent stores registered afterwards — the active segment of
    /// each store's log is sealed and a fresh one started once it
    /// exceeds the budget. Defaults to the backend's 4 MiB.
    pub fn with_rotation_budget(mut self, bytes: u64) -> Self {
        self.rotate_bytes = Some(bytes.max(1));
        self
    }

    /// Arms the auto-compaction trigger: every batched group commit
    /// additionally compacts any store whose dead-record bytes reached
    /// `dead_bytes`. Dead bytes are what a compaction reclaims — records
    /// superseded by revocation, expiry, or newer clock ticks.
    pub fn with_auto_compaction(mut self, dead_bytes: u64) -> Self {
        self.auto_compact_dead_bytes = Some(dead_bytes);
        self
    }

    /// Does nothing: every phase runs on the caller's thread, in
    /// registration order, whatever `shards` says. Kept only so that
    /// existing callers still build; ROADMAP item A (7) deletes it.
    #[deprecated(note = "inert: the quiescence engine runs on its caller's thread")]
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }

    /// Enables the anti-entropy revocation gossip layer. `program` is
    /// the propagation logic as LBTrust source — author it in SeNDlog
    /// and translate through `lbtrust-sendlog` (the crate's
    /// `gossip::rev_gossip_program()` yields exactly this system's
    /// protocol); it is loaded into every registered workspace (and
    /// every workspace registered later) under the `gossip` tag.
    ///
    /// With gossip on, [`System::run_to_quiescence`] runs an
    /// anti-entropy round each step while any two stores' revocation
    /// summaries disagree: the runtime refreshes each workspace's
    /// `revfp` facts from its store, ships the `revsummary`/`revpull`
    /// messages the program derives, and answers pulls with the signed
    /// revocation objects themselves — so a store that missed the
    /// eager broadcast (packet loss, partition, late registration)
    /// still converges. The eager point-to-point broadcast remains the
    /// fast path; gossip is the repair layer.
    pub fn enable_gossip(&mut self, program: &str) -> Result<(), SysError> {
        // Static-analysis preflight: gossip logic reaches every
        // workspace, so a deny-level finding refuses it for all of them
        // before any workspace is touched.
        self.preflight("gossip", program)?;
        for node in &mut self.nodes {
            node.ws.replace_tag("gossip", program)?;
        }
        self.gossip = Some(program.to_string());
        Ok(())
    }

    /// Whether the gossip repair layer is on.
    pub fn gossip_enabled(&self) -> bool {
        self.gossip.is_some()
    }

    /// Total backend syncs performed across every principal's store —
    /// for log-backed stores, the number of fsyncs the deployment has
    /// paid. The counter [`SyncPolicy::Batched`] exists to shrink.
    pub fn fsyncs(&self) -> u64 {
        self.nodes.iter().map(|n| n.store.stats().syncs).sum()
    }

    /// Compacts every principal's store — checkpoint + prune of
    /// superseded segments — in registration order. Returns how many
    /// stores actually installed a compaction (memory-backed stores
    /// never do). Dead records (revoked/expired
    /// certificates, superseded ticks) stop occupying disk, reopen cost
    /// drops to checkpoint + suffix, and audit citations survive via
    /// the folded audit segment. Quarantined stores are skipped
    /// outright — compaction is a write (checkpoint append / segment
    /// rewrite) and the store is read-only until its fault heals.
    pub fn compact(&mut self) -> Result<usize, SysError> {
        self.run_store_op(|n| {
            (!n.quarantined()).then(|| n.store.compact().map(|report| report.performed))
        })
    }

    /// Runs `op` on every principal in registration order and folds
    /// each result it returns (`Some`; `None` skips the principal) into
    /// the health state: transient I/O degrades the store (retried by
    /// the next group commit / maintenance pass) instead of failing the
    /// whole sweep, and the first other error is returned once every
    /// principal has had its turn. Returns how many results were
    /// `Ok(true)` — maintenance passes that installed.
    fn run_store_op(
        &mut self,
        mut op: impl FnMut(&mut PrincipalState) -> Option<Result<bool, CertStoreError>>,
    ) -> Result<usize, SysError> {
        let mut performed = 0usize;
        let mut first_error: Option<SysError> = None;
        for i in 0..self.nodes.len() {
            match op(&mut self.nodes[i]) {
                None => {}
                Some(Ok(did)) => {
                    performed += usize::from(did);
                    self.note_store_ok(i);
                }
                Some(Err(e)) => {
                    if let Err(e) = self.note_store_failure(i, e) {
                        first_error.get_or_insert(e);
                    }
                }
            }
        }
        first_error.map_or(Ok(performed), Err)
    }

    /// Shared key directory (for inspection).
    pub fn keys(&self) -> &SharedKeys {
        &self.keys
    }

    /// Network statistics.
    pub fn net_stats(&self) -> lbtrust_net::NetworkStats {
        self.net.stats()
    }

    /// Mutable access to the simulated network — for fault-plane tests
    /// and benches to install partitions or inspect the fault clock.
    /// The network is part of the deterministic state: mutate it
    /// between [`System::run_to_quiescence`] runs, not during one.
    pub fn network_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    /// System statistics: the sequencer's own counters plus every
    /// principal's, summed in registration order.
    pub fn stats(&self) -> SystemStats {
        let mut s = self.stats;
        for node in &self.nodes {
            let t = &node.tally;
            s.messages_accepted += t.accepted;
            s.messages_rejected += t.rejected;
            s.revocations += t.revocations;
            s.retractions += t.retractions;
            s.dred_repairs += t.dred_repairs;
            s.retraction_rebuilds += t.retraction_rebuilds;
        }
        s
    }

    /// Registered principals in registration order.
    pub fn principals(&self) -> &[Principal] {
        &self.order
    }

    // ---- setup -------------------------------------------------------------

    /// Registers a principal, enrolling its RSA keypair, placing it on
    /// `node`, installing the `says` declarations and the default
    /// authentication scheme (RSA, §5.1), and introducing it (name and
    /// public key handle) to every existing principal. Enrolling fixes
    /// the key's modulus size and seed but generates nothing
    /// ([`KeyDirectory::enroll_rsa`](crate::KeyDirectory::enroll_rsa)):
    /// the first signature or verification involving the principal pays
    /// its generation (~10 ms at 1024 bits), and a principal that never
    /// signs and is never verified, such as a receiver that only
    /// verifies others or one speaking plaintext or HMAC, generates no
    /// key at all. A name no packet
    /// could carry — a symbol travels as its bare text — is refused with
    /// [`SysError::InvalidName`] here, not dropped by every receiver later.
    ///
    /// The newcomer is not evaluated here: its introduced facts and the
    /// facts of the certificates its store replays become its rollback
    /// baseline as they stand, and its first evaluation is owed to the
    /// next step of [`System::run_to_quiescence`] (or to whatever
    /// evaluates it first). Until then its workspace holds those facts
    /// and nothing derived from them, so a reader is denied. If they
    /// violate a constraint — a replayed credential whose issuer has not
    /// registered yet — the evaluation that finds it rolls the workspace
    /// back to that baseline and counts in
    /// [`SystemStats::local_rollbacks`], and a later registration that
    /// introduces the missing principal lets the next evaluation succeed.
    /// Every existing principal evaluates its introduction of the
    /// newcomer now. A constraint violation there is counted the same
    /// way and does not abort the registration: that principal rolls
    /// back and keeps the introduction in its baseline. Any other
    /// evaluation error is returned.
    pub fn add_principal(&mut self, name: &str, node: &str) -> Result<Principal, SysError> {
        if !lbtrust_datalog::lexer::is_principal_name(name) {
            return Err(SysError::InvalidName(name.to_string()));
        }
        let me = Symbol::intern(name);
        if self.index.contains_key(&me) {
            return Ok(me);
        }
        let key_seed = self
            .seed
            .wrapping_add(me.index() as u64)
            .wrapping_mul(0x9E37_79B9);
        self.keys.write().enroll_rsa(me, self.rsa_bits, key_seed);

        let mut ws = Workspace::new(name);
        register_crypto_builtins_cached(
            ws.builtins_mut(),
            me,
            self.keys.clone(),
            self.vcache.clone(),
        );
        ws.load("says-decls", SAYS_DECLS)?;
        ws.load("auth", &AuthScheme::Rsa.prelude())?;
        // Late joiners run the gossip program from their first step, so
        // revocations issued before they existed still reach them.
        if let Some(program) = &self.gossip {
            ws.load("gossip", program)?;
        }

        // Introduce everyone to everyone (prin facts + key handles).
        introduce(&mut ws, me);
        ws.assert_fact(
            Symbol::intern("rsaprivkey"),
            vec![Value::Sym(me), rsa_priv_handle(me)],
        );
        for other in &mut self.nodes {
            introduce(&mut ws, other.me);
            introduce(&mut other.ws, me);
        }

        // The certificate store, composed one way: an ephemeral backend
        // by default, a segment log under persistence (its `storelog.*`
        // metrics wired before the opening replay, so the replay is
        // measured); with fault injection armed, either is wrapped in a
        // FaultingBackend whose schedule depends only on the spec seed
        // and the principal's name; then opened, replaying whatever the
        // backend holds.
        let mut backend: Box<dyn StorageBackend> = match &self.persist_dir {
            None => Box::new(MemoryBackend::new()),
            Some(dir) => {
                let path = dir.join(format!("{name}.certlog"));
                let mut log = match self.rotate_bytes {
                    Some(bytes) => LogBackend::open_with_budget(path, bytes),
                    None => LogBackend::open(path),
                }
                .map_err(CertStoreError::from)?;
                log.attach_metrics(self.obs.registry());
                Box::new(log)
            }
        };
        let faults = self
            .fault_spec
            .as_ref()
            .map(|spec| FaultHandle::seeded(spec.for_store(name)));
        if let Some(handle) = &faults {
            backend = Box::new(FaultingBackend::new(backend, handle.clone()));
        }
        let store = CertStore::open_backend(backend, self.vcache.clone())?;
        // Replay reconciliation: every certificate the log shows as
        // still active re-introduces exactly the facts a live import
        // would have asserted, so the workspace's derived state matches
        // the pre-restart system once policies are reloaded.
        // Certificates the log shows as revoked/expired need nothing: a
        // freshly registered workspace holds no facts for them.
        let active = store.active();
        let mut principal = PrincipalState::new(ws, store, NodeId::new(node), faults);
        self.stats.certs_replayed += principal.file_cert_facts(active).len();

        // A constraint violation rolls back to a fully introduced
        // workspace, not an empty one; the first evaluation is the next
        // step's.
        principal.ws.mark_baseline();
        for other in &mut self.nodes {
            match other.ws.evaluate() {
                Ok(_) => {}
                Err(WsError::Constraint(_)) => {
                    self.stats.local_rollbacks += 1;
                    introduce(&mut other.ws, me);
                    other.ws.mark_baseline();
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.index.insert(me, self.nodes.len());
        self.nodes.push(principal);
        self.order.push(me);
        Ok(me)
    }

    /// Establishes a pairwise shared secret (required by the HMAC scheme
    /// and the confidentiality builtins) and tells both workspaces.
    pub fn establish_shared_secret(&mut self, a: Principal, b: Principal) -> Result<(), SysError> {
        let seed = self
            .seed
            .wrapping_add(a.index() as u64)
            .wrapping_mul(31)
            .wrapping_add(b.index() as u64);
        self.keys.write().generate_shared_secret(a, b, seed);
        let handle = shared_secret_handle(a, b);
        for (me, other) in [(a, b), (b, a)] {
            let ws = self.workspace_mut(me)?;
            ws.assert_fact(
                Symbol::intern("sharedsecret"),
                vec![Value::Sym(me), Value::Sym(other), handle.clone()],
            );
            ws.evaluate()?;
        }
        Ok(())
    }

    /// Swaps `who`'s authentication scheme — the paper's two-rule
    /// reconfiguration (§4.1.2). Policies using `says` are untouched.
    pub fn set_auth_scheme(&mut self, who: Principal, scheme: AuthScheme) -> Result<(), SysError> {
        self.workspace_mut(who)?
            .replace_tag("auth", &scheme.prelude())?;
        Ok(())
    }

    /// The node hosting `who`.
    pub fn location(&self, who: Principal) -> Option<NodeId> {
        Some(self.node(who).ok()?.node)
    }

    // ---- workspace access ----------------------------------------------------

    /// Borrows a principal's workspace.
    pub fn workspace(&self, who: Principal) -> Result<&Workspace, SysError> {
        Ok(&self.node(who)?.ws)
    }

    /// Mutably borrows a principal's workspace.
    pub fn workspace_mut(&mut self, who: Principal) -> Result<&mut Workspace, SysError> {
        let i = self.index_of(who)?;
        Ok(&mut self.nodes[i].ws)
    }

    // ---- static-analysis preflight -------------------------------------------

    /// Sets one lint's level, e.g. demoting a deny-level lint to `Warn`
    /// for a program that is trusted by construction.
    pub fn with_lint_level(mut self, kind: lbtrust_analysis::DiagKind, level: LintLevel) -> Self {
        self.lint.set_level(kind, level);
        self
    }

    /// Parses and analyzes `src` under the system's lint configuration,
    /// refusing it when any finding is at [`LintLevel::Deny`].
    fn preflight(&self, tag: &str, src: &str) -> Result<Analysis, SysError> {
        let program = parse_program(src).map_err(WsError::from)?;
        let analysis = analyze(&program, &self.lint);
        if analysis.has_denials() {
            return Err(SysError::Lint(LintError {
                tag: tag.to_string(),
                denials: analysis.denials().cloned().collect(),
            }));
        }
        Ok(analysis)
    }

    /// Installs a program into `who`'s workspace under `tag`, with a
    /// static-analysis preflight: the program is parsed and analyzed
    /// first, and refused outright ([`SysError::Lint`]) if any finding
    /// reaches [`LintLevel::Deny`] under the system's lint
    /// configuration — before the workspace sees it. On success the
    /// [`Analysis`] is returned so callers can surface warn-level
    /// findings.
    ///
    /// This is the vetted front door for program installation;
    /// [`System::workspace_mut`] + [`Workspace::load`] remains the
    /// unvetted escape hatch (still safety- and stratification-checked,
    /// but not linted).
    pub fn load_program(
        &mut self,
        who: Principal,
        tag: &str,
        src: &str,
    ) -> Result<Analysis, SysError> {
        let analysis = self.preflight(tag, src)?;
        self.workspace_mut(who)?.load(tag, src)?;
        Ok(analysis)
    }

    // ---- the certificate store -----------------------------------------------

    /// A signature verifier over this system's key directory (what the
    /// shared verification cache memoizes).
    pub fn key_verifier(&self) -> KeyVerifier {
        KeyVerifier::new(self.keys.clone())
    }

    /// Borrows a principal's certificate store.
    pub fn cert_store(&self, who: Principal) -> Result<&CertStore, SysError> {
        Ok(&self.node(who)?.store)
    }

    /// Hit/miss counters of the process-wide verification cache.
    pub fn verify_cache_stats(&self) -> lbtrust_certstore::verify::CacheStats {
        self.vcache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats()
    }

    /// Issues one linked certificate: `issuer` signs `fact_src` (a
    /// single ground fact) citing `links` as supporting credentials,
    /// valid for `ttl` logical ticks (`None` = no expiry).
    pub fn issue_certificate(
        &mut self,
        issuer: Principal,
        fact_src: &str,
        links: &[CertDigest],
        ttl: Option<u64>,
    ) -> Result<LinkedCert, SysError> {
        let mut certs = self.issue_certificates(issuer, fact_src, links, ttl)?;
        if certs.len() != 1 {
            return Err(SysError::Issue(format!(
                "expected one fact, found {}",
                certs.len()
            )));
        }
        Ok(certs.remove(0))
    }

    /// Issues one linked certificate per ground fact in `facts_src`,
    /// all citing `links` and carrying `ttl`: one RSA signature each,
    /// over [`cert::signing_bytes`].
    pub fn issue_certificates(
        &mut self,
        issuer: Principal,
        facts_src: &str,
        links: &[CertDigest],
        ttl: Option<u64>,
    ) -> Result<Vec<LinkedCert>, SysError> {
        let program = lbtrust_datalog::parse_program(facts_src)
            .map_err(|e| SysError::Issue(e.to_string()))?;
        if !program.constraints.is_empty() {
            return Err(SysError::Issue("certificates carry facts only".into()));
        }
        let guard = self.keys.read();
        let pair = guard
            .rsa(issuer)
            .ok_or(SysError::UnknownPrincipal(issuer))?;
        let mut out = Vec::with_capacity(program.rules.len());
        for rule in program.rules {
            if !rule.is_fact() {
                return Err(SysError::Issue(format!("'{rule}' is not a ground fact")));
            }
            let rule = Arc::new(rule);
            let to_sign = cert::signing_bytes(issuer, &rule, links, ttl);
            let signature = rsa_sign(pair, &to_sign).map_err(|e| SysError::Issue(e.to_string()))?;
            out.push(LinkedCert {
                issuer,
                rule,
                links: links.to_vec(),
                ttl,
                signature,
            });
        }
        Ok(out)
    }

    // ---- fault plane ---------------------------------------------------------

    /// Journals one degradation transition (`store.degraded`,
    /// `store.quarantined`, `store.healed`) of the principal at `i`
    /// when a sink is attached.
    fn journal_health(&self, kind: &str, i: usize, attempts: u32, detail: &str) {
        if !self.obs.journal.enabled() {
            return;
        }
        let event = Event::new(kind)
            .str_field("principal", &self.nodes[i].me.to_string())
            .u64_field("step", self.stats.steps as u64)
            .u64_field("attempts", u64::from(attempts))
            .str_field("error", detail);
        self.obs.journal.record(&event);
    }

    /// Moves the store at `i` into quarantine: it keeps serving reads,
    /// refuses writes with [`DegradedError`], is skipped by group
    /// commit and auto-compaction, and is probed for re-admission each
    /// step once its backoff elapses.
    fn quarantine_store(&mut self, i: usize, last_error: String) {
        let step = self.stats.steps;
        let policy = self.retry_policy;
        let h = &mut self.nodes[i].health;
        if h.health != StoreHealth::Quarantined {
            h.since_step = step;
        }
        h.health = StoreHealth::Quarantined;
        h.retry_at_step = step + policy.backoff_steps(h.attempts.max(1));
        let attempts = h.attempts;
        self.obs.count_quarantine();
        self.journal_health("store.quarantined", i, attempts, &last_error);
        self.nodes[i].health.last_error = last_error;
    }

    /// Runs one storage operation against the principal at `i`,
    /// retrying transient I/O failures immediately up to the policy's
    /// `max_attempts` (safe because the store's durability contract
    /// leaves memory untouched when an append fails). Returns
    /// `Ok(None)` when retries were exhausted and the store was
    /// quarantined; non-storage errors pass through as `Err`.
    fn retry_store_op<T>(
        &mut self,
        i: usize,
        mut op: impl FnMut(&mut PrincipalState) -> Result<T, CertStoreError>,
    ) -> Result<Option<T>, SysError> {
        let max = self.retry_policy.max_attempts.max(1);
        let mut failures = 0u32;
        loop {
            let node = &mut self.nodes[i];
            match op(node) {
                Ok(v) => {
                    if failures > 0 {
                        node.health.attempts = 0;
                        node.health.health = StoreHealth::Healthy;
                    }
                    return Ok(Some(v));
                }
                Err(e) if is_storage_io(&e) => {
                    failures += 1;
                    node.health.attempts = node.health.attempts.saturating_add(1);
                    node.health.last_error = e.to_string();
                    self.obs.count_retry();
                    if failures >= max {
                        self.quarantine_store(i, e.to_string());
                        return Ok(None);
                    }
                }
                Err(e) => return Err(SysError::Cert(e)),
            }
        }
    }

    /// Refuses writes against a quarantined store with a structured
    /// [`SysError::Degraded`], then runs `op` under immediate retry.
    fn with_store_retry<T>(
        &mut self,
        i: usize,
        op: impl FnMut(&mut PrincipalState) -> Result<T, CertStoreError>,
    ) -> Result<T, SysError> {
        if !self.nodes[i].quarantined() {
            if let Some(v) = self.retry_store_op(i, op)? {
                return Ok(v);
            }
        }
        Err(SysError::Degraded(self.nodes[i].degraded()))
    }

    /// Folds one deferred (group-commit / maintenance) storage failure
    /// into the health state at `i`: transient I/O degrades the store
    /// with step-based backoff and quarantines it once the policy's
    /// `max_attempts` consecutive failures accumulate; any other error
    /// propagates unchanged.
    fn note_store_failure(&mut self, i: usize, e: CertStoreError) -> Result<(), SysError> {
        if !is_storage_io(&e) {
            return Err(SysError::Cert(e));
        }
        let step = self.stats.steps;
        let policy = self.retry_policy;
        self.obs.count_retry();
        let h = &mut self.nodes[i].health;
        h.attempts = h.attempts.saturating_add(1);
        h.last_error = e.to_string();
        if h.health == StoreHealth::Healthy {
            h.since_step = step;
        }
        let attempts = h.attempts;
        if attempts >= policy.max_attempts.max(1) {
            self.quarantine_store(i, e.to_string());
        } else {
            h.health = StoreHealth::Degraded;
            h.retry_at_step = step + policy.backoff_steps(attempts);
            self.journal_health("store.degraded", i, attempts, &e.to_string());
        }
        Ok(())
    }

    /// Clears the degraded state at `i` after a successful deferred
    /// commit.
    fn note_store_ok(&mut self, i: usize) {
        let h = &mut self.nodes[i].health;
        let was = std::mem::replace(&mut h.health, StoreHealth::Healthy);
        h.attempts = 0;
        if was == StoreHealth::Degraded {
            self.journal_health("store.healed", i, 0, "deferred commit succeeded");
        }
    }

    /// Whether any store is `Degraded` — a deferred group-commit retry
    /// is pending, so the quiescence loop must keep stepping.
    /// (`Quarantined` stores do *not* hold up quiescence: the system
    /// runs degraded around them.)
    fn retries_pending(&self) -> bool {
        let mut health = self.nodes.iter().map(|n| n.health.health);
        health.any(|h| h == StoreHealth::Degraded)
    }

    /// Whether any quarantined store is *probe-eligible*: its fault
    /// handle no longer reports a persistent failure (or it has none),
    /// so an upcoming probe will re-admit it. The quiescence loop keeps
    /// stepping until such stores are back in — while a store whose
    /// fault is still armed lets the system settle into degraded
    /// service instead.
    fn heal_pending(&self) -> bool {
        let mut nodes = self.nodes.iter();
        nodes.any(|n| n.quarantined() && !n.fault_armed())
    }

    /// Imports certificates into `to`'s store (links resolved within
    /// the batch and against already-stored credentials, each
    /// certificate's one signature checked through the shared cache) and
    /// files each certified rule in `to`'s workspace as
    /// `certified(issuer, me, R, D)`, `D` its content address. The
    /// `says-decls` rule derives `says(issuer, me, R)` from it, and every
    /// scheme's `exp3` accepts it without a signature of its own, so an
    /// HMAC or plaintext receiver imports like an RSA one.
    ///
    /// If the evaluation that follows fails (the policy refuses a
    /// certified rule), the workspace rolls the whole batch's facts back
    /// and the error is returned. The certificates stay in the store,
    /// verified, and nothing records them as filed: importing any of them
    /// again files it anew.
    pub fn import_certificates(
        &mut self,
        to: Principal,
        certs: Vec<LinkedCert>,
    ) -> Result<Vec<ImportOutcome>, SysError> {
        let to = self.index_of(to)?;
        let verifier = self.key_verifier();
        // The bundle import retries as a unit on transient I/O: a
        // failed insert left no trace (append-before-mutate), and
        // already-Active members re-import through the no-append fast
        // path, so a retry is idempotent.
        let outcomes =
            self.with_store_retry(to, |n| n.store.import_bundle(certs.clone(), &verifier))?;
        // One commit point per bundle under either policy: an
        // acknowledged import is durable, and the fsync amortizes over
        // the whole bundle rather than per certificate. Retried
        // separately from the import so a commit failure after a
        // successful bundle walk cannot re-append anything.
        self.with_store_retry(to, |n| n.store.sync())?;
        // Facts land for fresh imports *and* for live certificates
        // whose facts never did (a bundle that failed part-way leaves
        // its successful members Active in the store; a retry arrives
        // here with newly_added=false and must still finish the
        // workspace half of the import).
        let node = &mut self.nodes[to];
        let filed = node.file_cert_facts(outcomes.iter().map(|o| o.digest));
        if let Err(e) = node.ws.evaluate() {
            node.unfile_cert_facts(&filed);
            return Err(e.into());
        }
        self.stats.certs_imported += filed.len();
        Ok(outcomes)
    }

    /// Revokes a certificate `issuer` issued: applies the signed
    /// revocation at the issuer immediately (retracting the
    /// certificate's facts through DRed) and broadcasts a `revoke`
    /// packet to every other principal's node, so stores across the
    /// (simulated) deployment converge during the next
    /// [`System::run_to_quiescence`].
    pub fn revoke_certificate(
        &mut self,
        issuer: Principal,
        digest: CertDigest,
    ) -> Result<(), SysError> {
        let at = self.index_of(issuer)?;
        let signing = lbtrust_net::revoke_signing_bytes(issuer, digest.as_bytes());
        let signature = {
            let guard = self.keys.read();
            let pair = guard
                .rsa(issuer)
                .ok_or(SysError::UnknownPrincipal(issuer))?;
            rsa_sign(pair, &signing).map_err(|e| SysError::Issue(e.to_string()))?
        };
        let revocation = Revocation {
            issuer,
            target: digest,
            signature: signature.clone(),
        };
        // Local application at the issuer's node is immediate. The
        // mutation and its fsync retry separately: once the revoke has
        // appended and applied, a retried call would hit the
        // idempotence gate and find nothing left to retract.
        let verifier = self.key_verifier();
        self.with_store_retry(at, |n| n.apply_revocation(&revocation, &verifier, false))?;
        if self.sync_policy == SyncPolicy::Eager {
            // A persistent commit failure quarantines the store, but
            // the revocation is applied in memory and the workspace
            // already retracted — the heal-time flush makes it durable.
            self.with_store_retry(at, |n| n.store.sync())?;
        }
        // … and everybody else learns over the wire.
        let from_node = self.nodes[at].node;
        for other in 0..self.nodes.len() {
            if other == at {
                continue;
            }
            let packet = WirePacket::Revoke(RevokeMessage {
                from: issuer,
                to: self.nodes[other].me,
                digest: *digest.as_bytes(),
                auth: signature.clone(),
            });
            let to_node = self.nodes[other].node;
            self.send_packet(from_node, to_node, lbtrust_net::encode_packet(&packet));
        }
        Ok(())
    }

    /// Hands one payload to the network, counting it in
    /// [`SystemStats::messages_sent`] only when the network actually
    /// enqueued it — the loss model's drops are the network's
    /// [`lbtrust_net::NetworkStats::dropped`], not messages this system
    /// sent, so `messages_sent == net.sent - net.dropped` holds by
    /// construction (the reconciliation Figure 2's x-axis relies on).
    fn send_packet(&mut self, from: NodeId, to: NodeId, payload: Vec<u8>) -> bool {
        let enqueued = self.net.send(from, to, payload);
        if enqueued {
            self.stats.messages_sent += 1;
        }
        enqueued
    }

    /// Advances every store's logical clock by `ticks`, expiring
    /// overdue certificates and retracting their facts (TTL freshness).
    /// Returns the number of certificates that died.
    pub fn advance_time(&mut self, ticks: u64) -> Result<usize, SysError> {
        let mut died = 0;
        let eager = self.sync_policy == SyncPolicy::Eager;
        for i in 0..self.nodes.len() {
            // Quarantined stores must not lose time: the ticks
            // accumulate and apply at re-admission — graceful
            // degradation, not an error, since the caller is advancing
            // the whole deployment. A store quarantined just now joins
            // them: the tick record never appended
            // (append-before-mutate).
            let advanced = if self.nodes[i].quarantined() {
                None
            } else {
                self.retry_store_op(i, |n| n.advance_clock(ticks))?
            };
            let Some(expired) = advanced else {
                self.nodes[i].health.pending_ticks += ticks;
                continue;
            };
            died += expired;
            if eager {
                // Commit failure only defers durability: the expiry is
                // applied in memory and the heal-time flush catches up.
                let _ = self.retry_store_op(i, |n| n.store.sync())?;
            }
        }
        Ok(died)
    }

    /// Audit query: which credential(s) introduced the certified rule
    /// `rule_src` into `who`'s store? Answers from the store's
    /// append-only audit trail, so the citation survives the
    /// credential's revocation and expiry — and, for durable stores,
    /// process restarts.
    pub fn audit_introducers(
        &self,
        who: Principal,
        rule_src: &str,
    ) -> Result<Vec<AuditEntry>, SysError> {
        let rule =
            lbtrust_datalog::parse_rule(rule_src).map_err(|e| SysError::Issue(e.to_string()))?;
        let store = self.cert_store(who)?;
        Ok(store
            .audit()
            .introducers(&rule.to_string())
            .into_iter()
            .cloned()
            .collect())
    }

    /// Decides whether `goal` holds in `who`'s workspace and cites the
    /// credentials the decision rests on: the digest on each
    /// `certified(issuer, me, R, D)` leaf of the proof, and, for a fact a
    /// certified rule activated, the live certificates asserting it
    /// ([`System::audit_introducers`] answers which certificates ever
    /// carried a rule, over every certificate the store imported).
    /// The proof search fails closed: a goal whose search tries more than
    /// 65,536 rule instances in one pass — one per derived tuple of the
    /// proof, or, once it has met a cycle, every instance of every tuple
    /// it expands before the goal is proved — is denied though it holds.
    /// The decision increments `authz.granted`/`authz.denied`
    /// and, when a journal sink is attached
    /// ([`System::enable_decision_journal`]), is recorded as an
    /// `authorize` event carrying the supporting digests.
    pub fn authorize(&self, who: Principal, goal: &str) -> Result<AuthzDecision, SysError> {
        let node = self.node(who)?;
        let store = &node.store;
        let proof = node.ws.explain_proof(goal)?;
        let decided = decide(proof, store.ground_heads());
        if decided.granted {
            self.obs.authz_granted.inc();
        } else {
            self.obs.authz_denied.inc();
        }
        if self.obs.journal.enabled() {
            self.obs.journal.record(
                &Event::new("authorize")
                    .str_field("principal", who.as_str())
                    .str_field("goal", goal)
                    .bool_field("granted", decided.granted)
                    .list_field(
                        "supporting",
                        decided.supporting.iter().map(|d| d.to_hex()).collect(),
                    ),
            );
        }
        Ok(decided.into_decision(who, goal.to_string()))
    }

    /// Publishes a fresh [`crate::AuthzSnapshot`] of every principal's
    /// current state for the concurrent read path: [`AuthzReader`]
    /// handles answer against it lock-free while this system keeps
    /// mutating. Always publishes when called. A quiescent point of
    /// [`System::run_to_quiescence`] publishes while a reader is alive;
    /// with none, the system holds no snapshot and no cached decision.
    /// Callers streaming imports or revocations outside the fixpoint
    /// (e.g. [`System::revoke_certificate`]) publish explicitly to make
    /// those changes visible to readers.
    ///
    /// Decisions are cached in the snapshot they were proved on. A
    /// principal that changed *only* by incremental DRed retractions
    /// hands its cached decisions on to its new snapshot, less exactly
    /// those citing a dead certificate (counted in
    /// `authz.cache_invalidations`); any other change starts the new
    /// snapshot with none. A grant a reader proves on a superseded
    /// snapshot is cached there, where no reader of a later generation
    /// looks, so a cached grant never outlives the publish of a
    /// revocation of its support.
    pub fn publish_authz_snapshot(&mut self) {
        let started = Instant::now();
        let mut principals = HashMap::with_capacity(self.nodes.len());
        let mut dropped = 0;
        for node in &mut self.nodes {
            let (snap, invalidated) = node.publish();
            principals.insert(node.me, snap);
            dropped += invalidated;
        }
        if dropped > 0 {
            self.authz_shared.invalidations.add(dropped);
        }
        self.authz_shared.cell.publish(crate::AuthzSnapshot {
            generation: 0, // stamped by the cell
            principals,
        });
        if self.obs.timing_enabled() {
            self.authz_shared
                .publish_ns
                .record_duration(started.elapsed());
        }
    }

    /// Publishes the current state and hands out a `Send + Sync`
    /// [`AuthzReader`] evaluating `authorize()` against published
    /// snapshots from any thread, without borrowing the system. Clone
    /// the handle (or call this again) for more reader threads; all
    /// handles share the decisions cached in each published snapshot
    /// and see each newly published snapshot within one atomic load.
    /// A quiescent point publishes
    /// while a reader is alive; with none, the system holds no snapshot
    /// and no cached decision, so open the reader before the traffic it
    /// is to follow.
    pub fn authz_reader(&mut self) -> AuthzReader {
        self.publish_authz_snapshot();
        AuthzReader::new(self.authz_shared.clone())
    }

    /// A quiescent point's part in the read path: publish while a reader
    /// is alive; with none, hold no snapshot and no cached decision, so
    /// the writer's relations are its own again and the next step's
    /// writes copy nothing.
    fn publish_for_readers(&mut self) {
        // The shared state is unshared exactly when no reader is alive,
        // and none can appear while this runs: a reader comes from
        // `authz_reader` (which needs `&mut self`) or from cloning a live
        // one. A reader dropped on another thread meanwhile costs one
        // publish nobody reads.
        let Some(shared) = Arc::get_mut(&mut self.authz_shared) else {
            return self.publish_authz_snapshot();
        };
        shared.release();
        // Revocations fill `poisoned` whether or not anything was
        // published, so each principal's bookkeeping is emptied here.
        for node in &mut self.nodes {
            node.authz.release();
        }
    }

    // ---- the distributed fixpoint ---------------------------------------------

    /// Runs every workspace to its local fixpoint, ships export tuples,
    /// delivers messages (triggering imports), and repeats until no
    /// workspace derives anything new and the network is empty.
    ///
    /// A quiescent point publishes while a reader is alive; with none,
    /// the system holds no snapshot and no cached decision (see
    /// [`System::authz_reader`]).
    ///
    /// Every phase runs on the caller's thread and visits the
    /// principals in registration order, so placement updates, network
    /// traffic and statistics repeat from run to run.
    ///
    /// Messages whose import violates the receiver's verification
    /// constraint are rejected (the receiving workspace rolls back) and
    /// counted in [`SystemStats::messages_rejected`]. Any other
    /// evaluation error aborts the run, but never mid-phase: every
    /// principal still takes its turn in the failing phase (so packets
    /// already drained from the network are applied, not lost), and the
    /// first such error in registration order is returned.
    pub fn run_to_quiescence(&mut self, max_steps: usize) -> Result<SystemStats, SysError> {
        for _ in 0..max_steps {
            self.stats.steps += 1;
            // Advance the network's fault clock: heal partitions whose
            // deadline arrived and release messages the delay model
            // held for this step.
            self.net.begin_step();
            if self.phase(QuiescePhase::Step, System::step)? {
                self.publish_for_readers();
                return Ok(self.stats());
            }
        }
        Err(SysError::NoQuiescence { steps: max_steps })
    }

    /// Runs `work` as one span of `phase`'s histogram.
    fn phase<T>(&mut self, phase: QuiescePhase, work: impl FnOnce(&mut System) -> T) -> T {
        let started = self.obs.phase_timer();
        let done = work(self);
        self.obs.record_phase(phase, started);
        done
    }

    /// One step of the distributed fixpoint; `true` when it found the
    /// system quiescent.
    fn step(&mut self) -> Result<bool, SysError> {
        let export = names().export;
        // 0. Gossip inputs: refresh each workspace's `revfp` facts from
        // its store and learn whether any two stores' summaries still
        // disagree. Sequential in registration order (cheap:
        // fingerprints are maintained per store).
        let divergent = self.phase(QuiescePhase::GossipPrepare, System::prepare_gossip);
        // 1. Local fixpoints, one per principal. A constraint
        // violation rolls the offending workspace back to its last good
        // state (the paper's fail-with-error semantics) and the system
        // carries on.
        self.phase(QuiescePhase::Fixpoint, System::local_fixpoints)?;
        // 1b. Data-driven placement (§5.2 ld1/ld2): `loc(P, N)` facts
        // derived in any workspace update the placement — "users can
        // easily enforce various distribution plans by modifying the
        // loc table". Sequential, in registration order, so conflicting
        // placements resolve deterministically.
        self.phase(QuiescePhase::Placement, System::update_placement);
        // 2. Drain fresh export tuples into the network, sequentially
        // so delivery order stays deterministic.
        let shipped = self.phase(QuiescePhase::ExportDrain, |s| s.drain_exports(export));
        // 2b. Gossip round: while stores disagree, ship the
        // `revsummary`/`revpull` messages the gossip program derived.
        // Dormant once every store holds the same revocation objects —
        // the anti-entropy traffic stops, so the system can quiesce.
        // Sequential merge, like phase 2.
        let gossip_sent = self.phase(QuiescePhase::GossipSend, |s| {
            if divergent {
                s.gossip_sends()
            } else {
                0
            }
        });
        // 3. Deliver and import, one batch per destination (answering
        // gossip pulls with `revgossip` frames).
        let delivered = self.phase(QuiescePhase::Delivery, |s| s.deliver_and_import(export))?;
        // 4. Group commit: under `Batched`, every store that appended
        // during this step syncs exactly once, here.
        if self.sync_policy == SyncPolicy::Batched {
            self.phase(QuiescePhase::GroupCommit, System::flush)?;
        }
        // 5. Fault-plane recovery: probe quarantined stores whose
        // backoff elapsed and re-admit the ones whose fault healed
        // (deferred group-commit retries already ran in phase 4).
        let healed = self.phase(QuiescePhase::FaultRecovery, System::probe_quarantined)?;
        // Quiescent when nothing was shipped or delivered this step
        // (local fixpoints already ran), gossip is dormant, no message
        // sits delayed inside the network, no deferred commit retry is
        // pending, and no store was just re-admitted (a fresh
        // re-admission needs at least one more round so anti-entropy
        // can repair what the store missed). Quarantined stores whose
        // fault is still armed do NOT hold up quiescence — the system
        // settles into degraded service around them; ones whose fault
        // healed keep the loop alive until a probe re-admits them.
        Ok(shipped == 0
            && delivered == 0
            && gossip_sent == 0
            && healed == 0
            && !self.net.has_pending()
            && !self.retries_pending()
            && !self.heal_pending())
    }

    /// Gossip phase 0: recompute every store's revocation summary,
    /// reconcile each workspace's `revfp` facts with it, and report
    /// whether any two stores disagree. A no-op returning `false` when
    /// gossip is off — and cheap when it is on but converged.
    fn prepare_gossip(&mut self) -> bool {
        if self.gossip.is_none() {
            return false;
        }
        // Per-store summaries, registration order. Each is sorted by
        // signer name, so plain equality compares the summaries.
        let summarize = |n: &PrincipalState| -> Vec<(Symbol, String)> {
            let fps = n.store.revocation_fingerprints().into_iter();
            fps.map(|(signer, fp)| (signer, fingerprint_hex(&fp)))
                .collect()
        };
        let summaries: Vec<Vec<(Symbol, String)>> = self.nodes.iter().map(summarize).collect();
        // The divergence oracle compares *writable* stores only: a
        // quarantined store cannot absorb gossip (its appends fail), so
        // letting it hold the oracle open would generate repair traffic
        // forever and the system could never settle into degraded
        // service. The moment the store heals it re-enters the
        // comparison, the oracle trips, and anti-entropy repairs it.
        let writable: Vec<&Vec<(Symbol, String)>> = self
            .nodes
            .iter()
            .zip(&summaries)
            .filter(|(n, _)| !n.quarantined())
            .map(|(_, s)| s)
            .collect();
        let divergent = writable.windows(2).any(|w| w[0] != w[1]);
        // Every signer any store has something for, by name.
        let signers: BTreeSet<&str> = summaries
            .iter()
            .flatten()
            .map(|(signer, _)| signer.as_str())
            .collect();
        let signers: Vec<Symbol> = signers.into_iter().map(Symbol::intern).collect();
        for (node, summary) in self.nodes.iter_mut().zip(&summaries) {
            node.refresh_revfp(&signers, summary);
        }
        divergent
    }

    /// Gossip phase 2b: ship every `revsummary`/`revpull` message the
    /// program derived, sequentially in registration order (and in a
    /// name-sorted order within each workspace), so the traffic —
    /// and therefore the seeded network's loss pattern — repeats from
    /// run to run. Returns the number of messages handed to the network
    /// (dropped or not: an attempt is a round's work, and quiescence
    /// must wait for the retry).
    fn gossip_sends(&mut self) -> usize {
        let gsays = Symbol::intern(GOSSIP_SAYS);
        let mut total = 0usize;
        for i in 0..self.nodes.len() {
            let p = self.nodes[i].me;
            let tuples = self.nodes[i].ws.tuples(gsays);
            let mut sends: Vec<GossipSend> = tuples
                .iter()
                .filter_map(|t| parse_gossip_send(p, t))
                .collect();
            sends.sort_by(|a, b| gossip_send_key(a).cmp(&gossip_send_key(b)));
            sends.dedup();
            let from_node = self.nodes[i].node;
            for send in sends {
                let to_node = self.node_of(send.to());
                let payload = match &send {
                    GossipSend::Summary {
                        to,
                        issuer,
                        fingerprint,
                    } => {
                        self.stats.gossip_summaries += 1;
                        lbtrust_net::encode_packet(&WirePacket::RevSummary(RevSummaryMessage {
                            from: p,
                            to: *to,
                            issuer: *issuer,
                            fingerprint: fingerprint.clone(),
                        }))
                    }
                    GossipSend::Pull { to, issuer } => {
                        self.stats.gossip_pulls += 1;
                        lbtrust_net::encode_packet(&WirePacket::RevPull(RevPullMessage {
                            from: p,
                            to: *to,
                            issuer: *issuer,
                        }))
                    }
                };
                self.send_packet(from_node, to_node, payload);
                total += 1;
            }
        }
        if total > 0 {
            self.stats.gossip_rounds += 1;
        }
        total
    }

    /// Phase 1: every workspace to its local fixpoint, in registration
    /// order. Constraint violations are rollbacks (counted); the first
    /// other evaluation error in registration order aborts the run once
    /// every principal has evaluated.
    fn local_fixpoints(&mut self) -> Result<(), SysError> {
        let mut first_error: Option<WsError> = None;
        for node in &mut self.nodes {
            match node.ws.evaluate() {
                Ok(_) => {}
                Err(WsError::Constraint(_)) => self.stats.local_rollbacks += 1,
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        first_error.map_or(Ok(()), |e| Err(e.into()))
    }

    /// Phase 1b: fold derived `loc(P, N)` facts into the placement of
    /// the registered principals they name.
    fn update_placement(&mut self) {
        let loc = names().loc;
        for i in 0..self.nodes.len() {
            for t in self.nodes[i].ws.tuples(loc) {
                if let [Value::Sym(who), Value::Sym(node)] = t.as_slice() {
                    if let Some(&placed) = self.index.get(who) {
                        self.nodes[placed].node = NodeId::from(*node);
                    }
                }
            }
        }
    }

    /// Phase 2: collect fresh export tuples and send them, sequentially
    /// and in registration order so the network delivers in the same
    /// order every run. The scan is a dedup over what each workspace's
    /// export partition gained since the last step.
    fn drain_exports(&mut self, export: Symbol) -> usize {
        let mut shipped = 0usize;
        for i in 0..self.nodes.len() {
            let from_node = self.nodes[i].node;
            for (to, packet) in self.nodes[i].fresh_exports(export) {
                // A drop still counts as shipped for quiescence
                // purposes (the workspace export moved into the
                // network's hands this step), but not as a sent
                // message — see `send_packet`.
                self.send_packet(from_node, self.node_of(to), packet);
                shipped += 1;
            }
        }
        shipped
    }

    /// Phase 3: drain the network sequentially (envelope order is part
    /// of the deterministic semantics), routing each packet to its
    /// destination principal; then let each destination, in
    /// registration order, verify, import, evaluate and retract its
    /// batch (one evaluation per workspace per step).
    fn deliver_and_import(&mut self, export: Symbol) -> Result<usize, SysError> {
        let decoding = self.obs.phase_timer();
        let mut delivered = 0usize;
        let mut routed: Vec<Routed> = self.nodes.iter().map(|_| Routed::default()).collect();
        // Gossip pulls `(responder, requester, issuer)`, in delivery
        // order — answered after every destination applied its batch,
        // from each responder's then-current store.
        let mut pulls: Vec<(usize, Symbol, Symbol)> = Vec::new();
        let gossip_on = self.gossip.is_some();
        while let Some(envelope) = self.net.deliver_next() {
            delivered += 1;
            // Undecodable frames, unknown receivers (for gossip's
            // two-party frames, unknown senders too) and gossip frames
            // while gossip is off count as rejections immediately.
            let known = |p: &Principal| self.index.get(p).copied();
            let packet = lbtrust_net::decode_packet(&envelope.payload).ok();
            let to = packet.as_ref().and_then(|packet| match packet {
                WirePacket::Export(msg) => known(&msg.to),
                WirePacket::Revoke(rev) => known(&rev.to),
                WirePacket::RevGossip(rev) => known(&rev.to).filter(|_| gossip_on),
                WirePacket::RevSummary(RevSummaryMessage { to, from, .. })
                | WirePacket::RevPull(RevPullMessage { to, from, .. }) => {
                    known(to).filter(|_| gossip_on && known(from).is_some())
                }
            });
            let (Some(packet), Some(to)) = (packet, to) else {
                self.stats.messages_rejected += 1;
                continue;
            };
            let absorb = matches!(packet, WirePacket::RevGossip(_));
            match packet {
                WirePacket::Export(msg) => routed[to].tuples.push(vec![
                    Value::Sym(msg.to),
                    Value::Sym(msg.from),
                    Value::Quote(msg.rule),
                    Value::Bytes(msg.auth.into()),
                ]),
                WirePacket::Revoke(rev) | WirePacket::RevGossip(rev) => {
                    let revocation = Revocation {
                        issuer: rev.from,
                        target: CertDigest(rev.digest),
                        signature: rev.auth,
                    };
                    routed[to].revocations.push((revocation, absorb));
                }
                WirePacket::RevSummary(msg) => {
                    let summary = (msg.from, msg.issuer, msg.fingerprint);
                    routed[to].summaries.push(summary);
                }
                WirePacket::RevPull(msg) => pulls.push((to, msg.from, msg.issuer)),
            }
        }
        let verifier = self.key_verifier();
        let eager = self.sync_policy == SyncPolicy::Eager;
        let timing = self.obs.timing_enabled();
        if let Some(started) = decoding {
            self.obs
                .record_delivery_part(DeliveryPart::Decode, started.elapsed());
        }
        // Every destination applies its batch, in registration order,
        // even after an earlier one hit a hard error: its tallies move
        // with the work it did, so the statistics always reflect the
        // mutations actually applied.
        let mut first_error: Option<WsError> = None;
        for (node, routed) in self.nodes.iter_mut().zip(routed) {
            if routed.is_empty() {
                continue;
            }
            let error = node.deliver(routed, &verifier, eager, timing, export);
            if first_error.is_none() {
                first_error = error;
            }
        }
        let merging = self.obs.phase_timer();
        if first_error.is_none() {
            self.serve_pulls(&pulls);
        }
        for part in [
            DeliveryPart::Verify,
            DeliveryPart::Assert,
            DeliveryPart::Evaluate,
        ] {
            let spent = self.nodes.iter_mut();
            let spent = spent.map(|n| std::mem::take(&mut n.spent[part as usize]));
            self.obs.record_delivery_part(part, spent.sum());
        }
        if let Some(started) = merging {
            self.obs
                .record_delivery_part(DeliveryPart::Merge, started.elapsed());
        }
        first_error.map_or(Ok(delivered), |e| Err(e.into()))
    }

    /// Answers gossip pull requests, sequentially in delivery order
    /// (duplicates within the step collapse): for each distinct
    /// `(responder, requester, issuer)`, the responder relays every
    /// signed revocation object by `issuer` it holds as `revgossip`
    /// frames. Served after every destination applied its batch, so a
    /// responder that learned new objects this very step already relays
    /// them.
    fn serve_pulls(&mut self, pulls: &[(usize, Symbol, Symbol)]) {
        let mut seen: HashSet<(usize, Symbol, Symbol)> = HashSet::new();
        for &(responder, requester, issuer) in pulls {
            self.stats.messages_accepted += 1;
            if !seen.insert((responder, requester, issuer)) {
                continue;
            }
            let objects = self.nodes[responder].store.revocations_by(issuer);
            let from_node = self.nodes[responder].node;
            let to_node = self.node_of(requester);
            for object in objects {
                let packet = WirePacket::RevGossip(RevokeMessage {
                    from: object.issuer,
                    to: requester,
                    digest: *object.target.as_bytes(),
                    auth: object.signature,
                });
                self.stats.gossip_served += 1;
                self.send_packet(from_node, to_node, lbtrust_net::encode_packet(&packet));
            }
        }
    }

    /// Syncs every dirty store once — the group-commit sweep
    /// [`System::run_to_quiescence`] runs at every step under
    /// [`SyncPolicy::Batched`], and the explicit commit point for
    /// callers outside it. Clean stores are skipped, so this is a no-op
    /// under [`SyncPolicy::Eager`] where nothing is ever left dirty.
    /// Stores sync one after another, in registration order. With
    /// auto-compaction armed, the same sweep compacts any store whose
    /// dead-record bytes reached the threshold — maintenance piggybacks
    /// on the commit point instead of adding a phase of its own.
    pub fn flush(&mut self) -> Result<(), SysError> {
        let auto_compact = self.auto_compact_dead_bytes;
        let step = self.stats.steps;
        // Skip quarantined stores (read-only until their fault heals)
        // and degraded stores whose step-based backoff has not elapsed
        // — extending the opportunistic-skip pattern group commit
        // already applies to oversized checkpoints.
        let due = |n: &PrincipalState| match n.health.health {
            StoreHealth::Quarantined => false,
            StoreHealth::Degraded => n.health.retry_at_step <= step,
            StoreHealth::Healthy => true,
        };
        self.run_store_op(|n| {
            (n.store.is_dirty() && due(n)).then(|| n.group_commit(auto_compact).map(|()| false))
        })
        .map(|_| ())
    }

    /// Phase 5 of [`System::run_to_quiescence`]: probe each
    /// quarantined store whose backoff elapsed and re-admit it when
    /// its fault has healed. Re-admission flushes whatever the store
    /// holds, applies clock ticks deferred while quarantined, and
    /// journals a `store.healed` event; the next gossip rounds repair
    /// any revocations the store missed (anti-entropy). Returns the
    /// number of stores re-admitted this step — a non-zero count keeps
    /// the quiescence loop running so that repair actually happens.
    fn probe_quarantined(&mut self) -> Result<usize, SysError> {
        let step = self.stats.steps;
        let policy = self.retry_policy;
        let mut healed = 0usize;
        for i in 0..self.nodes.len() {
            let node = &mut self.nodes[i];
            if !node.quarantined() || node.health.retry_at_step > step {
                continue;
            }
            // An armed persistent fault cannot pass a probe; push the
            // next one out (capped backoff) without touching the store.
            if node.fault_armed() {
                node.health.attempts = node.health.attempts.saturating_add(1);
                node.health.retry_at_step = step + policy.backoff_steps(node.health.attempts);
                continue;
            }
            // Probe: flush whatever the store buffered. On success the
            // store is writable again; on transient failure the probe
            // backs off and tries later.
            let probed = node.store.sync();
            let h = &mut node.health;
            match probed {
                Ok(()) => {
                    let attempts = std::mem::take(&mut h.attempts);
                    let pending = std::mem::take(&mut h.pending_ticks);
                    h.health = StoreHealth::Healthy;
                    self.journal_health("store.healed", i, attempts, "probe succeeded");
                    // Apply the clock ticks the store missed. A fresh
                    // failure here re-quarantines and puts the balance
                    // back.
                    if pending > 0
                        && self
                            .retry_store_op(i, |n| n.advance_clock(pending))?
                            .is_none()
                    {
                        self.nodes[i].health.pending_ticks += pending;
                        continue;
                    }
                    healed += 1;
                }
                Err(e) if is_storage_io(&e) => {
                    self.obs.count_retry();
                    h.attempts = h.attempts.saturating_add(1);
                    h.last_error = e.to_string();
                    h.retry_at_step = step + policy.backoff_steps(h.attempts);
                }
                Err(e) => return Err(SysError::Cert(e)),
            }
        }
        Ok(healed)
    }

    /// The node hosting `p`; a principal that is not registered is
    /// addressed at a node named after it.
    fn node_of(&self, p: Principal) -> NodeId {
        self.location(p).unwrap_or_else(|| NodeId::new(p.as_str()))
    }
}

/// Introduces `who` to `ws`: its name and its public key handle.
fn introduce(ws: &mut Workspace, who: Principal) {
    ws.assert_fact(Symbol::intern("prin"), vec![Value::Sym(who)]);
    ws.assert_fact(
        Symbol::intern("rsapubkey"),
        vec![Value::Sym(who), rsa_pub_handle(who)],
    );
}

/// Name-based ordering key for one gossip message, so the send order
/// (and thus the seeded network's behaviour) is stable across runs and
/// independent of symbol-interning order. Summaries sort before pulls
/// to the same peer: a peer should hear this node's state before its
/// request.
fn gossip_send_key(send: &GossipSend) -> (&'static str, u8, &'static str, &str) {
    match send {
        GossipSend::Summary {
            to,
            issuer,
            fingerprint,
        } => (to.as_str(), 0, issuer.as_str(), fingerprint.as_str()),
        GossipSend::Pull { to, issuer } => (to.as_str(), 1, issuer.as_str(), ""),
    }
}

impl Default for System {
    fn default() -> Self {
        System::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz_read::PrincipalSnapshot;
    use crate::workspace::RetractOutcome;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    /// Two principals, RSA auth: alice says a fact to bob; bob's policy
    /// uses it (the bex1' flow of §5.1).
    #[test]
    fn rsa_says_end_to_end() {
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();

        // Alice: say good(carol) to bob whenever vouched(carol).
        sys.workspace_mut(alice)
            .unwrap()
            .load("policy", "says(me,bob,[| good(X). |]) <- vouched(X).")
            .unwrap();
        sys.workspace_mut(alice)
            .unwrap()
            .assert_src("vouched(carol).")
            .unwrap();

        // Bob: grant read access to anyone alice says is good.
        sys.workspace_mut(bob)
            .unwrap()
            .load(
                "policy",
                "access(P,file1,read) <- says(alice,me,[| good(P) |]).",
            )
            .unwrap();

        sys.run_to_quiescence(16).unwrap();
        assert!(sys
            .workspace(bob)
            .unwrap()
            .holds_src("access(carol,file1,read)")
            .unwrap());
        assert_eq!(sys.stats().messages_sent, 1);
        assert_eq!(sys.stats().messages_accepted, 1);
        assert_eq!(sys.stats().messages_rejected, 0);
    }

    /// Alice certifies `good(s_i)` for `i < certs` to bob, whose policy
    /// grants on her word; bob imports them all and everything quiesces
    /// (which publishes: the reader returned last is alive — keep it so
    /// for the whole test). Returns the digests in issue order.
    fn certified(certs: usize) -> (System, Principal, Principal, Vec<CertDigest>, AuthzReader) {
        let mut sys = System::new().with_rsa_bits(512);
        let reader = sys.authz_reader();
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        sys.workspace_mut(bob)
            .unwrap()
            .load(
                "policy",
                "access(P,file1,read) <- says(alice,me,[| good(P) |]).\n\
                 noted(P) <- seen(P).",
            )
            .unwrap();
        let facts: String = (0..certs).map(|i| format!("good(s{i}). ")).collect();
        let issued = sys.issue_certificates(alice, &facts, &[], None).unwrap();
        let digests = issued.iter().map(LinkedCert::digest).collect();
        sys.import_certificates(bob, issued).unwrap();
        sys.run_to_quiescence(16).unwrap();
        (sys, alice, bob, digests, reader)
    }

    /// `who`'s last published snapshot.
    fn published(sys: &System, who: Principal) -> Arc<PrincipalSnapshot> {
        let snap = sys.node(who).unwrap().authz.snap.clone();
        snap.expect("published")
    }

    /// What `after` holds that `before` does not share with it.
    #[derive(Debug)]
    struct Copied {
        /// Per relation that is not the same allocation on both sides:
        /// its positions outside a shared chunk, and its position-map
        /// shards `before` does not hold.
        relations: Vec<(Symbol, usize, usize)>,
        /// Shards of the ground-head index `before` does not hold.
        ground_heads: usize,
    }

    fn copied(before: &PrincipalSnapshot, after: &PrincipalSnapshot) -> Copied {
        let empty_db = lbtrust_datalog::Relation::new();
        let mut relations = Vec::new();
        for (pred, rel) in after.db.iter() {
            let old = before.db.relation(pred).unwrap_or(&empty_db);
            if !std::ptr::eq(old, rel) {
                let tuples = rel.end() - rel.tuples_shared_with(old);
                relations.push((pred, tuples, rel.unshared_shards(old)));
            }
        }
        relations.sort_by_key(|(pred, _, _)| pred.as_str());
        let empty = Default::default();
        let ground_heads = after.ground_heads.iter().map(|(pred, by_tuple)| {
            by_tuple.unshared_shards(before.ground_heads.get(pred).unwrap_or(&empty))
        });
        Copied {
            relations,
            ground_heads: ground_heads.sum(),
        }
    }

    /// The no-timing cost witness for shared storage: what one asserted
    /// fact makes assert → evaluate → publish copy does not grow with the
    /// store. At 256 and at 4 096 certificates the new snapshot shares,
    /// with the previous one, every relation the fact did not reach (the
    /// same allocation) and every tuple of the relations it grew except
    /// at most the open chunk of each.
    #[test]
    fn a_publish_after_one_fact_copies_a_chunk_per_grown_relation() {
        use lbtrust_datalog::shared::CHUNK;
        for certs in [256usize, 4096] {
            let (mut sys, _, bob, _, _reader) = certified(certs);
            let before = published(&sys, bob);
            assert!(before.db.count(sym("access")) >= certs);

            let ws = sys.workspace_mut(bob).unwrap();
            ws.assert_fact(sym("seen"), vec![Value::sym("carol")]);
            ws.evaluate().unwrap();
            sys.publish_authz_snapshot();
            let after = published(&sys, bob);
            assert!(!Arc::ptr_eq(&before, &after));

            let copied = copied(&before, &after);
            let grown: Vec<Symbol> = copied.relations.iter().map(|r| r.0).collect();
            assert_eq!(grown, [sym("noted"), sym("seen")], "at {certs}");
            for &(pred, tuples, _) in &copied.relations {
                assert!(tuples <= CHUNK, "{pred}: {tuples} tuples copied");
                let (rel, old) = (after.db.relation(pred).unwrap(), before.db.relation(pred));
                assert!(
                    rel.len() > old.map_or(0, |old| old.len()),
                    "{pred} copied, not grown"
                );
            }
            let tuples: usize = copied.relations.iter().map(|r| r.1).sum();
            assert_eq!(tuples, 2, "at {certs}");
            // The big relations are the writer's own, by pointer.
            let live = sys.workspace(bob).unwrap().db();
            for pred in ["access", "says", "certified"] {
                let rel = after.db.relation(sym(pred)).expect("populated");
                assert!(std::ptr::eq(rel, before.db.relation(sym(pred)).unwrap()));
                assert!(std::ptr::eq(rel, live.relation(sym(pred)).unwrap()));
            }
            assert_eq!(copied.ground_heads, 0);
            assert!(Arc::ptr_eq(&before.builtins, &after.builtins));
        }
    }

    /// The same witness for the delete path and the replacement import
    /// that follows it in `revoke_fanout`: after one `revoke_certificate`,
    /// quiescence and publish, and again after one import, the new
    /// snapshot shares with the previous one every tuple of each relation
    /// it touched but at most a chunk, all but a handful of position-map
    /// shards — as many at 4 096 certificates as at 256 — and all but at
    /// most one shard of the ground-head index. (Before tombstones, a
    /// revocation copied the removed relation's tail and the citation
    /// indexes whole.)
    #[test]
    fn a_revocation_and_its_replacement_copy_a_shard_per_map_they_touch() {
        use lbtrust_datalog::shared::CHUNK;
        let mut shards = Vec::new();
        for certs in [256usize, 4096] {
            let (mut sys, alice, bob, digests, _reader) = certified(certs);
            let before = published(&sys, bob);
            sys.revoke_certificate(alice, digests[certs / 2]).unwrap();
            sys.run_to_quiescence(16).unwrap();
            let revoked = published(&sys, bob);
            let goal = format!("access(s{},file1,read)", certs / 2);
            assert!(!revoked.decide(&goal).unwrap().granted);

            let fresh = sys.issue_certificates(alice, "good(fresh).", &[], None);
            sys.import_certificates(bob, fresh.unwrap()).unwrap();
            sys.run_to_quiescence(16).unwrap();
            let replaced = published(&sys, bob);
            assert!(replaced.decide("access(fresh,file1,read)").unwrap().granted);

            for (step, old, new) in [
                ("revocation", &before, &revoked),
                ("import", &revoked, &replaced),
            ] {
                let copied = copied(old, new);
                assert!(!copied.relations.is_empty(), "{step} at {certs}");
                for &(pred, tuples, _) in &copied.relations {
                    assert!(
                        tuples <= CHUNK,
                        "{step} at {certs}: {pred} copied {tuples} tuples"
                    );
                }
                assert!(copied.ground_heads <= 1, "{step} at {certs}: {copied:?}");
                let per_relation: Vec<(Symbol, usize)> = copied
                    .relations
                    .iter()
                    .map(|&(pred, _, shards)| (pred, shards))
                    .collect();
                shards.push((step, per_relation));
            }
        }
        assert_eq!(
            shards[..2],
            shards[2..],
            "shards copied at 256 and at 4 096 certificates"
        );
    }

    /// Reader isolation under threads: a reader that holds generation g
    /// — the `Arc` of one principal's snapshot, whose tuples the writer's
    /// relations share — re-proves 256 goals over and over while the
    /// writer revokes and replaces certificates underneath it. Every
    /// answer, grant bit, digests and proof, is the serial answer at g:
    /// the writer copies a chunk before it changes one, so nothing the
    /// reader can reach is ever written.
    #[test]
    fn a_held_snapshot_answers_as_at_its_generation_while_the_writer_moves_on() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const SUBJECTS: usize = 256;
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        let policy = "access(P,file1,read) <- says(alice,me,[| good(P) |]).";
        sys.workspace_mut(bob)
            .unwrap()
            .load("policy", policy)
            .unwrap();
        // Every other subject is certified at g; the rest are denied.
        let facts: String = (0..SUBJECTS)
            .step_by(2)
            .map(|i| format!("good(s{i}). "))
            .collect();
        let issued = sys.issue_certificates(alice, &facts, &[], None).unwrap();
        let digests: Vec<CertDigest> = issued.iter().map(LinkedCert::digest).collect();
        sys.import_certificates(bob, issued).unwrap();
        // Alive to the end, so every quiescent point below publishes.
        let _reader = sys.authz_reader();
        sys.run_to_quiescence(16).unwrap();

        let held = sys
            .node(bob)
            .unwrap()
            .authz
            .snap
            .clone()
            .expect("published");
        let goals: Vec<String> = (0..SUBJECTS)
            .map(|i| format!("access(s{i},file1,read)"))
            .collect();
        let answer = |goal: &String| {
            let at_g = held.decide(goal).unwrap();
            at_g.into_decision(bob, goal.clone())
        };
        let serial: Vec<AuthzDecision> = goals.iter().map(answer).collect();
        for (goal, decision) in goals.iter().zip(&serial) {
            let live = sys.authorize(bob, goal).unwrap();
            assert_eq!(
                (live.granted, &live.supporting, &live.proof),
                (decision.granted, &decision.supporting, &decision.proof)
            );
        }
        assert_eq!(serial.iter().filter(|d| d.granted).count(), SUBJECTS / 2);

        // Raised when the writer is through — or has panicked, so that the
        // reader cannot spin for ever beside a failed test.
        struct Raise<'a>(&'a AtomicBool);
        impl Drop for Raise<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let done = AtomicBool::new(false);
        let (swept_once, first_sweep) = std::sync::mpsc::channel();
        let passes = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let sweep = || {
                    for (goal, want) in goals.iter().zip(&serial) {
                        let got = answer(goal);
                        assert_eq!(got.granted, want.granted, "{goal}");
                        assert_eq!(got.supporting, want.supporting, "{goal}");
                        assert_eq!(got.proof, want.proof, "{goal}");
                    }
                };
                // One sweep before the writer's first change, at least
                // one after its last, and as many as fit in between.
                sweep();
                swept_once.send(()).expect("the writer is waiting");
                let mut passes = 1;
                while !done.load(Ordering::Acquire) {
                    sweep();
                    passes += 1;
                }
                sweep();
                passes + 1
            });
            let done = Raise(&done);
            first_sweep.recv().expect("the reader swept once");
            for (i, digest) in digests.iter().enumerate().take(48) {
                sys.revoke_certificate(alice, *digest).unwrap();
                sys.run_to_quiescence(16).unwrap();
                // (Re-issuing the revoked fact would re-create the revoked
                // certificate: same content, same address.)
                let src = format!("good(n{i}).");
                let replacement = sys.issue_certificates(alice, &src, &[], None).unwrap();
                sys.import_certificates(bob, replacement).unwrap();
                sys.run_to_quiescence(16).unwrap();
            }
            drop(done);
            reader.join().expect("reader thread")
        });
        assert!(passes >= 3);
        // The writer did move on: g is no longer what is published, and
        // the live state knows subjects g never heard of.
        let now = sys
            .node(bob)
            .unwrap()
            .authz
            .snap
            .clone()
            .expect("published");
        assert!(!Arc::ptr_eq(&held, &now));
        assert!(now.decide("access(n0,file1,read)").unwrap().granted);
        assert!(!held.decide("access(n0,file1,read)").unwrap().granted);
    }

    /// With no reader alive a quiescent point publishes nothing and holds
    /// nothing: after eight single messages alice → bob no publish was
    /// timed, neither principal holds a snapshot, every relation of both
    /// workspaces is the writer's own, and a revocation leaves no
    /// bookkeeping behind its quiescence. What a reader that comes and
    /// goes made the system hold is let go of at the next quiescent point.
    #[test]
    fn a_quiescent_point_with_no_reader_publishes_nothing_and_holds_nothing() {
        let mut sys = System::new().with_rsa_bits(512).with_phase_timing(true);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        sys.workspace_mut(alice)
            .unwrap()
            .load("policy", "says(me,bob,[| good(X). |]) <- vouched(X).")
            .unwrap();
        sys.workspace_mut(bob)
            .unwrap()
            .load(
                "policy",
                "access(P,file1,read) <- says(alice,me,[| good(P) |]).",
            )
            .unwrap();
        let publishes = |sys: &System| {
            let snap = sys.obs_registry().snapshot();
            snap.histogram("snapshot.publish_ns").map_or(0, |h| h.count)
        };
        // Per principal: a snapshot held, relations shared, digests
        // poisoned; then the cell's principals and the cached decisions.
        let holds = |sys: &System| {
            let principals = [alice, bob].map(|p| {
                let node = sys.node(p).unwrap();
                let shared = node.ws.db().shared_relations();
                (node.authz.snap.is_some(), shared, node.authz.poisoned.len())
            });
            (principals, sys.authz_shared.held())
        };
        let nothing = ([(false, 0, 0); 2], (0, 0));

        for i in 0..8 {
            let ws = sys.workspace_mut(alice).unwrap();
            ws.assert_src(&format!("vouched(s{i}).")).unwrap();
            sys.run_to_quiescence(16).unwrap();
        }
        assert_eq!(sys.stats().messages_sent, 8);
        assert!(sys
            .workspace(bob)
            .unwrap()
            .holds_src("access(s7,file1,read)")
            .unwrap());
        assert_eq!(publishes(&sys), 0);
        assert_eq!(holds(&sys), nothing);

        let facts = "good(carol). good(dave).";
        let certs = sys.issue_certificates(alice, facts, &[], None).unwrap();
        let digests: Vec<CertDigest> = certs.iter().map(LinkedCert::digest).collect();
        sys.import_certificates(bob, certs).unwrap();
        sys.run_to_quiescence(16).unwrap();
        sys.revoke_certificate(alice, digests[0]).unwrap();
        sys.run_to_quiescence(16).unwrap();
        assert_eq!(publishes(&sys), 0);
        assert_eq!(holds(&sys), nothing);

        // A reader: a snapshot sharing bob's relations, a cached grant,
        // and — once the certificate it cites dies — bookkeeping.
        let reader = sys.authz_reader();
        let goal = "access(dave,file1,read)";
        assert!(reader.authorize(bob, goal).unwrap().granted);
        let ([_, (snap, shared, _)], cell) = holds(&sys);
        assert!(snap && shared > 0, "{shared} relations shared");
        assert_eq!(cell, (2, 1));
        sys.revoke_certificate(alice, digests[1]).unwrap();
        drop(reader);
        assert!(!sys.step().unwrap());
        assert_eq!(holds(&sys).0[1].2, 1, "bob's bookkeeping names it");
        sys.run_to_quiescence(16).unwrap();
        assert_eq!(publishes(&sys), 1);
        assert_eq!(holds(&sys), nothing);
    }

    /// A decision lives in the snapshot it was proved on: a fresh import
    /// at bob starts his next snapshot with no cached decision, so the
    /// ones his reader cached before are let go of with the snapshot
    /// that held them, not kept until something evicts them.
    #[test]
    fn a_fresh_import_starts_the_next_snapshot_with_no_cached_decision() {
        const GOALS: usize = 8;
        let (mut sys, alice, bob, _, reader) = certified(GOALS);
        for i in 0..GOALS {
            let goal = format!("access(s{i},file1,read)");
            assert!(reader.authorize(bob, &goal).unwrap().granted);
        }
        assert_eq!(sys.authz_shared.held(), (2, GOALS));

        let fresh = sys.issue_certificates(alice, "good(fresh).", &[], None);
        sys.import_certificates(bob, fresh.unwrap()).unwrap();
        sys.run_to_quiescence(16).unwrap();
        assert_eq!(sys.authz_shared.held(), (2, 0));
        assert!(published(&sys, bob).cache().is_empty());
    }

    /// The stale insert, forced: a reader caught mid-query holds bob's
    /// snapshot while the certificate its grant rests on is revoked and
    /// the system quiesces, then proves the grant on the snapshot it
    /// holds and caches it there. The grant lands in the superseded
    /// snapshot, so every reader answering after the publish denies.
    #[test]
    fn a_grant_proved_on_a_superseded_snapshot_is_never_served() {
        let (mut sys, alice, bob, digests, reader) = certified(4);
        let (goal, other) = ("access(s0,file1,read)", "access(s1,file1,read)");
        assert!(reader.authorize(bob, goal).unwrap().granted);
        assert!(reader.authorize(bob, other).unwrap().granted);
        let held = published(&sys, bob);

        sys.revoke_certificate(alice, digests[0]).unwrap();
        sys.run_to_quiescence(16).unwrap();
        let now = published(&sys, bob);
        assert!(!Arc::ptr_eq(&held, &now));
        // A retraction-only window: the unrelated grant was handed on,
        // the revoked one was not.
        let cached = [goal, other].map(|g| now.cache().contains_key(g));
        assert_eq!(cached, [false, true]);

        let stale = held.decide(goal).unwrap();
        assert!(stale.granted, "the held snapshot predates the revocation");
        held.remember(goal, stale);
        assert!(held.cache().contains_key(goal));
        assert!(!now.cache().contains_key(goal));

        let late = sys.authz_reader();
        for r in [&reader, &reader.clone(), &late] {
            assert!(!r.authorize(bob, goal).unwrap().granted);
            assert!(r.authorize(bob, other).unwrap().granted);
        }
        assert!(!sys.authorize(bob, goal).unwrap().granted);
    }

    /// A snapshot caches at most `CACHE_CAPACITY` decisions: asking one
    /// goal more than that clears the map and caches the last, and every
    /// answer on the way, cached or proved, is the serial one.
    #[test]
    fn a_full_snapshot_cache_is_cleared_and_answers_stay_serial() {
        use crate::authz_read::CACHE_CAPACITY;
        let (sys, _, bob, _, reader) = certified(8);
        let goals: Vec<String> = (0..=CACHE_CAPACITY)
            .map(|i| format!("access(s{i},file1,read)"))
            .collect();
        let agree = |goal: &str| {
            let (read, serial) = (reader.authorize(bob, goal), sys.authorize(bob, goal));
            let (read, serial) = (read.unwrap(), serial.unwrap());
            assert_eq!(
                (read.granted, &read.supporting, &read.proof),
                (serial.granted, &serial.supporting, &serial.proof),
                "{goal}"
            );
            read.granted
        };
        let mut granted = 0;
        for (i, goal) in goals.iter().enumerate() {
            granted += usize::from(agree(goal));
            let cached = sys.authz_shared.held().1;
            assert!(cached <= CACHE_CAPACITY, "{cached} decisions cached");
            assert_eq!(cached, i % CACHE_CAPACITY + 1, "after {goal}");
        }
        assert_eq!(granted, 8);
        // The first goals were cleared with the rest: asked again, they
        // are proved again, and answer as before.
        for goal in &goals[..16] {
            agree(goal);
        }
        assert_eq!(sys.authz_shared.held().1, 17);
    }

    /// The export drain scans only what the relation gained — and here
    /// one removal re-packs the two-tuple relation, so the append after it
    /// lands where the watermark stood: the watermark must follow
    /// compactions, not positions, or the new export is never shipped.
    #[test]
    fn export_drain_ships_what_replaces_a_retracted_export() {
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        let ws = sys.workspace_mut(alice).unwrap();
        ws.load("policy", "says(me,bob,[| good(X). |]) <- vouched(X).")
            .unwrap();
        ws.assert_src("vouched(carol). vouched(dave).").unwrap();
        sys.run_to_quiescence(16).unwrap();
        assert_eq!(sys.stats().messages_sent, 2);

        let export = sym("export");
        let ws = sys.workspace_mut(alice).unwrap();
        let before = ws.db().count(export);
        let outcome = ws.retract_facts(&[(sym("vouched"), vec![Value::sym("carol")])]);
        assert!(matches!(outcome, RetractOutcome::Incremental(_)));
        ws.assert_src("vouched(erin).").unwrap();
        sys.run_to_quiescence(16).unwrap();
        assert_eq!(sys.workspace(alice).unwrap().db().count(export), before);
        assert_eq!(sys.stats().messages_sent, 3);
        let bob_ws = sys.workspace(bob).unwrap();
        assert!(bob_ws
            .holds_src("says(alice,bob,[| good(erin). |])")
            .unwrap());
    }

    /// A repair that leaves only tombstones moves no tuple, so it is no
    /// compaction: the export drain after it keeps its watermark and has
    /// nothing to rescan or ship.
    #[test]
    fn a_repair_that_does_not_repack_leaves_the_export_drain_where_it_was() {
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        sys.add_principal("bob", "n2").unwrap();
        let ws = sys.workspace_mut(alice).unwrap();
        ws.load("policy", "says(me,bob,[| good(X). |]) <- vouched(X).")
            .unwrap();
        ws.assert_src("vouched(carol). vouched(dave). vouched(erin). vouched(fay).")
            .unwrap();
        sys.run_to_quiescence(16).unwrap();
        let sender = &mut sys.nodes[sys.index[&alice]];
        let compactions = sender.ws.compactions();
        let outcome = sender
            .ws
            .retract_facts(&[(sym("vouched"), vec![Value::sym("carol")])]);
        assert!(matches!(outcome, RetractOutcome::Incremental(stats) if stats.repacks == 0));
        assert_eq!(sender.ws.compactions(), compactions);
        assert!(sender.fresh_exports(names().export).is_empty());
        assert_eq!(sender.shipped(), 4);
    }

    /// The static-analysis preflight refuses a deny-level program
    /// before the workspace sees it, with the finding kind and source
    /// position in the structured error.
    #[test]
    fn load_program_refuses_deny_level_findings() {
        let mut sys = System::new().with_rsa_bits(512);
        let bob = sys.add_principal("bob", "n1").unwrap();
        // Registration pre-loads the `says` scaffolding; the refusal
        // must leave exactly that.
        let baseline = sys.workspace(bob).unwrap().active_rules().len();
        // A grant head fed by an unconstrained `says` sender — the
        // canonical UnsignedAuthority shape, Deny by default.
        let err = sys
            .load_program(
                bob,
                "policy",
                "access(P,file1,read) <- says(W,me,[| good(P). |]).",
            )
            .unwrap_err();
        match &err {
            SysError::Lint(e) => {
                assert_eq!(e.tag, "policy");
                assert_eq!(e.denials.len(), 1);
                assert_eq!(
                    e.denials[0].kind,
                    lbtrust_analysis::DiagKind::UnsignedAuthority
                );
                assert_eq!(e.denials[0].span, lbtrust_datalog::Span::new(1, 1));
            }
            other => panic!("expected Lint, got {other}"),
        }
        assert!(std::error::Error::source(&err).is_some());
        // Nothing was installed.
        assert_eq!(sys.workspace(bob).unwrap().active_rules().len(), baseline);

        // Guarding the sender clears the lint; the analysis comes back
        // for the caller to inspect.
        let analysis = sys
            .load_program(
                bob,
                "policy",
                "access(P,file1,read) <- says(W,me,[| good(P). |]), trustedca(W).",
            )
            .unwrap();
        assert!(!analysis.has_denials());
        assert_eq!(
            sys.workspace(bob).unwrap().active_rules().len(),
            baseline + 1
        );
    }

    /// Demoting the lint admits the same program (trusted-by-
    /// construction escape hatch), without touching other levels.
    #[test]
    fn lint_levels_are_configurable_per_system() {
        let mut sys = System::new().with_rsa_bits(512).with_lint_level(
            lbtrust_analysis::DiagKind::UnsignedAuthority,
            LintLevel::Warn,
        );
        let bob = sys.add_principal("bob", "n1").unwrap();
        let baseline = sys.workspace(bob).unwrap().active_rules().len();
        let analysis = sys
            .load_program(
                bob,
                "policy",
                "access(P,file1,read) <- says(W,me,[| good(P). |]).",
            )
            .unwrap();
        assert!(analysis
            .warnings()
            .any(|d| d.kind == lbtrust_analysis::DiagKind::UnsignedAuthority));
        assert_eq!(
            sys.workspace(bob).unwrap().active_rules().len(),
            baseline + 1
        );
    }

    #[test]
    fn hmac_scheme_works_after_two_rule_swap() {
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        sys.establish_shared_secret(alice, bob).unwrap();
        sys.set_auth_scheme(alice, AuthScheme::HmacSha1).unwrap();
        sys.set_auth_scheme(bob, AuthScheme::HmacSha1).unwrap();

        sys.workspace_mut(alice)
            .unwrap()
            .load("policy", "says(me,bob,[| good(X). |]) <- vouched(X).")
            .unwrap();
        sys.workspace_mut(alice)
            .unwrap()
            .assert_src("vouched(dave).")
            .unwrap();
        sys.workspace_mut(bob)
            .unwrap()
            .load(
                "policy",
                "access(P,file1,read) <- says(alice,me,[| good(P) |]).",
            )
            .unwrap();

        sys.run_to_quiescence(16).unwrap();
        assert!(sys
            .workspace(bob)
            .unwrap()
            .holds_src("access(dave,file1,read)")
            .unwrap());
    }

    #[test]
    fn plaintext_scheme() {
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n1").unwrap(); // co-located
        sys.set_auth_scheme(alice, AuthScheme::Plaintext).unwrap();
        sys.set_auth_scheme(bob, AuthScheme::Plaintext).unwrap();

        sys.workspace_mut(alice)
            .unwrap()
            .load("policy", "says(me,bob,[| note(N). |]) <- memo(N).")
            .unwrap();
        sys.workspace_mut(alice)
            .unwrap()
            .assert_src("memo(hello).")
            .unwrap();
        sys.workspace_mut(bob)
            .unwrap()
            .load("policy", "received(N) <- says(alice,me,[| note(N) |]).")
            .unwrap();
        sys.run_to_quiescence(16).unwrap();
        assert!(sys
            .workspace(bob)
            .unwrap()
            .holds(sym("received"), &[Value::sym("hello")]));
    }

    /// A receiver's inbox is not outgoing traffic: what it imported sits
    /// in its own `export[me]` partition, and draining that ships
    /// nothing and remembers nothing — only the sender's hundred count
    /// as shipped.
    #[test]
    fn a_receiver_drains_nothing_from_its_inbox() {
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        sys.set_auth_scheme(alice, AuthScheme::Plaintext).unwrap();
        sys.set_auth_scheme(bob, AuthScheme::Plaintext).unwrap();
        let ws = sys.workspace_mut(alice).unwrap();
        ws.load("policy", "says(me,bob,[| note(N). |]) <- memo(N).")
            .unwrap();
        for n in 0..100 {
            ws.assert_src(&format!("memo({n}).")).unwrap();
        }
        sys.run_to_quiescence(16).unwrap();
        assert_eq!(sys.stats().messages_accepted, 100);
        let export = names().export;
        let (sender, receiver) = (sys.index[&alice], sys.index[&bob]);
        assert_eq!(sys.nodes[receiver].ws.db().count(export), 100);
        assert!(sys.nodes[receiver].fresh_exports(export).is_empty());
        assert_eq!(sys.nodes[receiver].shipped(), 0);
        assert_eq!(sys.nodes[sender].shipped(), 100);
    }

    /// A symbol travels as its bare text, so a principal is registered
    /// only under a name a packet can carry; the three refused here were
    /// registered by the parent, their exports sent, and every one
    /// dropped by its receiver as undecodable.
    #[test]
    fn a_principal_is_named_what_the_wire_can_spell() {
        let mut sys = System::new().with_rsa_bits(512);
        for name in ["Alice", "bob-2", "rev oke", "me", "", "_", "caf\u{e9}"] {
            match sys.add_principal(name, "n1") {
                Err(SysError::InvalidName(refused)) => assert_eq!(refused, name),
                other => panic!("{name:?}: {other:?}"),
            }
        }
        assert!(sys.principals().is_empty());
        // Every shape of name that is accepted round-trips a plaintext
        // `says`, each principal to the next.
        let ring = ["alice", "rsa:3:c1eb", "n_1'"];
        for name in ring {
            let who = sys.add_principal(name, "n1").unwrap();
            sys.set_auth_scheme(who, AuthScheme::Plaintext).unwrap();
        }
        for (i, name) in ring.into_iter().enumerate() {
            let next = ring[(i + 1) % ring.len()];
            let ws = sys.workspace_mut(sym(name)).unwrap();
            ws.load(
                "policy",
                &format!("says(me,{next},[| note(me). |]) <- memo(x)."),
            )
            .unwrap();
            ws.load("inbox", "heard(U) <- says(U,me,[| note(U) |]).")
                .unwrap();
            ws.assert_src("memo(x).").unwrap();
        }
        sys.run_to_quiescence(16).unwrap();
        let stats = sys.stats();
        assert_eq!(
            (
                stats.messages_sent,
                stats.messages_accepted,
                stats.messages_rejected
            ),
            (3, 3, 0)
        );
        for (i, name) in ring.into_iter().enumerate() {
            let next = sys.workspace(sym(ring[(i + 1) % ring.len()])).unwrap();
            assert!(next.holds(sym("heard"), &[Value::sym(name)]), "{name}");
        }
    }

    #[test]
    fn loc_facts_drive_placement() {
        // ld1/ld2 (§5.2): asserting loc(P,N) relocates P's partition.
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        assert_eq!(sys.location(bob).unwrap().name(), "n2");
        sys.workspace_mut(alice)
            .unwrap()
            .assert_src("loc(bob, rack42).")
            .unwrap();
        sys.run_to_quiescence(8).unwrap();
        assert_eq!(sys.location(bob).unwrap().name(), "rack42");
    }

    #[test]
    fn batched_policy_defers_syncs_until_group_commit() {
        let dir = std::env::temp_dir().join(format!(
            "lbtrust-batched-unit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sys = System::open_persistent(&dir)
            .unwrap()
            .with_rsa_bits(512)
            .with_sync_policy(SyncPolicy::Batched);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        let cert = sys
            .issue_certificate(alice, "good(carol).", &[], None)
            .unwrap();
        let digest = cert.digest();
        // Imports commit once per bundle even under Batched.
        sys.import_certificates(bob, vec![cert]).unwrap();
        assert!(!sys.cert_store(bob).unwrap().is_dirty());
        // A clock advance defers: the store stays dirty until a group
        // commit (quiescence step or explicit flush).
        sys.advance_time(1).unwrap();
        assert!(sys.cert_store(bob).unwrap().is_dirty());
        let before = sys.fsyncs();
        sys.flush().unwrap();
        assert!(!sys.cert_store(bob).unwrap().is_dirty());
        assert!(sys.fsyncs() > before);
        // A revocation broadcast settles durably through the step's
        // group commit.
        sys.revoke_certificate(alice, digest).unwrap();
        sys.run_to_quiescence(16).unwrap();
        assert!(!sys.cert_store(alice).unwrap().is_dirty());
        assert!(!sys.cert_store(bob).unwrap().is_dirty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_revocation_broadcast_retracts_everywhere() {
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let receivers: Vec<Principal> = (0..5)
            .map(|i| {
                sys.add_principal(&format!("r{i}"), &format!("m{i}"))
                    .unwrap()
            })
            .collect();
        let cert = sys
            .issue_certificate(alice, "good(carol).", &[], None)
            .unwrap();
        let digest = cert.digest();
        for &r in &receivers {
            sys.workspace_mut(r)
                .unwrap()
                .load(
                    "policy",
                    "access(P,f,read) <- says(alice,me,[| good(P) |]).",
                )
                .unwrap();
            sys.import_certificates(r, vec![cert.clone()]).unwrap();
        }
        sys.run_to_quiescence(16).unwrap();
        for &r in &receivers {
            assert!(sys
                .workspace(r)
                .unwrap()
                .holds_src("access(carol,f,read)")
                .unwrap());
        }
        sys.revoke_certificate(alice, digest).unwrap();
        sys.run_to_quiescence(16).unwrap();
        for &r in &receivers {
            assert!(
                !sys.workspace(r)
                    .unwrap()
                    .holds_src("access(carol,f,read)")
                    .unwrap(),
                "every receiver must retract the revoked facts"
            );
        }
        assert_eq!(sys.stats().revocations, 1 + receivers.len());
    }

    #[test]
    fn scheme_mismatch_rejects() {
        // Alice signs with HMAC but bob expects RSA: bob's exp3 cannot
        // verify, so the message is rejected and bob learns nothing.
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        sys.establish_shared_secret(alice, bob).unwrap();
        sys.set_auth_scheme(alice, AuthScheme::HmacSha1).unwrap();
        // bob stays on RSA.

        sys.workspace_mut(alice)
            .unwrap()
            .load("policy", "says(me,bob,[| good(X). |]) <- vouched(X).")
            .unwrap();
        sys.workspace_mut(alice)
            .unwrap()
            .assert_src("vouched(eve).")
            .unwrap();
        sys.workspace_mut(bob)
            .unwrap()
            .load(
                "policy",
                "access(P,f,read) <- says(alice,me,[| good(P) |]).",
            )
            .unwrap();
        sys.run_to_quiescence(16).unwrap();
        assert_eq!(sys.stats().messages_rejected, 1);
        assert!(!sys
            .workspace(bob)
            .unwrap()
            .holds_src("access(eve,f,read)")
            .unwrap());
    }

    /// One revocation path: the same certificate revoked locally at the
    /// issuer (which holds a copy) and by the delivered `Revoke` at
    /// another holder goes through `PrincipalState::apply_revocation`
    /// both times, so both principals end in the same state — store
    /// status, retracted facts, publication bookkeeping and tallies.
    #[test]
    fn local_and_delivered_revocation_leave_equal_state() {
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        let cert = sys
            .issue_certificate(alice, "good(carol).", &[], None)
            .unwrap();
        let digest = cert.digest();
        for p in [alice, bob] {
            sys.workspace_mut(p)
                .unwrap()
                .load(
                    "policy",
                    "access(P,f,read) <- says(alice,me,[| good(P) |]).",
                )
                .unwrap();
            sys.import_certificates(p, vec![cert.clone()]).unwrap();
        }
        sys.run_to_quiescence(16).unwrap();
        for p in [alice, bob] {
            let ws = sys.workspace(p).unwrap();
            assert!(ws.holds_src("access(carol,f,read)").unwrap());
        }

        // Local at alice now; over the wire at bob during one step
        // (a step does not publish, so the bookkeeping is still there).
        sys.revoke_certificate(alice, digest).unwrap();
        assert!(!sys.step().unwrap());
        let state = |p: Principal| {
            let node = sys.node(p).unwrap();
            let t = node.tally;
            (
                node.store.status(&digest),
                ["certified", "says", "access"].map(|pred| node.ws.tuples(sym(pred)).len()),
                (node.authz.retraction_bumps, node.authz.poisoned.clone()),
                [
                    t.revocations,
                    t.retractions,
                    t.dred_repairs,
                    t.retraction_rebuilds,
                ],
            )
        };
        assert_eq!(state(alice), state(bob));
        let (status, facts, authz, tally) = state(bob);
        assert_eq!(status, Some(lbtrust_certstore::CertStatus::Revoked));
        assert_eq!(facts, [0, 0, 0]);
        assert_eq!(authz, (1, vec![digest]));
        assert_eq!(tally, [1, 1, 1, 0]);
    }

    /// A certificate is signed once and checked once: issuing eight
    /// makes eight RSA signatures, and a first import of them eight
    /// verification-cache misses.
    #[test]
    fn a_certificate_is_signed_once_and_checked_once() {
        let signatures = || crate::principal::SIGNATURES.with(std::cell::Cell::get);
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        let facts: String = (0..8).map(|i| format!("good(s{i}). ")).collect();
        let before = signatures();
        let certs = sys.issue_certificates(alice, &facts, &[], None).unwrap();
        assert_eq!(
            signatures() - before,
            certs.len(),
            "signatures per certificate"
        );
        let misses = sys.verify_cache_stats().misses;
        sys.import_certificates(bob, certs.clone()).unwrap();
        assert_eq!(sys.verify_cache_stats().misses - misses, certs.len() as u64);
    }

    /// Only the runtime asserts `certified`. A rule mallory gets bob to
    /// activate that concludes it — a forged certificate from alice —
    /// is refused at its installation like a constraint violation: the
    /// message is rejected and no `says` fact from alice appears.
    #[test]
    fn an_activated_rule_cannot_conclude_certified() {
        let mut sys = System::new().with_rsa_bits(512);
        sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        let mallory = sys.add_principal("mallory", "n3").unwrap();
        let policy = "ok(X) <- says(alice,me,[| good(X) |]).";
        let ws = sys.workspace_mut(bob).unwrap();
        ws.load("says1", crate::says::AUTO_ACTIVATE).unwrap();
        ws.load("policy", policy).unwrap();
        let ws = sys.workspace_mut(mallory).unwrap();
        ws.load(
            "policy",
            "says(me,bob,[| certified(alice,bob,[| good(eve). |],#00). |]) <- go().",
        )
        .unwrap();
        ws.assert_src("go().").unwrap();
        sys.run_to_quiescence(16).unwrap();
        assert_eq!(sys.stats().messages_rejected, 1);
        let ws = sys.workspace(bob).unwrap();
        assert!(ws.tuples(sym("certified")).is_empty());
        assert!(!sys.authorize(bob, "ok(eve)").unwrap().granted);
    }

    /// `stats()` is the sequencer's counters plus every principal's:
    /// after imports, a rejected tampered export, a revocation, an
    /// expiry and a rollback it reads, field for field, what the commit
    /// before principals kept their own tallies produced for this
    /// script.
    #[test]
    fn stats_sum_the_principals_tallies() {
        fn mixed_run() -> SystemStats {
            let mut sys = System::new().with_rsa_bits(512);
            let alice = sys.add_principal("alice", "n1").unwrap();
            let bob = sys.add_principal("bob", "n2").unwrap();
            let carol = sys.add_principal("carol", "n3").unwrap();
            for p in [bob, carol] {
                sys.workspace_mut(p)
                    .unwrap()
                    .load(
                        "policy",
                        "access(P,f,read) <- says(alice,me,[| good(P) |]).\n\
                         banned(P) -> !access(P,f,read).",
                    )
                    .unwrap();
            }
            // Imports: two lasting certificates and one that expires.
            let mut certs = sys
                .issue_certificates(alice, "good(dave). good(erin).", &[], None)
                .unwrap();
            let expiring = sys.issue_certificate(alice, "good(frank).", &[], Some(2));
            certs.push(expiring.unwrap());
            let revoked = certs[0].digest();
            for p in [bob, carol] {
                sys.import_certificates(p, certs.clone()).unwrap();
            }
            // A tampered export: eve signs with HMAC, bob verifies RSA.
            let eve = sys.add_principal("eve", "n4").unwrap();
            sys.establish_shared_secret(eve, bob).unwrap();
            sys.set_auth_scheme(eve, AuthScheme::HmacSha1).unwrap();
            let ws = sys.workspace_mut(eve).unwrap();
            ws.load("policy", "says(me,bob,[| good(X). |]) <- vouched(X).")
                .unwrap();
            ws.assert_src("vouched(mallory).").unwrap();
            sys.run_to_quiescence(16).unwrap();
            // A revocation, an expiry, a rollback.
            sys.revoke_certificate(alice, revoked).unwrap();
            sys.run_to_quiescence(16).unwrap();
            assert_eq!(sys.advance_time(3).unwrap(), 2);
            sys.run_to_quiescence(16).unwrap();
            let ws = sys.workspace_mut(bob).unwrap();
            ws.assert_src("banned(erin).").unwrap();
            sys.run_to_quiescence(16).unwrap()
        }
        assert_eq!(
            format!("{:?}", mixed_run()),
            "SystemStats { messages_sent: 4, messages_accepted: 3, messages_rejected: 1, \
             local_rollbacks: 1, steps: 6, certs_imported: 6, revocations: 4, \
             retractions: 4, dred_repairs: 4, retraction_rebuilds: 0, certs_replayed: 0, \
             gossip_rounds: 0, gossip_summaries: 0, gossip_pulls: 0, gossip_served: 0 }"
        );
    }

    /// Every public method that takes a `Principal` resolves it once at
    /// the boundary: an unregistered name is `UnknownPrincipal` (or the
    /// method's documented `None` / default), never a panic.
    #[test]
    fn unregistered_principals_are_refused_at_the_boundary() {
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let cert = sys
            .issue_certificate(alice, "good(carol).", &[], None)
            .unwrap();
        let ghost = sym("ghost");
        let unknown = |what: &str, result: Result<(), SysError>| match result {
            Err(SysError::UnknownPrincipal(p)) => assert_eq!(p, ghost, "{what}"),
            other => panic!("{what}: expected UnknownPrincipal, got {other:?}"),
        };
        type Call<'a> = Box<dyn Fn(&mut System) -> Result<(), SysError> + 'a>;
        let calls: Vec<(&str, Call<'_>)> = vec![
            ("workspace", Box::new(|s| s.workspace(ghost).map(drop))),
            (
                "workspace_mut",
                Box::new(|s| s.workspace_mut(ghost).map(drop)),
            ),
            ("cert_store", Box::new(|s| s.cert_store(ghost).map(drop))),
            (
                "set_auth_scheme",
                Box::new(|s| s.set_auth_scheme(ghost, AuthScheme::Plaintext)),
            ),
            (
                "establish_shared_secret (first)",
                Box::new(|s| s.establish_shared_secret(ghost, alice)),
            ),
            (
                "establish_shared_secret (second)",
                Box::new(|s| s.establish_shared_secret(alice, ghost)),
            ),
            (
                "load_program",
                Box::new(|s| s.load_program(ghost, "t", "p(a).").map(drop)),
            ),
            (
                "issue_certificate",
                Box::new(|s| s.issue_certificate(ghost, "p(a).", &[], None).map(drop)),
            ),
            (
                "issue_certificates",
                Box::new(|s| s.issue_certificates(ghost, "p(a).", &[], None).map(drop)),
            ),
            (
                "import_certificates",
                Box::new(|s| s.import_certificates(ghost, Vec::new()).map(drop)),
            ),
            (
                "revoke_certificate",
                Box::new(move |s| s.revoke_certificate(ghost, cert.digest())),
            ),
            (
                "audit_introducers",
                Box::new(|s| s.audit_introducers(ghost, "p(a).").map(drop)),
            ),
            (
                "authorize",
                Box::new(|s| s.authorize(ghost, "p(a)").map(drop)),
            ),
        ];
        for (what, call) in &calls {
            unknown(what, call(&mut sys));
        }
        assert_eq!(sys.store_health(ghost), StoreHealth::Healthy);
        assert!(sys.fault_handle(ghost).is_none());
        assert!(sys.location(ghost).is_none());
        assert_eq!(sys.principals(), [alice]);
    }

    /// A store is composed one way — backend, optional fault wrapper,
    /// replaying open — and each of the four `{memory, log} × {no faults,
    /// faults}` registrations describes its backend and shows exactly its
    /// `store.*` / `storelog.*` / `fault.*` metrics in a registry read
    /// before any quiescence (the footprint gauges included: a read
    /// writes them).
    #[test]
    fn the_four_store_shapes_describe_and_bind_as_before() {
        const STORE: &[&str] = &[
            "store.checkpoints",
            "store.compactions",
            "store.dead_bytes",
            "store.expirations",
            "store.imports",
            "store.link_breaks",
            "store.live_bytes",
            "store.quarantined",
            "store.reimports",
            "store.replayed",
            "store.retries",
            "store.revocations",
            "store.segments",
            "store.syncs",
        ];
        const STORELOG: &[&str] = &[
            "storelog.checkpoint_bytes",
            "storelog.checkpoint_ns",
            "storelog.reclaimed_bytes",
            "storelog.replay_bytes",
            "storelog.replay_ns",
            "storelog.rotation_ns",
            "storelog.sync_ns",
        ];
        const FAULT: &[&str] = &[
            "fault.injected.enospc",
            "fault.injected.fsync_lie",
            "fault.injected.io",
            "fault.injected.torn",
        ];
        for (persist, faults) in [(false, false), (false, true), (true, false), (true, true)] {
            let dir = std::env::temp_dir().join(format!(
                "lbtrust-store-shapes-{}-{persist}-{faults}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut sys = System::new().with_rsa_bits(512);
            if persist {
                sys = sys.persist_at(&dir).unwrap();
            }
            if faults {
                sys = sys.with_storage_faults(FaultConfig::uniform(7, 0));
            }
            let alice = sys.add_principal("alice", "n1").unwrap();

            let mut describe = "memory".to_string();
            if persist {
                describe = dir.join("alice.certlog").display().to_string();
            }
            if faults {
                describe = format!("faulting({describe})");
            }
            assert_eq!(sys.cert_store(alice).unwrap().backend_describe(), describe);
            assert_eq!(sys.fault_handle(alice).is_some(), faults);

            let bound = sys.obs_registry().snapshot();
            let bound: Vec<&str> = bound
                .entries
                .keys()
                .map(String::as_str)
                .filter(|name| name.starts_with("store") || name.starts_with("fault"))
                .collect();
            let mut expected: Vec<&str> = Vec::new();
            expected.extend(faults.then_some(FAULT).into_iter().flatten());
            expected.extend(STORE);
            expected.extend(persist.then_some(STORELOG).into_iter().flatten());
            assert_eq!(bound, expected, "persist={persist} faults={faults}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A hard (non-constraint) evaluation error never cuts a phase
    /// short: every principal after the failing one still takes its
    /// turn, so packets already drained from the network are applied,
    /// and the first error in registration order is returned — whether
    /// it strikes in the local fixpoints or in delivery. A hub says
    /// `n(foo)` to two receivers; `r0` turns it into arithmetic (a type
    /// error on a symbol), `late` holds one pending local fact, and with
    /// `early_error` the same bad arithmetic sits in the hub itself.
    #[test]
    fn a_hard_evaluation_error_is_returned_after_every_principal_took_its_turn() {
        for early_error in [true, false] {
            let mut sys = System::new().with_rsa_bits(512);
            let hub = sys.add_principal("hub", "n0").unwrap();
            let r0 = sys.add_principal("r0", "m0").unwrap();
            let r1 = sys.add_principal("r1", "m1").unwrap();
            let late = sys.add_principal("late", "m2").unwrap();
            let ws = sys.workspace_mut(hub).unwrap();
            for name in ["r0", "r1"] {
                let says = format!("says(me,{name},[| n(X). |]) <- num(X).");
                ws.load("policy", &says).unwrap();
            }
            if early_error {
                ws.load("policy", "bad(Y) <- num(X), Y = X + 1.").unwrap();
            }
            ws.assert_src("num(foo).").unwrap();
            let bad = "bad(Y) <- says(hub,me,[| n(X) |]), Y = X + 1.";
            sys.workspace_mut(r0).unwrap().load("policy", bad).unwrap();
            let heard = "heard(X) <- says(hub,me,[| n(X) |]).";
            sys.workspace_mut(r1)
                .unwrap()
                .load("policy", heard)
                .unwrap();
            let ws = sys.workspace_mut(late).unwrap();
            ws.load("policy", "q(X) <- p(X).").unwrap();
            ws.assert_src("p(x).").unwrap();

            let err = sys.run_to_quiescence(8).unwrap_err();
            assert!(matches!(err, SysError::Workspace(_)), "{err}");
            assert!(err.to_string().contains("type error"), "{err}");
            assert!(
                sys.workspace(late).unwrap().holds_src("q(x)").unwrap(),
                "early_error={early_error}: a principal after the failing one must still evaluate"
            );
            if !early_error {
                assert!(
                    sys.workspace(r1).unwrap().holds_src("heard(foo)").unwrap(),
                    "a destination after the failing one must still import its packets"
                );
            }
        }
    }

    /// Every phase runs on the caller's thread, whatever `with_shards`
    /// asks for: a builtin that records the thread evaluating it sees
    /// only this one, through local fixpoints, deliveries, revocations,
    /// batched group commits with auto-compaction, an explicit flush
    /// and an explicit compaction of log-backed stores.
    #[test]
    fn every_phase_runs_on_the_callers_thread() {
        use std::sync::Mutex;
        use std::thread::ThreadId;
        let dir = std::env::temp_dir().join(format!(
            "lbtrust-one-thread-unit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        #[allow(deprecated)]
        let mut sys = System::open_persistent(&dir)
            .unwrap()
            .with_rsa_bits(512)
            .with_sync_policy(SyncPolicy::Batched)
            .with_auto_compaction(1)
            .with_shards(4);
        let seen: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
        let calls = |seen: &Mutex<Vec<ThreadId>>| seen.lock().unwrap().len();
        let alice = sys.add_principal("alice", "n1").unwrap();
        let receivers: Vec<Principal> = (0..3)
            .map(|i| {
                sys.add_principal(&format!("r{i}"), &format!("m{i}"))
                    .unwrap()
            })
            .collect();
        for p in std::iter::once(alice).chain(receivers.iter().copied()) {
            let seen = Arc::clone(&seen);
            let ws = sys.workspace_mut(p).unwrap();
            ws.builtins_mut().register("here", 1, move |args| {
                seen.lock().unwrap().push(std::thread::current().id());
                Ok(vec![vec![args[0].clone().expect("bound")]])
            });
            ws.load(
                "policy",
                "access(P,f,read) <- says(alice,me,[| good(P) |]), here(P).\n\
                 local(X) <- seed(X), here(X).",
            )
            .unwrap();
            ws.assert_src("seed(x).").unwrap();
        }
        let certs = sys
            .issue_certificates(alice, "good(carol). good(dave).", &[], None)
            .unwrap();
        for &r in &receivers {
            sys.import_certificates(r, certs.clone()).unwrap();
        }
        let before = calls(&seen);
        sys.run_to_quiescence(16).unwrap();
        sys.revoke_certificate(alice, certs[0].digest()).unwrap();
        sys.run_to_quiescence(16).unwrap();
        assert!(calls(&seen) > before, "quiescence evaluated the builtin");
        assert!(
            receivers
                .iter()
                .any(|&r| sys.cert_store(r).unwrap().stats().compactions > 0),
            "a group commit auto-compacted"
        );
        sys.advance_time(1).unwrap();
        sys.flush().unwrap();
        sys.compact().unwrap();
        let before = calls(&seen);
        let ws = sys.workspace_mut(receivers[0]).unwrap();
        ws.assert_src("seed(y).").unwrap();
        sys.run_to_quiescence(16).unwrap();
        assert!(calls(&seen) > before, "quiescence evaluated the builtin");
        let me = std::thread::current().id();
        assert!(seen.lock().unwrap().iter().all(|&id| id == me));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

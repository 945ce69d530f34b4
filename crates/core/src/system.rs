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
use crate::authz_read::{decide, AuthzPublishState, AuthzReader, AuthzShared, PrincipalSnapshot};
use crate::gossip::{
    advert_fact, fingerprint_hex, parse_gossip_send, revfp_fact, GossipSend, GOSSIP_SAYS,
    ZERO_FP_HEX,
};
use crate::obs::{DeliveryPart, QuiescePhase, SystemObs};
use crate::pool::{BatchReport, WorkerPool};
use crate::principal::{
    rsa_priv_handle, rsa_pub_handle, shared_keys, shared_secret_handle, Principal, SharedKeys,
};
use crate::says::SAYS_DECLS;
use crate::workspace::{RetractOutcome, Workspace, WsError};
use lbtrust_analysis::{analyze, Analysis, AnalyzerConfig, Diagnostic, LintLevel};
use lbtrust_certstore::{
    cert, shared_verify_cache, AuditEntry, CertDigest, CertStore, CertStoreError, FaultConfig,
    FaultHandle, ImportOutcome, LinkedCert, Revocation, SharedVerifyCache, SignatureVerifier,
    StorageError,
};
use lbtrust_datalog::{parse_program, Symbol, Tuple, Value};
use lbtrust_net::{
    NetworkConfig, NodeId, RevPullMessage, RevSummaryMessage, RevokeMessage, SimNetwork,
    WireMessage, WirePacket,
};
use lbtrust_obs::{Event, EventSink, Journal, Registry};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// System-level errors.
#[derive(Debug)]
pub enum SysError {
    /// No such principal registered.
    UnknownPrincipal(Principal),
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
    /// [`System::load_program`] and [`System::set_lint_level`]).
    Lint(LintError),
}

impl fmt::Display for SysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysError::UnknownPrincipal(p) => write!(f, "unknown principal {p}"),
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
    fn backoff_steps(&self, attempts: u32) -> usize {
        let shift = attempts.saturating_sub(1).min(usize::BITS - 1);
        self.backoff_base_steps
            .max(1)
            .checked_shl(shift)
            .unwrap_or(usize::MAX)
            .min(self.backoff_cap_steps.max(1))
    }
}

/// Per-store fault bookkeeping (internal; surfaced as
/// [`StoreHealth`] / [`DegradedError`]).
#[derive(Clone, Debug, Default)]
struct HealthState {
    health: StoreHealth,
    /// Consecutive failed storage attempts.
    attempts: u32,
    /// Step at which the next deferred retry / quarantine probe runs.
    retry_at_step: usize,
    /// Step at which the store left `Healthy`.
    since_step: usize,
    /// Last storage error observed, rendered.
    last_error: String,
    /// Clock ticks from [`System::advance_time`] deferred while
    /// quarantined, applied on re-admission.
    pending_ticks: u64,
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
    /// Import bundles whose signature checks were fanned across worker
    /// threads before the store walked the bundle.
    pub parallel_verify_batches: usize,
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
    /// The rendered proof tree, when granted.
    pub proof: Option<String>,
}

/// One principal's imported-certificate fact index: which workspace
/// base facts each certificate introduced, by content address.
type CertFactIndex = HashMap<CertDigest, Vec<(Symbol, Tuple)>>;

/// The multi-principal LBTrust runtime.
pub struct System {
    keys: SharedKeys,
    workspaces: HashMap<Principal, Workspace>,
    /// Registration order, for deterministic iteration.
    order: Vec<Principal>,
    /// Placement: principal -> physical node (the `loc` relation).
    placement: HashMap<Principal, NodeId>,
    net: SimNetwork,
    /// How far each principal's `export` relation has been shipped.
    drained: HashMap<Principal, ExportCursor>,
    rsa_bits: usize,
    auth: HashMap<Principal, AuthScheme>,
    stats: SystemStats,
    seed: u64,
    /// Per-principal certificate stores, all sharing `vcache`.
    stores: HashMap<Principal, CertStore>,
    /// Process-wide verification cache: a signature over identical
    /// canonical bytes is checked once, by whichever principal sees it
    /// first, and every later check anywhere is a memo lookup.
    vcache: SharedVerifyCache,
    /// Which workspace base facts each imported certificate introduced
    /// at each principal, so expiry/revocation can retract exactly
    /// those (and DRed repairs their consequences). Keyed per principal
    /// first so a delivery shard can own one principal's slice
    /// exclusively.
    cert_facts: HashMap<Principal, CertFactIndex>,
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
    /// compacted on its shard worker. `None` disables the trigger.
    auto_compact_dead_bytes: Option<u64>,
    /// The persistent worker pool [`System::run_to_quiescence`]
    /// dispatches per-principal tasks to, created at
    /// [`System::set_shards`] when `shards > 1` (resized by recreating)
    /// and joined when the system drops. `None` (the default,
    /// `shards = 1`) runs the same tasks inline. Tasks are *owned*
    /// values moved out of the maps above for one batch and merged back
    /// in registration order.
    pool: Option<WorkerPool<PoolTask, PoolDone>>,
    /// The anti-entropy revocation gossip layer, when enabled (see
    /// [`System::enable_gossip`]). `None` keeps the pre-gossip
    /// behaviour: revocations propagate only through the eager
    /// broadcast.
    gossip: Option<GossipRuntime>,
    /// The unified observability surface: metrics registry, quiescence
    /// phase spans, decision journal (see [`System::obs_registry`]).
    obs: SystemObs,
    /// Step-based retry/quarantine policy for storage faults.
    retry_policy: RetryPolicy,
    /// Per-principal fault-handling state (always has an entry per
    /// registered principal).
    health: HashMap<Principal, HealthState>,
    /// When set (see [`System::with_storage_faults`]), every store
    /// registered afterwards is wrapped in a seeded
    /// [`lbtrust_certstore::FaultingBackend`], with a per-store
    /// schedule derived from this spec and the principal's name.
    fault_spec: Option<FaultConfig>,
    /// Handles to the per-store fault schedules, for tests and the
    /// quarantine probe (a persistently-failed handle cannot pass).
    fault_handles: HashMap<Principal, FaultHandle>,
    /// Per-principal snapshot-publication bookkeeping: what the last
    /// published [`crate::AuthzSnapshot`] captured, and which
    /// retractions/certificate deaths happened since.
    authz_pub: HashMap<Principal, AuthzPublishState>,
    /// State shared with [`crate::AuthzReader`] handles: the snapshot
    /// cell, the decision cache, and the volatile cache counters.
    authz_shared: Arc<AuthzShared>,
    /// Lint levels and predicate vocabulary for the static-analysis
    /// preflight ([`System::load_program`], [`System::enable_gossip`]).
    lint: AnalyzerConfig,
}

/// Runtime bookkeeping of the gossip layer: the loaded program and, per
/// principal, the workspace facts currently asserted on its behalf —
/// so a changed fingerprint or a superseding advertisement retracts
/// exactly the stale fact it replaces.
struct GossipRuntime {
    /// The propagation logic, as translated LBTrust source (authored in
    /// SeNDlog; see `lbtrust-sendlog::gossip::REV_GOSSIP`). Loaded into
    /// every workspace under the `gossip` tag.
    program: String,
    /// Last asserted `revfp` hex per principal per signer.
    fps: HashMap<Principal, HashMap<Symbol, String>>,
    /// Last asserted incoming advertisement per principal, keyed by
    /// `(advertiser, signer)`.
    inbox: HashMap<Principal, HashMap<(Symbol, Symbol), String>>,
}

/// Bundles at or above this size fan their signature checks across
/// `std::thread::scope` workers before the store walks the bundle;
/// smaller bundles verify serially (thread spawn would cost more than
/// the checks).
pub const PARALLEL_VERIFY_MIN: usize = 8;

impl System {
    /// Creates a system over a perfect network.
    pub fn new() -> System {
        System::with_network(NetworkConfig::default(), 0)
    }

    /// Creates a system with the given network behaviour and RNG seed
    /// (key generation derives per-principal seeds from it).
    pub fn with_network(config: NetworkConfig, seed: u64) -> System {
        let registry = Registry::new();
        let mut net = SimNetwork::new(config, seed);
        net.attach_metrics(&registry);
        let authz_shared = Arc::new(AuthzShared::new(&registry));
        System {
            keys: shared_keys(),
            workspaces: HashMap::new(),
            order: Vec::new(),
            placement: HashMap::new(),
            net,
            drained: HashMap::new(),
            rsa_bits: DEFAULT_RSA_BITS,
            auth: HashMap::new(),
            stats: SystemStats::default(),
            seed,
            stores: HashMap::new(),
            vcache: shared_verify_cache(),
            cert_facts: HashMap::new(),
            persist_dir: None,
            sync_policy: SyncPolicy::default(),
            rotate_bytes: None,
            auto_compact_dead_bytes: None,
            pool: None,
            gossip: None,
            obs: SystemObs::new(registry),
            retry_policy: RetryPolicy::default(),
            health: HashMap::new(),
            fault_spec: None,
            fault_handles: HashMap::new(),
            authz_pub: HashMap::new(),
            authz_shared,
            lint: AnalyzerConfig::default(),
        }
    }

    /// Arms deterministic storage-fault injection: every principal
    /// registered *after* this call gets a store wrapped in a seeded
    /// [`lbtrust_certstore::FaultingBackend`], its schedule derived
    /// from `spec` and the principal's name (registration-order and
    /// shard-count invariant). Use [`System::fault_handle`] to inject
    /// explicit faults or heal a store from tests.
    pub fn with_storage_faults(mut self, spec: FaultConfig) -> System {
        self.fault_spec = Some(spec);
        self
    }

    /// Overrides the step-based retry/quarantine policy (builder form).
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> System {
        self.retry_policy = policy;
        self
    }

    /// Overrides the step-based retry/quarantine policy in place.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry_policy = policy;
    }

    /// The active retry/quarantine policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry_policy
    }

    /// The fault-schedule handle for `p`'s store, when fault injection
    /// is armed (see [`System::with_storage_faults`]).
    pub fn fault_handle(&self, p: Principal) -> Option<FaultHandle> {
        self.fault_handles.get(&p).cloned()
    }

    /// Where `p`'s store sits in the fault-handling lifecycle.
    /// Unregistered principals read as healthy.
    pub fn store_health(&self, p: Principal) -> StoreHealth {
        self.health.get(&p).map(|h| h.health).unwrap_or_default()
    }

    /// The currently quarantined principals, in registration order.
    pub fn quarantined(&self) -> Vec<Principal> {
        self.order
            .iter()
            .copied()
            .filter(|p| self.store_health(*p) == StoreHealth::Quarantined)
            .collect()
    }

    // ---- observability -------------------------------------------------------

    /// Replaces the system's metrics registry — so several systems (or
    /// a bench harness) share one registry, or tests get a private one
    /// to snapshot. Must be called before principals are registered:
    /// stores bind their counter handles at registration. The network's
    /// counters re-bind immediately (seeded with totals so far); phase
    /// timing and journal settings carry over.
    pub fn with_obs_registry(mut self, registry: Registry) -> Self {
        let timing = self.obs.timing_enabled();
        let journal = self.obs.journal.clone();
        self.obs = SystemObs::new(registry);
        self.obs.set_timing(timing);
        self.obs.journal = journal;
        self.net.attach_metrics(self.obs.registry());
        // The reader-side counters bind at construction too; existing
        // reader handles (there are none this early — see the doc
        // comment) would keep the old shared state, so the cell and
        // cache are recreated alongside.
        self.authz_shared = Arc::new(AuthzShared::new(self.obs.registry()));
        for st in self.authz_pub.values_mut() {
            st.snap = None;
        }
        self
    }

    /// The unified metrics registry: `net.*` counters (live), `store.*`
    /// counters (live, aggregated across every principal's store),
    /// `storelog.*` lifecycle metrics (persistent stores), `quiesce.*`
    /// phase-timing histograms, `authz.*` decision counters, and the
    /// `system.*` gauges refreshed by [`System::publish_obs`].
    pub fn obs_registry(&self) -> &Registry {
        self.obs.registry()
    }

    /// Turns the `quiesce.*` phase spans (and per-shard fixpoint
    /// timing) on or off. On by default; the off path costs one branch
    /// per phase, which the bench suite's overhead microbench pins
    /// under its noise floor.
    pub fn set_phase_timing(&mut self, on: bool) {
        self.obs.set_timing(on);
    }

    /// Builder form of [`System::set_phase_timing`].
    pub fn with_phase_timing(mut self, on: bool) -> Self {
        self.set_phase_timing(on);
        self
    }

    /// Routes authorization decisions ([`System::authorize`]) to
    /// `sink` as structured events — each carrying the principal, the
    /// goal, the verdict, and the supporting certificate digests.
    pub fn enable_decision_journal(&mut self, sink: Arc<dyn EventSink>) {
        self.obs.journal = Journal::to_sink(sink);
    }

    /// Builder form of [`System::enable_decision_journal`].
    pub fn with_decision_journal(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.enable_decision_journal(sink);
        self
    }

    /// Flushes the decision journal's sink — a JSONL sink buffers, so
    /// call this before reading the file while the system is alive
    /// (dropping the system flushes too).
    pub fn flush_decision_journal(&self) {
        self.obs.journal.flush();
    }

    /// Refreshes the `system.*` gauges from [`SystemStats`] and the
    /// aggregate store-footprint gauges (`store.live_bytes`,
    /// `store.dead_bytes`, `store.segments`) from every principal's
    /// store. Called automatically when [`System::run_to_quiescence`]
    /// reaches quiescence; call directly for a mid-run snapshot.
    pub fn publish_obs(&self) {
        let r = self.obs.registry();
        let s = &self.stats;
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
            ("system.parallel_verify_batches", s.parallel_verify_batches),
            ("system.gossip_rounds", s.gossip_rounds),
            ("system.gossip_summaries", s.gossip_summaries),
            ("system.gossip_pulls", s.gossip_pulls),
            ("system.gossip_served", s.gossip_served),
        ] {
            r.gauge(name).set(value as u64);
        }
        let mut live = 0u64;
        let mut dead = 0u64;
        let mut segments = 0u64;
        for store in self.stores.values() {
            let st = store.stats();
            live += st.live_bytes;
            dead += st.dead_bytes;
            segments += st.segments;
        }
        r.gauge("store.live_bytes").set(live);
        r.gauge("store.dead_bytes").set(dead);
        r.gauge("store.segments").set(segments);
        self.obs.publish_imbalance();
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

    /// Where durable stores live, if persistence is on.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.persist_dir.as_deref()
    }

    /// Overrides the RSA modulus size (tests use 512 for speed; the
    /// Figure 2 harness keeps the paper's 1024).
    pub fn with_rsa_bits(mut self, bits: usize) -> Self {
        self.rsa_bits = bits;
        self
    }

    /// Builder form of [`System::set_sync_policy`].
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Sets when persistent stores fsync (see [`SyncPolicy`]). Safe to
    /// change at any point: switching from `Batched` to `Eager` does
    /// not itself sync — call [`System::flush`] first if the dirty
    /// stores must land before the policy change takes effect.
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) {
        self.sync_policy = policy;
    }

    /// The current durability policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync_policy
    }

    /// Builder form: sets the segment-rotation budget (bytes) for
    /// persistent stores registered afterwards — the active segment of
    /// each store's log is sealed and a fresh one started once it
    /// exceeds the budget. Defaults to the backend's 4 MiB.
    pub fn with_rotation_budget(mut self, bytes: u64) -> Self {
        self.rotate_bytes = Some(bytes.max(1));
        self
    }

    /// Builder form of [`System::set_auto_compaction`].
    pub fn with_auto_compaction(mut self, dead_bytes: u64) -> Self {
        self.set_auto_compaction(Some(dead_bytes));
        self
    }

    /// Arms (or with `None` disarms) the auto-compaction trigger: every
    /// batched group commit additionally compacts, on its shard worker,
    /// any store whose dead-record bytes reached `dead_bytes`. Dead
    /// bytes are what a compaction reclaims — records superseded by
    /// revocation, expiry, or newer clock ticks.
    pub fn set_auto_compaction(&mut self, dead_bytes: Option<u64>) {
        self.auto_compact_dead_bytes = dead_bytes;
    }

    /// The auto-compaction threshold, if armed.
    pub fn auto_compaction(&self) -> Option<u64> {
        self.auto_compact_dead_bytes
    }

    /// Builder form of [`System::set_shards`].
    ///
    /// What the pool is worth today, for ROADMAP item D (5): with state
    /// shared instead of copied a per-principal task is several times
    /// cheaper, so there is less for workers to overlap. `ablation_parallel`
    /// on 2 cores, 32 principals, pooled over inline, two runs
    /// (`BENCH_parallel.json` holds the second): `fanout_revocation`
    /// 0.88x – 1.06x at 2 workers and 1.10x – 1.27x at 4 and 8 (it was
    /// 1.45x – 1.58x while every repair copied its database twice),
    /// `fanout_chain` 1.02x – 1.22x at 2 and 1.38x – 1.49x at 4 and 8, the
    /// skewed hub-and-spokes shape 0.87x – 0.98x. Every benchmark workload
    /// runs at one shard.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.set_shards(shards);
        self
    }

    /// Sets how many pool workers [`System::run_to_quiescence`] uses.
    /// `shards > 1` creates (or resizes, by recreating) the persistent
    /// [`WorkerPool`]: long-lived threads that claim the local-fixpoint,
    /// delivery-import and store-maintenance phases' per-principal
    /// tasks from one shared batch. `1` (the default) drops the pool
    /// and runs the same tasks inline on the caller's thread. Any
    /// worker count reaches the same quiescent state: results merge
    /// sequentially in registration order, so which worker ran a task
    /// is unobservable.
    pub fn set_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        if shards != self.shards() {
            self.pool = (shards > 1).then(|| WorkerPool::new(shards, Arc::new(run_pool_task)));
        }
    }

    /// The configured shard (pool worker) count.
    pub fn shards(&self) -> usize {
        self.pool.as_ref().map_or(1, WorkerPool::workers)
    }

    /// The pool's thread-liveness witness, for shutdown tests.
    #[cfg(test)]
    pub(crate) fn pool_liveness(&self) -> Option<std::sync::Arc<()>> {
        self.pool.as_ref().map(WorkerPool::liveness)
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
        for &p in &self.order {
            let ws = self.workspaces.get_mut(&p).expect("registered");
            ws.replace_tag("gossip", program)?;
        }
        self.gossip = Some(GossipRuntime {
            program: program.to_string(),
            fps: HashMap::new(),
            inbox: HashMap::new(),
        });
        Ok(())
    }

    /// Builder form of [`System::enable_gossip`].
    pub fn with_gossip(mut self, program: &str) -> Result<Self, SysError> {
        self.enable_gossip(program)?;
        Ok(self)
    }

    /// Whether the gossip repair layer is on.
    pub fn gossip_enabled(&self) -> bool {
        self.gossip.is_some()
    }

    /// Forces every store's buffered appends to durable storage — the
    /// explicit group-commit point for [`SyncPolicy::Batched`] callers
    /// outside [`System::run_to_quiescence`] (which group-commits at
    /// every step on its own). Clean stores are skipped; a no-op under
    /// [`SyncPolicy::Eager`] where nothing is ever left dirty.
    pub fn flush(&mut self) -> Result<(), SysError> {
        self.sync_stores()
    }

    /// Total backend syncs performed across every principal's store —
    /// for log-backed stores, the number of fsyncs the deployment has
    /// paid. The counter [`SyncPolicy::Batched`] exists to shrink.
    pub fn fsyncs(&self) -> u64 {
        self.stores.values().map(|s| s.stats().syncs).sum()
    }

    /// Compacts every principal's store — checkpoint + prune of
    /// superseded segments — in parallel across the configured shard
    /// workers. Returns how many stores actually installed a compaction
    /// (memory-backed stores never do). Dead records (revoked/expired
    /// certificates, superseded ticks) stop occupying disk, reopen cost
    /// drops to checkpoint + suffix, and audit citations survive via
    /// the folded audit segment.
    pub fn compact(&mut self) -> Result<usize, SysError> {
        self.maintain_stores(true)
    }

    /// Checkpoints every principal's store without pruning: future
    /// reopens replay checkpoint + suffix, while superseded segments
    /// stay on disk. Runs on the shard workers like [`System::compact`].
    pub fn checkpoint(&mut self) -> Result<usize, SysError> {
        self.maintain_stores(false)
    }

    /// Runs per-store checkpoint/compaction, one task per store.
    fn maintain_stores(&mut self, prune: bool) -> Result<usize, SysError> {
        // Quarantined stores are skipped outright — maintenance is a
        // write (checkpoint append / segment rewrite) and the store is
        // read-only until its fault heals.
        let present: Vec<Principal> = self
            .order
            .iter()
            .copied()
            .filter(|p| {
                self.stores.contains_key(p) && self.store_health(*p) != StoreHealth::Quarantined
            })
            .collect();
        self.run_store_op(&present, StoreOp::Maintain { prune })
    }

    /// Runs `op` on every store in `targets` (each registered) as one
    /// batch and folds the results into the health state in
    /// registration order: transient I/O degrades the store (retried by
    /// the next group commit / maintenance pass) instead of failing the
    /// whole sweep. Returns how many maintenance passes installed.
    fn run_store_op(&mut self, targets: &[Principal], op: StoreOp) -> Result<usize, SysError> {
        let tasks: Vec<PoolTask> = targets
            .iter()
            .map(|p| PoolTask::Store {
                store: self.stores.remove(p).expect("registered"),
                op,
            })
            .collect();
        let report = self.run_tasks(tasks);
        let mut performed = 0usize;
        let mut first_error: Option<SysError> = None;
        for (&p, done) in targets.iter().zip(report.results) {
            let PoolDone::Store { store, result } = done else {
                unreachable!("store batches return store results");
            };
            self.stores.insert(p, store);
            match result {
                Ok(did) => {
                    performed += usize::from(did);
                    self.note_store_ok(p);
                }
                Err(e) => {
                    if let Err(e) = self.note_store_failure(p, e) {
                        first_error.get_or_insert(e);
                    }
                }
            }
        }
        first_error.map_or(Ok(performed), Err)
    }

    /// Runs one batch of per-principal tasks to completion and returns
    /// the results in submission order: on the pool when one exists and
    /// the batch has more than one task, otherwise the very same
    /// [`run_pool_task`] inline on this thread — so every phase has one
    /// task-building and one merge path whatever the shard count.
    /// Inline, the caller counts as worker 0, timed only while phase
    /// timing is on.
    fn run_tasks(&self, tasks: Vec<PoolTask>) -> BatchReport<PoolDone> {
        if let Some(pool) = self.pool.as_ref().filter(|_| tasks.len() > 1) {
            self.obs.pool_tasks.add(tasks.len() as u64);
            return pool.run_batch(tasks);
        }
        let started = self.obs.phase_timer();
        let results = tasks.into_iter().map(run_pool_task).collect();
        let busy = started.map(|s| s.elapsed()).into_iter().collect();
        BatchReport { results, busy }
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

    /// System statistics.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// Registered principals in registration order.
    pub fn principals(&self) -> &[Principal] {
        &self.order
    }

    // ---- setup -------------------------------------------------------------

    /// Registers a principal, generating its RSA keypair, placing it on
    /// `node`, installing the `says` declarations and the default
    /// authentication scheme (RSA, §5.1), and introducing it (name and
    /// public key handle) to every existing principal.
    pub fn add_principal(&mut self, name: &str, node: &str) -> Result<Principal, SysError> {
        let me = Symbol::intern(name);
        if self.workspaces.contains_key(&me) {
            return Ok(me);
        }
        let key_seed = self
            .seed
            .wrapping_add(me.index() as u64)
            .wrapping_mul(0x9E37_79B9);
        self.keys.write().generate_rsa(me, self.rsa_bits, key_seed);

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
        if let Some(gossip) = &self.gossip {
            ws.load("gossip", &gossip.program)?;
        }
        self.auth.insert(me, AuthScheme::Rsa);

        // Introduce everyone to everyone (prin facts + key handles).
        ws.assert_fact(Symbol::intern("prin"), vec![Value::Sym(me)]);
        ws.assert_fact(
            Symbol::intern("rsaprivkey"),
            vec![Value::Sym(me), rsa_priv_handle(me)],
        );
        ws.assert_fact(
            Symbol::intern("rsapubkey"),
            vec![Value::Sym(me), rsa_pub_handle(me)],
        );
        for &other in &self.order {
            ws.assert_fact(Symbol::intern("prin"), vec![Value::Sym(other)]);
            ws.assert_fact(
                Symbol::intern("rsapubkey"),
                vec![Value::Sym(other), rsa_pub_handle(other)],
            );
            let other_ws = self.workspaces.get_mut(&other).expect("registered");
            other_ws.assert_fact(Symbol::intern("prin"), vec![Value::Sym(me)]);
            other_ws.assert_fact(
                Symbol::intern("rsapubkey"),
                vec![Value::Sym(me), rsa_pub_handle(me)],
            );
        }

        // The certificate store: ephemeral by default, a replayed
        // segment log under persistence. With fault injection armed,
        // either backend is wrapped in a FaultingBackend whose schedule
        // depends only on the spec seed and the principal's name.
        let faults = self
            .fault_spec
            .as_ref()
            .map(|spec| FaultHandle::seeded(spec.for_store(name)));
        let mut store = match (&self.persist_dir, &faults) {
            (Some(dir), Some(handle)) => {
                let path = dir.join(format!("{name}.certlog"));
                CertStore::open_with_obs_faults(
                    path,
                    self.vcache.clone(),
                    self.rotate_bytes,
                    self.obs.registry(),
                    handle.clone(),
                )
                .map_err(SysError::Cert)?
            }
            (Some(dir), None) => {
                let path = dir.join(format!("{name}.certlog"));
                CertStore::open_with_obs(
                    path,
                    self.vcache.clone(),
                    self.rotate_bytes,
                    self.obs.registry(),
                )
                .map_err(SysError::Cert)?
            }
            (None, Some(handle)) => {
                let mut store = CertStore::with_cache_faults(self.vcache.clone(), handle.clone());
                handle.attach_metrics(self.obs.registry());
                store.attach_obs(self.obs.registry());
                store
            }
            (None, None) => {
                let mut store = CertStore::with_cache(self.vcache.clone());
                store.attach_obs(self.obs.registry());
                store
            }
        };
        // Replay reconciliation: every certificate the log shows as
        // still active re-introduces exactly the facts a live import
        // would have asserted (`export[me](issuer, R, S)` + `says`), so
        // the workspace's derived state matches the pre-restart system
        // once policies are reloaded. Certificates the log shows as
        // revoked/expired produced retraction events during replay, but
        // a freshly registered workspace holds no facts for them — the
        // events are drained so they cannot fire twice.
        let _ = store.take_replay_events();
        let mut replayed: Vec<(Symbol, Tuple)> = Vec::new();
        let my_facts = self.cert_facts.entry(me).or_default();
        for digest in store.active() {
            let entry = store.get(&digest).expect("active digest is stored");
            let facts = cert_workspace_facts(me, &entry.cert);
            replayed.extend(facts.iter().cloned());
            my_facts.insert(digest, facts);
            self.stats.certs_replayed += 1;
        }
        ws.assert_facts(&replayed);

        // Commit a baseline so any later constraint violation rolls back
        // to a fully introduced workspace, not an empty one.
        ws.evaluate().map_err(SysError::Workspace)?;
        for &other in &self.order {
            self.workspaces
                .get_mut(&other)
                .expect("registered")
                .evaluate()
                .map_err(SysError::Workspace)?;
        }
        self.placement.insert(me, NodeId::new(node));
        self.workspaces.insert(me, ws);
        self.order.push(me);
        self.drained.insert(me, ExportCursor::default());
        self.stores.insert(me, store);
        self.health.insert(me, HealthState::default());
        if let Some(handle) = faults {
            self.fault_handles.insert(me, handle);
        }
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
            let ws = self
                .workspaces
                .get_mut(&me)
                .ok_or(SysError::UnknownPrincipal(me))?;
            ws.assert_fact(
                Symbol::intern("sharedsecret"),
                vec![Value::Sym(me), Value::Sym(other), handle.clone()],
            );
            ws.evaluate().map_err(SysError::Workspace)?;
        }
        Ok(())
    }

    /// Swaps `who`'s authentication scheme — the paper's two-rule
    /// reconfiguration (§4.1.2). Policies using `says` are untouched.
    pub fn set_auth_scheme(&mut self, who: Principal, scheme: AuthScheme) -> Result<(), SysError> {
        let ws = self
            .workspaces
            .get_mut(&who)
            .ok_or(SysError::UnknownPrincipal(who))?;
        ws.replace_tag("auth", &scheme.prelude())?;
        self.auth.insert(who, scheme);
        Ok(())
    }

    /// The current scheme of `who`.
    pub fn auth_scheme(&self, who: Principal) -> Option<AuthScheme> {
        self.auth.get(&who).copied()
    }

    /// Re-places a principal onto a different node (the `loc` relation
    /// is data: "users can easily enforce various distribution plans by
    /// modifying the loc table", §5.2).
    pub fn place(&mut self, who: Principal, node: &str) {
        self.placement.insert(who, NodeId::new(node));
    }

    /// The node hosting `who`.
    pub fn location(&self, who: Principal) -> Option<NodeId> {
        self.placement.get(&who).copied()
    }

    // ---- workspace access ----------------------------------------------------

    /// Borrows a principal's workspace.
    pub fn workspace(&self, who: Principal) -> Result<&Workspace, SysError> {
        self.workspaces
            .get(&who)
            .ok_or(SysError::UnknownPrincipal(who))
    }

    /// Mutably borrows a principal's workspace.
    pub fn workspace_mut(&mut self, who: Principal) -> Result<&mut Workspace, SysError> {
        self.workspaces
            .get_mut(&who)
            .ok_or(SysError::UnknownPrincipal(who))
    }

    // ---- static-analysis preflight -------------------------------------------

    /// The lint configuration the preflight analyses run under.
    pub fn lint_config(&self) -> &AnalyzerConfig {
        &self.lint
    }

    /// Replaces the lint configuration.
    pub fn set_lint_config(&mut self, config: AnalyzerConfig) {
        self.lint = config;
    }

    /// Sets one lint's level (builder form).
    pub fn with_lint_level(mut self, kind: lbtrust_analysis::DiagKind, level: LintLevel) -> Self {
        self.lint.set_level(kind, level);
        self
    }

    /// Sets one lint's level, e.g. demoting a deny-level lint to `Warn`
    /// for a program that is trusted by construction.
    pub fn set_lint_level(&mut self, kind: lbtrust_analysis::DiagKind, level: LintLevel) {
        self.lint.set_level(kind, level);
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
    /// findings and the magic-set applicability report.
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
        self.stores.get(&who).ok_or(SysError::UnknownPrincipal(who))
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
    /// all citing `links` and carrying `ttl`.
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
            let signature = pair
                .private
                .sign(&to_sign)
                .map_err(|e| SysError::Issue(e.to_string()))?;
            let rule_sig = pair
                .private
                .sign(&lbtrust_net::rule_bytes(&rule))
                .map_err(|e| SysError::Issue(e.to_string()))?;
            out.push(LinkedCert {
                issuer,
                rule,
                links: links.to_vec(),
                ttl,
                signature,
                rule_sig,
            });
        }
        Ok(out)
    }

    // ---- fault plane ---------------------------------------------------------

    /// Whether a store error is a storage I/O failure — the class the
    /// step-based retry/quarantine policy covers. Semantic rejections
    /// (bad signatures, broken links, …) and structural storage errors
    /// (unsupported records, oversized checkpoints) are never retried.
    fn is_storage_io(e: &CertStoreError) -> bool {
        matches!(e, CertStoreError::Storage(StorageError::Io { .. }))
    }

    /// A [`DegradedError`] snapshot of `p`'s current health state.
    fn degraded_info(&self, p: Principal) -> DegradedError {
        let h = self.health.get(&p);
        DegradedError {
            principal: p,
            since_step: h.map(|h| h.since_step).unwrap_or_default(),
            attempts: h.map(|h| h.attempts).unwrap_or_default(),
            last_error: h.map(|h| h.last_error.clone()).unwrap_or_default(),
        }
    }

    /// Journals one degradation transition (`store.degraded`,
    /// `store.quarantined`, `store.healed`) when a sink is attached.
    fn journal_health(&self, kind: &str, p: Principal, attempts: u32, detail: &str) {
        if !self.obs.journal.enabled() {
            return;
        }
        let event = Event::new(kind)
            .str_field("principal", &p.to_string())
            .u64_field("step", self.stats.steps as u64)
            .u64_field("attempts", u64::from(attempts))
            .str_field("error", detail);
        self.obs.journal.record(&event);
    }

    /// Moves `p` into quarantine: the store keeps serving reads,
    /// refuses writes with [`DegradedError`], is skipped by group
    /// commit and auto-compaction, and is probed for re-admission each
    /// step once its backoff elapses.
    fn quarantine_store(&mut self, p: Principal, last_error: String) {
        let step = self.stats.steps;
        let policy = self.retry_policy;
        let h = self.health.entry(p).or_default();
        if h.health != StoreHealth::Quarantined {
            h.since_step = step;
        }
        h.health = StoreHealth::Quarantined;
        h.last_error = last_error;
        h.retry_at_step = step + policy.backoff_steps(h.attempts.max(1));
        let attempts = h.attempts;
        let detail = h.last_error.clone();
        self.obs.count_quarantine();
        self.journal_health("store.quarantined", p, attempts, &detail);
    }

    /// Runs one storage operation against `p`'s store, retrying
    /// transient I/O failures immediately up to the policy's
    /// `max_attempts` (safe because the store's durability contract
    /// leaves memory untouched when an append fails). Returns
    /// `Ok(None)` when retries were exhausted and the store was
    /// quarantined; non-storage errors pass through as `Err`.
    fn retry_store_op<T>(
        &mut self,
        p: Principal,
        mut op: impl FnMut(&mut CertStore) -> Result<T, CertStoreError>,
    ) -> Result<Option<T>, SysError> {
        let max = self.retry_policy.max_attempts.max(1);
        let mut failures = 0u32;
        loop {
            let store = self
                .stores
                .get_mut(&p)
                .ok_or(SysError::UnknownPrincipal(p))?;
            match op(store) {
                Ok(v) => {
                    if failures > 0 {
                        let h = self.health.entry(p).or_default();
                        h.attempts = 0;
                        h.health = StoreHealth::Healthy;
                    }
                    return Ok(Some(v));
                }
                Err(e) if Self::is_storage_io(&e) => {
                    failures += 1;
                    self.obs.count_retry();
                    {
                        let h = self.health.entry(p).or_default();
                        h.attempts = h.attempts.saturating_add(1);
                        h.last_error = e.to_string();
                    }
                    if failures >= max {
                        self.quarantine_store(p, e.to_string());
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
        p: Principal,
        op: impl FnMut(&mut CertStore) -> Result<T, CertStoreError>,
    ) -> Result<T, SysError> {
        if self.store_health(p) == StoreHealth::Quarantined {
            return Err(SysError::Degraded(self.degraded_info(p)));
        }
        match self.retry_store_op(p, op)? {
            Some(v) => Ok(v),
            None => Err(SysError::Degraded(self.degraded_info(p))),
        }
    }

    /// Folds one deferred (group-commit / maintenance) storage failure
    /// into `p`'s health state: transient I/O degrades the store with
    /// step-based backoff and quarantines it once the policy's
    /// `max_attempts` consecutive failures accumulate; any other error
    /// propagates unchanged.
    fn note_store_failure(&mut self, p: Principal, e: CertStoreError) -> Result<(), SysError> {
        if !Self::is_storage_io(&e) {
            return Err(SysError::Cert(e));
        }
        let step = self.stats.steps;
        let policy = self.retry_policy;
        self.obs.count_retry();
        let (attempts, quarantine) = {
            let h = self.health.entry(p).or_default();
            h.attempts = h.attempts.saturating_add(1);
            h.last_error = e.to_string();
            if h.health == StoreHealth::Healthy {
                h.since_step = step;
            }
            let quarantine = h.attempts >= policy.max_attempts.max(1);
            if !quarantine {
                h.health = StoreHealth::Degraded;
                h.retry_at_step = step + policy.backoff_steps(h.attempts);
            }
            (h.attempts, quarantine)
        };
        if quarantine {
            self.quarantine_store(p, e.to_string());
        } else {
            self.journal_health("store.degraded", p, attempts, &e.to_string());
        }
        Ok(())
    }

    /// Clears `p`'s degraded state after a successful deferred commit.
    fn note_store_ok(&mut self, p: Principal) {
        let recovered = {
            let h = self.health.entry(p).or_default();
            let was = h.health;
            h.health = StoreHealth::Healthy;
            h.attempts = 0;
            was == StoreHealth::Degraded
        };
        if recovered {
            self.journal_health("store.healed", p, 0, "deferred commit succeeded");
        }
    }

    /// Whether any store is `Degraded` — a deferred group-commit retry
    /// is pending, so the quiescence loop must keep stepping.
    /// (`Quarantined` stores do *not* hold up quiescence: the system
    /// runs degraded around them.)
    fn retries_pending(&self) -> bool {
        self.health
            .values()
            .any(|h| h.health == StoreHealth::Degraded)
    }

    /// Whether any quarantined store is *probe-eligible*: its fault
    /// handle no longer reports a persistent failure (or it has none),
    /// so an upcoming probe will re-admit it. The quiescence loop keeps
    /// stepping until such stores are back in — while a store whose
    /// fault is still armed lets the system settle into degraded
    /// service instead.
    fn heal_pending(&self) -> bool {
        self.health.iter().any(|(p, h)| {
            h.health == StoreHealth::Quarantined
                && !self
                    .fault_handles
                    .get(p)
                    .is_some_and(FaultHandle::is_persistent)
        })
    }

    /// Imports certificates into `to`'s store (links resolved within
    /// the batch and against already-stored credentials, signatures
    /// checked through the shared cache) and asserts the certified
    /// rules into `to`'s workspace as authenticated imports:
    /// `export[me](issuer, R, S)` — so the declarative `exp2`/`exp3`
    /// pipeline re-verifies and derives `says` — plus `says(issuer, me,
    /// R)` directly for workspaces without the auth prelude.
    pub fn import_certificates(
        &mut self,
        to: Principal,
        certs: Vec<LinkedCert>,
    ) -> Result<Vec<ImportOutcome>, SysError> {
        if !self.workspaces.contains_key(&to) {
            return Err(SysError::UnknownPrincipal(to));
        }
        // Bulk loads fan the expensive signature checks across worker
        // threads first; the store's serial walk then answers every
        // check from the shared cache.
        self.prewarm_verifications(&certs);
        let verifier = self.key_verifier();
        // The bundle import retries as a unit on transient I/O: a
        // failed insert left no trace (append-before-mutate), and
        // already-Active members re-import through the no-append fast
        // path, so a retry is idempotent.
        let outcomes =
            self.with_store_retry(to, |store| store.import_bundle(certs.clone(), &verifier))?;
        // One commit point per bundle under either policy: an
        // acknowledged import is durable, and the fsync amortizes over
        // the whole bundle rather than per certificate. Retried
        // separately from the import so a commit failure after a
        // successful bundle walk cannot re-append anything.
        self.with_store_retry(to, |store| store.sync())?;
        for outcome in &outcomes {
            // Assert facts for fresh imports *and* for live certificates
            // whose facts never landed (a bundle that failed part-way
            // leaves its successful members Active in the store; a retry
            // arrives here with newly_added=false and must still finish
            // the workspace half of the import).
            if self
                .cert_facts
                .get(&to)
                .is_some_and(|m| m.contains_key(&outcome.digest))
            {
                continue;
            }
            let entry = self
                .stores
                .get(&to)
                .expect("store per principal")
                .get(&outcome.digest)
                .expect("just imported")
                .clone();
            let facts = cert_workspace_facts(to, &entry.cert);
            let ws = self.workspaces.get_mut(&to).expect("checked above");
            ws.assert_facts(&facts);
            self.cert_facts
                .entry(to)
                .or_default()
                .insert(outcome.digest, facts);
            self.stats.certs_imported += 1;
        }
        self.workspaces
            .get_mut(&to)
            .expect("checked above")
            .evaluate()?;
        Ok(outcomes)
    }

    /// Verifies a bundle's signatures in parallel, priming the shared
    /// cache with the outcomes. A no-op for bundles below
    /// [`PARALLEL_VERIFY_MIN`] or when everything is already cached.
    /// Correctness is unchanged: the store re-asks the cache for every
    /// signature and any outcome not primed here is checked serially.
    fn prewarm_verifications(&mut self, certs: &[LinkedCert]) {
        if certs.len() < PARALLEL_VERIFY_MIN {
            return;
        }
        // Both signatures of every certificate, deduplicated against
        // outcomes the cache already holds.
        let mut jobs: Vec<(Symbol, Vec<u8>, &[u8])> = Vec::with_capacity(certs.len() * 2);
        {
            let cache = self.vcache.lock().unwrap_or_else(|e| e.into_inner());
            for cert in certs {
                let signing = cert.signing_bytes();
                if !cache.is_cached(cert.issuer, &signing, &cert.signature) {
                    jobs.push((cert.issuer, signing, &cert.signature));
                }
                let rule = cert.rule_bytes();
                if !cache.is_cached(cert.issuer, &rule, &cert.rule_sig) {
                    jobs.push((cert.issuer, rule, &cert.rule_sig));
                }
            }
        }
        if jobs.is_empty() {
            return;
        }
        // At least two workers so the fan-out is real even on
        // single-core hosts (the checks are pure CPU; extra threads
        // cost one spawn each and change no outcome), scaling up with
        // the machine.
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(2, 16)
            .min(jobs.len());
        let verifier = self.key_verifier();
        let chunk = jobs.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for part in jobs.chunks(chunk) {
                let verifier = &verifier;
                let vcache = &self.vcache;
                scope.spawn(move || {
                    for (signer, message, signature) in part {
                        let ok = verifier.verify(*signer, message, signature);
                        vcache
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .prime(*signer, message, signature, ok);
                    }
                });
            }
        });
        self.stats.parallel_verify_batches += 1;
    }

    /// Re-imports certificates already held by `to`: answered from the
    /// store and the verification cache without fresh signature checks
    /// or workspace work. (The cached fast path the `ablation_certstore`
    /// bench measures.)
    pub fn reimport_certificates(
        &mut self,
        to: Principal,
        certs: &[LinkedCert],
    ) -> Result<Vec<ImportOutcome>, SysError> {
        let verifier = self.key_verifier();
        let outcomes = self.with_store_retry(to, |store| {
            let mut outcomes = Vec::with_capacity(certs.len());
            for cert in certs {
                outcomes.push(store.insert(cert.clone(), &verifier)?);
            }
            Ok(outcomes)
        })?;
        self.with_store_retry(to, |store| store.sync())?;
        Ok(outcomes)
    }

    /// Revokes a certificate `issuer` issued: applies the signed
    /// revocation to every local store immediately (retracting the
    /// certificate's facts through DRed) and broadcasts a `revoke`
    /// packet to every other principal's node, so stores across the
    /// (simulated) deployment converge during the next
    /// [`System::run_to_quiescence`].
    pub fn revoke_certificate(
        &mut self,
        issuer: Principal,
        digest: CertDigest,
    ) -> Result<(), SysError> {
        let signing = lbtrust_net::revoke_signing_bytes(issuer, digest.as_bytes());
        let signature = {
            let guard = self.keys.read();
            let pair = guard
                .rsa(issuer)
                .ok_or(SysError::UnknownPrincipal(issuer))?;
            pair.private
                .sign(&signing)
                .map_err(|e| SysError::Issue(e.to_string()))?
        };
        let revocation = Revocation {
            issuer,
            target: digest,
            signature: signature.clone(),
        };
        // Local application at the issuer's node is immediate …
        self.apply_revocation(issuer, &revocation)?;
        // … and everybody else learns over the wire.
        let from_node = self.node_of(issuer);
        for &other in &self.order.clone() {
            if other == issuer {
                continue;
            }
            let to_node = self.node_of(other);
            let packet = WirePacket::Revoke(RevokeMessage {
                from: issuer,
                to: other,
                digest: *digest.as_bytes(),
                auth: signature.clone(),
            });
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

    /// Applies a verified revocation at one principal: marks the store,
    /// then retracts every workspace fact a dying certificate
    /// introduced — incrementally via DRed where the program admits it.
    /// Re-applying an already-known revocation is a no-op that counts
    /// nothing.
    fn apply_revocation(&mut self, at: Principal, revocation: &Revocation) -> Result<(), SysError> {
        let verifier = self.key_verifier();
        let eager = self.sync_policy == SyncPolicy::Eager;
        // The mutation and its fsync retry separately: once the revoke
        // has appended and applied, a retried call would hit the
        // idempotence gate and lose the retraction events.
        let outcome =
            self.with_store_retry(at, |store| store.revoke_with_outcome(revocation, &verifier))?;
        if outcome.applied && outcome.authoritative {
            self.stats.revocations += 1;
            self.retract_cert_facts(at, &outcome.events);
        }
        if eager {
            // A persistent commit failure quarantines the store, but
            // the revocation is applied in memory and the workspace
            // already retracted — the heal-time flush makes it durable.
            self.with_store_retry(at, |store| store.sync())?;
        }
        Ok(())
    }

    /// Advances every store's logical clock by `ticks`, expiring
    /// overdue certificates and retracting their facts (TTL freshness).
    /// Returns the number of certificates that died.
    pub fn advance_time(&mut self, ticks: u64) -> Result<usize, SysError> {
        let mut died = 0;
        let eager = self.sync_policy == SyncPolicy::Eager;
        for &p in &self.order.clone() {
            // Quarantined stores must not lose time: the ticks
            // accumulate and apply at re-admission — graceful
            // degradation, not an error, since the caller is advancing
            // the whole deployment.
            if self.store_health(p) == StoreHealth::Quarantined {
                self.health.entry(p).or_default().pending_ticks += ticks;
                continue;
            }
            let Some(events) = self.retry_store_op(p, |store| store.advance_clock(ticks))? else {
                // Quarantined just now: the tick record never appended
                // (append-before-mutate), so it joins the deferred
                // balance like any other.
                self.health.entry(p).or_default().pending_ticks += ticks;
                continue;
            };
            died += events.len();
            self.retract_cert_facts(p, &events);
            if eager {
                // Commit failure only defers durability: the expiry is
                // applied in memory and the heal-time flush catches up.
                let _ = self.retry_store_op(p, |store| store.sync())?;
            }
        }
        Ok(died)
    }

    /// Audit query: which credential(s) introduced the certified rule
    /// `rule_src` into `who`'s store? Answers from the store's
    /// append-only audit trail, so the citation survives the
    /// credential's revocation, expiry, tombstone eviction — and, for
    /// durable stores, process restarts.
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
    /// credentials the decision rests on: the proof tree is walked for
    /// `says` premises, and each certified rule is traced back through
    /// the store's audit trail to the digest(s) of the certificate(s)
    /// that introduced it (the same citation [`System::audit_introducers`]
    /// answers). The decision increments `authz.granted`/`authz.denied`
    /// and, when a journal sink is attached
    /// ([`System::enable_decision_journal`]), is recorded as an
    /// `authorize` event carrying the supporting digests.
    pub fn authorize(&self, who: Principal, goal: &str) -> Result<AuthzDecision, SysError> {
        let store = self.cert_store(who)?;
        let proof = self.workspace(who)?.explain_proof(goal)?;
        let decided = decide(proof, store.ground_heads(), |rule_src, out| {
            out.extend(store.audit().introducers(rule_src).iter().map(|e| e.digest));
        });
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
    /// mutating. Called automatically at every quiescent point of
    /// [`System::run_to_quiescence`]; callers streaming imports or
    /// revocations outside the fixpoint (e.g. [`System::apply_revocation`]
    /// via [`System::revoke_certificate`]) publish explicitly to make
    /// those changes visible to readers.
    ///
    /// Publication also settles the decision cache: a window in which a
    /// principal changed *only* by incremental DRed retractions keeps
    /// its cache version and drops exactly the decisions citing a dead
    /// certificate, while any other change (imports, rule changes,
    /// non-monotonic rebuilds — detected by comparing workspace-epoch
    /// movement against the counted retraction repairs) bumps the
    /// version and orphans the principal's older entries wholesale.
    /// Either way a cached grant never outlives a revocation of its
    /// support.
    pub fn publish_authz_snapshot(&mut self) {
        let started = Instant::now();
        let mut principals = HashMap::with_capacity(self.order.len());
        // Poisoned-decision sweeps, run only once the new snapshot is
        // in the cell (see [`AuthzShared::invalidate_poisoned`]).
        let mut sweeps: Vec<(Principal, u64, HashSet<CertDigest>)> = Vec::new();
        for &p in &self.order {
            let ws = self.workspaces.get(&p).expect("registered");
            // Quarantined stores stay registered and keep serving
            // reads (the PR 8 degradation contract), so they publish
            // like healthy ones.
            let store = self.stores.get(&p).expect("registered");
            let pub_state = self.authz_pub.entry(p).or_default();
            let epoch = ws.epoch();
            let store_version = store.version();
            if pub_state.snap.is_some()
                && epoch == pub_state.published_epoch
                && store_version == pub_state.published_store_version
            {
                // Unchanged since the last publish: share the Arc.
                pub_state.poisoned.clear();
                pub_state.retraction_bumps = 0;
                let snap = pub_state.snap.clone().expect("checked above");
                principals.insert(p, snap);
                continue;
            }
            let epoch_delta = epoch.wrapping_sub(pub_state.published_epoch);
            if pub_state.snap.is_some() && epoch_delta == pub_state.retraction_bumps {
                // Retraction-only window: every workspace change was an
                // incremental DRed repair (facts only disappeared), so
                // a cached deny cannot have flipped and a cached grant
                // is stale exactly when it cites a dead certificate.
                // Drop precisely those; the version (and every other
                // cached decision) survives.
                if !pub_state.poisoned.is_empty() {
                    let poisoned = pub_state.poisoned.drain(..).collect();
                    sweeps.push((p, pub_state.authz_version, poisoned));
                }
            } else {
                // Arbitrary change (fresh imports, rule loads, a
                // non-monotonic rebuild, a rollback): no per-entry
                // attribution is possible, so the version bump orphans
                // the principal's cached decisions wholesale and the
                // 2Q eviction reclaims them.
                pub_state.authz_version += 1;
            }
            pub_state.poisoned.clear();
            pub_state.retraction_bumps = 0;
            pub_state.published_epoch = epoch;
            pub_state.published_store_version = store_version;
            // Everything below is shared, not copied: the database with
            // the workspace (a pointer per relation), the registry and the
            // ground-head index with their owners, and the introducer map
            // with the previous snapshot unless an import was recorded.
            let audit = store.audit();
            let introducers_len = audit.introducers_len();
            let introducers = match &pub_state.snap {
                Some(prev) if prev.introducers_len == introducers_len => prev.introducers.clone(),
                _ => Arc::new(audit.introducer_digests()),
            };
            let snap = Arc::new(PrincipalSnapshot {
                me: p,
                rules: ws.program().rules().clone(),
                db: ws.db().clone(),
                builtins: ws.builtins().clone(),
                ground_heads: store.ground_heads().clone(),
                introducers,
                introducers_len,
                authz_version: pub_state.authz_version,
                store_version,
            });
            pub_state.snap = Some(snap.clone());
            principals.insert(p, snap);
        }
        self.authz_shared.cell.publish(crate::AuthzSnapshot {
            generation: 0, // stamped by the cell
            principals,
        });
        for (p, version, poisoned) in sweeps {
            self.authz_shared.invalidate_poisoned(p, version, &poisoned);
        }
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
    /// handles share one decision cache and see each newly published
    /// snapshot within one atomic load.
    pub fn authz_reader(&mut self) -> AuthzReader {
        self.publish_authz_snapshot();
        AuthzReader::new(self.authz_shared.clone())
    }

    /// Retracts the workspace facts behind each retraction event in one
    /// batched DRed pass per principal.
    fn retract_cert_facts(&mut self, at: Principal, events: &[lbtrust_certstore::RetractionEvent]) {
        // Every dying certificate poisons the cached decisions citing
        // it, whether or not its facts were still asserted here.
        let pub_state = self.authz_pub.entry(at).or_default();
        pub_state.poisoned.extend(events.iter().map(|e| e.digest));
        let mut batch: Vec<(Symbol, Tuple)> = Vec::new();
        if let Some(my_facts) = self.cert_facts.get_mut(&at) {
            for event in events {
                if let Some(facts) = my_facts.remove(&event.digest) {
                    batch.extend(facts);
                }
            }
        }
        if batch.is_empty() {
            return;
        }
        let ws = self.workspaces.get_mut(&at).expect("registered");
        self.stats.retractions += batch.len();
        match ws.retract_facts(&batch) {
            RetractOutcome::Incremental(_) => {
                self.stats.dred_repairs += 1;
                // One incremental repair = exactly one workspace epoch
                // bump; the publish path matches these totals to tell
                // "retraction-only" windows (precise cache
                // invalidation) from arbitrary change (version bump).
                self.authz_pub.entry(at).or_default().retraction_bumps += 1;
            }
            RetractOutcome::Deferred => self.stats.retraction_rebuilds += 1,
            RetractOutcome::Noop => {}
        }
    }

    // ---- the distributed fixpoint ---------------------------------------------

    /// Runs every workspace to its local fixpoint, ships export tuples,
    /// delivers messages (triggering imports), and repeats until no
    /// workspace derives anything new and the network is empty.
    ///
    /// The local-fixpoint, delivery-import and group-commit phases each
    /// run as one batch of per-principal tasks — on the pool workers
    /// with [`System::set_shards`] above 1, inline otherwise; placement
    /// updates, network traffic and statistics are merged sequentially
    /// in registration order, so every shard count reaches the
    /// identical quiescent state.
    ///
    /// Messages whose import violates the receiver's verification
    /// constraint are rejected (the receiving workspace rolls back) and
    /// counted in [`SystemStats::messages_rejected`]. Any other
    /// evaluation error aborts the run, but never mid-batch: every
    /// principal's task in the failing phase still runs and merges (so
    /// packets already drained from the network are applied, not
    /// lost), and the first such error in registration order is
    /// returned — the same state and the same error at every shard
    /// count.
    pub fn run_to_quiescence(&mut self, max_steps: usize) -> Result<SystemStats, SysError> {
        let export = Symbol::intern("export");
        let loc = Symbol::intern("loc");
        // One snapshot of the registration order per call (it cannot
        // change mid-run); the phases below each borrow the system
        // mutably, so re-cloning inside the step loop would cost five
        // allocations per step.
        let order = self.order.clone();
        for _ in 0..max_steps {
            self.stats.steps += 1;
            // Advance the network's fault clock: heal partitions whose
            // deadline arrived and release messages the delay model
            // held for this step.
            self.net.begin_step();
            let step_started = self.obs.phase_timer();
            // 0. Gossip inputs: refresh each workspace's `revfp` facts
            // from its store and learn whether any two stores' summaries
            // still disagree. Sequential in registration order (cheap:
            // fingerprints are maintained per store).
            let t = self.obs.phase_timer();
            let divergent = self.prepare_gossip(&order);
            self.obs.record_phase(QuiescePhase::GossipPrepare, t);
            // 1. Local fixpoints, one task per principal. A constraint
            // violation rolls the offending workspace back to its last
            // good state (the paper's fail-with-error semantics) and
            // the system carries on.
            let t = self.obs.phase_timer();
            self.local_fixpoints(&order)?;
            self.obs.record_phase(QuiescePhase::Fixpoint, t);
            // 1b. Data-driven placement (§5.2 ld1/ld2): `loc(P, N)`
            // facts derived in any workspace update the placement map —
            // "users can easily enforce various distribution plans by
            // modifying the loc table". Sequential, in registration
            // order, so conflicting placements resolve deterministically.
            let t = self.obs.phase_timer();
            self.update_placement(&order, loc);
            self.obs.record_phase(QuiescePhase::Placement, t);
            // 2. Drain fresh export tuples into the network,
            // sequentially so delivery order stays deterministic.
            let t = self.obs.phase_timer();
            let shipped = self.drain_exports(&order, export);
            self.obs.record_phase(QuiescePhase::ExportDrain, t);
            // 2b. Gossip round: while stores disagree, ship the
            // `revsummary`/`revpull` messages the gossip program
            // derived. Dormant once every store holds the same
            // revocation objects — the anti-entropy traffic stops, so
            // the system can quiesce. Sequential merge, like phase 2.
            let t = self.obs.phase_timer();
            let gossip_sent = if divergent {
                self.gossip_sends(&order)
            } else {
                0
            };
            self.obs.record_phase(QuiescePhase::GossipSend, t);
            // 3. Deliver and import, one task per destination
            // (answering gossip pulls with `revgossip` frames).
            let t = self.obs.phase_timer();
            let delivered = self.deliver_and_import(&order, export)?;
            self.obs.record_phase(QuiescePhase::Delivery, t);
            // 4. Group commit: under `Batched`, every store that
            // appended during this step syncs exactly once, here.
            if self.sync_policy == SyncPolicy::Batched {
                let t = self.obs.phase_timer();
                self.sync_stores()?;
                self.obs.record_phase(QuiescePhase::GroupCommit, t);
            }
            // 5. Fault-plane recovery: probe quarantined stores whose
            // backoff elapsed and re-admit the ones whose fault healed
            // (deferred group-commit retries already ran in phase 4).
            let t = self.obs.phase_timer();
            let healed = self.probe_quarantined(&order)?;
            self.obs.record_phase(QuiescePhase::FaultRecovery, t);
            self.obs.record_phase(QuiescePhase::Step, step_started);
            // Quiescent when nothing was shipped or delivered this step
            // (local fixpoints already ran), gossip is dormant, no
            // message sits delayed inside the network, no deferred
            // commit retry is pending, and no store was just re-admitted
            // (a fresh re-admission needs at least one more round so
            // anti-entropy can repair what the store missed).
            // Quarantined stores whose fault is still armed do NOT
            // hold up quiescence — the system settles into degraded
            // service around them; ones whose fault healed keep the
            // loop alive until a probe re-admits them.
            if shipped == 0
                && delivered == 0
                && gossip_sent == 0
                && healed == 0
                && !self.net.has_pending()
                && !self.retries_pending()
                && !self.heal_pending()
            {
                self.publish_obs();
                self.publish_authz_snapshot();
                return Ok(self.stats);
            }
        }
        Err(SysError::NoQuiescence { steps: max_steps })
    }

    /// Gossip phase 0: recompute every store's revocation summary,
    /// reconcile each workspace's `revfp` facts with it (retracting the
    /// stale fingerprint fact a changed one replaces, so the program's
    /// derivations repair through DRed), and report whether any two
    /// stores disagree. A no-op returning `false` when gossip is off —
    /// and cheap when it is on but converged: unchanged fingerprints
    /// assert nothing.
    fn prepare_gossip(&mut self, order: &[Principal]) -> bool {
        let Some(gossip) = self.gossip.as_mut() else {
            return false;
        };
        // Per-store summaries, registration order. Each is sorted by
        // signer name, so plain equality compares the summaries.
        let mut summaries: Vec<Vec<(Symbol, String)>> = Vec::with_capacity(order.len());
        for p in order {
            summaries.push(
                self.stores
                    .get(p)
                    .expect("registered")
                    .revocation_fingerprints()
                    .into_iter()
                    .map(|(signer, fp)| (signer, fingerprint_hex(&fp)))
                    .collect(),
            );
        }
        // The divergence oracle compares *writable* stores only: a
        // quarantined store cannot absorb gossip (its appends fail), so
        // letting it hold the oracle open would generate repair traffic
        // forever and the system could never settle into degraded
        // service. The moment the store heals it re-enters the
        // comparison, the oracle trips, and anti-entropy repairs it.
        let writable: Vec<&Vec<(Symbol, String)>> = order
            .iter()
            .zip(&summaries)
            .filter(|(p, _)| {
                self.health
                    .get(*p)
                    .is_none_or(|h| h.health != StoreHealth::Quarantined)
            })
            .map(|(_, s)| s)
            .collect();
        let divergent = writable.windows(2).any(|w| w[0] != w[1]);
        // Every signer any store has something for: each workspace
        // carries a `revfp` fact per such signer ([`ZERO_FP_HEX`] where
        // the local store holds nothing), so the program's diff rule
        // can fire for signers the local store has never heard of.
        let mut signers: BTreeSet<&str> = BTreeSet::new();
        for summary in &summaries {
            for (signer, _) in summary {
                signers.insert(signer.as_str());
            }
        }
        let signers: Vec<Symbol> = signers.into_iter().map(Symbol::intern).collect();
        for (p, summary) in order.iter().zip(&summaries) {
            let local: HashMap<Symbol, &str> = summary
                .iter()
                .map(|(signer, hex)| (*signer, hex.as_str()))
                .collect();
            let cache = gossip.fps.entry(*p).or_default();
            let mut stale: Vec<(Symbol, Tuple)> = Vec::new();
            let mut fresh: Vec<(Symbol, Tuple)> = Vec::new();
            for &signer in &signers {
                let desired = local.get(&signer).copied().unwrap_or(ZERO_FP_HEX);
                match cache.get(&signer) {
                    Some(prev) if prev == desired => continue,
                    Some(prev) => stale.push(revfp_fact(*p, signer, prev)),
                    None => {}
                }
                fresh.push(revfp_fact(*p, signer, desired));
                cache.insert(signer, desired.to_string());
            }
            if stale.is_empty() && fresh.is_empty() {
                continue;
            }
            let ws = self.workspaces.get_mut(p).expect("registered");
            if !stale.is_empty() {
                ws.retract_facts(&stale);
            }
            ws.assert_facts(&fresh);
        }
        divergent
    }

    /// Gossip phase 2b: ship every `revsummary`/`revpull` message the
    /// program derived, sequentially in registration order (and in a
    /// name-sorted order within each workspace), so the traffic —
    /// and therefore the seeded network's loss pattern — is identical
    /// for every shard count. Returns the number of messages handed to
    /// the network (dropped or not: an attempt is a round's work, and
    /// quiescence must wait for the retry).
    fn gossip_sends(&mut self, order: &[Principal]) -> usize {
        let gsays = Symbol::intern(GOSSIP_SAYS);
        let mut total = 0usize;
        for &p in order {
            let tuples = self.workspaces.get(&p).expect("registered").tuples(gsays);
            let mut sends: Vec<GossipSend> = tuples
                .iter()
                .filter_map(|t| parse_gossip_send(p, t))
                .collect();
            sends.sort_by(|a, b| gossip_send_key(a).cmp(&gossip_send_key(b)));
            sends.dedup();
            let from_node = self.node_of(p);
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

    /// Phase 1: every workspace to its local fixpoint, one task per
    /// principal. Constraint violations are rollbacks (counted); the
    /// first other evaluation error in registration order aborts the
    /// run once every workspace is back in place.
    fn local_fixpoints(&mut self, order: &[Principal]) -> Result<(), SysError> {
        // Move each workspace out for the duration of the batch; the
        // merge below reinserts in registration order.
        let tasks: Vec<PoolTask> = order
            .iter()
            .map(|p| PoolTask::Fixpoint(self.workspaces.remove(p).expect("registered")))
            .collect();
        let report = self.run_tasks(tasks);
        // Per-worker busy time feeds the shard histograms (and through
        // them the imbalance gauge): the load each worker actually
        // carried.
        for (w, busy) in report.busy.into_iter().enumerate() {
            self.obs.record_shard_fixpoint(w, busy);
        }
        let mut first_error: Option<WsError> = None;
        for (&p, done) in order.iter().zip(report.results) {
            let PoolDone::Fixpoint { ws, error } = done else {
                unreachable!("fixpoint batches return fixpoint results");
            };
            self.workspaces.insert(p, ws);
            match error {
                None => {}
                Some(WsError::Constraint(_)) => self.stats.local_rollbacks += 1,
                Some(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        first_error.map_or(Ok(()), |e| Err(e.into()))
    }

    /// Phase 1b: fold derived `loc(P, N)` facts into the placement map.
    fn update_placement(&mut self, order: &[Principal], loc: Symbol) {
        for &p in order {
            let tuples = self.workspaces.get(&p).expect("registered").tuples(loc);
            for t in tuples {
                if let [Value::Sym(who), Value::Sym(node)] = t.as_slice() {
                    self.placement.insert(*who, NodeId::from(*node));
                }
            }
        }
    }

    /// Phase 2: collect fresh export tuples and send them, sequentially
    /// and in registration order so the network delivers in the same
    /// order every run. This phase stays serial on purpose — the scan
    /// is a dedup over what each workspace's export partition gained
    /// since the last step, far cheaper than the evaluation phases the
    /// shards split, and cheaper than a round of worker spawns.
    fn drain_exports(&mut self, order: &[Principal], export: Symbol) -> usize {
        let mut shipped = 0usize;
        for &me in order {
            let ws = self.workspaces.get(&me).expect("registered");
            let cursor = self.drained.get_mut(&me).expect("registered");
            // Relations only append between compactions, so everything
            // below the watermark was fingerprinted on an earlier step.
            // A compaction may have moved tuples (k removals followed by
            // k appends leave the length unchanged, hence a counter and
            // not a length comparison): rescan, and `seen` still dedups.
            if cursor.compactions != ws.compactions() {
                cursor.compactions = ws.compactions();
                cursor.mark = 0;
            }
            let exported = ws.db().relation(export);
            let fresh = exported.into_iter().flat_map(|rel| rel.since(cursor.mark));
            let mut outgoing: Vec<WireMessage> = Vec::new();
            for tuple in fresh {
                if !cursor.seen.insert(tuple_fingerprint(tuple)) {
                    continue;
                }
                let Some(msg) = export_tuple_to_message(tuple) else {
                    continue;
                };
                // Tuples addressed *to* this principal are received
                // imports sitting in its own export[me] partition, not
                // outgoing traffic.
                if msg.to == me {
                    continue;
                }
                outgoing.push(msg);
            }
            cursor.mark = cursor.mark.max(ws.db().count(export));
            for msg in outgoing {
                let from_node = self.node_of(me);
                let to_node = self.node_of(msg.to);
                // A drop still counts as shipped for quiescence
                // purposes (the workspace export moved into the
                // network's hands this step), but not as a sent
                // message — see `send_packet`.
                self.send_packet(from_node, to_node, lbtrust_net::encode(&msg));
                shipped += 1;
            }
        }
        shipped
    }

    /// Phase 3: drain the network sequentially (envelope order is part
    /// of the deterministic semantics), routing each packet to its
    /// destination principal; then let each destination shard verify,
    /// import, evaluate and retract in parallel. Deliveries are batched
    /// per destination (one evaluation per workspace per step); when a
    /// batch trips the verification constraint, the batch rolls back
    /// and messages are retried one at a time so only the offending
    /// ones are rejected.
    fn deliver_and_import(
        &mut self,
        order: &[Principal],
        export: Symbol,
    ) -> Result<usize, SysError> {
        let decoding = self.obs.phase_timer();
        let mut delivered = 0usize;
        let mut routed: HashMap<Principal, Routed> = HashMap::new();
        // Gossip pulls `(responder, requester, issuer)`, in delivery
        // order — answered sequentially after the destination tasks
        // ran, from each responder's then-current store.
        let mut pulls: Vec<(Principal, Symbol, Symbol)> = Vec::new();
        let gossip_on = self.gossip.is_some();
        while let Some(envelope) = self.net.deliver_next() {
            delivered += 1;
            let Ok(packet) = lbtrust_net::decode_packet(&envelope.payload) else {
                self.stats.messages_rejected += 1;
                continue;
            };
            // Unknown receivers (for gossip's two-party frames, unknown
            // senders too) count as rejections immediately, as do
            // gossip frames while gossip is off.
            let known = |p: &Principal| self.workspaces.contains_key(p);
            let admitted = match &packet {
                WirePacket::Export(msg) => known(&msg.to),
                WirePacket::Revoke(rev) => known(&rev.to),
                WirePacket::RevGossip(rev) => gossip_on && known(&rev.to),
                WirePacket::RevSummary(msg) => gossip_on && known(&msg.to) && known(&msg.from),
                WirePacket::RevPull(msg) => gossip_on && known(&msg.to) && known(&msg.from),
            };
            if !admitted {
                self.stats.messages_rejected += 1;
                continue;
            }
            let absorb = matches!(packet, WirePacket::RevGossip(_));
            match packet {
                WirePacket::Export(msg) => routed.entry(msg.to).or_default().tuples.push(vec![
                    Value::Sym(msg.to),
                    Value::Sym(msg.from),
                    Value::Quote(msg.rule.clone()),
                    Value::bytes(&msg.auth),
                ]),
                WirePacket::Revoke(rev) | WirePacket::RevGossip(rev) => {
                    let revocation = Revocation {
                        issuer: rev.from,
                        target: CertDigest(rev.digest),
                        signature: rev.auth,
                    };
                    let to = routed.entry(rev.to).or_default();
                    to.revocations.push((revocation, absorb));
                }
                WirePacket::RevSummary(msg) => {
                    let to = routed.entry(msg.to).or_default();
                    to.summaries.push((msg.from, msg.issuer, msg.fingerprint));
                }
                WirePacket::RevPull(msg) => pulls.push((msg.to, msg.from, msg.issuer)),
            }
        }
        let destinations: Vec<Principal> = order
            .iter()
            .copied()
            .filter(|p| routed.contains_key(p))
            .collect();
        // Each destination's state moves out as one owned job and
        // merges back in registration order, so delivery statistics and
        // workspace states are identical for every shard count.
        let verifier = self.key_verifier();
        let eager = self.sync_policy == SyncPolicy::Eager;
        let timing = self.obs.timing_enabled();
        if let Some(started) = decoding {
            self.obs
                .record_delivery_part(DeliveryPart::Decode, started.elapsed());
        }
        let jobs: Vec<PoolTask> = destinations
            .iter()
            .map(|p| {
                PoolTask::Delivery(Box::new(DeliveryJob {
                    ws: self.workspaces.remove(p).expect("registered"),
                    store: self.stores.remove(p).expect("registered"),
                    facts: self.cert_facts.remove(p).unwrap_or_default(),
                    gossip_inbox: self
                        .gossip
                        .as_mut()
                        .map(|g| g.inbox.remove(p).unwrap_or_default()),
                    routed: routed.remove(p).expect("filtered above"),
                    verifier: verifier.clone(),
                    eager,
                    timing,
                    export,
                }))
            })
            .collect();
        let report = self.run_tasks(jobs);
        let merging = self.obs.phase_timer();
        let mut spent = DeliverySpent::default();
        let mut first_error: Option<WsError> = None;
        for (&p, done) in destinations.iter().zip(report.results) {
            let PoolDone::Delivery {
                job,
                outcome,
                error,
            } = done
            else {
                unreachable!("delivery batches return delivery results");
            };
            let job = *job;
            self.workspaces.insert(p, job.ws);
            self.stores.insert(p, job.store);
            self.cert_facts.insert(p, job.facts);
            if let (Some(g), Some(ib)) = (self.gossip.as_mut(), job.gossip_inbox) {
                g.inbox.insert(p, ib);
            }
            // Outcomes merge even when a hard error follows, so the
            // statistics always reflect the mutations actually applied.
            spent.verify += outcome.spent.verify;
            spent.assert += outcome.spent.assert;
            spent.evaluate += outcome.spent.evaluate;
            self.merge_delivery(p, outcome);
            if first_error.is_none() {
                first_error = error;
            }
        }
        if first_error.is_none() {
            self.serve_pulls(&pulls);
        }
        for (part, spent) in [
            (DeliveryPart::Verify, spent.verify),
            (DeliveryPart::Assert, spent.assert),
            (DeliveryPart::Evaluate, spent.evaluate),
        ] {
            self.obs.record_delivery_part(part, spent);
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
    /// frames. Served after the destination shards ran, so a responder
    /// that learned new objects this very step already relays them.
    fn serve_pulls(&mut self, pulls: &[(Principal, Symbol, Symbol)]) {
        let mut seen: HashSet<(Principal, Symbol, Symbol)> = HashSet::new();
        for &(responder, requester, issuer) in pulls {
            self.stats.messages_accepted += 1;
            if !seen.insert((responder, requester, issuer)) {
                continue;
            }
            let objects = self
                .stores
                .get(&responder)
                .expect("registered")
                .revocations_by(issuer);
            let from_node = self.node_of(responder);
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

    /// Folds one delivery outcome into the system counters and the
    /// destination's snapshot-publication bookkeeping.
    fn merge_delivery(&mut self, at: Principal, outcome: DeliveryOutcome) {
        self.stats.messages_accepted += outcome.accepted;
        self.stats.messages_rejected += outcome.rejected;
        self.stats.revocations += outcome.revocations;
        self.stats.retractions += outcome.retractions;
        self.stats.dred_repairs += outcome.dred_repairs;
        self.stats.retraction_rebuilds += outcome.retraction_rebuilds;
        if outcome.dred_repairs > 0 || !outcome.poisoned.is_empty() {
            let pub_state = self.authz_pub.entry(at).or_default();
            // `dred_repairs` counts exactly the incremental retraction
            // repairs, each of which bumped the workspace epoch once.
            pub_state.retraction_bumps += outcome.dred_repairs as u64;
            pub_state.poisoned.extend(outcome.poisoned);
        }
    }

    /// Syncs every dirty store once — the group-commit sweep. Shards
    /// sync their stores in parallel so independent fsyncs overlap.
    /// With auto-compaction armed, the same sweep compacts any store
    /// whose dead-record bytes reached the threshold, still on its
    /// shard worker — maintenance piggybacks on the commit point
    /// instead of adding a stop-the-world phase.
    fn sync_stores(&mut self) -> Result<(), SysError> {
        let threshold = self.auto_compact_dead_bytes;
        let step = self.stats.steps;
        // Skip quarantined stores (read-only until their fault heals)
        // and degraded stores whose step-based backoff has not elapsed
        // — extending the opportunistic-skip pattern group commit
        // already applies to oversized checkpoints.
        let dirty: Vec<Principal> = self
            .order
            .iter()
            .copied()
            .filter(|p| {
                self.stores.get(p).is_some_and(|s| s.is_dirty())
                    && match self.health.get(p).map(|h| (h.health, h.retry_at_step)) {
                        Some((StoreHealth::Quarantined, _)) => false,
                        Some((StoreHealth::Degraded, retry_at)) => retry_at <= step,
                        _ => true,
                    }
            })
            .collect();
        self.run_store_op(
            &dirty,
            StoreOp::GroupCommit {
                auto_compact: threshold,
            },
        )
        .map(|_| ())
    }

    /// Phase 5 of [`System::run_to_quiescence`]: probe each
    /// quarantined store whose backoff elapsed and re-admit it when
    /// its fault has healed. Re-admission flushes whatever the store
    /// holds, applies clock ticks deferred while quarantined, and
    /// journals a `store.healed` event; the next gossip rounds repair
    /// any revocations the store missed (PR 5 anti-entropy). Returns
    /// the number of stores re-admitted this step — a non-zero count
    /// keeps the quiescence loop running so that repair actually
    /// happens.
    fn probe_quarantined(&mut self, order: &[Principal]) -> Result<usize, SysError> {
        let step = self.stats.steps;
        let policy = self.retry_policy;
        let mut healed = 0usize;
        for &p in order {
            let due = self
                .health
                .get(&p)
                .is_some_and(|h| h.health == StoreHealth::Quarantined && h.retry_at_step <= step);
            if !due {
                continue;
            }
            // An armed persistent fault cannot pass a probe; push the
            // next one out (capped backoff) without touching the store.
            if self
                .fault_handles
                .get(&p)
                .is_some_and(FaultHandle::is_persistent)
            {
                let h = self.health.entry(p).or_default();
                h.attempts = h.attempts.saturating_add(1);
                h.retry_at_step = step + policy.backoff_steps(h.attempts);
                continue;
            }
            // Probe: flush whatever the store buffered. On success the
            // store is writable again; on transient failure the probe
            // backs off and tries later.
            // Invariant: quarantine never removes a registered store.
            let store = self.stores.get_mut(&p).expect("registered");
            match store.sync() {
                Ok(()) => {
                    let (attempts, pending) = {
                        let h = self.health.entry(p).or_default();
                        let attempts = h.attempts;
                        h.health = StoreHealth::Healthy;
                        h.attempts = 0;
                        (attempts, std::mem::take(&mut h.pending_ticks))
                    };
                    self.journal_health("store.healed", p, attempts, "probe succeeded");
                    if pending > 0 {
                        // Apply the clock ticks the store missed. A
                        // fresh failure here re-quarantines and puts
                        // the balance back.
                        match self.retry_store_op(p, |store| store.advance_clock(pending))? {
                            Some(events) => self.retract_cert_facts(p, &events),
                            None => {
                                self.health.entry(p).or_default().pending_ticks += pending;
                                continue;
                            }
                        }
                    }
                    healed += 1;
                }
                Err(e) if Self::is_storage_io(&e) => {
                    self.obs.count_retry();
                    let h = self.health.entry(p).or_default();
                    h.attempts = h.attempts.saturating_add(1);
                    h.last_error = e.to_string();
                    h.retry_at_step = step + policy.backoff_steps(h.attempts);
                }
                Err(e) => return Err(SysError::Cert(e)),
            }
        }
        Ok(healed)
    }

    /// The node hosting `p`, defaulting to a node named after the
    /// principal (matching how unplaced principals behaved before
    /// placement became data).
    fn node_of(&self, p: Principal) -> NodeId {
        self.placement
            .get(&p)
            .copied()
            .unwrap_or_else(|| NodeId::new(p.as_str()))
    }
}

/// One destination's delivery work: everything the destination owns
/// (workspace, certificate store, the fact index for its imported
/// certificates), moved out of the `System` for one batch, plus the
/// routed packets, a clone of the (cheap, `Arc`-backed) verifier and
/// the per-batch flags — so the task is `'static` and self-contained.
struct DeliveryJob {
    ws: Workspace,
    store: CertStore,
    facts: CertFactIndex,
    /// This destination's slice of the gossip advertisement inbox
    /// (`None` when gossip is off; summaries are only routed when it
    /// is on).
    gossip_inbox: Option<HashMap<(Symbol, Symbol), String>>,
    routed: Routed,
    verifier: KeyVerifier,
    eager: bool,
    /// Whether to fill [`DeliveryOutcome::spent`].
    timing: bool,
    export: Symbol,
}

/// The packets routed to one destination this step, in delivery order.
#[derive(Default)]
struct Routed {
    /// Wire revocations, each with how to apply it: `false` for the
    /// eager broadcast (issuer-mismatch objects are rejected), `true`
    /// for gossip-relayed objects (absorbed tolerantly so anti-entropy
    /// converges).
    revocations: Vec<(Revocation, bool)>,
    /// Gossip advertisements: `(advertiser, signer, fingerprint)`.
    summaries: Vec<(Symbol, Symbol, String)>,
    /// `export` tuples to import.
    tuples: Vec<Tuple>,
}

/// Counters one delivery shard hands back for the sequential merge
/// into [`SystemStats`].
#[derive(Default)]
struct DeliveryOutcome {
    accepted: usize,
    rejected: usize,
    revocations: usize,
    retractions: usize,
    dred_repairs: usize,
    retraction_rebuilds: usize,
    /// Digests of certificates that died at this destination during
    /// the delivery — fed to the decision cache's poisoned-entry
    /// invalidation at the next snapshot publish.
    poisoned: Vec<CertDigest>,
    spent: DeliverySpent,
}

/// Where one destination's delivery time went (see
/// [`DeliveryPart`]); all zero while phase timing is off.
#[derive(Default)]
struct DeliverySpent {
    verify: Duration,
    assert: Duration,
    evaluate: Duration,
}

/// Runs `work`, adding what it took to `spent` when `timing` is on.
fn timed<T>(timing: bool, spent: &mut Duration, work: impl FnOnce() -> T) -> T {
    if !timing {
        return work();
    }
    let started = Instant::now();
    let done = work();
    *spent += started.elapsed();
    done
}

/// Applies one destination's routed packets (consuming them from the
/// job): revocations first (store transition + DRed retraction of the
/// dead certificates' facts), then the export batch (assert + one
/// evaluation, with per-message retry after a constraint rollback).
/// Everything it touches is owned exclusively by the job except the
/// shared verification cache and key directory behind `verifier`. The
/// outcome counters are returned even when a hard error cuts the work
/// short, so statistics stay faithful to the mutations actually
/// applied.
fn process_destination(job: &mut DeliveryJob) -> (DeliveryOutcome, Option<WsError>) {
    let Routed {
        revocations,
        summaries,
        tuples,
    } = std::mem::take(&mut job.routed);
    let mut out = DeliveryOutcome::default();
    let timing = job.timing;
    for (revocation, absorb) in revocations {
        // Bad signatures (and, under Eager, a failed commit) count as
        // rejections, exactly like tampered exports. Gossip-relayed
        // objects absorb tolerantly — an issuer-mismatch object is
        // remembered as inert instead of rejected, so anti-entropy
        // converges on the object set.
        let applied = timed(timing, &mut out.spent.verify, || {
            if absorb {
                job.store.absorb_revocation(&revocation, &job.verifier)
            } else {
                job.store.revoke_with_outcome(&revocation, &job.verifier)
            }
            .and_then(|outcome| {
                if job.eager {
                    job.store.sync().map(|()| outcome)
                } else {
                    Ok(outcome)
                }
            })
        });
        match applied {
            Ok(outcome) => {
                out.accepted += 1;
                // A duplicated packet (or a re-pulled object) applies
                // nothing: no counters move, no retraction re-fires.
                // An inert foreign absorption is stored but revoked
                // nothing, so it does not count as a revocation either.
                if !outcome.applied || !outcome.authoritative {
                    continue;
                }
                out.revocations += 1;
                let mut batch: Vec<(Symbol, Tuple)> = Vec::new();
                for event in &outcome.events {
                    out.poisoned.push(event.digest);
                    if let Some(fs) = job.facts.remove(&event.digest) {
                        batch.extend(fs);
                    }
                }
                if !batch.is_empty() {
                    out.retractions += batch.len();
                    let repaired = timed(timing, &mut out.spent.assert, || {
                        job.ws.retract_facts(&batch)
                    });
                    match repaired {
                        RetractOutcome::Incremental(_) => out.dred_repairs += 1,
                        RetractOutcome::Deferred => out.retraction_rebuilds += 1,
                        RetractOutcome::Noop => {}
                    }
                }
            }
            Err(_) => out.rejected += 1,
        }
    }
    if !summaries.is_empty() {
        let me = job.ws.me();
        let inbox = job
            .gossip_inbox
            .as_mut()
            .expect("summaries are only routed while gossip is on");
        for (from, issuer, fingerprint) in summaries {
            let key = (from, issuer);
            let prev = inbox.get(&key).cloned();
            out.accepted += 1;
            if prev.as_deref() == Some(fingerprint.as_str()) {
                continue; // duplicate or unchanged advertisement
            }
            // A newer advertisement supersedes the remembered one: the
            // stale `gsays` fact is retracted (its derived pulls repair
            // through DRed) before the fresh one lands.
            timed(timing, &mut out.spent.assert, || {
                if let Some(prev) = prev {
                    let stale = vec![advert_fact(from, me, issuer, &prev)];
                    job.ws.retract_facts(&stale);
                }
                let fresh = vec![advert_fact(from, me, issuer, &fingerprint)];
                job.ws.assert_facts(&fresh);
            });
            inbox.insert(key, fingerprint);
        }
    }
    if !tuples.is_empty() {
        let n = tuples.len();
        timed(timing, &mut out.spent.assert, || {
            for tuple in &tuples {
                job.ws.assert_fact(job.export, tuple.clone());
            }
        });
        match timed(timing, &mut out.spent.evaluate, || job.ws.evaluate()) {
            Ok(_) => out.accepted += n,
            Err(WsError::Constraint(_)) => {
                // Batch rolled back; isolate the poisoned message(s).
                for tuple in tuples {
                    timed(timing, &mut out.spent.assert, || {
                        job.ws.assert_fact(job.export, tuple)
                    });
                    match timed(timing, &mut out.spent.evaluate, || job.ws.evaluate()) {
                        Ok(_) => out.accepted += 1,
                        Err(WsError::Constraint(_)) => out.rejected += 1,
                        Err(e) => return (out, Some(e)),
                    }
                }
            }
            Err(e) => return (out, Some(e)),
        }
    }
    (out, None)
}

// ---- worker-pool task plumbing ------------------------------------------

/// One store's group-commit work: sync, then — with auto-compaction
/// armed — compact if the dead-byte threshold is reached.
fn group_commit_store(
    store: &mut CertStore,
    auto_compact: Option<u64>,
) -> Result<(), CertStoreError> {
    store.sync()?;
    if let Some(dead) = auto_compact {
        if store.dead_bytes() >= dead {
            match store.compact() {
                Ok(_) => {}
                // A store whose live state outgrew the checkpoint
                // frame budget cannot be compacted — but it is
                // healthy, and the opportunistic trigger must not
                // wedge every future group commit over it. An explicit
                // `System::compact()` still surfaces the condition.
                Err(CertStoreError::Storage(
                    lbtrust_certstore::StorageError::CheckpointTooLarge { .. },
                )) => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// Which maintenance a [`PoolTask::Store`] performs.
#[derive(Clone, Copy)]
enum StoreOp {
    /// The group-commit sweep: sync, plus opportunistic compaction.
    GroupCommit { auto_compact: Option<u64> },
    /// Explicit `compact()`/`checkpoint()`.
    Maintain { prune: bool },
}

/// One unit of per-principal work: owned state moved out of the
/// `System`'s maps for the duration of a batch. Ownership is what lets
/// the pool threads outlive any one phase without unsafe lifetime
/// erasure.
// A task moves exactly twice (into the batch, out at claim); a shallow
// struct copy is cheaper than boxing each Workspace/CertStore per step.
#[allow(clippy::large_enum_variant)]
enum PoolTask {
    /// Evaluate one workspace to its local fixpoint.
    Fixpoint(Workspace),
    /// Apply one destination's routed packets (boxed: the job is the
    /// fattest variant by far).
    Delivery(Box<DeliveryJob>),
    /// Sync/compact/checkpoint one certificate store.
    Store { store: CertStore, op: StoreOp },
}

/// The matching results, each handing the moved state back for the
/// sequential registration-order merge.
// Same trade as [`PoolTask`]: two moves per result, no per-task boxing.
#[allow(clippy::large_enum_variant)]
enum PoolDone {
    Fixpoint {
        ws: Workspace,
        error: Option<WsError>,
    },
    Delivery {
        job: Box<DeliveryJob>,
        outcome: DeliveryOutcome,
        error: Option<WsError>,
    },
    Store {
        store: CertStore,
        /// Whether a maintenance pass actually installed (always
        /// `false` for group commits).
        result: Result<bool, CertStoreError>,
    },
}

/// Executes one task — the single `fn` every [`WorkerPool`] thread
/// runs on each task it claims, and the one [`System::run_tasks`] maps
/// over an inline batch.
fn run_pool_task(task: PoolTask) -> PoolDone {
    match task {
        PoolTask::Fixpoint(mut ws) => {
            let error = ws.evaluate().err();
            PoolDone::Fixpoint { ws, error }
        }
        PoolTask::Delivery(mut job) => {
            let (outcome, error) = process_destination(&mut job);
            PoolDone::Delivery {
                job,
                outcome,
                error,
            }
        }
        PoolTask::Store { mut store, op } => {
            let result = match op {
                StoreOp::GroupCommit { auto_compact } => {
                    group_commit_store(&mut store, auto_compact).map(|()| false)
                }
                StoreOp::Maintain { prune } => if prune {
                    store.compact()
                } else {
                    store.checkpoint()
                }
                .map(|report| report.performed),
            };
            PoolDone::Store { store, result }
        }
    }
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

/// One principal's progress through its `export` relation.
#[derive(Default)]
struct ExportCursor {
    /// Structural fingerprints of the export tuples already shipped —
    /// 16 bytes per tuple instead of a deep clone of each exported tuple
    /// (symbols, quoted rules, signature bytes).
    seen: HashSet<TupleFingerprint>,
    /// Length of the relation when it was last scanned.
    mark: usize,
    /// [`Workspace::compactions`] at that scan.
    compactions: u64,
}

/// The shipped-dedup key: two independently seeded structural hashes
/// of an export tuple. 16 bytes per remembered tuple instead of a deep
/// clone of its symbols, quoted rule and signature bytes, and computed
/// by the same allocation-free structural walk `HashSet<Tuple>` used —
/// no rendering, no cryptographic digest on the drain hot loop. 128
/// bits of combined fingerprint makes an accidental collision (which
/// would silently drop one export message) about as likely as a SHA
/// collision in practice.
type TupleFingerprint = (u64, u64);

/// Fingerprints an export tuple for the shipped-dedup sets. The
/// structural `Hash` impls distinguish value variants, so `Sym("42")`
/// and `Int(42)` — which render identically — cannot collide the way
/// text-keyed schemes would.
fn tuple_fingerprint(tuple: &[Value]) -> TupleFingerprint {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut a = DefaultHasher::new();
    tuple.hash(&mut a);
    let mut b = DefaultHasher::new();
    0x9e37_79b9_7f4a_7c15u64.hash(&mut b);
    tuple.hash(&mut b);
    (a.finish(), b.finish())
}

impl Default for System {
    fn default() -> Self {
        System::new()
    }
}

/// The workspace base facts one imported certificate introduces at
/// principal `to`: the authenticated-import tuple (`export[to](issuer,
/// R, S)`, re-verified by the declarative `exp2`/`exp3` pipeline) plus
/// `says(issuer, to, R)` directly for workspaces without the auth
/// prelude. Shared by live import and log-replay reconciliation so both
/// assert byte-identical facts.
fn cert_workspace_facts(to: Principal, cert: &LinkedCert) -> Vec<(Symbol, Tuple)> {
    let export_tuple = vec![
        Value::Sym(to),
        Value::Sym(cert.issuer),
        Value::Quote(cert.rule.clone()),
        Value::bytes(&cert.rule_sig),
    ];
    let says_tuple = vec![
        Value::Sym(cert.issuer),
        Value::Sym(to),
        Value::Quote(cert.rule.clone()),
    ];
    vec![
        (Symbol::intern("export"), export_tuple),
        (Symbol::intern("says"), says_tuple),
    ]
}

/// Decodes an `export[to](from, R, S)` tuple into a wire message.
fn export_tuple_to_message(tuple: &[Value]) -> Option<WireMessage> {
    match tuple {
        [Value::Sym(to), Value::Sym(from), Value::Quote(rule), Value::Bytes(auth)] => {
            Some(WireMessage {
                from: *from,
                to: *to,
                rule: rule.clone(),
                auth: auth.to_vec(),
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut sys = System::new().with_rsa_bits(512);
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
            sys.import_certificates(bob, issued).unwrap();
            sys.run_to_quiescence(16).unwrap();
            let before = sys.authz_pub[&bob].snap.clone().expect("published");
            assert!(before.db.count(sym("access")) >= certs);

            let ws = sys.workspace_mut(bob).unwrap();
            ws.assert_fact(sym("seen"), vec![Value::sym("carol")]);
            ws.evaluate().unwrap();
            sys.publish_authz_snapshot();
            let after = sys.authz_pub[&bob].snap.clone().expect("published");
            assert!(!Arc::ptr_eq(&before, &after));

            let (mut grown, mut copied) = (Vec::new(), 0);
            for (pred, rel) in after.db.iter() {
                let Some(old) = before.db.relation(pred) else {
                    grown.push(pred);
                    copied += rel.len();
                    continue;
                };
                if std::ptr::eq(old, rel) {
                    continue;
                }
                assert!(rel.len() > old.len(), "{pred} was copied without growing");
                grown.push(pred);
                let unshared = rel.len() - rel.tuples_shared_with(old);
                assert!(unshared <= CHUNK, "{pred}: {unshared} tuples copied");
                copied += unshared;
            }
            grown.sort_by_key(|p| p.as_str());
            assert_eq!(grown, [sym("noted"), sym("seen")], "at {certs}");
            assert_eq!(copied, 2, "at {certs}");
            // The big relations are the writer's own, by pointer.
            let live = sys.workspace(bob).unwrap().db();
            for pred in ["access", "says", "export"] {
                let rel = after.db.relation(sym(pred)).expect("populated");
                assert!(std::ptr::eq(rel, before.db.relation(sym(pred)).unwrap()));
                assert!(std::ptr::eq(rel, live.relation(sym(pred)).unwrap()));
            }
            assert!(Arc::ptr_eq(&before.ground_heads, &after.ground_heads));
            assert!(Arc::ptr_eq(&before.introducers, &after.introducers));
            assert!(Arc::ptr_eq(&before.builtins, &after.builtins));
        }
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
        sys.run_to_quiescence(16).unwrap();

        let held = sys.authz_pub[&bob].snap.clone().expect("published");
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
        let now = sys.authz_pub[&bob].snap.clone().expect("published");
        assert!(!Arc::ptr_eq(&held, &now));
        assert!(now.decide("access(n0,file1,read)").unwrap().granted);
        assert!(!held.decide("access(n0,file1,read)").unwrap().granted);
    }

    /// The export drain scans only what the relation gained — and one
    /// removal followed by one append leaves the length where the
    /// watermark stood, so the watermark must follow compactions, not
    /// lengths, or the new export is never shipped.
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
    fn sharded_engine_reaches_same_state_as_serial() {
        // The same three-principal says/access workload on the serial
        // engine and on more shards than principals: identical derived
        // facts and identical message statistics.
        fn build(shards: usize) -> System {
            let mut sys = System::new().with_rsa_bits(512).with_shards(shards);
            let alice = sys.add_principal("alice", "n1").unwrap();
            let _bob = sys.add_principal("bob", "n2").unwrap();
            let _carol = sys.add_principal("carol", "n3").unwrap();
            for target in ["bob", "carol"] {
                sys.workspace_mut(alice)
                    .unwrap()
                    .load(
                        "policy",
                        &format!("says(me,{target},[| good(X). |]) <- vouched(X)."),
                    )
                    .unwrap();
            }
            sys.workspace_mut(alice)
                .unwrap()
                .assert_src("vouched(dave). vouched(erin).")
                .unwrap();
            for receiver in ["bob", "carol"] {
                let p = Symbol::intern(receiver);
                sys.workspace_mut(p)
                    .unwrap()
                    .load(
                        "policy",
                        "access(P,file1,read) <- says(alice,me,[| good(P) |]).",
                    )
                    .unwrap();
            }
            sys.run_to_quiescence(16).unwrap();
            sys
        }
        let serial = build(1);
        let parallel = build(8);
        for receiver in ["bob", "carol"] {
            let p = Symbol::intern(receiver);
            for person in ["dave", "erin"] {
                assert!(parallel
                    .workspace(p)
                    .unwrap()
                    .holds_src(&format!("access({person},file1,read)"))
                    .unwrap());
            }
            assert_eq!(
                serial.workspace(p).unwrap().tuples(sym("access")).len(),
                parallel.workspace(p).unwrap().tuples(sym("access")).len(),
            );
        }
        assert_eq!(serial.stats().messages_sent, parallel.stats().messages_sent);
        assert_eq!(
            serial.stats().messages_accepted,
            parallel.stats().messages_accepted
        );
        assert_eq!(serial.stats().steps, parallel.stats().steps);
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
    fn sharded_revocation_broadcast_retracts_everywhere() {
        let mut sys = System::new().with_rsa_bits(512).with_shards(4);
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
                "parallel delivery shards must retract the revoked facts"
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

    #[test]
    fn dropping_a_sharded_system_joins_its_pool_threads() {
        let mut sys = System::new().with_rsa_bits(512).with_shards(4);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let _bob = sys.add_principal("bob", "n2").unwrap();
        sys.workspace_mut(alice)
            .unwrap()
            .load("policy", "says(me,bob,[| good(X). |]) <- vouched(X).")
            .unwrap();
        sys.workspace_mut(alice)
            .unwrap()
            .assert_src("vouched(carol).")
            .unwrap();
        sys.run_to_quiescence(16).unwrap();
        let alive = sys.pool_liveness().expect("sharded system owns a pool");
        // 4 worker clones + the pool's own + this one.
        assert_eq!(std::sync::Arc::strong_count(&alive), 6);
        drop(sys);
        // Drop joined every worker, so every thread-held clone is gone:
        // no leaked pool threads.
        assert_eq!(std::sync::Arc::strong_count(&alive), 1);
    }

    #[test]
    fn resizing_shards_replaces_and_joins_the_old_pool() {
        let mut sys = System::new().with_rsa_bits(512).with_shards(3);
        let old = sys.pool_liveness().expect("pool exists at shards=3");
        // 3 worker clones + the pool's own + this one.
        assert_eq!(std::sync::Arc::strong_count(&old), 5);
        sys.set_shards(1); // back to the inline serial engine
        assert_eq!(std::sync::Arc::strong_count(&old), 1, "old workers joined");
        assert!(sys.pool_liveness().is_none(), "shards=1 keeps no pool");
    }
}

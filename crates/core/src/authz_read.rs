//! The concurrent authorization read front-end: immutable snapshots,
//! `Send + Sync` reader handles, and decisions cached in the snapshot
//! they were proved on.
//!
//! Production trust management is read-dominated — millions of "may X
//! do Y" queries against a slowly-mutating credential set — yet
//! [`crate::System::authorize`] needs `&System`, so every query
//! contends with the fixpoint writer. This module splits the read path
//! off: the system publishes an [`AuthzSnapshot`] — an immutable,
//! `Arc`-shared view of every principal's materialized database and the
//! store's ground-head index — and any number of
//! [`AuthzReader`] handles evaluate `authorize()` against it from
//! other threads while imports and revocations keep streaming through
//! the writer.
//!
//! A quiescent point publishes while a reader is alive; with none, the
//! system holds no snapshot and no cached decision. A snapshot shares the
//! writer's relations, so holding one nobody reads would make the next
//! step copy every relation it writes to; releasing it hands them back.
//! A reader arriving later gets a fresh publish from
//! [`crate::System::authz_reader`], whose snapshots hold no decision a
//! released one cached.
//!
//! Three pieces, all `std`-only (the crate stays
//! `#![forbid(unsafe_code)]`):
//!
//! * **[`AuthzSnapshot`]** — the published view. Readers see the exact
//!   state of the last quiescent point: every decision a reader makes
//!   equals the serial `authorize()` answer at that store version.
//! * **`SnapshotCell`** — a `Mutex<Arc<_>>` slot paired with an
//!   `AtomicU64` generation. Readers keep a per-handle cached `Arc`
//!   and compare generations with one atomic load per query; only a
//!   generation change takes the slot lock (clone-on-read arc-swap).
//!   Queries then run against the *handle-local* `Arc`, so reader
//!   threads never contend on a shared refcount cache line.
//! * **The decision cache** — each principal's snapshot holds the
//!   decisions proved on it, by goal, at most `CACHE_CAPACITY` (a
//!   full map is cleared). Each entry records the supporting
//!   certificate digests of the cached decision — every certificate on
//!   its proof, which is well-founded (see
//!   [`lbtrust_datalog::provenance::explain_with_base`]). A publish
//!   hands a principal's decisions on to its next snapshot only across
//!   a window in which it changed *only* by DRed retractions
//!   (revocation or TTL expiry), minus every decision citing a
//!   certificate that died; any other change (fresh imports, rule
//!   changes, non-monotonic rebuilds) starts the next snapshot with
//!   none. A reader's miss is cached in the snapshot it was proved on,
//!   so a grant proved on a superseded snapshot is seen only by readers
//!   still answering from that generation: a cached grant never
//!   survives the publish of the revocation of a certificate it rests
//!   on.
//!
//! Cache traffic is counted in the volatile `authz.cache_hits` /
//! `authz.cache_misses` / `authz.cache_invalidations` counters and
//! publication cost in the `snapshot.publish_ns` histogram — all
//! excluded from deterministic snapshots, since they depend on reader
//! scheduling.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use lbtrust_certstore::{CertDigest, GroundHeads};
use lbtrust_datalog::ast::Rule;
use lbtrust_datalog::intern::names;
use lbtrust_datalog::provenance::{Proof, ProofText};
use lbtrust_datalog::{Builtins, Database, Value};
use lbtrust_obs::{Counter, Histogram, Registry};

use crate::principal::Principal;
use crate::system::{AuthzDecision, SysError};
use crate::workspace::{explain_goal, BaseFacts};

/// The most decisions one principal's snapshot caches. A full map is
/// cleared, not evicted from: no workload asks one principal this many
/// distinct goals within one publish window.
pub(crate) const CACHE_CAPACITY: usize = 4096;

/// Decisions by goal.
pub(crate) type Decisions = HashMap<Box<str>, CachedDecision>;

/// One principal's share of a published snapshot: everything a reader
/// needs to decide and cite an authorization without touching the live
/// workspace or store.
pub(crate) struct PrincipalSnapshot {
    pub(crate) me: Principal,
    /// Installed user + generated rules at the quiescent point (the
    /// workspace's compiled slice, shared).
    pub(crate) rules: Arc<[Rule]>,
    /// The materialized database at the quiescent point: the writer's own
    /// relations, shared. A relation the writer has not touched since is
    /// one allocation for both; one it has appended to shares every full
    /// chunk of tuples (`lbtrust_datalog::Relation`). The writer never
    /// writes into a chunk this holds, so readers take no lock on tuples.
    pub(crate) db: Database,
    /// The workspace's registry, shared until it is next handed out
    /// mutably.
    pub(crate) builtins: Arc<Builtins>,
    /// The facts asserted from outside at the quiescent point, shared
    /// chunk by chunk like `db`: a proof may rest on one as a leaf.
    pub(crate) base: BaseFacts,
    /// The store's maintained ground-head index: predicate → ground head
    /// tuple → digests of live bodyless certificates asserting that fact.
    /// Shares every shard with the store but the ones a certificate filed
    /// or unfiled since has touched.
    pub(crate) ground_heads: GroundHeads,
    /// The decisions cached for this snapshot: proved on it, or handed
    /// on from the snapshot it replaced across a retraction-only window
    /// (`PrincipalState::publish`).
    pub(crate) cache: Mutex<Decisions>,
    /// The store's active-set version at publication, for diagnostics
    /// and the equivalence tests.
    pub(crate) store_version: u64,
}

impl PrincipalSnapshot {
    /// Proves `goal` over this snapshot and cites what the proof rests
    /// on — a reader's cache miss.
    pub(crate) fn decide(&self, goal: &str) -> Result<CachedDecision, SysError> {
        let proof = explain_goal(
            self.me,
            &self.rules,
            &self.db,
            &self.builtins,
            &self.base,
            goal,
        )?;
        Ok(decide(proof, &self.ground_heads))
    }

    /// This snapshot's cached decisions, locked.
    pub(crate) fn cache(&self) -> MutexGuard<'_, Decisions> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Caches `decided`, proved on this snapshot, for `goal`.
    pub(crate) fn remember(&self, goal: &str, decided: CachedDecision) {
        let mut cache = self.cache();
        if cache.len() >= CACHE_CAPACITY {
            cache.clear();
        }
        cache.insert(goal.into(), decided);
    }

    /// Takes this snapshot's cached decisions for its successor, less
    /// every one citing a `poisoned` certificate, and returns how many
    /// were dropped. The survivors hold across a retraction-only window:
    /// facts only disappeared, so a deny cannot have flipped, and any
    /// fact that could disappear is cited by its digest. A reader still
    /// answering from this snapshot caches into the emptied map, which
    /// only readers of this generation see.
    pub(crate) fn hand_on(&self, poisoned: &[CertDigest]) -> (Decisions, u64) {
        let mut decisions = std::mem::take(&mut *self.cache());
        let poisoned: HashSet<&CertDigest> = poisoned.iter().collect();
        let before = decisions.len();
        decisions.retain(|_, d| !d.supporting.iter().any(|s| poisoned.contains(s)));
        let dropped = (before - decisions.len()) as u64;
        (decisions, dropped)
    }
}

/// Turns a proof (or its absence) into a decision: grant/deny, the
/// supporting digests, and the proof itself, rendered only when read.
/// The one `decide` behind the serial [`crate::System::authorize`] (the
/// store's index) and the snapshot readers (the same index as
/// published), so both cite identically.
pub(crate) fn decide(proof: Option<ProofText>, ground_heads: &GroundHeads) -> CachedDecision {
    CachedDecision {
        granted: proof.is_some(),
        supporting: proof
            .as_ref()
            .map(|p| collect_supporting(p.tree(), ground_heads))
            .unwrap_or_default(),
        proof,
    }
}

/// Walks a proof tree collecting the digests of every live certificate
/// the derivation rests on: the digest a `certified` leaf carries, and
/// ground-head index hits for the facts of activated certified rules.
/// No store is scanned and no rule is rendered. The result is sorted on
/// raw digest bytes (identical order to the old hex-string sort —
/// lowercase hex is monotone in the bytes — without a `String` per
/// comparison) and deduplicated.
fn collect_supporting(proof: &Proof, ground_heads: &GroundHeads) -> Vec<CertDigest> {
    let certified = names().certified;
    let mut supporting: Vec<CertDigest> = Vec::new();
    let mut frontier = vec![proof];
    while let Some(node) = frontier.pop() {
        let (pred, tuple) = node.conclusion();
        // A certificate's `says` fact is derived from the base fact
        // `certified(issuer, me, R, D)`, which carries its content
        // address: the proof cites it at the leaf.
        if pred == certified && matches!(node, Proof::Fact { .. }) {
            supporting.extend(tuple.get(3).and_then(certified_digest));
        }
        // An activated certified bodyless rule derives its head through
        // a generated rule, so a proof can rest on a credential without
        // a `certified` leaf appearing — the ground-head index maps the
        // fact back to its content address. Borrow-keyed probe: no tuple
        // clone.
        if let Some(digests) = ground_heads.get(&pred).and_then(|m| m.get(tuple)) {
            supporting.extend(digests.iter().copied());
        }
        if let Proof::Derived { premises, .. } = node {
            frontier.extend(premises.iter().map(|p| &**p));
        }
    }
    supporting.sort_unstable();
    supporting.dedup();
    supporting
}

/// The content address a `certified` fact carries in its last argument.
fn certified_digest(value: &Value) -> Option<CertDigest> {
    let Value::Bytes(bytes) = value else {
        return None;
    };
    Some(CertDigest(<[u8; 32]>::try_from(&bytes[..]).ok()?))
}

/// The atomically-published view of every principal at the last
/// quiescent point. Immutable once published; readers share it by
/// `Arc`.
pub struct AuthzSnapshot {
    /// Publication generation (monotone; generation 0 is the empty
    /// pre-publication snapshot). Stamped by `SnapshotCell::publish`.
    pub(crate) generation: u64,
    pub(crate) principals: HashMap<Principal, Arc<PrincipalSnapshot>>,
}

impl AuthzSnapshot {
    /// A snapshot of no principal, stamped when published.
    pub(crate) fn empty() -> AuthzSnapshot {
        AuthzSnapshot {
            generation: 0,
            principals: HashMap::new(),
        }
    }

    /// The publication generation this snapshot was installed under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The store version captured for `who`, if registered.
    pub fn store_version(&self, who: Principal) -> Option<u64> {
        self.principals.get(&who).map(|p| p.store_version)
    }
}

/// A std-only arc-swap: a mutex-guarded `Arc` slot plus an atomic
/// generation readers poll without the lock. The generation is bumped
/// *inside* the slot lock, so a reader that re-reads both under the
/// lock always gets a consistent pair.
pub(crate) struct SnapshotCell {
    generation: AtomicU64,
    slot: Mutex<Arc<AuthzSnapshot>>,
}

impl SnapshotCell {
    fn new() -> SnapshotCell {
        SnapshotCell {
            generation: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(AuthzSnapshot::empty())),
        }
    }

    /// Atomically installs `snap` as the current snapshot, stamping it
    /// with the next generation. Readers observe either the old pair or
    /// the new pair, never a mix.
    pub(crate) fn publish(&self, mut snap: AuthzSnapshot) -> u64 {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        snap.generation = generation;
        *slot = Arc::new(snap);
        self.generation.store(generation, Ordering::Release);
        generation
    }

    /// The current generation — one atomic load, no lock.
    fn current_generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The current `(generation, snapshot)` pair, consistently.
    fn load(&self) -> (u64, Arc<AuthzSnapshot>) {
        let slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        (self.generation.load(Ordering::Acquire), slot.clone())
    }
}

/// A cached decision: everything needed to answer a repeat query
/// byte-for-byte, plus the supporting digests a publish matches dead
/// certificates against.
#[derive(Clone)]
pub(crate) struct CachedDecision {
    pub(crate) granted: bool,
    pub(crate) supporting: Vec<CertDigest>,
    proof: Option<ProofText>,
}

impl CachedDecision {
    pub(crate) fn into_decision(self, who: Principal, goal: String) -> AuthzDecision {
        AuthzDecision {
            principal: who,
            goal,
            granted: self.granted,
            supporting: self.supporting,
            proof: self.proof,
        }
    }
}

/// State shared between the owning [`crate::System`] (publisher) and
/// every [`AuthzReader`] handle.
pub(crate) struct AuthzShared {
    pub(crate) cell: SnapshotCell,
    hits: Counter,
    misses: Counter,
    pub(crate) invalidations: Counter,
    pub(crate) publish_ns: Histogram,
}

impl AuthzShared {
    pub(crate) fn new(registry: &Registry) -> AuthzShared {
        AuthzShared {
            cell: SnapshotCell::new(),
            hits: registry.volatile_counter("authz.cache_hits"),
            misses: registry.volatile_counter("authz.cache_misses"),
            invalidations: registry.volatile_counter("authz.cache_invalidations"),
            publish_ns: registry.timing("snapshot.publish_ns"),
        }
    }

    /// Lets go of the published snapshot, and the decisions cached in
    /// it, once no reader is left to ask: `&mut self` is the proof. The
    /// cell gets an empty snapshot at the next generation, so generations
    /// stay monotone. When nothing is held this is one look at the cell.
    pub(crate) fn release(&mut self) {
        let slot = self.cell.slot.get_mut().unwrap_or_else(|e| e.into_inner());
        if !slot.principals.is_empty() {
            self.cell.publish(AuthzSnapshot::empty());
        }
    }

    /// How many principals the cell's snapshot covers and how many
    /// decisions their snapshots cache.
    #[cfg(test)]
    pub(crate) fn held(&self) -> (usize, usize) {
        let snap = self.cell.load().1;
        let cached = snap.principals.values().map(|p| p.cache().len()).sum();
        (snap.principals.len(), cached)
    }
}

/// Per-principal publication bookkeeping the system keeps between
/// quiescent points: what was last published, and what happened since.
#[derive(Default)]
pub(crate) struct AuthzPublishState {
    /// The workspace epoch captured at the last publish.
    pub(crate) published_epoch: u64,
    /// The store version captured at the last publish.
    pub(crate) published_store_version: u64,
    /// Workspace-epoch bumps since the last publish attributable to
    /// *incremental DRed retraction repairs*. When every epoch bump in
    /// the window is one of these, cached decisions stay sound except
    /// those resting on the retracted certificates.
    pub(crate) retraction_bumps: u64,
    /// Digests of certificates that died (revocation, expiry, link
    /// break) at this principal since the last publish.
    pub(crate) poisoned: Vec<CertDigest>,
    /// The last published per-principal snapshot, reused (Arc-shared,
    /// cached decisions included) when nothing changed.
    pub(crate) snap: Option<Arc<PrincipalSnapshot>>,
}

impl AuthzPublishState {
    /// Forgets the last publish and what happened since, once no reader
    /// is left. With no snapshot held, the next publish starts one with
    /// no cached decision.
    pub(crate) fn release(&mut self) {
        self.snap = None;
        self.poisoned = Vec::new();
        self.retraction_bumps = 0;
    }
}

/// A `Send + Sync` handle evaluating `authorize()` against the last
/// published [`AuthzSnapshot`], lock-free with respect to the writer:
/// the system keeps importing and revoking while readers decide. Each
/// handle caches the snapshot `Arc` locally and revalidates it with
/// one atomic generation load per query, so handles on different
/// threads share no hot cache line. Decisions hit the decisions cached
/// in the principal's snapshot first; misses are proved against that
/// snapshot and cached in it.
///
/// Reader decisions deliberately do **not** move the deterministic
/// `authz.granted`/`authz.denied` counters or the decision journal —
/// both are single-writer surfaces whose contents must not depend on
/// reader thread scheduling. Reader traffic shows up in the volatile
/// `authz.cache_*` counters instead.
pub struct AuthzReader {
    shared: Arc<AuthzShared>,
    /// `(generation, snapshot)` this handle last validated. Queries
    /// borrow the Arc under this *handle-local* mutex (uncontended
    /// unless the handle itself is shared across threads).
    local: Mutex<(u64, Arc<AuthzSnapshot>)>,
}

impl AuthzReader {
    pub(crate) fn new(shared: Arc<AuthzShared>) -> AuthzReader {
        let local = shared.cell.load();
        AuthzReader {
            shared,
            local: Mutex::new(local),
        }
    }

    /// Decides whether `goal` holds for `who` in the last published
    /// snapshot, citing supporting certificate digests exactly like
    /// [`crate::System::authorize`] does at the same store version.
    pub fn authorize(&self, who: Principal, goal: &str) -> Result<AuthzDecision, SysError> {
        let local = self.revalidated();
        let ps = local
            .1
            .principals
            .get(&who)
            .ok_or(SysError::UnknownPrincipal(who))?;
        let hit = ps.cache().get(goal).cloned();
        if let Some(hit) = hit {
            self.shared.hits.inc();
            return Ok(hit.into_decision(who, goal.to_string()));
        }
        self.shared.misses.inc();
        let decided = ps.decide(goal)?;
        ps.remember(goal, decided.clone());
        Ok(decided.into_decision(who, goal.to_string()))
    }

    /// The generation of the snapshot this handle would answer from
    /// right now: the cell's current one, read without refreshing the
    /// handle (its next query does that).
    pub fn generation(&self) -> u64 {
        self.shared.cell.current_generation()
    }

    /// The store version the current snapshot captured for `who`.
    pub fn store_version(&self, who: Principal) -> Option<u64> {
        self.revalidated().1.store_version(who)
    }

    /// This handle's `(generation, snapshot)` pair, refreshed from the
    /// cell first if a newer generation was published.
    fn revalidated(&self) -> MutexGuard<'_, (u64, Arc<AuthzSnapshot>)> {
        let mut local = self.local.lock().unwrap_or_else(|e| e.into_inner());
        if self.shared.cell.current_generation() != local.0 {
            *local = self.shared.cell.load();
        }
        local
    }
}

impl Clone for AuthzReader {
    fn clone(&self) -> AuthzReader {
        AuthzReader::new(self.shared.clone())
    }
}

// Readers are handed to arbitrary threads; a field that silently loses
// `Send + Sync` (an `Rc`, a non-Sync interior) must fail here at
// compile time, not in downstream thread spawns.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AuthzReader>();
    assert_send_sync::<AuthzSnapshot>();
};

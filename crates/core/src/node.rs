//! One principal, as one value.
//!
//! The paper's unit of everything is the principal (§3.5): one
//! workspace (its *context*), one set of credentials, placed on a node
//! by the `loc` table. [`PrincipalState`] is that unit — everything the
//! runtime keeps for one principal, and the operations that touch only
//! that — so the [`crate::System`] is a sequencer over a vector of them.

use crate::auth::KeyVerifier;
use crate::authz_read::{AuthzPublishState, PrincipalSnapshot};
use crate::gossip::{advert_fact, revfp_fact, ZERO_FP_HEX};
use crate::obs::DeliveryPart;
use crate::principal::Principal;
use crate::system::{DegradedError, StoreHealth};
use crate::workspace::{RetractOutcome, Workspace, WsError};
use lbtrust_certstore::{
    CertDigest, CertStore, CertStoreError, FaultHandle, LinkedCert, RetractionEvent, Revocation,
    StorageError,
};
use lbtrust_datalog::intern::names;
use lbtrust_datalog::{Symbol, Tuple, Value};
use lbtrust_net::NodeId;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything the runtime holds for one principal.
///
/// **What it owns.** The workspace, the certificate store, the index
/// from each imported certificate to the workspace facts it introduced
/// (so expiry and revocation retract exactly those), how far the
/// `export` relation has been shipped, the node the principal is placed
/// on, the store's fault-handling state and fault schedule, the
/// snapshot-publication bookkeeping, the gossip facts currently asserted
/// on its behalf, and its own share of the [`crate::SystemStats`]
/// counters. Nothing here points at another principal; what principals
/// share (key directory, verification cache, metrics registry) they
/// share by `Arc`.
///
/// **Who may touch it when.** Only the sequencer — the `System` that
/// owns it, on its caller's thread. It is never shared, so nothing in
/// it is locked.
///
/// **Why merge order is registration order.** Whatever a phase did to a
/// principal is inside the value, counters included, so there is
/// nothing to fold but health transitions, rollback counts and the
/// first hard error. Those, the network sends of every phase and
/// [`crate::System::stats`] all walk the vector in registration order,
/// which is what makes a run's state, traffic and error repeat.
pub(crate) struct PrincipalState {
    pub(crate) me: Principal,
    pub(crate) ws: Workspace,
    pub(crate) store: CertStore,
    /// Which workspace base facts each imported certificate introduced,
    /// by content address.
    facts: HashMap<CertDigest, Vec<(Symbol, Tuple)>>,
    cursor: ExportCursor,
    /// Placement: the physical node hosting this principal (the `loc`
    /// relation).
    pub(crate) node: NodeId,
    pub(crate) health: HealthState,
    /// The store's fault schedule, when fault injection was armed at
    /// registration — for tests and the quarantine probe (a
    /// persistently-failed handle cannot pass).
    pub(crate) faults: Option<FaultHandle>,
    /// What the last published [`crate::AuthzSnapshot`] captured, and
    /// which retractions and certificate deaths happened since; emptied
    /// at a quiescent point no reader is alive for.
    pub(crate) authz: AuthzPublishState,
    /// Last asserted `revfp` hex per signer, so a changed fingerprint
    /// retracts exactly the stale fact it replaces.
    revfp: HashMap<Symbol, String>,
    /// Last asserted incoming advertisement, by `(advertiser, signer)`.
    adverts: HashMap<(Symbol, Symbol), String>,
    pub(crate) tally: Tally,
    /// Whether the delivery running now fills `spent`.
    timing: bool,
    /// Where this step's delivery time went, indexed by
    /// [`DeliveryPart`]; taken by the sequencer's merge.
    pub(crate) spent: [Duration; DeliveryPart::ALL.len()],
}

/// One principal's share of [`crate::SystemStats`]: counted where the
/// work happens, summed in registration order by
/// [`crate::System::stats`].
#[derive(Clone, Copy, Default)]
pub(crate) struct Tally {
    pub(crate) accepted: usize,
    pub(crate) rejected: usize,
    pub(crate) revocations: usize,
    pub(crate) retractions: usize,
    pub(crate) dred_repairs: usize,
    pub(crate) retraction_rebuilds: usize,
}

/// Per-store fault bookkeeping (internal; surfaced as
/// [`StoreHealth`] / [`DegradedError`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct HealthState {
    pub(crate) health: StoreHealth,
    /// Consecutive failed storage attempts.
    pub(crate) attempts: u32,
    /// Step at which the next deferred retry / quarantine probe runs.
    pub(crate) retry_at_step: usize,
    /// Step at which the store left `Healthy`.
    pub(crate) since_step: usize,
    /// Last storage error observed, rendered.
    pub(crate) last_error: String,
    /// Clock ticks from [`crate::System::advance_time`] deferred while
    /// quarantined, applied on re-admission.
    pub(crate) pending_ticks: u64,
}

/// Whether a store error is a storage I/O failure — the class the
/// step-based retry/quarantine policy covers. Semantic rejections (bad
/// signatures, broken links, …) and structural storage errors
/// (unsupported records, oversized checkpoints) are never retried.
pub(crate) fn is_storage_io(e: &CertStoreError) -> bool {
    matches!(e, CertStoreError::Storage(StorageError::Io { .. }))
}

impl PrincipalState {
    /// A freshly registered principal around its workspace and store.
    pub(crate) fn new(
        ws: Workspace,
        store: CertStore,
        node: NodeId,
        faults: Option<FaultHandle>,
    ) -> PrincipalState {
        PrincipalState {
            me: ws.me(),
            ws,
            store,
            facts: HashMap::new(),
            cursor: ExportCursor::default(),
            node,
            health: HealthState::default(),
            faults,
            authz: AuthzPublishState::default(),
            revfp: HashMap::new(),
            adverts: HashMap::new(),
            tally: Tally::default(),
            timing: false,
            spent: Default::default(),
        }
    }

    /// Whether the store is read-only until its fault heals.
    pub(crate) fn quarantined(&self) -> bool {
        self.health.health == StoreHealth::Quarantined
    }

    /// Whether the store's fault schedule still reports a persistent
    /// failure, which no quarantine probe can pass.
    pub(crate) fn fault_armed(&self) -> bool {
        self.faults.as_ref().is_some_and(FaultHandle::is_persistent)
    }

    /// A [`DegradedError`] snapshot of the current health state.
    pub(crate) fn degraded(&self) -> DegradedError {
        DegradedError {
            principal: self.me,
            since_step: self.health.since_step,
            attempts: self.health.attempts,
            last_error: self.health.last_error.clone(),
        }
    }

    /// Runs `work`, adding what it took to `part` of this step's
    /// delivery time while a timed delivery is running.
    fn timed<T>(&mut self, part: DeliveryPart, work: impl FnOnce(&mut Self) -> T) -> T {
        if !self.timing {
            return work(self);
        }
        let started = Instant::now();
        let done = work(self);
        self.spent[part as usize] += started.elapsed();
        done
    }

    /// Asserts the workspace facts of every listed stored certificate
    /// whose facts are not in the workspace yet, returning how many
    /// that was. Shared by live import and log-replay reconciliation so
    /// both assert byte-identical facts: `export[me](issuer, R, S)` —
    /// re-verified by the declarative `exp2`/`exp3` pipeline — plus
    /// `says(issuer, me, R)` directly for workspaces without the auth
    /// prelude.
    pub(crate) fn file_cert_facts(
        &mut self,
        digests: impl IntoIterator<Item = CertDigest>,
    ) -> usize {
        let mut filed = 0;
        for digest in digests {
            if self.facts.contains_key(&digest) {
                continue;
            }
            // A digest the store does not hold has nothing to file
            // (callers pass digests the store just handed out).
            let Some(entry) = self.store.get(&digest) else {
                continue;
            };
            let facts = cert_workspace_facts(self.me, &entry.cert);
            self.ws.assert_facts(&facts);
            self.facts.insert(digest, facts);
            filed += 1;
        }
        filed
    }

    /// Applies a signed revocation here: the store transition, then the
    /// retraction of every workspace fact a dying certificate
    /// introduced. `absorb` is the gossip-relayed form — an
    /// issuer-mismatch object is remembered as inert instead of
    /// rejected, so anti-entropy converges on the object set. A
    /// duplicate (or an inert foreign absorption) applies nothing: no
    /// counter moves and no retraction re-fires. A store error leaves
    /// the principal untouched (the store appends before it mutates), so
    /// the caller may retry the whole call.
    pub(crate) fn apply_revocation(
        &mut self,
        revocation: &Revocation,
        verifier: &KeyVerifier,
        absorb: bool,
    ) -> Result<(), CertStoreError> {
        let outcome = self.timed(DeliveryPart::Verify, |n| {
            if absorb {
                n.store.absorb_revocation(revocation, verifier)
            } else {
                n.store.revoke_with_outcome(revocation, verifier)
            }
        })?;
        if outcome.applied && outcome.authoritative {
            self.tally.revocations += 1;
            self.retract_cert_facts(&outcome.events);
        }
        Ok(())
    }

    /// Advances the store's logical clock, retracting the facts of the
    /// certificates that expired. Returns how many died.
    pub(crate) fn advance_clock(&mut self, ticks: u64) -> Result<usize, CertStoreError> {
        let events = self.store.advance_clock(ticks)?;
        self.retract_cert_facts(&events);
        Ok(events.len())
    }

    /// Retracts the workspace facts behind each retraction event in one
    /// batched DRed pass.
    fn retract_cert_facts(&mut self, events: &[RetractionEvent]) {
        // Every dying certificate poisons the cached decisions citing
        // it, whether or not its facts were still asserted here.
        self.authz.poisoned.extend(events.iter().map(|e| e.digest));
        let batch: Vec<(Symbol, Tuple)> = events
            .iter()
            .filter_map(|event| self.facts.remove(&event.digest))
            .flatten()
            .collect();
        if batch.is_empty() {
            return;
        }
        self.tally.retractions += batch.len();
        match self.timed(DeliveryPart::Assert, |n| n.ws.retract_facts(&batch)) {
            RetractOutcome::Incremental(_) => {
                self.tally.dred_repairs += 1;
                // One incremental repair = exactly one workspace epoch
                // bump; the publish path matches these totals to tell
                // "retraction-only" windows (cached decisions handed
                // on) from arbitrary change (none).
                self.authz.retraction_bumps += 1;
            }
            RetractOutcome::Deferred => self.tally.retraction_rebuilds += 1,
            RetractOutcome::Noop => {}
        }
    }

    /// This principal's share of a fresh [`crate::AuthzSnapshot`], and
    /// how many cached decisions it dropped. An unchanged principal
    /// shares its last snapshot, cached decisions included. After a
    /// window in which it changed *only* by incremental DRed retractions
    /// (detected by comparing workspace-epoch movement against the
    /// counted retraction repairs), the new snapshot takes the last
    /// one's cached decisions, less those citing a certificate that
    /// died. Any other change (imports, rule changes, non-monotonic
    /// rebuilds) starts it with none.
    pub(crate) fn publish(&mut self) -> (Arc<PrincipalSnapshot>, u64) {
        // A quarantined store stays registered and keeps serving reads
        // (the degradation contract), so it publishes like a healthy
        // one.
        let (ws, store, st) = (&self.ws, &self.store, &mut self.authz);
        let epoch = ws.epoch();
        let store_version = store.version();
        let changed = epoch != st.published_epoch || store_version != st.published_store_version;
        if let Some(snap) = st.snap.as_ref().filter(|_| !changed) {
            // Unchanged since the last publish: share the Arc.
            st.poisoned.clear();
            st.retraction_bumps = 0;
            return (snap.clone(), 0);
        }
        let epoch_delta = epoch.wrapping_sub(st.published_epoch);
        let (cache, dropped) = match &st.snap {
            // Retraction-only window: every workspace change was an
            // incremental DRed repair (facts only disappeared), so a
            // cached deny cannot have flipped and a cached grant is
            // stale exactly when it cites a dead certificate.
            Some(last) if epoch_delta == st.retraction_bumps => last.hand_on(&st.poisoned),
            // Arbitrary change (fresh imports, rule loads, a
            // non-monotonic rebuild, a rollback), or the first publish
            // since a release: no per-entry attribution is possible.
            _ => Default::default(),
        };
        st.poisoned.clear();
        st.retraction_bumps = 0;
        st.published_epoch = epoch;
        st.published_store_version = store_version;
        // Everything below is shared, not copied: the database and the
        // base facts with the workspace (a pointer per relation or full
        // chunk), the registry with its owner, and the store's two
        // citation indexes with the store (a pointer per shard).
        let snap = Arc::new(PrincipalSnapshot {
            me: self.me,
            rules: ws.program().rules().clone(),
            db: ws.db().clone(),
            builtins: ws.builtins().clone(),
            base: ws.base_facts().clone(),
            ground_heads: store.ground_heads().clone(),
            introducers: store.introducers().clone(),
            cache: Mutex::new(cache),
            store_version,
        });
        st.snap = Some(snap.clone());
        (snap, dropped)
    }

    /// The `export` tuples this workspace gained since the last call,
    /// as `(addressee, encoded packet)` in relation order, each shipped
    /// at most once.
    pub(crate) fn fresh_exports(&mut self, export: Symbol) -> Vec<(Principal, Vec<u8>)> {
        let (ws, cursor) = (&self.ws, &mut self.cursor);
        // Between compactions a tuple keeps its position — a removal
        // leaves a tombstone — and new ones are appended, so everything
        // below the watermark was fingerprinted on an earlier step. A
        // compaction (a re-pack, a rebuild, a restore) may have moved
        // tuples: rescan, and `seen` still dedups. A tuple a repair
        // re-derives lands past the watermark, and `seen` dedups that too.
        if cursor.compactions != ws.compactions() {
            cursor.compactions = ws.compactions();
            cursor.mark = 0;
        }
        let exported = ws.db().relation(export);
        let fresh = exported.into_iter().flat_map(|rel| rel.since(cursor.mark));
        let mut outgoing = Vec::new();
        for tuple in fresh {
            let [Value::Sym(to), Value::Sym(from), Value::Quote(rule), Value::Bytes(auth)] =
                tuple.as_slice()
            else {
                continue;
            };
            // Tuples addressed *to* this principal are received imports
            // sitting in its own export[me] partition, not outgoing
            // traffic: never shipped, so never remembered as shipped.
            if *to == self.me || !cursor.seen.insert(tuple_fingerprint(tuple)) {
                continue;
            }
            outgoing.push((*to, lbtrust_net::encode_export(*to, *from, rule, auth)));
        }
        cursor.mark = cursor.mark.max(ws.db().end(export));
        outgoing
    }

    /// How many export tuples are remembered as shipped.
    #[cfg(test)]
    pub(crate) fn shipped(&self) -> usize {
        self.cursor.seen.len()
    }

    /// Reconciles the workspace's `revfp` facts with the store's
    /// revocation `summary`: one fact per signer in `signers`
    /// ([`ZERO_FP_HEX`] where the local store holds nothing, so the
    /// gossip program's diff rule can fire for signers this store has
    /// never heard of), the stale fact retracted where a fingerprint
    /// changed so the program's derivations repair through DRed.
    /// Unchanged fingerprints assert nothing.
    pub(crate) fn refresh_revfp(&mut self, signers: &[Symbol], summary: &[(Symbol, String)]) {
        let local: HashMap<Symbol, &str> = summary
            .iter()
            .map(|(signer, hex)| (*signer, hex.as_str()))
            .collect();
        let mut stale: Vec<(Symbol, Tuple)> = Vec::new();
        let mut fresh: Vec<(Symbol, Tuple)> = Vec::new();
        for &signer in signers {
            let desired = local.get(&signer).copied().unwrap_or(ZERO_FP_HEX);
            match self.revfp.get(&signer) {
                Some(prev) if prev == desired => continue,
                Some(prev) => stale.push(revfp_fact(self.me, signer, prev)),
                None => {}
            }
            fresh.push(revfp_fact(self.me, signer, desired));
            self.revfp.insert(signer, desired.to_string());
        }
        if !stale.is_empty() {
            self.ws.retract_facts(&stale);
        }
        self.ws.assert_facts(&fresh);
    }

    /// Applies one step's routed packets: revocations first (store
    /// transition + DRed retraction of the dead certificates' facts),
    /// then gossip advertisements, then the export batch (assert + one
    /// evaluation, with per-message retry after a constraint rollback
    /// so only the offending messages are rejected). `eager` makes each
    /// applied revocation pay its own sync; `timing` fills
    /// [`PrincipalState::spent`]. The tallies move as the work is done,
    /// so they stay faithful to the mutations actually applied even
    /// when a hard error cuts the work short.
    pub(crate) fn deliver(
        &mut self,
        routed: Routed,
        verifier: &KeyVerifier,
        eager: bool,
        timing: bool,
        export: Symbol,
    ) -> Option<WsError> {
        self.timing = timing;
        let error = self.apply_routed(routed, verifier, eager, export);
        self.timing = false;
        error
    }

    fn apply_routed(
        &mut self,
        routed: Routed,
        verifier: &KeyVerifier,
        eager: bool,
        export: Symbol,
    ) -> Option<WsError> {
        for (revocation, absorb) in routed.revocations {
            // Bad signatures (and, under Eager, a failed commit) count
            // as rejections, exactly like tampered exports.
            let mut applied = self.apply_revocation(&revocation, verifier, absorb);
            if eager && applied.is_ok() {
                applied = self.timed(DeliveryPart::Verify, |n| n.store.sync());
            }
            match applied {
                Ok(()) => self.tally.accepted += 1,
                Err(_) => self.tally.rejected += 1,
            }
        }
        for (from, issuer, fingerprint) in routed.summaries {
            let key = (from, issuer);
            self.tally.accepted += 1;
            let prev = self.adverts.get(&key);
            if prev == Some(&fingerprint) {
                continue; // duplicate or unchanged advertisement
            }
            // A newer advertisement supersedes the remembered one: the
            // stale `gsays` fact is retracted (its derived pulls repair
            // through DRed) before the fresh one lands.
            let stale = prev.map(|prev| advert_fact(from, self.me, issuer, prev));
            let fresh = advert_fact(from, self.me, issuer, &fingerprint);
            self.timed(DeliveryPart::Assert, |n| {
                if let Some(stale) = stale {
                    n.ws.retract_facts(&[stale]);
                }
                n.ws.assert_facts(&[fresh]);
            });
            self.adverts.insert(key, fingerprint);
        }
        let tuples = routed.tuples;
        if tuples.is_empty() {
            return None;
        }
        self.timed(DeliveryPart::Assert, |n| {
            for tuple in &tuples {
                n.ws.assert_fact(export, tuple.clone());
            }
        });
        match self.timed(DeliveryPart::Evaluate, |n| n.ws.evaluate()) {
            Ok(_) => self.tally.accepted += tuples.len(),
            Err(WsError::Constraint(_)) => {
                // Batch rolled back; isolate the poisoned message(s).
                for tuple in tuples {
                    self.timed(DeliveryPart::Assert, |n| n.ws.assert_fact(export, tuple));
                    match self.timed(DeliveryPart::Evaluate, |n| n.ws.evaluate()) {
                        Ok(_) => self.tally.accepted += 1,
                        Err(WsError::Constraint(_)) => self.tally.rejected += 1,
                        Err(e) => return Some(e),
                    }
                }
            }
            Err(e) => return Some(e),
        }
        None
    }

    /// One store's group-commit work: sync, then — with auto-compaction
    /// armed — compact if the dead-byte threshold is reached.
    pub(crate) fn group_commit(&mut self, auto_compact: Option<u64>) -> Result<(), CertStoreError> {
        self.store.sync()?;
        if auto_compact.is_some_and(|dead| self.store.dead_bytes() >= dead) {
            match self.store.compact() {
                Ok(_) => {}
                // A store whose live state outgrew the checkpoint frame
                // budget cannot be compacted — but it is healthy, and
                // the opportunistic trigger must not wedge every future
                // group commit over it. An explicit `System::compact()`
                // still surfaces the condition.
                Err(CertStoreError::Storage(StorageError::CheckpointTooLarge { .. })) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The packets routed to one destination this step, in delivery order.
#[derive(Default)]
pub(crate) struct Routed {
    /// Wire revocations, each with how to apply it: `false` for the
    /// eager broadcast (issuer-mismatch objects are rejected), `true`
    /// for gossip-relayed objects (absorbed tolerantly).
    pub(crate) revocations: Vec<(Revocation, bool)>,
    /// Gossip advertisements: `(advertiser, signer, fingerprint)`.
    pub(crate) summaries: Vec<(Symbol, Symbol, String)>,
    /// `export` tuples to import.
    pub(crate) tuples: Vec<Tuple>,
}

impl Routed {
    /// Whether nothing was routed here this step.
    pub(crate) fn is_empty(&self) -> bool {
        self.revocations.is_empty() && self.summaries.is_empty() && self.tuples.is_empty()
    }
}

// ---- export cursor -------------------------------------------------------

/// One principal's progress through its `export` relation.
#[derive(Default)]
struct ExportCursor {
    /// Structural fingerprints of the export tuples already shipped —
    /// 16 bytes per tuple instead of a deep clone of each exported tuple
    /// (symbols, quoted rules, signature bytes).
    seen: HashSet<TupleFingerprint>,
    /// The relation's next position when it was last scanned.
    mark: usize,
    /// [`Workspace::compactions`] at that scan.
    compactions: u64,
}

/// The shipped-dedup key: two independently seeded structural hashes
/// of an export tuple, computed by the same allocation-free structural
/// walk `HashSet<Tuple>` used — no rendering, no cryptographic digest
/// on the drain hot loop. 128 bits of combined fingerprint makes an
/// accidental collision (which would silently drop one export message)
/// about as likely as a SHA collision in practice.
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

/// The workspace base facts one imported certificate introduces at
/// principal `to` (see [`PrincipalState::file_cert_facts`]).
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
    let known = names();
    vec![(known.export, export_tuple), (known.says, says_tuple)]
}

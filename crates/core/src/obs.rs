//! The system's observability surface: where the unified registry,
//! the quiescence phase spans, and the authorization decision journal
//! plug into the runtime.
//!
//! Every [`crate::System`] owns one observability state: a metrics
//! [`Registry`] (shared with the log backends; the network, the stores
//! and the fault plane count in their own structs, which
//! [`crate::System::obs_registry`] copies in when read), wall-clock
//! histograms for each phase of `run_to_quiescence`, and the decision
//! [`Journal`]. Phase timing
//! is on by default and can be disabled
//! ([`crate::System::with_phase_timing`]) for overhead-sensitive runs;
//! the journal is disabled unless a sink is attached.

use std::time::{Duration, Instant};

// The full observability toolkit, so downstream code reaches sinks,
// reports and snapshot types as `lbtrust::obs::*` without a separate
// dependency on the obs crate.
pub use lbtrust_obs::*;

/// The phases of one `run_to_quiescence` step, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuiescePhase {
    /// Phase 0: gossip summary refresh (`quiesce.gossip_prepare_ns`).
    GossipPrepare,
    /// Phase 1: local fixpoints (`quiesce.fixpoint_ns`).
    Fixpoint,
    /// Phase 1b: placement updates (`quiesce.placement_ns`).
    Placement,
    /// Phase 2: export drain into the network (`quiesce.export_drain_ns`).
    ExportDrain,
    /// Phase 2b: gossip sends (`quiesce.gossip_send_ns`).
    GossipSend,
    /// Phase 3: network drain + per-destination delivery
    /// (`quiesce.delivery_ns`).
    Delivery,
    /// Phase 4: batched group commit (`quiesce.group_commit_ns`).
    GroupCommit,
    /// Phase 5: quarantine probes and store re-admission
    /// (`quiesce.fault_recovery_ns`).
    FaultRecovery,
    /// The whole step (`quiesce.step_ns`).
    Step,
}

/// What the delivery phase spends its time on, each with a histogram
/// `quiesce.delivery.<part>_ns` sampled once per step. The parts run one
/// after another inside the phase, so they sum to no more than
/// `quiesce.delivery_ns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryPart {
    /// Draining the network: frame decode, admission, routing.
    Decode,
    /// Certificate-store work on routed revocations: signature check,
    /// store transition, eager commit.
    Verify,
    /// Putting facts into and taking them out of workspaces, DRed repair
    /// included.
    Assert,
    /// `Workspace::evaluate` over the asserted batch (which is where
    /// `says` signatures are checked, declaratively).
    Evaluate,
    /// Folding the destinations' errors and counters in registration
    /// order and answering gossip pulls.
    Merge,
}

impl DeliveryPart {
    pub(crate) const ALL: [DeliveryPart; 5] = [
        DeliveryPart::Decode,
        DeliveryPart::Verify,
        DeliveryPart::Assert,
        DeliveryPart::Evaluate,
        DeliveryPart::Merge,
    ];

    fn histogram(self) -> &'static str {
        match self {
            DeliveryPart::Decode => "quiesce.delivery.decode_ns",
            DeliveryPart::Verify => "quiesce.delivery.verify_ns",
            DeliveryPart::Assert => "quiesce.delivery.assert_ns",
            DeliveryPart::Evaluate => "quiesce.delivery.evaluate_ns",
            DeliveryPart::Merge => "quiesce.delivery.merge_ns",
        }
    }
}

/// Per-[`crate::System`] observability state.
pub(crate) struct SystemObs {
    registry: Registry,
    pub(crate) journal: Journal,
    timing: bool,
    gossip_prepare: Histogram,
    fixpoint: Histogram,
    placement: Histogram,
    export_drain: Histogram,
    gossip_send: Histogram,
    delivery: Histogram,
    /// In the order of [`DeliveryPart::ALL`].
    delivery_parts: [Histogram; 5],
    group_commit: Histogram,
    fault_recovery: Histogram,
    step: Histogram,
    pub(crate) authz_granted: Counter,
    pub(crate) authz_denied: Counter,
    /// Storage operations that failed with transient I/O and entered
    /// the retry path (immediate, deferred, or probe). Volatile (kept
    /// out of the deterministic snapshot), like `fault.injected.*`.
    store_retries: Counter,
    /// Stores moved into quarantine after exhausted retries. Volatile,
    /// like `store.retries`.
    store_quarantined: Counter,
}

impl SystemObs {
    pub(crate) fn new(registry: Registry) -> SystemObs {
        let authz_granted = registry.counter("authz.granted");
        let authz_denied = registry.counter("authz.denied");
        let store_retries = registry.volatile_counter("store.retries");
        let store_quarantined = registry.volatile_counter("store.quarantined");
        SystemObs {
            gossip_prepare: registry.timing("quiesce.gossip_prepare_ns"),
            fixpoint: registry.timing("quiesce.fixpoint_ns"),
            placement: registry.timing("quiesce.placement_ns"),
            export_drain: registry.timing("quiesce.export_drain_ns"),
            gossip_send: registry.timing("quiesce.gossip_send_ns"),
            delivery: registry.timing("quiesce.delivery_ns"),
            delivery_parts: DeliveryPart::ALL.map(|part| registry.timing(part.histogram())),
            group_commit: registry.timing("quiesce.group_commit_ns"),
            fault_recovery: registry.timing("quiesce.fault_recovery_ns"),
            step: registry.timing("quiesce.step_ns"),
            authz_granted,
            authz_denied,
            store_retries,
            store_quarantined,
            registry,
            journal: Journal::disabled(),
            timing: true,
        }
    }

    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    pub(crate) fn set_timing(&mut self, on: bool) {
        self.timing = on;
    }

    pub(crate) fn timing_enabled(&self) -> bool {
        self.timing
    }

    /// A phase start mark, `None` when timing is off — so the disabled
    /// path pays one branch, not a clock read.
    #[inline]
    pub(crate) fn phase_timer(&self) -> Option<Instant> {
        self.timing.then(Instant::now)
    }

    /// Closes a span opened by [`SystemObs::phase_timer`].
    #[inline]
    pub(crate) fn record_phase(&self, phase: QuiescePhase, started: Option<Instant>) {
        let Some(started) = started else { return };
        let hist = match phase {
            QuiescePhase::GossipPrepare => &self.gossip_prepare,
            QuiescePhase::Fixpoint => &self.fixpoint,
            QuiescePhase::Placement => &self.placement,
            QuiescePhase::ExportDrain => &self.export_drain,
            QuiescePhase::GossipSend => &self.gossip_send,
            QuiescePhase::Delivery => &self.delivery,
            QuiescePhase::GroupCommit => &self.group_commit,
            QuiescePhase::FaultRecovery => &self.fault_recovery,
            QuiescePhase::Step => &self.step,
        };
        hist.record_duration(started.elapsed());
    }

    /// Records what one step's delivery phase spent on `part`; a no-op
    /// while timing is off.
    pub(crate) fn record_delivery_part(&self, part: DeliveryPart, spent: Duration) {
        if self.timing {
            self.delivery_parts[part as usize].record_duration(spent);
        }
    }

    /// Counts one storage operation entering the retry path.
    pub(crate) fn count_retry(&self) {
        self.store_retries.inc();
    }

    /// Counts one store moving into quarantine.
    pub(crate) fn count_quarantine(&self) {
        self.store_quarantined.inc();
    }
}

//! Anti-entropy revocation gossip: the repair layer for lost
//! revocations (ROADMAP: "revocation gossip over sendlog").
//!
//! The eager `revoke` broadcast is fire-and-forget; on a lossy network
//! a dropped packet used to leave the receiving store accepting a
//! revoked credential forever, and a principal registered after the
//! broadcast never heard of it at all. These tests pin the bug (the
//! point-to-point baseline diverges) and the fix (the SeNDlog gossip
//! program converges every store), plus the satellite repairs:
//! duplicate-delivery idempotence and `messages_sent` reconciliation
//! with the network's own counters.

use lbtrust::certstore::{CertDigest, CertStatus};
use lbtrust::{Principal, System};
use lbtrust_net::NetworkConfig;
use lbtrust_sendlog::rev_gossip_program;
use proptest::prelude::*;

const ACCESS_POLICY: &str = "access(P,f,read) <- says(alice,me,[| good(P) |]).";

/// A hub (`alice`) plus `receivers` stores that imported the same
/// certificate, on the given network; gossip optionally enabled.
fn fanout_system(
    receivers: usize,
    config: NetworkConfig,
    seed: u64,
    gossip: bool,
) -> (System, Principal, Vec<Principal>, CertDigest) {
    let mut sys = System::with_network(config, seed).with_rsa_bits(512);
    if gossip {
        sys.enable_gossip(&rev_gossip_program().unwrap()).unwrap();
    }
    let alice = sys.add_principal("alice", "n0").unwrap();
    let recs: Vec<Principal> = (0..receivers)
        .map(|i| {
            sys.add_principal(&format!("r{i}"), &format!("m{i}"))
                .unwrap()
        })
        .collect();
    let cert = sys
        .issue_certificate(alice, "good(carol).", &[], None)
        .unwrap();
    let digest = cert.digest();
    for &r in &recs {
        sys.workspace_mut(r)
            .unwrap()
            .load("policy", ACCESS_POLICY)
            .unwrap();
        sys.import_certificates(r, vec![cert.clone()]).unwrap();
    }
    sys.run_to_quiescence(64).unwrap();
    (sys, alice, recs, digest)
}

/// How many of `recs`' stores still hold `digest` as active.
fn still_active(sys: &System, recs: &[Principal], digest: &CertDigest) -> usize {
    recs.iter()
        .filter(|r| sys.cert_store(**r).unwrap().status(digest) == Some(CertStatus::Active))
        .count()
}

/// The acceptance scenario: with `drop_prob = 0.3`, the
/// point-to-point-only configuration loses at least one Revoke packet
/// and the affected store accepts the revoked credential forever;
/// the same deployment with the SeNDlog gossip program converges every
/// store within a bounded number of rounds.
#[test]
fn gossip_repairs_what_the_lossy_broadcast_lost() {
    let config = NetworkConfig {
        drop_prob: 0.3,
        ..NetworkConfig::default()
    };
    // Deterministically find a seed whose loss pattern drops at least
    // one of the 8 Revoke packets (P ≈ 0.94 per seed; the scan is
    // exact, not flaky, because the simulator is seeded).
    let seed = (0..64)
        .find(|&seed| {
            let (mut sys, alice, recs, digest) = fanout_system(8, config, seed, false);
            sys.revoke_certificate(alice, digest).unwrap();
            sys.run_to_quiescence(64).unwrap();
            still_active(&sys, &recs, &digest) >= 1
        })
        .expect("some seed under 30% loss drops a Revoke");

    // The bug: the baseline leaves the dropped receiver divergent —
    // forever, since nothing ever retransmits.
    let (mut baseline, alice, recs, digest) = fanout_system(8, config, seed, false);
    baseline.revoke_certificate(alice, digest).unwrap();
    baseline.run_to_quiescence(64).unwrap();
    let divergent = still_active(&baseline, &recs, &digest);
    assert!(divergent >= 1, "baseline must lose at least one store");
    assert!(
        baseline.net_stats().dropped >= 1,
        "the loss model must have dropped traffic"
    );
    // Re-running to quiescence changes nothing: the divergence is
    // permanent without a repair layer.
    baseline.run_to_quiescence(64).unwrap();
    assert_eq!(still_active(&baseline, &recs, &digest), divergent);

    // The fix: same deployment, same seed, gossip on.
    let (mut sys, alice, recs, digest) = fanout_system(8, config, seed, true);
    sys.revoke_certificate(alice, digest).unwrap();
    let stats = sys.run_to_quiescence(200).unwrap();
    assert_eq!(
        still_active(&sys, &recs, &digest),
        0,
        "gossip must converge every store to the revoked state"
    );
    for &r in &recs {
        assert!(
            !sys.workspace(r)
                .unwrap()
                .holds_src("access(carol,f,read)")
                .unwrap(),
            "derived access must be retracted everywhere"
        );
    }
    assert!(
        stats.gossip_rounds >= 1 && stats.gossip_rounds <= 64,
        "convergence within a bounded number of rounds, got {}",
        stats.gossip_rounds
    );
    assert!(stats.gossip_summaries >= 1);
    assert!(stats.gossip_pulls >= 1);
    assert!(stats.gossip_served >= 1);
    // Converged means dormant: another run adds no gossip traffic.
    let before = sys.stats();
    sys.run_to_quiescence(16).unwrap();
    let after = sys.stats();
    assert_eq!(before.gossip_summaries, after.gossip_summaries);
    assert_eq!(before.messages_sent, after.messages_sent);
}

/// The late-join divergence fix: a principal added after
/// `revoke_certificate` imports the revoked certificate successfully
/// (its store never heard the broadcast) and, without gossip, is never
/// told. With gossip, the next quiescence run converges it.
#[test]
fn late_joiner_learns_revocations_issued_before_it_existed() {
    let run = |gossip: bool| -> (System, Principal, CertDigest) {
        let mut sys = System::new().with_rsa_bits(512);
        if gossip {
            sys.enable_gossip(&rev_gossip_program().unwrap()).unwrap();
        }
        let alice = sys.add_principal("alice", "n0").unwrap();
        let bob = sys.add_principal("bob", "n1").unwrap();
        let cert = sys
            .issue_certificate(alice, "good(carol).", &[], None)
            .unwrap();
        let digest = cert.digest();
        sys.import_certificates(bob, vec![cert.clone()]).unwrap();
        sys.run_to_quiescence(16).unwrap();
        // Revoke while carol's principal does not exist yet …
        sys.revoke_certificate(alice, digest).unwrap();
        sys.run_to_quiescence(16).unwrap();
        // … then register the late joiner and hand it the revoked
        // credential: its fresh store has never heard of the
        // revocation, so the import succeeds.
        let late = sys.add_principal("late", "n9").unwrap();
        sys.workspace_mut(late)
            .unwrap()
            .load("policy", ACCESS_POLICY)
            .unwrap();
        sys.import_certificates(late, vec![cert]).unwrap();
        assert_eq!(
            sys.cert_store(late).unwrap().status(&digest),
            Some(CertStatus::Active),
            "the late joiner accepted the revoked credential"
        );
        sys.run_to_quiescence(200).unwrap();
        (sys, late, digest)
    };

    // The bug, pinned: without gossip the late joiner diverges forever.
    let (sys, late, digest) = run(false);
    assert_eq!(
        sys.cert_store(late).unwrap().status(&digest),
        Some(CertStatus::Active)
    );
    assert!(sys
        .workspace(late)
        .unwrap()
        .holds_src("access(carol,f,read)")
        .unwrap());

    // The fix: gossip covers principals that joined after the
    // broadcast (the `prin` table is the gossip topology).
    let (sys, late, digest) = run(true);
    assert_eq!(
        sys.cert_store(late).unwrap().status(&digest),
        Some(CertStatus::Revoked),
        "gossip must reach the late joiner"
    );
    assert!(
        !sys.workspace(late)
            .unwrap()
            .holds_src("access(carol,f,read)")
            .unwrap(),
        "the derived access must be retracted at the late joiner"
    );
    // And the store now refuses the credential outright.
    assert_eq!(sys.stats().revocations, 3, "alice + bob + late, once each");
}

/// Duplicate-delivery idempotence: with `duplicate_prob = 1.0` every
/// Revoke packet arrives twice, and before the fix each duplicate was
/// re-applied — double-counting `SystemStats::revocations` and
/// re-firing retractions. Re-application must be a no-op.
#[test]
fn duplicated_revoke_packets_apply_once() {
    let config = NetworkConfig {
        duplicate_prob: 1.0,
        ..NetworkConfig::default()
    };
    let (mut sys, alice, recs, digest) = fanout_system(4, config, 7, false);
    let retractions_before = sys.stats().retractions;
    sys.revoke_certificate(alice, digest).unwrap();
    sys.run_to_quiescence(64).unwrap();
    let stats = sys.stats();
    let net = sys.net_stats();
    assert!(
        net.duplicated >= recs.len(),
        "every broadcast packet must have been duplicated"
    );
    assert_eq!(
        stats.revocations,
        1 + recs.len(),
        "one application per store, duplicates are no-ops"
    );
    // Each receiver retracted its one certificate-backed fact (the
    // `certified` tuple) exactly once.
    assert_eq!(stats.retractions - retractions_before, recs.len());
    for &r in &recs {
        // The audit trail records one revocation per store, not two.
        let store = sys.cert_store(r).unwrap();
        let revoked_entries = store
            .audit()
            .entries()
            .iter()
            .filter(|e| e.digest == digest && e.action == lbtrust::certstore::AuditAction::Revoked)
            .count();
        assert_eq!(revoked_entries, 1, "audit must not re-emit on duplicates");
    }
}

/// `messages_sent` reconciliation: the system counter must agree with
/// the network's own ledger (`sent - dropped` = what actually entered
/// the network; these counters drive Figure 2's x-axis). Before the
/// fix every call site ignored `SimNetwork::send`'s return value and
/// counted drops as sent.
#[test]
fn messages_sent_reconciles_with_network_stats() {
    let config = NetworkConfig {
        drop_prob: 0.4,
        duplicate_prob: 0.3,
        ..NetworkConfig::default()
    };
    for gossip in [false, true] {
        let (mut sys, alice, _recs, digest) = fanout_system(6, config, 11, gossip);
        sys.revoke_certificate(alice, digest).unwrap();
        sys.run_to_quiescence(400).unwrap();
        let stats = sys.stats();
        let net = sys.net_stats();
        assert!(net.dropped >= 1, "the loss model must have fired");
        assert_eq!(
            stats.messages_sent,
            net.sent - net.dropped,
            "messages_sent must count what entered the network (gossip={gossip})"
        );
        // Quiescence drained everything: deliveries account for every
        // enqueued message plus the duplicates.
        assert_eq!(net.delivered, net.sent - net.dropped + net.duplicated);
    }
}

/// Partition-heal acceptance (the fault plane meets anti-entropy): a
/// minority node is blackholed from the rest of the deployment during
/// a revocation storm — it misses the eager broadcast entirely — and
/// once the partition heals at its deadline, gossip converges it
/// within a bounded number of rounds.
#[test]
fn partitioned_minority_converges_after_heal() {
    use lbtrust_net::NodeId;
    let (mut sys, alice, recs, digest) = fanout_system(5, NetworkConfig::default(), 9, true);
    // Cut r4's node off from everyone, both directions, healing 6
    // steps into the next quiescence run.
    let minority = NodeId::new("m4");
    let heal_at = Some(sys.network_mut().step() + 6);
    for node in ["n0", "m0", "m1", "m2", "m3"] {
        sys.network_mut()
            .partition(NodeId::new(node), minority, heal_at);
        sys.network_mut()
            .partition(minority, NodeId::new(node), heal_at);
    }
    let rounds_before = sys.stats().gossip_rounds;
    sys.revoke_certificate(alice, digest).unwrap();
    let stats = sys.run_to_quiescence(200).unwrap();
    assert_eq!(
        still_active(&sys, &recs, &digest),
        0,
        "gossip must converge the partitioned store after the heal"
    );
    let net = sys.net_stats();
    assert!(
        net.blackholed >= 1,
        "the partition must have blackholed the minority's broadcast"
    );
    assert_eq!(
        sys.network_mut().active_partitions(),
        0,
        "every partition healed at its deadline"
    );
    // Bounded repair: the storm itself plus the post-heal rounds.
    let rounds = stats.gossip_rounds - rounds_before;
    assert!(
        (1..=64).contains(&rounds),
        "bounded repair rounds after heal, got {rounds}"
    );
    // The system counter keeps reconciling with the network ledger
    // under the extended invariant: blackholed packets never counted
    // as sent.
    assert_eq!(stats.messages_sent, net.sent - net.dropped - net.blackholed);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// For arbitrary seed, loss ≤ 0.5 and duplication: gossip converges
    /// every store to the full revoked set within a bounded number of
    /// rounds, and every store agrees on the revocation summaries.
    #[test]
    fn gossip_converges_within_bounded_rounds(
        seed in 0u64..1_000,
        drop_pct in 0u32..51,
        duplicate_pct in 0u32..51,
        receivers in 2usize..5,
        revoke_count in 1usize..3,
    ) {
        let config = NetworkConfig {
            drop_prob: f64::from(drop_pct) / 100.0,
            duplicate_prob: f64::from(duplicate_pct) / 100.0,
            ..NetworkConfig::default()
        };
        let mut sys = System::with_network(config, seed).with_rsa_bits(512);
        sys.enable_gossip(&rev_gossip_program().unwrap()).unwrap();
        let alice = sys.add_principal("alice", "n0").unwrap();
        let recs: Vec<Principal> = (0..receivers)
            .map(|i| sys.add_principal(&format!("r{i}"), &format!("m{i}")).unwrap())
            .collect();
        let facts: String = (0..revoke_count + 1).map(|i| format!("good(p{i}). ")).collect();
        let certs = sys.issue_certificates(alice, &facts, &[], None).unwrap();
        for &r in &recs {
            sys.workspace_mut(r).unwrap().load("policy", ACCESS_POLICY).unwrap();
            sys.import_certificates(r, certs.clone()).unwrap();
        }
        sys.run_to_quiescence(400).unwrap();
        let digests: Vec<CertDigest> = certs[..revoke_count].iter().map(|c| c.digest()).collect();
        for d in &digests {
            sys.revoke_certificate(alice, *d).unwrap();
        }
        // The bounded-rounds claim: 400 steps is the hard budget
        // for every sampled loss rate (run_to_quiescence errors if
        // exceeded).
        sys.run_to_quiescence(400).unwrap();
        // Convergence: every revoked digest is dead at every store.
        for p in &recs {
            for d in &digests {
                prop_assert_eq!(
                    sys.cert_store(*p).unwrap().status(d),
                    Some(CertStatus::Revoked),
                    "store {} must hold {} revoked", p, d.short()
                );
            }
        }
        // And every store agrees on the revocation summaries.
        let reference = sys.cert_store(alice).unwrap().revocation_fingerprints();
        for p in &recs {
            prop_assert_eq!(
                sys.cert_store(*p).unwrap().revocation_fingerprints(),
                reference.clone()
            );
        }
    }
}

//! Chaos harness for the deterministic fault plane: seeded storage
//! faults × network partitions/delay/reorder × shard counts.
//!
//! Three layers of coverage:
//!
//! * The **persistent-fault acceptance test**: one store fails
//!   persistently mid-deployment, the system quarantines it, keeps
//!   answering `authorize()` from it and committing the healthy
//!   stores, refuses its writes with a structured
//!   [`lbtrust::DegradedError`], and re-admits it after the fault
//!   heals — anti-entropy gossip repairing what it missed.
//! * The **chaos proptest**: for arbitrary seeds, fault rates,
//!   partition timings and shard counts, nothing panics, every store
//!   converges once faults heal, and the sharded engine reaches
//!   exactly the serial engine's state.
//! * The **CI seed matrix** (`CHAOS_SEEDS`): a fixed set of seeds run
//!   as plain tests so the chaos-smoke CI step is reproducible.

use lbtrust::certstore::{CertDigest, CertStatus, FaultConfig};
use lbtrust::{Principal, RetryPolicy, StoreHealth, SyncPolicy, SysError, System};
use lbtrust_net::{NetworkConfig, NodeId};
use lbtrust_sendlog::rev_gossip_program;
use proptest::prelude::*;
use std::collections::BTreeMap;

const ACCESS_POLICY: &str = "access(P,f,read) <- says(alice,me,[| good(P) |]).";

/// Node name of receiver `i` (see [`chaos_system`]).
fn node_name(i: usize) -> String {
    format!("m{i}")
}

/// A hub (`alice`, node `n0`) plus `receivers` stores that imported
/// the same certificates, gossip on, storage faults armed with
/// `faults`, on a delaying/reordering (but lossless) network.
fn chaos_system(
    receivers: usize,
    seed: u64,
    faults: FaultConfig,
    shards: usize,
) -> (System, Principal, Vec<Principal>, Vec<CertDigest>) {
    let config = NetworkConfig {
        delay_prob: 0.3,
        delay_steps_max: 3,
        reorder_prob: 0.25,
        ..NetworkConfig::default()
    };
    let mut sys = System::with_network(config, seed)
        .with_rsa_bits(512)
        .with_shards(shards)
        .with_sync_policy(SyncPolicy::Batched)
        .with_storage_faults(faults)
        // Schedule-driven faults are one-shot probabilistic rolls, so
        // a generous immediate-retry budget makes user-path quarantine
        // unreachable in the chaos sweep (the acceptance test below
        // exercises quarantine explicitly, with injected faults).
        .with_retry_policy(RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        });
    sys.enable_gossip(&rev_gossip_program().unwrap()).unwrap();
    let alice = sys.add_principal("alice", "n0").unwrap();
    let recs: Vec<Principal> = (0..receivers)
        .map(|i| sys.add_principal(&format!("r{i}"), &node_name(i)).unwrap())
        .collect();
    let certs = sys
        .issue_certificates(alice, "good(carol). good(dave).", &[], None)
        .unwrap();
    let digests: Vec<CertDigest> = certs.iter().map(|c| c.digest()).collect();
    for &r in &recs {
        sys.workspace_mut(r)
            .unwrap()
            .load("policy", ACCESS_POLICY)
            .unwrap();
        sys.import_certificates(r, certs.clone()).unwrap();
    }
    sys.run_to_quiescence(400).unwrap();
    (sys, alice, recs, digests)
}

/// Full workspace + store state of one principal (the
/// `tests/tests/gossip.rs` pattern), for serial ≡ sharded equivalence.
fn principal_snapshot(sys: &System, p: Principal) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (pred, relation) in sys.workspace(p).unwrap().db().iter() {
        let mut tuples: Vec<String> = relation
            .iter()
            .map(|t| {
                t.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        tuples.sort();
        out.insert(pred.to_string(), tuples);
    }
    let store = sys.cert_store(p).unwrap();
    let mut active: Vec<String> = store.active().iter().map(|d| d.to_hex()).collect();
    active.sort();
    out.insert("__active".into(), active);
    let fps: Vec<String> = store
        .revocation_fingerprints()
        .iter()
        .map(|(s, fp)| format!("{s}:{}", lbtrust_net::to_hex(fp)))
        .collect();
    out.insert("__revfp".into(), fps);
    out
}

/// One full chaos run: distribute, partition a minority with a heal
/// deadline, revoke under storage faults, run to quiescence, and
/// return the system for inspection. Panics (test failure) if the
/// run does not quiesce.
fn chaos_run(
    seed: u64,
    fault_ppm: u32,
    receivers: usize,
    partition_steps: u64,
    shards: usize,
) -> (System, Vec<Principal>, Vec<CertDigest>) {
    let faults = FaultConfig::uniform(seed, fault_ppm);
    let (mut sys, alice, recs, digests) = chaos_system(receivers, seed, faults, shards);
    // Cut the last receiver off from the hub in both directions; the
    // link heals itself `partition_steps` into the revocation run.
    let minority = NodeId::new(&node_name(receivers - 1));
    let hub = NodeId::new("n0");
    let heal_at = sys.network_mut().step() + partition_steps;
    sys.network_mut().partition(hub, minority, Some(heal_at));
    sys.network_mut().partition(minority, hub, Some(heal_at));
    for d in &digests {
        sys.revoke_certificate(alice, *d).unwrap();
    }
    sys.run_to_quiescence(600).unwrap();
    let everyone: Vec<Principal> = std::iter::once(alice).chain(recs.iter().copied()).collect();
    (sys, everyone, digests)
}

/// Asserts full convergence: every digest revoked at every receiving
/// store (the hub never imported its own certificates), no store
/// degraded or quarantined, and the network fully drained.
fn assert_converged(sys: &System, principals: &[Principal], digests: &[CertDigest]) {
    for p in principals {
        assert_eq!(sys.store_health(*p), StoreHealth::Healthy);
    }
    for p in &principals[1..] {
        for d in digests {
            assert_eq!(
                sys.cert_store(*p).unwrap().status(d),
                Some(CertStatus::Revoked),
                "store {p} must hold {} revoked",
                d.short()
            );
        }
    }
    assert!(sys.quarantined().is_empty());
    let net = sys.net_stats();
    assert_eq!(
        net.delivered,
        net.sent - net.dropped - net.blackholed + net.duplicated,
        "quiescence must drain the network (including the delay queue)"
    );
}

/// The acceptance scenario (ISSUE 8): a persistent storage fault
/// quarantines one store; the system answers reads from it, refuses
/// its writes with a structured error, keeps committing the healthy
/// stores, and re-admits it with gossip repair once the fault heals.
#[test]
fn quarantined_store_degrades_gracefully_and_heals() {
    // Faults armed but quiet: all-zero rates, so only explicit
    // injections fire and the run is otherwise deterministic.
    let (mut sys, alice, recs, digests) = chaos_system(3, 42, FaultConfig::uniform(42, 0), 1);
    let victim = recs[1];

    // Reads work before, during, and after quarantine.
    let granted = sys.authorize(victim, "access(carol,f,read)").unwrap();
    assert!(granted.granted);

    sys.fault_handle(victim)
        .expect("faults are armed")
        .fail_persistently();

    // A write exhausts its retries and surfaces the structured error.
    let extra = sys
        .issue_certificate(alice, "good(erin).", &[], None)
        .unwrap();
    let err = sys
        .import_certificates(victim, vec![extra.clone()])
        .unwrap_err();
    let SysError::Degraded(d) = err else {
        panic!("expected SysError::Degraded, got {err}");
    };
    assert_eq!(d.principal, victim);
    assert!(d.attempts >= 1);
    assert_eq!(sys.store_health(victim), StoreHealth::Quarantined);
    assert_eq!(sys.quarantined(), vec![victim]);

    // Quarantined means read-only, not dead: authorize still answers.
    assert!(
        sys.authorize(victim, "access(carol,f,read)")
            .unwrap()
            .granted
    );

    // A revocation storm converges the healthy stores and quiesces
    // around the quarantined one (degraded service, not livelock).
    let fsyncs_before = sys.fsyncs();
    for d in &digests {
        sys.revoke_certificate(alice, *d).unwrap();
    }
    sys.run_to_quiescence(400).unwrap();
    for &r in [recs[0], recs[2]].iter() {
        for d in &digests {
            assert_eq!(
                sys.cert_store(r).unwrap().status(d),
                Some(CertStatus::Revoked)
            );
        }
    }
    // The victim missed the storm: its store could not absorb the
    // revocations (writes fail), so it still serves the stale state.
    assert_eq!(
        sys.cert_store(victim).unwrap().status(&digests[0]),
        Some(CertStatus::Active),
        "quarantined store cannot absorb revocations"
    );
    assert!(
        sys.fsyncs() > fsyncs_before,
        "healthy stores must keep committing while one is quarantined"
    );
    // The fault surface is observable: retries and the quarantine
    // landed in the volatile counters, not the deterministic snapshot.
    let snap = sys.obs_registry().snapshot();
    assert!(snap.counter("store.retries").unwrap_or(0) >= 1);
    assert_eq!(snap.counter("store.quarantined"), Some(1));
    let det = sys.obs_registry().deterministic_snapshot();
    assert_eq!(det.counter("store.retries"), None);
    assert_eq!(det.counter("store.quarantined"), None);

    // Heal the medium: the next quiescence run probes, re-admits, and
    // anti-entropy replays the missed revocations into the store.
    sys.fault_handle(victim).unwrap().heal();
    sys.run_to_quiescence(400).unwrap();
    assert_eq!(sys.store_health(victim), StoreHealth::Healthy);
    assert!(sys.quarantined().is_empty());
    for d in &digests {
        assert_eq!(
            sys.cert_store(victim).unwrap().status(d),
            Some(CertStatus::Revoked),
            "gossip must repair the re-admitted store"
        );
    }
    assert!(
        !sys.authorize(victim, "access(carol,f,read)")
            .unwrap()
            .granted,
        "the repaired store's workspace must reflect the revocation"
    );
    // And the store is writable again.
    sys.import_certificates(victim, vec![extra]).unwrap();
    assert_eq!(sys.store_health(victim), StoreHealth::Healthy);
}

/// Deferred group-commit retry: a bounded transient fault injected
/// into a Batched store degrades it (backoff, not quarantine) and the
/// next commits recover it without user-visible errors.
#[test]
fn transient_commit_fault_recovers_via_deferred_retry() {
    let (mut sys, _alice, recs, _digests) = chaos_system(2, 7, FaultConfig::uniform(7, 0), 1);
    // Dirty every store without syncing (Batched policy: clock ticks
    // append immediately, the commit waits for the next group-commit
    // sweep) …
    sys.advance_time(1).unwrap();
    // … then make the victim's next two storage ops fail transiently.
    sys.fault_handle(recs[0])
        .unwrap()
        .inject(lbtrust::certstore::Fault::TransientIo { ops: 2 });
    // The sweep absorbs the first failure: the store degrades with
    // step-based backoff instead of surfacing an error.
    sys.flush().unwrap();
    assert_eq!(sys.store_health(recs[0]), StoreHealth::Degraded);
    // The quiescence loop keeps stepping while a deferred retry is
    // pending; the fault self-recovers after its two ops and the
    // second retry commits.
    sys.run_to_quiescence(64).unwrap();
    assert_eq!(sys.store_health(recs[0]), StoreHealth::Healthy);
    assert!(sys.quarantined().is_empty());
    let snap = sys.obs_registry().snapshot();
    assert!(snap.counter("store.retries").unwrap_or(0) >= 2);
    assert_eq!(snap.counter("store.quarantined"), Some(0));
}

/// The CI seed matrix: `CHAOS_SEEDS` (comma-separated, default
/// `11,23,57`) each run one fixed chaos scenario — storage faults at
/// 2000 ppm, a 4-step partition, serial vs 3 shards.
#[test]
fn chaos_seed_matrix() {
    let seeds = std::env::var("CHAOS_SEEDS").unwrap_or_else(|_| "11,23,57".into());
    for seed in seeds.split(',').filter(|s| !s.trim().is_empty()) {
        let seed: u64 = seed.trim().parse().expect("CHAOS_SEEDS must be u64s");
        let (serial, principals, digests) = chaos_run(seed, 2000, 4, 4, 1);
        assert_converged(&serial, &principals, &digests);
        let (sharded, _, _) = chaos_run(seed, 2000, 4, 4, 3);
        for &p in &principals {
            assert_eq!(
                principal_snapshot(&serial, p),
                principal_snapshot(&sharded, p),
                "serial and sharded runs must agree (seed {seed})"
            );
        }
        assert_eq!(serial.net_stats(), sharded.net_stats(), "seed {seed}");
        for sys in [&serial, &sharded] {
            assert_injected_faults_shown(sys, &principals);
        }
    }
}

/// The registry's `fault.injected.*` counters are the fault handles'
/// own counts, summed over every principal's store.
fn assert_injected_faults_shown(sys: &System, principals: &[Principal]) {
    let counts: Vec<_> = principals
        .iter()
        .map(|p| sys.fault_handle(*p).expect("faults are armed").counts())
        .collect();
    let snap = sys.obs_registry().snapshot();
    for (name, total) in [
        (
            "fault.injected.io",
            counts.iter().map(|c| c.io).sum::<u64>(),
        ),
        (
            "fault.injected.enospc",
            counts.iter().map(|c| c.enospc).sum(),
        ),
        ("fault.injected.torn", counts.iter().map(|c| c.torn).sum()),
        (
            "fault.injected.fsync_lie",
            counts.iter().map(|c| c.fsync_lies).sum(),
        ),
    ] {
        assert_eq!(snap.counter(name), Some(total), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// For arbitrary seed × fault rate × partition/heal timing × shard
    /// count: no panics, full convergence once faults heal, and the
    /// sharded engine reaches exactly the serial engine's state
    /// (snapshots and network ledger included).
    #[test]
    fn chaos_serial_and_sharded_converge_identically(
        seed in 0u64..1_000,
        fault_ppm in 0u32..5_000,
        receivers in 2usize..5,
        partition_steps in 1u64..6,
        shards in 2usize..5,
    ) {
        let (serial, principals, digests) =
            chaos_run(seed, fault_ppm, receivers, partition_steps, 1);
        for p in &principals {
            prop_assert_eq!(serial.store_health(*p), StoreHealth::Healthy);
        }
        for p in &principals[1..] {
            for d in &digests {
                prop_assert_eq!(
                    serial.cert_store(*p).unwrap().status(d),
                    Some(CertStatus::Revoked),
                    "store {} must converge on {}", p, d.short()
                );
            }
        }
        let (sharded, _, _) = chaos_run(seed, fault_ppm, receivers, partition_steps, shards);
        for &p in &principals {
            prop_assert_eq!(principal_snapshot(&serial, p), principal_snapshot(&sharded, p));
        }
        let (a, b) = (serial.stats(), sharded.stats());
        prop_assert_eq!(a.messages_sent, b.messages_sent);
        prop_assert_eq!(a.revocations, b.revocations);
        prop_assert_eq!(a.retractions, b.retractions);
        prop_assert_eq!(a.gossip_rounds, b.gossip_rounds);
        prop_assert_eq!(serial.net_stats(), sharded.net_stats());
        // The extended conservation invariant holds after full drain.
        let net = serial.net_stats();
        prop_assert_eq!(
            net.delivered,
            net.sent - net.dropped - net.blackholed + net.duplicated
        );
        prop_assert_eq!(a.messages_sent, net.sent - net.dropped - net.blackholed);
    }
}

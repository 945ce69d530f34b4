//! Experiment A11: anti-entropy revocation gossip vs the (broken)
//! point-to-point broadcast, swept across network loss rates.
//!
//! A hub and 15 receiving stores share a batch of certificates; each
//! iteration revokes one and runs to quiescence. Without gossip, every
//! Revoke packet the loss model eats leaves a store accepting the
//! revoked credential *forever* — the divergence the summary lines
//! quantify. With the SeNDlog gossip program loaded, stores exchange
//! `revsummary` advertisements, pull what they miss, and converge
//! every time; the cost is extra rounds and messages, both reported
//! per loss rate.
//!
//! Summary lines appended to `target/criterion/summary.txt` (the CI
//! artifact):
//!
//! ```text
//! gossip-baseline  drop=0.30 divergent=5/15 after quiescence (broadcast only)
//! gossip-converge  drop=0.30 rounds=4.2 summaries=312 pulls=9 served=11 msgs/rev=41.6
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lbtrust::certstore::{CertDigest, CertStatus};
use lbtrust::obs::Report;
use lbtrust::{Principal, System};
use lbtrust_bench::persist_line;
use lbtrust_net::{NetworkConfig, NodeId};
use lbtrust_sendlog::rev_gossip_program;
use std::cell::Cell;

/// Hub + receivers.
const PRINCIPALS: usize = 16;
/// Certificates pre-issued per system (one revocation per iteration;
/// the shim caps samples at 30 plus one warmup).
const BATCH: usize = 36;
/// Loss rates swept (percent).
const DROP_PCTS: &[u32] = &[0, 10, 30, 50];

fn network(drop_pct: u32) -> NetworkConfig {
    NetworkConfig {
        drop_prob: f64::from(drop_pct) / 100.0,
        ..NetworkConfig::default()
    }
}

/// A converged deployment holding `BATCH` certificates everywhere.
fn fanout_system(drop_pct: u32, gossip: bool) -> (System, Principal, Vec<CertDigest>) {
    let mut sys =
        System::with_network(network(drop_pct), u64::from(drop_pct) + 1).with_rsa_bits(512);
    if gossip {
        sys.enable_gossip(&rev_gossip_program().expect("gossip program translates"))
            .expect("gossip program loads");
    }
    let hub = sys.add_principal("hub", "n0").unwrap();
    let receivers: Vec<Principal> = (1..PRINCIPALS)
        .map(|i| {
            sys.add_principal(&format!("r{i}"), &format!("m{i}"))
                .unwrap()
        })
        .collect();
    let facts: String = (0..BATCH).map(|i| format!("good(p{i}). ")).collect();
    let certs = sys.issue_certificates(hub, &facts, &[], None).unwrap();
    for &r in &receivers {
        sys.import_certificates(r, certs.clone()).unwrap();
    }
    sys.run_to_quiescence(64).unwrap();
    let digests = certs.iter().map(|c| c.digest()).collect();
    (sys, hub, digests)
}

/// Revoke the next certificate and quiesce (the gossip repair, when
/// enabled, runs inside the same call).
fn revoke_iteration(sys: &mut System, hub: Principal, digests: &[CertDigest], round: usize) {
    sys.revoke_certificate(hub, digests[round % digests.len()])
        .unwrap();
    sys.run_to_quiescence(400).unwrap();
}

/// Stores (hub excluded) still holding `digest` active.
fn divergent(sys: &System, digest: &CertDigest) -> usize {
    sys.principals()
        .iter()
        .filter(|p| sys.cert_store(**p).unwrap().status(digest) == Some(CertStatus::Active))
        .count()
}

fn gossip_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_gossip");
    group.sample_size(10);

    for &pct in DROP_PCTS {
        let (mut sys, hub, digests) = fanout_system(pct, true);
        let round = Cell::new(0usize);
        group.bench_with_input(
            BenchmarkId::new("revoke_converge_gossip", pct),
            &pct,
            |b, _| {
                b.iter(|| {
                    let r = round.get();
                    round.set(r + 1);
                    revoke_iteration(&mut sys, hub, &digests, r);
                });
            },
        );
    }
    group.finish();

    // The ablation proper, measured outside the timing loop: one
    // deployment per loss rate, 8 revocations each, baseline vs
    // gossip. Deterministic (seeded by loss rate), so the summary
    // lines are reproducible.
    const REVS: usize = 8;
    let mut report = Report::new("gossip")
        .note(
            "workload",
            &format!("{PRINCIPALS} principals, {REVS} revocations per loss rate"),
        )
        .note(
            "cores",
            &std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_string(),
        );
    for &pct in DROP_PCTS {
        // Baseline: broadcast only. Count stores left divergent.
        let (mut base, hub, digests) = fanout_system(pct, false);
        for r in 0..REVS {
            revoke_iteration(&mut base, hub, &digests, r);
        }
        let stuck: usize = digests[..REVS].iter().map(|d| divergent(&base, d)).sum();
        persist_line(&format!(
            "gossip-baseline  drop={:.2} divergent={stuck}/{} stores x revocations left \
             accepting a revoked credential (broadcast only)",
            f64::from(pct) / 100.0,
            REVS * (PRINCIPALS - 1),
        ));

        // Gossip: same loss rate; every store converges. Report the
        // repair cost per revocation.
        let (mut sys, hub, digests) = fanout_system(pct, true);
        let before = sys.stats();
        let net_before = sys.net_stats();
        for r in 0..REVS {
            revoke_iteration(&mut sys, hub, &digests, r);
        }
        let remaining: usize = digests[..REVS].iter().map(|d| divergent(&sys, d)).sum();
        assert_eq!(remaining, 0, "gossip must converge every store");
        let stats = sys.stats();
        let net = sys.net_stats();
        assert_eq!(
            stats.messages_sent,
            net.sent - net.dropped - net.blackholed,
            "system and network ledgers must reconcile"
        );
        let rounds_per_rev = (stats.gossip_rounds - before.gossip_rounds) as f64 / REVS as f64;
        let msgs_per_rev = (net.sent - net_before.sent) as f64 / REVS as f64;
        persist_line(&format!(
            "gossip-converge  drop={:.2} rounds/rev={rounds_per_rev:.1} summaries={} pulls={} \
             served={} msgs/rev={msgs_per_rev:.1} ({} principals, 0 divergent)",
            f64::from(pct) / 100.0,
            stats.gossip_summaries - before.gossip_summaries,
            stats.gossip_pulls - before.gossip_pulls,
            stats.gossip_served - before.gossip_served,
            PRINCIPALS,
        ));
        report = report
            .headline(&format!("baseline_divergent_drop{pct}"), stuck as f64)
            .headline(&format!("rounds_per_rev_drop{pct}"), rounds_per_rev)
            .headline(&format!("msgs_per_rev_drop{pct}"), msgs_per_rev);
        // The lossiest sweep is the one whose phase breakdown matters:
        // its quiescence runs carry the full anti-entropy repair.
        if pct == *DROP_PCTS.last().unwrap() {
            report = report.phases_from(sys.obs_registry());
        }
    }

    // Partition-duration axis: at a fixed 10% loss, blackhole the
    // hub <-> m15 link for `dur` steps spanning a revocation and count
    // the gossip rounds anti-entropy needs to heal the cut-off store.
    // dur=0 is the control (no partition). Deterministic: the network
    // RNG is seeded by the loss rate and partitions consume no rolls.
    const PARTITION_DURATIONS: &[u64] = &[0, 2, 6];
    report = report.note(
        "partition_axis",
        &format!(
            "hub<->m{} cut bidirectionally for each duration (steps) at drop=0.10; \
             rounds counted over one revocation; single-threaded quiesce loop, so \
             host core count affects wall time only, never the round counts",
            PRINCIPALS - 1
        ),
    );
    for &dur in PARTITION_DURATIONS {
        let (mut sys, hub, digests) = fanout_system(10, true);
        let before = sys.stats();
        if dur > 0 {
            let hub_node = NodeId::new("n0");
            let far = NodeId::new(&format!("m{}", PRINCIPALS - 1));
            let heal_at = Some(sys.network_mut().step() + dur);
            sys.network_mut().partition(hub_node, far, heal_at);
            sys.network_mut().partition(far, hub_node, heal_at);
        }
        revoke_iteration(&mut sys, hub, &digests, 0);
        assert_eq!(
            divergent(&sys, &digests[0]),
            0,
            "gossip must heal the partitioned store"
        );
        assert_eq!(
            sys.network_mut().active_partitions(),
            0,
            "timed partitions must have healed"
        );
        let rounds = (sys.stats().gossip_rounds - before.gossip_rounds) as f64;
        persist_line(&format!(
            "gossip-partition drop=0.10 partition_steps={dur} heal_rounds={rounds:.0} \
             blackholed={} ({} principals, 0 divergent)",
            sys.net_stats().blackholed,
            PRINCIPALS,
        ));
        report = report.headline(&format!("partition_heal_rounds_dur{dur}"), rounds);
    }

    if let Err(e) = report.write_at_repo_root() {
        eprintln!("[obs] BENCH_gossip.json not written: {e}");
    }
}

criterion_group!(benches, gossip_convergence);
criterion_main!(benches);

//! The unified observability layer, end to end: the registry must show
//! exactly the `SystemStats`/`NetworkStats`/`StoreStats`/`FaultCounts`
//! ledgers it is written from when read, deterministic snapshots must be identical across serial
//! and sharded engines (wall-clock timing excluded), phase spans must
//! actually record, and journaled authorization decisions must cite
//! exactly the certificate digests the audit trail knows.

use lbtrust::obs::{Journal, RingSink};
use lbtrust::{Principal, SyncPolicy, System};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("obs-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A hub fanning `says` chains to `receivers` receivers, each folding
/// them into a transitive closure — enough cross-principal traffic to
/// exercise every quiescence phase.
fn fanout_system(shards: usize, receivers: usize) -> System {
    let mut sys = System::new()
        .with_rsa_bits(512)
        .with_shards(shards)
        .with_sync_policy(SyncPolicy::Batched);
    let hub = sys.add_principal("hub", "n0").unwrap();
    for i in 0..receivers {
        let name = format!("r{i}");
        let p = sys.add_principal(&name, &format!("m{i}")).unwrap();
        sys.workspace_mut(p)
            .unwrap()
            .load(
                "policy",
                "edge(X,Y) <- says(hub,me,[| ledge(X,Y) |]).\n\
                 reach(X,Y) <- edge(X,Y).\n\
                 reach(X,Z) <- reach(X,Y), edge(Y,Z).\n",
            )
            .unwrap();
        sys.workspace_mut(hub)
            .unwrap()
            .load(
                "policy",
                &format!("says(me,{name},[| ledge(X,Y). |]) <- vedge(X,Y)."),
            )
            .unwrap();
    }
    sys.workspace_mut(hub)
        .unwrap()
        .assert_src("vedge(a,b). vedge(b,c). vedge(c,d).")
        .unwrap();
    sys.run_to_quiescence(16).unwrap();
    sys
}

/// Satellite (a): the three ledgers and the registry agree. The
/// engine-level guarantee `messages_sent == net.sent - net.dropped -
/// net.blackholed` must hold both between the stats structs and
/// between the registry counters a read writes from them.
#[test]
fn registry_reconciles_with_stats_ledgers() {
    let sys = fanout_system(1, 4);
    let stats = sys.stats();
    let net = sys.net_stats();
    assert_eq!(stats.messages_sent, net.sent - net.dropped - net.blackholed);

    let snap = sys.obs_registry().snapshot();
    assert_eq!(snap.counter("net.sent").unwrap(), net.sent as u64);
    assert_eq!(snap.counter("net.dropped").unwrap(), net.dropped as u64);
    assert_eq!(snap.counter("net.delivered").unwrap(), net.delivered as u64);
    assert_eq!(
        stats.messages_sent as u64,
        snap.counter("net.sent").unwrap() - snap.counter("net.dropped").unwrap()
    );
    // The read wrote the system gauges from the stats struct.
    assert_eq!(
        snap.gauge("system.messages_sent").unwrap(),
        stats.messages_sent as u64
    );
    assert_eq!(snap.gauge("system.steps").unwrap(), stats.steps as u64);
}

/// Satellite (a), durable half: `StoreStats::syncs` summed over stores
/// vs the registry's `store.syncs` counter, over persistent stores under
/// group commit.
#[test]
fn store_sync_counter_reconciles_with_fsyncs() {
    let dir = tmp_dir("syncs");
    let mut sys = System::open_persistent(&dir)
        .unwrap()
        .with_rsa_bits(512)
        .with_sync_policy(SyncPolicy::Batched);
    let alice = sys.add_principal("alice", "n1").unwrap();
    let bob = sys.add_principal("bob", "n2").unwrap();
    sys.workspace_mut(bob)
        .unwrap()
        .load(
            "policy",
            "access(P,f,read) <- says(alice,me,[| good(P) |]).",
        )
        .unwrap();
    let certs = sys
        .issue_certificates(alice, "good(carol). good(dave).", &[], None)
        .unwrap();
    sys.import_certificates(bob, certs).unwrap();
    sys.run_to_quiescence(16).unwrap();

    let snap = sys.obs_registry().snapshot();
    assert!(sys.fsyncs() > 0, "batched run must have group-committed");
    assert_eq!(snap.counter("store.syncs").unwrap(), sys.fsyncs());
    let imported: u64 = sys
        .principals()
        .iter()
        .map(|p| sys.cert_store(*p).unwrap().stats().imports)
        .sum();
    assert_eq!(snap.counter("store.imports").unwrap(), imported);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The registry is written when it is read, not when the system last
/// quiesced: an import and a revocation with no `run_to_quiescence`
/// after them already show in the `system.*` and store gauges.
#[test]
fn registry_is_current_without_quiescence() {
    let mut sys = System::new().with_rsa_bits(512);
    let alice = sys.add_principal("alice", "n1").unwrap();
    let bob = sys.add_principal("bob", "n2").unwrap();
    let certs = sys
        .issue_certificates(alice, "good(carol). good(dave).", &[], None)
        .unwrap();
    let revoked = certs[0].digest();
    sys.import_certificates(bob, certs).unwrap();
    sys.revoke_certificate(alice, revoked).unwrap();

    let snap = sys.obs_registry().snapshot();
    let stats = sys.stats();
    assert!(stats.certs_imported > 0 && stats.revocations > 0);
    assert_eq!(
        snap.gauge("system.certs_imported"),
        Some(stats.certs_imported as u64)
    );
    assert_eq!(
        snap.gauge("system.revocations"),
        Some(stats.revocations as u64)
    );
    let live: u64 = sys
        .principals()
        .iter()
        .map(|p| sys.cert_store(*p).unwrap().stats().live_bytes)
        .sum();
    assert!(live > 0);
    assert_eq!(snap.gauge("store.live_bytes"), Some(live));
}

/// Every `system.*`, `net.*`, `store.*` and `fault.injected.*` name a
/// persistent, fault-armed system shows after quiescence, with its kind:
/// renaming one, or turning a counter into a gauge, fails here.
#[test]
fn registry_names_and_kinds_are_pinned() {
    use lbtrust::certstore::FaultConfig;
    use lbtrust::obs::MetricValue;

    const SHOWN: &[&str] = &[
        "fault.injected.enospc volatile counter",
        "fault.injected.fsync_lie volatile counter",
        "fault.injected.io volatile counter",
        "fault.injected.torn volatile counter",
        "net.blackholed counter",
        "net.bytes_sent counter",
        "net.delayed counter",
        "net.delivered counter",
        "net.dropped counter",
        "net.duplicated counter",
        "net.reordered counter",
        "net.sent counter",
        "store.checkpoints counter",
        "store.compactions counter",
        "store.dead_bytes gauge",
        "store.expirations counter",
        "store.imports counter",
        "store.link_breaks counter",
        "store.live_bytes gauge",
        "store.quarantined volatile counter",
        "store.reimports counter",
        "store.replayed counter",
        "store.retries volatile counter",
        "store.revocations counter",
        "store.segments gauge",
        "store.syncs counter",
        "system.certs_imported gauge",
        "system.certs_replayed gauge",
        "system.dred_repairs gauge",
        "system.gossip_pulls gauge",
        "system.gossip_rounds gauge",
        "system.gossip_served gauge",
        "system.gossip_summaries gauge",
        "system.local_rollbacks gauge",
        "system.messages_accepted gauge",
        "system.messages_rejected gauge",
        "system.messages_sent gauge",
        "system.retraction_rebuilds gauge",
        "system.retractions gauge",
        "system.revocations gauge",
        "system.steps gauge",
    ];
    let dir = tmp_dir("names");
    let mut sys = System::open_persistent(&dir)
        .unwrap()
        .with_rsa_bits(512)
        .with_storage_faults(FaultConfig::uniform(3, 0));
    let alice = sys.add_principal("alice", "n1").unwrap();
    let bob = sys.add_principal("bob", "n2").unwrap();
    let certs = sys
        .issue_certificates(alice, "good(carol).", &[], None)
        .unwrap();
    sys.import_certificates(bob, certs).unwrap();
    sys.run_to_quiescence(16).unwrap();

    let full = sys.obs_registry().snapshot();
    let det = sys.obs_registry().deterministic_snapshot();
    let shown: Vec<String> = full
        .entries
        .iter()
        .filter(|(name, _)| {
            ["system.", "net.", "store.", "fault.injected."]
                .iter()
                .any(|prefix| name.starts_with(prefix))
        })
        .map(|(name, value)| {
            let kind = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let volatile = if det.entries.contains_key(name) {
                ""
            } else {
                "volatile "
            };
            format!("{name} {volatile}{kind}")
        })
        .collect();
    assert_eq!(shown, SHOWN);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Instrumentation must not perturb the engine: a serial and a sharded
/// run of the same workload produce identical deterministic snapshots,
/// and the wall-clock histograms (which legitimately differ) are
/// excluded from exactly that comparison.
#[test]
fn deterministic_snapshot_is_shard_invariant_and_excludes_timing() {
    let serial = fanout_system(1, 6);
    let sharded = fanout_system(4, 6);
    let a = serial.obs_registry().deterministic_snapshot();
    let b = sharded.obs_registry().deterministic_snapshot();
    assert_eq!(a, b, "serial and sharded deterministic snapshots diverge");

    // The full snapshot does carry timing; the deterministic one must not.
    let full = serial.obs_registry().snapshot();
    assert!(full.histogram("quiesce.step_ns").is_some());
    assert!(a.histogram("quiesce.step_ns").is_none());
    assert!(a.histogram("quiesce.fixpoint.shard0_ns").is_none());
}

/// Phase spans record when timing is on (the default) — per phase and
/// per shard — and stay silent when switched off.
#[test]
fn phase_timing_records_per_phase_and_per_shard() {
    let sys = fanout_system(2, 6);
    let timings = sys.obs_registry().timings();
    let count_of = |name: &str| {
        timings
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.count)
            .unwrap_or(0)
    };
    for name in [
        "quiesce.step_ns",
        "quiesce.fixpoint_ns",
        "quiesce.export_drain_ns",
        "quiesce.delivery_ns",
        "quiesce.group_commit_ns",
        "quiesce.fixpoint.shard0_ns",
        "quiesce.fixpoint.shard1_ns",
    ] {
        assert!(count_of(name) > 0, "no samples recorded for {name}");
    }

    let mut quiet = fanout_system(2, 4).with_phase_timing(false);
    let before = quiet.obs_registry().timings();
    quiet
        .workspace_mut(Principal::from("hub"))
        .unwrap()
        .assert_src("vedge(d,e).")
        .unwrap();
    quiet.run_to_quiescence(16).unwrap();
    let after = quiet.obs_registry().timings();
    for ((name, b), (_, a)) in before.iter().zip(after.iter()) {
        assert_eq!(b.count, a.count, "{name} recorded with timing disabled");
    }
}

/// The delivery phase says where its time went: five parts, one sample
/// each per step, that on one shard add up to no more than the phase —
/// and that are wall-clock like the phase, so the deterministic snapshot
/// (and with it serial = sharded) never sees them.
#[test]
fn delivery_time_is_attributed_to_its_parts() {
    const PARTS: [&str; 5] = ["decode", "verify", "assert", "evaluate", "merge"];
    let part_name = |part: &str| format!("quiesce.delivery.{part}_ns");
    let run = |shards: usize| {
        let mut sys = fanout_system(shards, 3);
        // A certificate imported everywhere and then revoked gives the
        // `verify` and `assert` parts (store transition, DRed repair)
        // something to do; the `says` chains above fed the other three.
        let hub = Principal::from("hub");
        let cert = sys
            .issue_certificate(hub, "good(carol).", &[], None)
            .unwrap();
        for i in 0..3 {
            let r = Principal::from(format!("r{i}").as_str());
            sys.import_certificates(r, vec![cert.clone()]).unwrap();
        }
        sys.run_to_quiescence(16).unwrap();
        sys.revoke_certificate(hub, cert.digest()).unwrap();
        sys.run_to_quiescence(16).unwrap();
        sys
    };
    let serial = run(1);
    let full = serial.obs_registry().snapshot();
    let phase = full.histogram("quiesce.delivery_ns").unwrap();
    let mut parts_sum = 0;
    for part in PARTS {
        let hist = full
            .histogram(&part_name(part))
            .unwrap_or_else(|| panic!("{part} is not recorded"));
        assert_eq!(hist.count, phase.count, "{part}: one sample per step");
        assert!(hist.sum > 0, "{part} never took any time");
        parts_sum += hist.sum;
    }
    assert!(
        parts_sum <= phase.sum,
        "parts {parts_sum} ns exceed the phase's {} ns",
        phase.sum
    );

    let sharded = run(2);
    let det = serial.obs_registry().deterministic_snapshot();
    assert_eq!(det, sharded.obs_registry().deterministic_snapshot());
    for part in PARTS {
        assert!(det.histogram(&part_name(part)).is_none());
    }

    let mut quiet = run(1).with_phase_timing(false);
    let before = quiet.obs_registry().snapshot();
    let hub = quiet.workspace_mut(Principal::from("hub")).unwrap();
    hub.assert_src("vedge(d,e).").unwrap();
    quiet.run_to_quiescence(16).unwrap();
    let after = quiet.obs_registry().snapshot();
    for part in PARTS {
        let name = part_name(part);
        assert_eq!(before.histogram(&name), after.histogram(&name), "{name}");
    }
}

/// The worker pool's own telemetry: a sharded run counts dispatched
/// tasks, publishes the per-worker fixpoint imbalance ratio, and keeps
/// both out of the deterministic snapshot — they are scheduling
/// artifacts, not engine outputs.
#[test]
fn pool_metrics_record_tasks_steals_and_imbalance() {
    let sharded = fanout_system(4, 6);
    let snap = sharded.obs_registry().snapshot();
    assert!(
        snap.counter("pool.tasks").unwrap() > 0,
        "a sharded run must dispatch work through the pool"
    );
    let ratio = snap.gauge("quiesce.imbalance_ratio").unwrap();
    assert!(
        ratio >= 1000,
        "max/mean busy time is at least 1.0 (got {ratio} per-mille)"
    );

    // The serial engine dispatches nothing through the pool.
    let serial = fanout_system(1, 6);
    let snap = serial.obs_registry().snapshot();
    assert_eq!(snap.counter("pool.tasks").unwrap(), 0);

    // Volatile by design: present in the full snapshot (above), but
    // excluded from the deterministic one — which is exactly what lets
    // deterministic snapshots stay shard-invariant.
    let det = sharded.obs_registry().deterministic_snapshot();
    assert!(det.counter("pool.tasks").is_none());
    assert!(det.gauge("quiesce.imbalance_ratio").is_none());
}

/// The fault plane's ledger: under partitions + loss + delay the
/// extended reconciliation invariant holds (`messages_sent ==
/// net.sent - net.dropped - net.blackholed`), the registry's network
/// counters equal the stats struct, degradation transitions are
/// journaled, and the fault/retry counters stay out of the
/// deterministic snapshot.
#[test]
fn fault_plane_ledger_reconciles_and_stays_volatile() {
    use lbtrust::certstore::FaultConfig;
    use lbtrust::StoreHealth;
    use lbtrust_net::{NetworkConfig, NodeId};

    let config = NetworkConfig {
        drop_prob: 0.2,
        delay_prob: 0.3,
        delay_steps_max: 2,
        reorder_prob: 0.2,
        ..NetworkConfig::default()
    };
    let mut sys = System::with_network(config, 5)
        .with_rsa_bits(512)
        .with_storage_faults(FaultConfig::uniform(5, 0));
    let ring = Arc::new(RingSink::new(32));
    sys.enable_decision_journal(ring.clone());
    let hub = sys.add_principal("hub", "n0").unwrap();
    let mut recs = Vec::new();
    for i in 0..3 {
        let name = format!("r{i}");
        let p = sys.add_principal(&name, &format!("m{i}")).unwrap();
        sys.workspace_mut(p)
            .unwrap()
            .load("policy", "edge(X,Y) <- says(hub,me,[| ledge(X,Y) |]).")
            .unwrap();
        sys.workspace_mut(hub)
            .unwrap()
            .load(
                "policy",
                &format!("says(me,{name},[| ledge(X,Y). |]) <- vedge(X,Y)."),
            )
            .unwrap();
        recs.push(p);
    }
    // Blackhole the hub's link to one receiver for the whole run.
    sys.network_mut()
        .partition(NodeId::new("n0"), NodeId::new("m2"), None);
    sys.workspace_mut(hub)
        .unwrap()
        .assert_src("vedge(a,b). vedge(b,c).")
        .unwrap();
    sys.run_to_quiescence(64).unwrap();

    let stats = sys.stats();
    let net = sys.net_stats();
    assert!(net.blackholed >= 1, "the partition must have eaten traffic");
    assert_eq!(
        stats.messages_sent,
        net.sent - net.dropped - net.blackholed,
        "the extended reconciliation invariant"
    );
    let snap = sys.obs_registry().snapshot();
    assert_eq!(
        snap.counter("net.blackholed").unwrap(),
        net.blackholed as u64
    );
    assert_eq!(snap.counter("net.delayed").unwrap(), net.delayed as u64);
    assert_eq!(snap.counter("net.reordered").unwrap(), net.reordered as u64);

    // Degradation transitions land in the journal …
    sys.fault_handle(recs[0]).unwrap().fail_persistently();
    let cert = sys
        .issue_certificate(hub, "good(carol).", &[], None)
        .unwrap();
    assert!(sys.import_certificates(recs[0], vec![cert]).is_err());
    assert_eq!(sys.store_health(recs[0]), StoreHealth::Quarantined);
    sys.fault_handle(recs[0]).unwrap().heal();
    sys.run_to_quiescence(64).unwrap();
    assert_eq!(sys.store_health(recs[0]), StoreHealth::Healthy);
    let kinds: Vec<String> = ring.events().iter().map(|e| e.kind.clone()).collect();
    assert!(kinds.contains(&"store.quarantined".to_string()));
    assert!(kinds.contains(&"store.healed".to_string()));

    // … and the fault/retry counters are volatile by design.
    let snap = sys.obs_registry().snapshot();
    assert!(snap.counter("store.retries").unwrap() >= 1);
    assert_eq!(snap.counter("store.quarantined").unwrap(), 1);
    assert!(snap.counter("fault.injected.io").unwrap() >= 1);
    let det = sys.obs_registry().deterministic_snapshot();
    for name in ["store.retries", "store.quarantined", "fault.injected.io"] {
        assert!(det.counter(name).is_none(), "{name} must stay volatile");
    }
}

/// The decision journal: `authorize` must grant exactly what the
/// workspace derives, cite the digests the audit trail attributes the
/// supporting certified rule to, and journal the same digests to the
/// attached sink.
#[test]
fn journaled_decisions_cite_audit_introducers() {
    let mut sys = System::new().with_rsa_bits(512);
    let ring = Arc::new(RingSink::new(16));
    sys.enable_decision_journal(ring.clone());

    let alice = sys.add_principal("alice", "n1").unwrap();
    let bob = sys.add_principal("bob", "n2").unwrap();
    sys.workspace_mut(bob)
        .unwrap()
        .load(
            "policy",
            "access(P,f,read) <- says(alice,me,[| good(P) |]).",
        )
        .unwrap();
    let certs = sys
        .issue_certificates(alice, "good(carol).", &[], None)
        .unwrap();
    sys.import_certificates(bob, certs).unwrap();
    sys.run_to_quiescence(16).unwrap();

    let granted = sys.authorize(bob, "access(carol,f,read)").unwrap();
    assert!(granted.granted);
    assert!(granted.proof.is_some());
    assert!(
        !granted.supporting.is_empty(),
        "a says-backed grant must cite its credentials"
    );
    let audited: Vec<String> = sys
        .audit_introducers(bob, "good(carol).")
        .unwrap()
        .iter()
        .map(|e| e.digest.to_hex())
        .collect();
    let cited: Vec<String> = granted.supporting.iter().map(|d| d.to_hex()).collect();
    for hex in &cited {
        assert!(audited.contains(hex), "cited digest {hex} unknown to audit");
    }

    let denied = sys.authorize(bob, "access(mallory,f,read)").unwrap();
    assert!(!denied.granted);
    assert!(denied.supporting.is_empty());

    // The sink saw both decisions, digests intact.
    let events = ring.events();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].kind, "authorize");
    let json = events[0].to_json();
    assert!(json.contains("\"granted\":true"));
    for hex in &cited {
        assert!(json.contains(hex.as_str()));
    }
    assert!(events[1].to_json().contains("\"granted\":false"));

    // Counter ledger: one grant, one denial.
    let snap = sys.obs_registry().snapshot();
    assert_eq!(snap.counter("authz.granted").unwrap(), 1);
    assert_eq!(snap.counter("authz.denied").unwrap(), 1);
}

/// The JSONL sink round-trips through a real file: one JSON object per
/// line, carrying the same digests the in-memory decision reported.
#[test]
fn jsonl_journal_round_trips_through_file() {
    use lbtrust::obs::JsonlSink;

    let dir = tmp_dir("jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("decisions.jsonl");
    let mut sys = System::new().with_rsa_bits(512);
    sys.enable_decision_journal(Arc::new(JsonlSink::create(&path).unwrap()));

    let alice = sys.add_principal("alice", "n1").unwrap();
    let bob = sys.add_principal("bob", "n2").unwrap();
    sys.workspace_mut(bob)
        .unwrap()
        .load(
            "policy",
            "access(P,f,read) <- says(alice,me,[| good(P) |]).",
        )
        .unwrap();
    let certs = sys
        .issue_certificates(alice, "good(carol).", &[], None)
        .unwrap();
    sys.import_certificates(bob, certs).unwrap();
    sys.run_to_quiescence(16).unwrap();

    let decision = sys.authorize(bob, "access(carol,f,read)").unwrap();
    assert!(decision.granted);
    drop(sys); // flush-on-drop

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1);
    assert!(lines[0].starts_with("{\"event\":\"authorize\""));
    assert!(lines[0].ends_with('}'));
    for d in &decision.supporting {
        assert!(lines[0].contains(&d.to_hex()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The journal fast path: a disabled journal records nothing and
/// reports itself disabled; a sink makes it live.
#[test]
fn journal_disabled_is_inert() {
    let journal = Journal::disabled();
    assert!(!journal.enabled());
    let ring = Arc::new(RingSink::new(4));
    let journal = Journal::to_sink(ring.clone());
    assert!(journal.enabled());
    journal.record(&lbtrust::obs::Event::new("x"));
    assert_eq!(ring.len(), 1);
}

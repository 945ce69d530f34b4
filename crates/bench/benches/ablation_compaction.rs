//! Experiment A11: the segmented log lifecycle. A store is churned
//! through `mult` rounds of import-then-revoke history (only the last
//! round's survivors stay live), then measured two ways:
//!
//! * **reopen_uncompacted** — `CertStore::open` replays the full
//!   history: cost grows with `mult`.
//! * **reopen_compacted** — the same store after `compact()`: replay is
//!   checkpoint + suffix, independent of `mult`.
//!
//! A `compaction` summary (disk footprint uncompacted vs compacted,
//! shrink factor, replayed record counts) is appended to
//! `target/criterion/summary.txt`, the artifact CI archives, alongside
//! the `StoreStats` observability counters (`segments` / `live_bytes`
//! / `dead_bytes` / `compactions` / `replayed_from_checkpoint`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lbtrust::certstore::backend::log::LogBackend;
use lbtrust::certstore::{shared_verify_cache, CertStore, LinkedCert};
use lbtrust::obs::{Registry, Report};
use lbtrust::System;
use lbtrust_bench::persist_line;
use std::path::{Path, PathBuf};

/// Certificates churned per history round.
const ROUND_CERTS: usize = 16;
/// Certificates of the final round left alive.
const SURVIVORS: usize = 4;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("bench-compaction-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench tmpdir");
    dir
}

/// Opens the store at `path` with the log's `storelog.*` metrics wired
/// before the opening replay, so the replay is measured.
fn open_observed(path: &Path, registry: &Registry) -> CertStore {
    let mut log = LogBackend::open(path).unwrap();
    log.attach_metrics(registry);
    CertStore::open_backend(Box::new(log), shared_verify_cache()).unwrap()
}

/// Issues `mult * ROUND_CERTS` distinct certificates (RSA-512 keys for
/// bench speed; replay cost is independent of key size).
fn issue_rounds(sys: &mut System, alice: lbtrust::Principal, mult: usize) -> Vec<Vec<LinkedCert>> {
    (0..mult)
        .map(|round| {
            let facts: String = (0..ROUND_CERTS)
                .map(|i| format!("good(r{round}p{i}). "))
                .collect();
            sys.issue_certificates(alice, &facts, &[], None).unwrap()
        })
        .collect()
}

/// Churns one store through the rounds: every round's certificates are
/// imported and (except the final round's survivors) revoked, with
/// clock ticks between rounds — the ≥90%-dead history the compactor
/// exists for. Returns the record-segment footprint in bytes.
fn churn(store: &mut CertStore, sys: &System, rounds: &[Vec<LinkedCert>]) -> u64 {
    let verifier = sys.key_verifier();
    let last = rounds.len() - 1;
    for (round, certs) in rounds.iter().enumerate() {
        for cert in certs {
            store.insert(cert.clone(), &verifier).unwrap();
        }
        let keep = if round == last { SURVIVORS } else { 0 };
        for cert in &certs[keep..] {
            // Issue a real signed revocation through the system's keys.
            let signing = lbtrust_net::revoke_signing_bytes(cert.issuer, cert.digest().as_bytes());
            let signature = {
                let guard = sys.keys().read();
                guard
                    .rsa(cert.issuer)
                    .unwrap()
                    .private
                    .sign(&signing)
                    .unwrap()
            };
            store
                .revoke(
                    &lbtrust::certstore::Revocation {
                        issuer: cert.issuer,
                        target: cert.digest(),
                        signature,
                    },
                    &verifier,
                )
                .unwrap();
        }
        store.advance_clock(1).unwrap();
    }
    store.sync().unwrap();
    let stats = store.stats();
    stats.live_bytes + stats.dead_bytes
}

fn compaction_lifecycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_compaction");
    group.sample_size(10);

    let mut sys = System::new().with_rsa_bits(512);
    let alice = sys.add_principal("alice", "n1").unwrap();

    // One registry across the sweep: the final reopens below route
    // their lifecycle spans (storelog.replay_ns, replayed bytes) here,
    // so BENCH_compaction.json carries a replay-phase breakdown.
    let registry = Registry::new();
    let mut report = Report::new("compaction")
        .note(
            "workload",
            &format!("{ROUND_CERTS} certs/round, {SURVIVORS} survivors, history swept 1x/4x/16x"),
        )
        .note(
            "cores",
            &std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_string(),
        );

    for &mult in &[1usize, 4, 16] {
        let dir = tmp_dir(&format!("hist{mult}"));
        let rounds = issue_rounds(&mut sys, alice, mult);

        // Uncompacted history.
        let path_u = dir.join("uncompacted.certlog");
        let bytes_u = {
            let mut store =
                CertStore::open_with_budget(&path_u, shared_verify_cache(), 8 * 1024).unwrap();
            churn(&mut store, &sys, &rounds)
        };

        // Identical history, compacted.
        let path_c = dir.join("compacted.certlog");
        let (bytes_c, stats_c) = {
            let mut store =
                CertStore::open_with_budget(&path_c, shared_verify_cache(), 8 * 1024).unwrap();
            churn(&mut store, &sys, &rounds);
            let report = store.compact().unwrap();
            assert!(report.performed);
            (report.bytes_after, store.stats())
        };

        group.bench_with_input(
            BenchmarkId::new("reopen_uncompacted", mult),
            &mult,
            |b, _| {
                b.iter(|| {
                    let store = CertStore::open(&path_u, shared_verify_cache()).unwrap();
                    assert_eq!(store.active_len(), SURVIVORS);
                    store.replay_report().records
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("reopen_compacted", mult), &mult, |b, _| {
            b.iter(|| {
                let store = CertStore::open(&path_c, shared_verify_cache()).unwrap();
                assert_eq!(store.active_len(), SURVIVORS);
                store.replay_report().records
            })
        });

        let replayed_u = open_observed(&path_u, &registry).replay_report().records;
        let reopened_c = open_observed(&path_c, &registry);
        let replayed_c = reopened_c.replay_report().records;
        assert!(reopened_c.replay_report().from_checkpoint);
        report = report
            .headline(
                &format!("shrink_factor_{mult}x"),
                bytes_u as f64 / bytes_c.max(1) as f64,
            )
            .headline(&format!("replayed_uncompacted_{mult}x"), replayed_u as f64)
            .headline(&format!("replayed_compacted_{mult}x"), replayed_c as f64);
        persist_line(&format!(
            "compaction history={mult:>2}x records {bytes_u:>8}B -> {bytes_c:>6}B ({:>4.1}x) \
             replayed {replayed_u:>4} -> {replayed_c} \
             [segments={} live={}B dead={}B compactions={} from_ckpt={}]",
            bytes_u as f64 / bytes_c.max(1) as f64,
            stats_c.segments,
            stats_c.live_bytes,
            stats_c.dead_bytes,
            stats_c.compactions,
            reopened_c.stats().replayed_from_checkpoint,
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();

    if let Err(e) = report.phases_from(&registry).write_at_repo_root() {
        eprintln!("[obs] BENCH_compaction.json not written: {e}");
    }
}

criterion_group!(benches, compaction_lifecycle);
criterion_main!(benches);

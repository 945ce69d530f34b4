//! Experiment A11: the concurrent authorization read front-end. A
//! hub-and-receivers deployment where 1/2/4/8 reader threads sweep a
//! goal pool through `AuthzReader::authorize` — lock-free over
//! atomically published snapshots, behind the versioned decision
//! cache — while the writer thread streams certificate imports and
//! revocations through repeated quiescence runs (each one publishing a
//! fresh snapshot and surgically invalidating the poisoned decisions).
//!
//! Headlines land in `BENCH_authz.json` at the repo root: `qps_N` for
//! each reader count (and their 4-vs-1 ratio, a number with no bar: the
//! hosts this runs on have never had a core per reader), the serial
//! `System::authorize` baseline, the decision-cache hit rate under the
//! revocation stream, what an uncached decision costs at 256 and at
//! 2 048 certificates — asserted flat, because a proof probes an index
//! with the goal's closed quote pattern instead of scanning the store —
//! and what the publish after one revocation costs at the same two sizes
//! — asserted flat too, because a snapshot shares the writer's storage
//! instead of cloning it (the publish after one *import* is recorded
//! beside it without a bar: it still re-extracts the audit trail's
//! introducer map, which is linear in the imports).

use criterion::{criterion_group, criterion_main, Criterion};
use lbtrust::certstore::CertDigest;
use lbtrust::obs::Report;
use lbtrust::{Principal, System};
use lbtrust_bench::persist_line;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Receivers importing the certificate pool (plus the issuing hub).
const RECEIVERS: usize = 4;
/// Certificates pre-issued at the hub; the revocation stream retires
/// them one per wave.
const POOL: usize = 128;
/// Subjects in the readers' goal sweep: a mix of certificates the
/// stream will kill and certificates that stay live (cache-friendly).
const GOAL_SUBJECTS: usize = 32;
/// Reader-thread counts swept.
const READERS: [usize; 4] = [1, 2, 4, 8];
/// Store sizes of the miss-cost section.
const MISS_STORES: [usize; 2] = [256, 2048];

/// Hub + receivers, every receiver holding the access policy and the
/// full certificate pool, quiesced and ready for the stream.
fn authz_system() -> (System, Principal, Vec<Principal>, Vec<CertDigest>) {
    deployment(RECEIVERS, POOL)
}

/// [`authz_system`] at any size.
fn deployment(
    receivers: usize,
    pool: usize,
) -> (System, Principal, Vec<Principal>, Vec<CertDigest>) {
    let mut sys = System::new().with_rsa_bits(512);
    let hub = sys.add_principal("hub", "n0").unwrap();
    let recs: Vec<Principal> = (0..receivers)
        .map(|i| {
            sys.add_principal(&format!("r{i}"), &format!("m{i}"))
                .unwrap()
        })
        .collect();
    let facts: String = (0..pool).map(|i| format!("good(p{i}). ")).collect();
    let certs = sys.issue_certificates(hub, &facts, &[], None).unwrap();
    let digests: Vec<CertDigest> = certs.iter().map(|c| c.digest()).collect();
    for &r in &recs {
        sys.workspace_mut(r)
            .unwrap()
            .load("policy", "access(P,f,read) <- says(hub,me,[| good(P) |]).")
            .unwrap();
        sys.import_certificates(r, certs.clone()).unwrap();
    }
    sys.run_to_quiescence(16).unwrap();
    (sys, hub, recs, digests)
}

/// One measured pass: `n` reader threads sweep the goal pool while the
/// writer streams revocations (and periodic fresh imports) for
/// `window`, publishing after every quiescence. Returns queries/sec.
fn reader_pass(n: usize, window: Duration) -> f64 {
    let (mut sys, hub, recs, digests) = authz_system();
    let reader = sys.authz_reader();
    let goals: Vec<String> = (0..GOAL_SUBJECTS)
        .map(|i| format!("access(p{i},f,read)"))
        .collect();
    let stop = AtomicBool::new(false);
    let queries = AtomicU64::new(0);

    let started = Instant::now();
    let elapsed = std::thread::scope(|scope| {
        for t in 0..n {
            let reader = reader.clone();
            let stop = &stop;
            let queries = &queries;
            let goals = &goals;
            let recs = &recs;
            scope.spawn(move || {
                let mut local = 0u64;
                let mut i = t; // offset so threads spread over the pool
                while !stop.load(Ordering::Relaxed) {
                    let r = recs[i % recs.len()];
                    let g = &goals[i % goals.len()];
                    reader.authorize(r, g).unwrap();
                    local += 1;
                    i += 1;
                }
                queries.fetch_add(local, Ordering::Relaxed);
            });
        }

        // The writer: one revocation per wave (a retraction-only window
        // for most publishes — the precise-invalidation path), a fresh
        // import every fourth wave (a version-bumping change), and a
        // snapshot publish at every quiescence.
        let mut wave = 0usize;
        while started.elapsed() < window && wave < digests.len() {
            sys.revoke_certificate(hub, digests[wave]).unwrap();
            if wave % 4 == 3 {
                let cert = sys
                    .issue_certificate(hub, &format!("good(x{wave})."), &[], None)
                    .unwrap();
                sys.import_certificates(recs[wave % recs.len()], vec![cert])
                    .unwrap();
            }
            sys.run_to_quiescence(16).unwrap();
            wave += 1;
        }
        let elapsed = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        elapsed
    });

    queries.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// The cache-facing pass: like `reader_pass` at 4 readers, but returns
/// the decision-cache hit rate accumulated over the whole stream.
fn cache_pass(window: Duration) -> f64 {
    let (mut sys, hub, recs, digests) = authz_system();
    let reader = sys.authz_reader();
    let goals: Vec<String> = (0..GOAL_SUBJECTS)
        .map(|i| format!("access(p{i},f,read)"))
        .collect();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let reader = reader.clone();
            let stop = &stop;
            let goals = &goals;
            let recs = &recs;
            scope.spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    reader
                        .authorize(recs[i % recs.len()], &goals[i % goals.len()])
                        .unwrap();
                    i += 1;
                }
            });
        }
        let mut wave = 0usize;
        while started.elapsed() < window && wave < digests.len() {
            sys.revoke_certificate(hub, digests[wave]).unwrap();
            sys.run_to_quiescence(16).unwrap();
            wave += 1;
        }
        stop.store(true, Ordering::Relaxed);
    });
    let snap = sys.obs_registry().snapshot();
    let hits = snap.counter("authz.cache_hits").unwrap_or(0) as f64;
    let misses = snap.counter("authz.cache_misses").unwrap_or(0) as f64;
    hits / (hits + misses).max(1.0)
}

/// Serial baseline: `System::authorize` (no cache, live workspaces)
/// sweeping the same goal pool single-threaded, no stream.
fn serial_pass(window: Duration) -> f64 {
    let (sys, _hub, recs, _digests) = authz_system();
    let goals: Vec<String> = (0..GOAL_SUBJECTS)
        .map(|i| format!("access(p{i},f,read)"))
        .collect();
    let started = Instant::now();
    let mut queries = 0u64;
    let mut i = 0usize;
    while started.elapsed() < window {
        sys.authorize(recs[i % recs.len()], &goals[i % goals.len()])
            .unwrap();
        queries += 1;
        i += 1;
    }
    queries as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// Microseconds per uncached decision over one receiver holding `certs`
/// certificates: `System::authorize` proves every goal afresh, grants
/// and denies alternating. The fastest of many equal chunks, because a
/// disturbance of the host only ever adds time.
fn miss_us(certs: usize) -> f64 {
    const CHUNK: usize = 64;
    let (sys, _hub, recs, _digests) = deployment(1, certs);
    let goals: Vec<String> = (0..CHUNK)
        .map(|i| match i % 2 {
            0 => format!("access(p{},f,read)", i * certs / CHUNK),
            _ => format!("access(q{i},f,read)"),
        })
        .collect();
    let chunk = || {
        let started = Instant::now();
        for (i, goal) in goals.iter().enumerate() {
            let granted = sys.authorize(recs[0], goal).unwrap().granted;
            assert_eq!(granted, i % 2 == 0, "{goal}");
        }
        started.elapsed().as_secs_f64() * 1e6 / CHUNK as f64
    };
    (0..48).map(|_| chunk()).fold(f64::INFINITY, f64::min)
}

/// Microseconds the publish at the end of a quiescence takes after one
/// certificate changed at a receiver holding `certs` of them: one
/// revocation per round, or one fresh import. Read from the system's own
/// `snapshot.publish_ns`; the fastest of the rounds, as for [`miss_us`].
/// A reader handle is open and asks once per round, as in every
/// deployment with a read path: it, not the publishing writer, is then
/// the last holder of the superseded generation and frees what that
/// alone held.
fn publish_us(certs: usize, import: bool) -> f64 {
    let (mut sys, hub, recs, digests) = deployment(1, certs);
    let reader = sys.authz_reader();
    let published_ns = |sys: &System| {
        let snap = sys.obs_registry().snapshot();
        snap.histogram("snapshot.publish_ns").map_or(0, |h| h.sum)
    };
    let mut round = |i: usize| {
        if import {
            let fact = format!("good(z{i}).");
            let cert = sys.issue_certificate(hub, &fact, &[], None).unwrap();
            sys.import_certificates(recs[0], vec![cert]).unwrap();
        } else {
            sys.revoke_certificate(hub, digests[i]).unwrap();
        }
        let before = published_ns(&sys);
        sys.run_to_quiescence(16).unwrap();
        let spent = published_ns(&sys) - before;
        reader.authorize(recs[0], "access(p0,f,read)").unwrap();
        spent as f64 / 1e3
    };
    (0..48).map(&mut round).fold(f64::INFINITY, f64::min)
}

fn authz_read_path(_c: &mut Criterion) {
    // The sweep is self-timed (threads + a duration window don't fit
    // the shim's iteration loop); `--test` shrinks the window so CI's
    // bench-smoke exercises every path quickly.
    let smoke = std::env::args().any(|a| a == "--test");
    let window = if smoke {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(600)
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut qps: Vec<(usize, f64)> = Vec::new();
    for &n in &READERS {
        let rate = reader_pass(n, window);
        persist_line(&format!(
            "authz-read readers={n} {rate:>12.0} qps under revocation stream ({cores} cores)"
        ));
        qps.push((n, rate));
    }
    let qps_at = |n: usize| qps.iter().find(|(k, _)| *k == n).map_or(0.0, |(_, q)| *q);
    let scaling_4 = qps_at(4) / qps_at(1).max(1e-9);

    let hit_rate = cache_pass(window);
    let qps_serial = serial_pass(window);
    persist_line(&format!(
        "authz-read serial baseline {qps_serial:>12.0} qps, cache hit rate {:.1}% over stream",
        hit_rate * 100.0
    ));

    persist_line(&format!("authz-read scaling 4v1 {scaling_4:.2}x"));

    // Miss cost vs store size: eight times the certificates must not
    // cost twice the proof (it cost 6.95x while a miss scanned them).
    let [miss_256, miss_2048] = MISS_STORES.map(miss_us);
    let miss_ratio = miss_2048 / miss_256.max(1e-9);
    persist_line(&format!(
        "authz-read miss {miss_256:.1} us at 256 certs, {miss_2048:.1} us at 2048 ({miss_ratio:.2}x)"
    ));
    assert!(
        miss_ratio < 2.0,
        "an uncached decision must not grow with the store: {miss_256:.1} us at 256 \
         certificates, {miss_2048:.1} us at 2048 ({miss_ratio:.2}x)"
    );

    // Publish cost vs store size: what one revoked certificate makes the
    // next publish cost must not follow the store either (it cloned the
    // receiver's database, ground-head index and introducer map).
    let [publish_256, publish_2048] = MISS_STORES.map(|certs| publish_us(certs, false));
    let publish_ratio = publish_2048 / publish_256.max(1e-9);
    let [import_256, import_2048] = MISS_STORES.map(|certs| publish_us(certs, true));
    persist_line(&format!(
        "authz-read publish after one revocation {publish_256:.1} us at 256 certs, \
         {publish_2048:.1} us at 2048 ({publish_ratio:.2}x); after one import \
         {import_256:.1} / {import_2048:.1} us"
    ));
    assert!(
        publish_ratio < 3.0,
        "a publish after one revocation must not grow with the store: {publish_256:.1} us \
         at 256 certificates, {publish_2048:.1} us at 2048 ({publish_ratio:.2}x)"
    );

    let mut report = Report::new("authz")
        .headline("qps_serial", qps_serial)
        .headline("scaling_4v1", scaling_4)
        .headline("cache_hit_rate", hit_rate)
        .headline("miss_us_256", miss_256)
        .headline("miss_us_2048", miss_2048)
        .headline("miss_ratio_2048v256", miss_ratio)
        .headline("publish_us_256", publish_256)
        .headline("publish_us_2048", publish_2048)
        .headline("publish_ratio_2048v256", publish_ratio)
        .headline("publish_import_us_256", import_256)
        .headline("publish_import_us_2048", import_2048)
        .note(
            "workload",
            &format!(
                "{RECEIVERS} receivers x {GOAL_SUBJECTS} goals, {POOL}-cert pool retired \
                 one per wave with periodic fresh imports, publish every quiescence"
            ),
        )
        .note("cores", &cores.to_string())
        .note("window_ms", &window.as_millis().to_string());
    for (n, rate) in &qps {
        report = report.headline(&format!("qps_{n}"), *rate);
    }
    if let Err(e) = report.write_at_repo_root() {
        eprintln!("[obs] BENCH_authz.json not written: {e}");
    }
}

criterion_group!(benches, authz_read_path);
criterion_main!(benches);

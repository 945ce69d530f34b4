//! `authz_cold` and `authz_hot` — the two sides of the decision cache.
//! Both build a hub that issues `good(P)` certificates and receivers
//! whose policy grants `access(P,f,read)` on the hub's word.
//!
//! `authz_cold` asks every (receiver, goal) pair exactly once, so every
//! decision is a cache miss proved against the snapshot: the uncached
//! cost. `authz_hot` sweeps a key set far inside the cache from a reader
//! thread while the main thread revokes and imports on a schedule: the
//! cached cost, beside a writer.

use crate::gen::{self, Rng};
use crate::harness::{fnv1a, timed, Ctx, Outcome};
use crate::span::Tracer;
use crate::stats::{self, LatencyHistogram};
use lbtrust::certstore::{CertDigest, LinkedCert};
use lbtrust::{AuthzReader, Principal, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// The receivers' policy: grant on `issuer`'s certified word.
pub fn policy(issuer: &str) -> String {
    format!("access(P,f,read) <- says({issuer},me,[| good(P) |]).")
}

/// The reader's verdict on `goal`, `None` when the call errored.
pub fn ask(reader: &AuthzReader, who: Principal, goal: &str) -> Option<bool> {
    reader.authorize(who, goal).ok().map(|v| v.granted)
}

/// A quiesced hub-and-receivers deployment: every receiver holds the
/// policy and every certificate.
pub struct Deployment {
    pub sys: System,
    pub hub: Principal,
    pub receivers: Vec<Principal>,
    /// Certified subjects, and the digest of each one's certificate.
    pub subjects: Vec<String>,
    pub digests: Vec<CertDigest>,
    pub reader: AuthzReader,
    /// What signing the certificates took, when this deployment did it.
    pub issuing: Duration,
}

/// Builds a [`Deployment`] under spans; all of it is set-up time. The
/// hub signs `good(<subject>)` certificates only when `certs` is empty:
/// every `System` regenerates the same keys, so a run issues once and
/// its later rounds import the same certificates again. Signing is
/// therefore left out of every round's set-up time (`issuing` says how
/// long it took; `core.system.issue_us` is its per-layer number).
pub fn deploy(
    mut sys: System,
    tr: &mut Tracer,
    op: u64,
    receivers: usize,
    subjects: &[String],
    certs: &mut Vec<LinkedCert>,
) -> Deployment {
    let hub = tr
        .call("add_principal", op, || sys.add_principal("hub", "n0"))
        .expect("hub registers");
    let receivers: Vec<Principal> = (0..receivers)
        .map(|i| {
            tr.call("add_principal", op, || {
                sys.add_principal(&format!("r{i}"), &format!("m{i}"))
            })
            .expect("receiver registers")
        })
        .collect();
    let mut issuing = Duration::ZERO;
    if certs.is_empty() {
        let (issued, took) = timed(|| {
            tr.call("issue_certificates", op, || {
                sys.issue_certificates(hub, &gen::good_facts(subjects), &[], None)
            })
        });
        *certs = issued.expect("hub issues");
        issuing = took;
    }
    let digests = certs.iter().map(|c| c.digest()).collect();
    for &r in &receivers {
        tr.call("load", op, || sys.load_program(r, "policy", &policy("hub")))
            .expect("policy loads");
        tr.call("import_certificates", op, || {
            sys.import_certificates(r, certs.clone())
        })
        .expect("receiver imports");
    }
    tr.call("run_to_quiescence", op, || sys.run_to_quiescence(16))
        .expect("deployment quiesces");
    let reader = tr.call("publish_authz_snapshot", op, || sys.authz_reader());
    Deployment {
        sys,
        hub,
        receivers,
        subjects: subjects.to_vec(),
        digests,
        reader,
        issuing,
    }
}

// ---- authz_cold ------------------------------------------------------------

const COLD_RECEIVERS: usize = 4;
/// Certificates per receiver. A miss is proved against the whole store,
/// so its cost is linear in this.
const COLD_CERTS: usize = 2048;
/// Fresh deployments per run at the nominal run length: set-up is timed
/// this often.
const COLD_ROUNDS: usize = 3;
/// Reader chunks per round: 3 × 176 × 8 = 4 224 decisions, 42 beyond p99.
const COLD_CHUNKS: usize = 176;
/// Chunks per round asked of `System::authorize`, the serial path.
const COLD_SERIAL_CHUNKS: usize = 80;
/// Queries per chunk, the unit of work (≈8 ms). Every chunk has the
/// same mix — six grants, one unknown subject, one `write` goal — so
/// chunks differ only by which keys and are like for like.
const COLD_CHUNK: usize = 8;

pub fn cold(ctx: &mut Ctx) -> Outcome {
    let rounds = ctx.scaled(COLD_ROUNDS, 1);
    cold_sized(ctx, COLD_CERTS, rounds, COLD_CHUNKS, COLD_SERIAL_CHUNKS)
}

/// One query of the cold sweep and the verdict the generator expects.
struct Query {
    receiver: usize,
    goal: String,
    grant: bool,
}

/// `n` distinct (receiver, goal) pairs in seeded order: of every eight,
/// six are grants, one asks about an unknown subject and one asks for
/// the ungranted `write` mode.
fn cold_queries(rng: &mut Rng, subjects: &[String], receivers: usize, n: usize) -> Vec<Query> {
    let mut pairs: Vec<(usize, usize)> = (0..receivers)
        .flat_map(|r| (0..subjects.len()).map(move |s| (r, s)))
        .collect();
    rng.shuffle(&mut pairs);
    let strangers = gen::subjects(rng, 'u', n);
    pairs
        .into_iter()
        .take(n)
        .enumerate()
        .map(|(i, (receiver, s))| match i % 8 {
            3 => Query {
                receiver,
                goal: gen::read_goal(&strangers[i]),
                grant: false,
            },
            7 => Query {
                receiver,
                goal: format!("access({},f,write)", subjects[s]),
                grant: false,
            },
            _ => Query {
                receiver,
                goal: gen::read_goal(&subjects[s]),
                grant: true,
            },
        })
        .collect()
}

pub fn cold_sized(
    ctx: &mut Ctx,
    certs: usize,
    rounds: usize,
    chunks: usize,
    serial_chunks: usize,
) -> Outcome {
    let mut out = Outcome::default();
    let mut latency_ms = Vec::with_capacity(rounds * chunks * COLD_CHUNK);
    let mut chunk_s = Vec::with_capacity(rounds * chunks);
    let mut serial_chunk_s = Vec::with_capacity(rounds * serial_chunks);
    let subjects = gen::subjects(&mut Rng::new(ctx.seed, u64::MAX), 's', certs);
    let mut issued = Vec::new();

    for round in 0..rounds as u64 {
        let round_start = Instant::now();
        let mut rng = Rng::new(ctx.seed, round);
        let asked = ((chunks + serial_chunks) * COLD_CHUNK).min(COLD_RECEIVERS * certs);
        let plan = cold_queries(&mut rng, &subjects, COLD_RECEIVERS, asked);
        for q in &plan {
            out.inputs_fnv = fnv1a(out.inputs_fnv, q.goal.as_bytes());
            out.inputs_fnv = fnv1a(out.inputs_fnv, &[q.receiver as u8, q.grant as u8]);
        }
        let sys = ctx.system();
        let tr = &mut ctx.tracer;
        tr.enter("round", round);
        let d = deploy(sys, tr, round, COLD_RECEIVERS, &subjects, &mut issued);
        let mut in_timed = d.issuing;
        let (for_reader, for_serial) = plan.split_at(plan.len().min(chunks * COLD_CHUNK));

        // One closed-loop client; every key is new to the cache.
        tr.enter("sweep", round);
        for chunk in for_reader.chunks(COLD_CHUNK) {
            let (answers, took) = timed(|| {
                chunk
                    .iter()
                    .map(|q| {
                        let asked = Instant::now();
                        let granted = tr.call("AuthzReader::authorize", round, || {
                            ask(&d.reader, d.receivers[q.receiver], &q.goal)
                        });
                        (asked.elapsed().as_secs_f64() * 1e3, granted)
                    })
                    .collect::<Vec<_>>()
            });
            chunk_s.push(took.as_secs_f64() / chunk.len() as f64);
            in_timed += took;
            for (q, (ms, granted)) in chunk.iter().zip(answers) {
                latency_ms.push(ms);
                out.checks.op(granted == Some(q.grant), || {
                    format!("{} expected grant={} got {granted:?}", q.goal, q.grant)
                });
            }
        }
        tr.exit();

        // The same question put to the serial path, which has no cache.
        tr.enter("serial sweep", round);
        for chunk in for_serial.chunks(COLD_CHUNK) {
            let (answers, took) = timed(|| {
                chunk
                    .iter()
                    .map(|q| {
                        let decision = tr.call("System::authorize", round, || {
                            d.sys.authorize(d.receivers[q.receiver], &q.goal)
                        });
                        decision.ok().map(|v| v.granted)
                    })
                    .collect::<Vec<_>>()
            });
            serial_chunk_s.push(took.as_secs_f64() / chunk.len() as f64);
            in_timed += took;
            for (q, granted) in chunk.iter().zip(answers) {
                out.checks.op(granted == Some(q.grant), || {
                    format!(
                        "serial {} expected grant={} got {granted:?}",
                        q.goal, q.grant
                    )
                });
            }
        }
        tr.exit();

        out.absorb_system(&d.sys);
        tr.call("drop", round, || drop(d));
        tr.exit();
        out.round(round_start, in_timed);
    }

    out.finish_layers();
    if out.layer["core.authz_read.hit_rate"] >= 0.01 {
        out.checks.fail(format!(
            "cold sweep hit the decision cache: hit rate {}",
            out.layer["core.authz_read.hit_rate"]
        ));
    }
    let n = latency_ms.len() as u64;
    for (name, value) in [
        ("authz_qps", 1.0 / stats::median(&chunk_s)),
        ("authz_qps_best", 1.0 / stats::best(&chunk_s)),
        ("authz_ms_p50", stats::percentile(&latency_ms, 0.5)),
        ("authz_serial_ms_p50", stats::median(&serial_chunk_s) * 1e3),
        ("authz_serial_ms_best", stats::best(&serial_chunk_s) * 1e3),
    ] {
        out.e2e.insert(name, value);
    }
    if stats::tail_percentile(n).is_some_and(|p| p >= 0.99) {
        out.e2e
            .insert("authz_ms_p99", stats::percentile(&latency_ms, 0.99));
    }
    out.samples.insert("authz_qps", chunk_s.len() as u64);
    out.samples.insert("authz_ms_p50", n);
    out.samples
        .insert("authz_serial_ms_p50", serial_chunk_s.len() as u64);
    out
}

// ---- authz_hot -------------------------------------------------------------

const HOT_RECEIVERS: usize = 4;
/// Half the issue's 512, at twice its waves and half its period: a wave
/// is the unit of work here, its cost is linear in this, and the
/// least-disturbed-unit rule needs a hundred short ones.
const HOT_CERTS: usize = 256;
/// Subjects in the reader's sweep: 64 × 4 receivers = 256 keys, far
/// inside the 16 × 1 024-entry decision cache.
const HOT_GOAL_SUBJECTS: usize = 64;
/// Fresh deployments per run at the nominal run length, each with its
/// own stream of waves: set-up is timed this often.
const HOT_ROUNDS: usize = 4;
/// The writer's schedule: one wave every `HOT_WAVE_EVERY`.
const HOT_WAVES: usize = 32;
const HOT_WAVE_EVERY: Duration = Duration::from_millis(75);
/// Sweeps of the key set between two looks at the stop flag, and per
/// span of the traced run (32 768 decisions).
const HOT_SWEEPS_PER_BATCH: usize = 128;

pub fn hot(ctx: &mut Ctx) -> Outcome {
    let rounds = ctx.scaled(HOT_ROUNDS, 1);
    hot_sized(ctx, HOT_CERTS, rounds, HOT_WAVES, HOT_WAVE_EVERY)
}

/// Where the revocation of a swept subject stands. The writer moves it
/// forward with `Release` stores, after the step it names; the reader
/// looks with an `Acquire` load before it asks, so a reader that sees
/// `ENFORCED` asks after the publish.
const LIVE: u8 = 0;
/// `revoke_certificate` has been called: either verdict is right.
const REVOKING: u8 = 1;
/// `run_to_quiescence` has returned, so the revocation is published: a
/// grant from here on is a stale grant.
const ENFORCED: u8 = 2;

/// What the reader thread brings back.
struct ReaderReport {
    decisions: u64,
    sweeping: Duration,
    wrong: u64,
    /// Grants of a subject whose revocation was already published.
    stale: u64,
    reasons: Vec<String>,
    tracer: Tracer,
    /// Per-call latency of every sixteenth sweep, filled in the traced
    /// run only: two clock reads cost as much as the call they time.
    latency_ns: LatencyHistogram,
}

/// The closed-loop reader: sweeps `goals` × `receivers` until told to
/// stop, adding each sweep's decisions to `progress`. A live subject
/// must be granted, an enforced revocation denied.
fn sweep_until(
    stop: &AtomicBool,
    reader: &AuthzReader,
    receivers: &[Principal],
    goals: &[(String, AtomicU8)],
    progress: &AtomicU64,
    tracer: Tracer,
) -> ReaderReport {
    let timed_calls = tracer.enabled();
    let mut rep = ReaderReport {
        decisions: 0,
        sweeping: Duration::ZERO,
        wrong: 0,
        stale: 0,
        reasons: Vec::new(),
        tracer,
        latency_ns: LatencyHistogram::default(),
    };
    let started = Instant::now();
    let mut batch = 0u64;
    while !stop.load(Ordering::Relaxed) {
        // One span per batch of sweeps: a span per call would be tens
        // of millions of spans.
        rep.tracer.enter("AuthzReader::authorize x batch", batch);
        for sweep in 0..HOT_SWEEPS_PER_BATCH {
            for (goal, state) in goals {
                let before = state.load(Ordering::Acquire);
                for &r in receivers {
                    let asked = (timed_calls && sweep % 16 == 0).then(Instant::now);
                    let granted = ask(reader, r, goal);
                    if let Some(asked) = asked {
                        rep.latency_ns.record(asked.elapsed().as_nanos() as u64);
                    }
                    match (before, granted) {
                        (LIVE, Some(true)) | (REVOKING, Some(_)) | (ENFORCED, Some(false)) => {}
                        (ENFORCED, Some(true)) => rep.stale += 1,
                        // A deny of a subject that was live when asked is
                        // right only if its revocation began meanwhile.
                        (LIVE, Some(false)) if state.load(Ordering::Acquire) != LIVE => {}
                        _ => {
                            rep.wrong += 1;
                            if rep.reasons.len() < 4 {
                                rep.reasons
                                    .push(format!("{goal} at {r} in state {before}: {granted:?}"));
                            }
                        }
                    }
                }
            }
            // A statistic the writer reads: it publishes nothing else.
            progress.fetch_add((goals.len() * receivers.len()) as u64, Ordering::Relaxed);
        }
        rep.tracer.exit();
        batch += 1;
    }
    rep.sweeping = started.elapsed();
    rep.decisions = batch * (HOT_SWEEPS_PER_BATCH * goals.len() * receivers.len()) as u64;
    rep
}

pub fn hot_sized(
    ctx: &mut Ctx,
    certs: usize,
    rounds: usize,
    waves: usize,
    every: Duration,
) -> Outcome {
    let mut out = Outcome::default();
    let mut to_deny_ms = Vec::new();
    let mut in_wave_qps = Vec::new();
    let mut late_ms = Vec::new();
    let (mut decisions, mut sweeping_s, mut stale) = (0u64, 0.0, 0u64);
    let mut reader_latency = LatencyHistogram::default();
    let goal_subjects = HOT_GOAL_SUBJECTS.min(certs / 2);
    let waves = waves
        .min(2 * goal_subjects)
        .min(2 * (certs - goal_subjects));
    let subjects = gen::subjects(&mut Rng::new(ctx.seed, u64::MAX), 's', certs);
    let mut issued = Vec::new();

    for round in 0..rounds as u64 {
        let round_start = Instant::now();
        let mut rng = Rng::new(ctx.seed, round);
        let fresh = gen::subjects(&mut rng, 'x', waves);
        // The first `goal_subjects` are the reader's. Even waves revoke
        // one of them, so precise invalidation runs on a key the reader
        // is asking for; odd waves revoke among the rest. Both in seeded
        // order.
        let swept = gen::order(&mut rng, goal_subjects);
        let unswept = gen::order(&mut rng, certs - goal_subjects);
        let victims: Vec<usize> = (0..waves)
            .map(|w| match w % 2 {
                0 => swept[w / 2],
                _ => goal_subjects + unswept[w / 2],
            })
            .collect();
        for v in &victims {
            out.inputs_fnv = fnv1a(out.inputs_fnv, subjects[*v].as_bytes());
        }

        let sys = ctx.system();
        let tr = &mut ctx.tracer;
        let reader_tracer = tr.sibling();
        tr.enter("round", round);
        let mut d = deploy(sys, tr, round, HOT_RECEIVERS, &subjects, &mut issued);
        let goals: Vec<(String, AtomicU8)> = d.subjects[..goal_subjects]
            .iter()
            .map(|s| (gen::read_goal(s), AtomicU8::new(LIVE)))
            .collect();
        let stop = AtomicBool::new(false);
        let progress = AtomicU64::new(0);
        let probe = d.reader.clone();
        let last = *d.receivers.last().expect("receivers");

        tr.enter("stream", round);
        let stream_start = Instant::now();
        let report = std::thread::scope(|scope| {
            let reader = d.reader.clone();
            let (goals, receivers, stop, progress) = (&goals, &d.receivers, &stop, &progress);
            let handle = scope.spawn(move || {
                sweep_until(stop, &reader, receivers, goals, progress, reader_tracer)
            });

            // The open-loop writer: wave w is due at w × `every`
            // whatever the previous wave took.
            for (w, &victim) in victims.iter().enumerate() {
                let op = round << 32 | w as u64;
                let goal = gen::read_goal(&d.subjects[victim]);
                let state = goals.get(victim).map(|(_, state)| state);
                if state.is_none() {
                    // Ahead of the wave, cache the grant the revocation
                    // must take back at every receiver (the reader does
                    // that itself for a swept subject): the probe below
                    // only denies if precise invalidation removed it.
                    for &r in &d.receivers {
                        let cached = ask(&probe, r, &goal);
                        out.checks.op(cached == Some(true), || {
                            format!("wave {w}: {goal} at {r} before revocation: {cached:?}")
                        });
                    }
                }
                let due = stream_start + every * w as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let (wave_start, decided_before) =
                    (Instant::now(), progress.load(Ordering::Relaxed));
                tr.enter("wave", op);
                if let Some(state) = state {
                    state.store(REVOKING, Ordering::Release);
                }
                let revoked = tr.call("revoke_certificate", op, || {
                    d.sys.revoke_certificate(d.hub, d.digests[victim])
                });
                // Every fourth wave also imports a fresh certificate at
                // one receiver: a version bump, which orphans that
                // receiver's cached decisions wholesale.
                let imported = (w % 4 == 3).then(|| {
                    let at = d.receivers[w % d.receivers.len()];
                    let cert = tr.call("issue_certificates", op, || {
                        d.sys
                            .issue_certificate(d.hub, &format!("good({}).", fresh[w]), &[], None)
                    });
                    let done = cert.and_then(|c| {
                        tr.call("import_certificates", op, || {
                            d.sys.import_certificates(at, vec![c])
                        })
                    });
                    (at, gen::read_goal(&fresh[w]), done.is_ok())
                });
                let quiesced = tr.call("run_to_quiescence", op, || d.sys.run_to_quiescence(16));
                let verdict = tr.call("AuthzReader::authorize", op, || ask(&probe, last, &goal));
                // Timed from when the wave was due, so a writer that
                // falls behind shows as latency, not as a lighter load.
                to_deny_ms.push(due.elapsed().as_secs_f64() * 1e3);
                // What the reader got done while this wave was in flight:
                // invalidation, publish and version bump included.
                let decided = progress.load(Ordering::Relaxed) - decided_before;
                in_wave_qps.push(decided as f64 / wave_start.elapsed().as_secs_f64());
                tr.exit();
                if let Some(state) = state {
                    state.store(ENFORCED, Ordering::Release);
                }
                // Beside a running reader a swept subject's grant can
                // outlive the publish (see the README's "A defect this
                // found"): that one outcome is counted on its own, as
                // `core.authz_read.stale_grants`, not as a failure.
                let known_stale = state.is_some() && verdict == Some(true);
                stale += u64::from(known_stale);
                let ok =
                    revoked.is_ok() && quiesced.is_ok() && (verdict == Some(false) || known_stale);
                out.checks.op(ok, || {
                    format!(
                        "wave {w}: revoke {revoked:?}, quiesce ok={}, probe {verdict:?}",
                        quiesced.is_ok()
                    )
                });
                if let Some((at, goal, imported)) = imported {
                    let seen = ask(&probe, at, &goal);
                    out.checks.op(imported && seen == Some(true), || {
                        format!("wave {w}: fresh import ok={imported}, probe {seen:?}")
                    });
                }
            }
            stop.store(true, Ordering::Relaxed);
            handle.join().expect("reader thread")
        });
        // The whole stream is the timed region.
        let in_timed = stream_start.elapsed() + d.issuing;
        tr.exit();

        out.checks.attempted += report.decisions;
        out.checks.failed += report.wrong;
        out.checks.reasons.extend(report.reasons);
        decisions += report.decisions;
        sweeping_s += report.sweeping.as_secs_f64();
        stale += report.stale;
        tr.absorb(report.tracer);
        reader_latency.absorb(&report.latency_ns);
        out.absorb_system(&d.sys);
        tr.call("drop", round, || drop(d));
        tr.exit();
        out.round(round_start, in_timed);
    }

    for (name, value) in [
        ("authz_qps", decisions as f64 / sweeping_s),
        (
            "authz_qps_best",
            in_wave_qps.iter().copied().fold(0.0, f64::max),
        ),
        ("revoke_to_deny_ms_p50", stats::median(&to_deny_ms)),
        ("revoke_to_deny_ms_best", stats::best(&to_deny_ms)),
    ] {
        out.e2e.insert(name, value);
    }
    out.samples.insert("authz_qps", decisions);
    out.samples
        .insert("revoke_to_deny_ms_p50", to_deny_ms.len() as u64);
    out.add_layer("core.authz_read.stale_grants", stale as f64);
    out.add_layer(
        "core.authz_read.writer_late_ms_p50",
        stats::median(&late_ms),
    );
    if reader_latency.count() > 0 {
        out.add_layer(
            "core.authz_read.stall_us_p9999",
            reader_latency.percentile(0.9999) / 1e3,
        );
    }
    out
}

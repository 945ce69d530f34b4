//! `revoke_fanout` — the delete path: a hub revokes certificates one at
//! a time and each revocation is timed from the `revoke_certificate`
//! call, through `run_to_quiescence` (Revoke packets to every receiver,
//! store tombstones, DRed retraction, snapshot publish), to the first
//! `AuthzReader::authorize` on the last-registered receiver that
//! denies. The `fig2_*` workloads only ever insert; a gain for inserts
//! that costs retraction shows here. After each revocation a fresh
//! certificate takes the revoked one's place at every receiver, timed
//! too (the insert path at the same fan-out), so every revocation meets
//! the same number of live certificates and the samples are like for
//! like.

use super::authz::{ask, deploy, Deployment};
use crate::gen::{self, Rng};
use crate::harness::{fnv1a, timed, Ctx, Outcome};
use crate::span::Tracer;
use crate::stats;
use lbtrust::certstore::CertDigest;
use lbtrust::{AuthzReader, Principal, System};
use std::time::{Duration, Instant};

const RECEIVERS: usize = 8;
/// Live certificates per receiver; a revocation's cost is linear in it.
const CERTS: usize = 256;
/// Fresh deployments per run at the nominal run length: set-up is timed
/// this often.
const ROUNDS: usize = 4;
/// Revocations per round: 4 × 26 = 104 samples, 10 beyond p90.
const REVOCATIONS: usize = 26;

pub fn run(ctx: &mut Ctx) -> Outcome {
    let rounds = ctx.scaled(ROUNDS, 1);
    run_sized(ctx, RECEIVERS, CERTS, rounds, REVOCATIONS)
}

/// One certificate to revoke and where to look for the deny.
pub struct Revoke<'a> {
    pub issuer: Principal,
    pub digest: CertDigest,
    pub reader: &'a AuthzReader,
    pub at: Principal,
    pub goal: &'a str,
}

/// Revokes one certificate and waits for the deny: the time from the
/// `revoke_certificate` call to the probe's answer, and whether that
/// answer was the deny a published revocation requires.
pub fn revoke_to_deny(
    sys: &mut System,
    tr: &mut Tracer,
    op: u64,
    r: Revoke<'_>,
) -> (Duration, Result<(), String>) {
    let ((revoked, quiesced, verdict), took) = timed(|| {
        tr.enter("revocation", op);
        let revoked = tr.call("revoke_certificate", op, || {
            sys.revoke_certificate(r.issuer, r.digest)
        });
        let quiesced = tr.call("run_to_quiescence", op, || sys.run_to_quiescence(16));
        let verdict = tr.call("AuthzReader::authorize", op, || ask(r.reader, r.at, r.goal));
        tr.exit();
        (revoked, quiesced, verdict)
    });
    let ok = match (revoked, quiesced, verdict) {
        (Ok(()), Ok(_), Some(false)) => Ok(()),
        (Ok(()), Ok(_), Some(true)) => Err(format!("stale grant of {} after publish", r.goal)),
        (revoked, quiesced, verdict) => Err(format!(
            "revoke {revoked:?}, quiesce ok={}, probe {verdict:?}",
            quiesced.is_ok()
        )),
    };
    (took, ok)
}

/// Books the revoke-to-deny samples of a run: the fastest, the median,
/// and the 90th percentile once ten samples lie beyond it.
pub fn report_to_deny(out: &mut Outcome, took: &[Duration]) {
    let n = took.len() as u64;
    let ms: Vec<f64> = took.iter().map(|t| t.as_secs_f64() * 1e3).collect();
    out.e2e.insert("revoke_to_deny_ms_best", stats::best(&ms));
    out.e2e.insert("revoke_to_deny_ms_p50", stats::median(&ms));
    if stats::tail_percentile(n).is_some_and(|p| p >= 0.9) {
        out.e2e
            .insert("revoke_to_deny_ms_p90", stats::percentile(&ms, 0.9));
    }
    out.samples.insert("revoke_to_deny_ms_p50", n);
}

pub fn run_sized(
    ctx: &mut Ctx,
    receivers: usize,
    certs: usize,
    rounds: usize,
    revocations: usize,
) -> Outcome {
    let mut out = Outcome::default();
    let mut to_deny = Vec::with_capacity(rounds * revocations);
    let mut replacing_s = Vec::with_capacity(rounds * revocations);
    let subjects = gen::subjects(&mut Rng::new(ctx.seed, u64::MAX), 's', certs);
    let mut issued = Vec::new();

    for round in 0..rounds as u64 {
        let round_start = Instant::now();
        let mut rng = Rng::new(ctx.seed, round);
        let spares = gen::subjects(&mut rng, 'x', revocations);
        // Which of the currently live certificates each step revokes.
        let picks: Vec<usize> = (0..revocations)
            .map(|_| rng.below(certs as u64) as usize)
            .collect();
        for (pick, spare) in picks.iter().zip(&spares) {
            out.inputs_fnv = fnv1a(out.inputs_fnv, &pick.to_le_bytes());
            out.inputs_fnv = fnv1a(out.inputs_fnv, spare.as_bytes());
        }
        let sys = ctx.system();
        let tr = &mut ctx.tracer;
        tr.enter("round", round);
        let Deployment {
            mut sys,
            hub,
            receivers,
            subjects: mut live,
            mut digests,
            reader,
            issuing,
        } = deploy(sys, tr, round, receivers, &subjects, &mut issued);
        let last = *receivers.last().expect("receivers");

        let mut in_timed = issuing;
        for (k, (&pick, spare)) in picks.iter().zip(spares).enumerate() {
            let op = round << 32 | k as u64;
            let goal = gen::read_goal(&live[pick]);
            let target = Revoke {
                issuer: hub,
                digest: digests[pick],
                reader: &reader,
                at: last,
                goal: &goal,
            };
            let (took, ok) = revoke_to_deny(&mut sys, tr, op, target);
            in_timed += took;
            to_deny.push(took);
            out.checks.op(ok.is_ok(), || ok.clone().unwrap_err());

            // Outside the timed sample. No receiver may still grant it.
            tr.enter("check", op);
            for &r in &receivers {
                let v = ask(&reader, r, &goal);
                if v != Some(false) {
                    out.checks
                        .fail(format!("{goal} at {r} after publish: {v:?}"));
                }
            }
            tr.exit();

            // The replacement: issued, imported at every receiver, and
            // granted by the last one's reader.
            let new_goal = gen::read_goal(&spare);
            let ((digest, granted), took) = timed(|| {
                tr.enter("replacement", op);
                let cert = tr
                    .call("issue_certificates", op, || {
                        sys.issue_certificate(hub, &format!("good({spare})."), &[], None)
                    })
                    .expect("hub issues a replacement");
                for &r in &receivers {
                    tr.call("import_certificates", op, || {
                        sys.import_certificates(r, vec![cert.clone()])
                    })
                    .expect("receiver imports the replacement");
                }
                tr.call("run_to_quiescence", op, || sys.run_to_quiescence(16))
                    .expect("replacement quiesces");
                let granted = tr.call("AuthzReader::authorize", op, || {
                    ask(&reader, last, &new_goal)
                });
                tr.exit();
                (cert.digest(), granted)
            });
            in_timed += took;
            replacing_s.push(took.as_secs_f64());
            out.checks.op(granted == Some(true), || {
                format!("replacement {spare} not granted: {granted:?}")
            });
            digests[pick] = digest;
            live[pick] = spare;
        }

        out.absorb_system(&sys);
        tr.call("drop", round, || drop((sys, reader)));
        tr.exit();
        out.round(round_start, in_timed);
    }

    report_to_deny(&mut out, &to_deny);
    out.e2e
        .insert("fanout_imports_per_s", 1.0 / stats::median(&replacing_s));
    out.e2e
        .insert("fanout_imports_per_s_best", 1.0 / stats::best(&replacing_s));
    out.samples
        .insert("fanout_imports_per_s", replacing_s.len() as u64);
    out
}

//! `store_durable` — the only workload with file I/O. Alice issues the
//! certificates once; then every round opens a fresh temporary
//! directory, bob imports them in bundles (append + fsync under the
//! default eager policy), some are revoked and each revocation
//! enforced, the system is closed, and the directory is reopened a few
//! times: replay, policy reload, first correct decision.

use super::authz::{ask, policy};
use super::revoke::{report_to_deny, revoke_to_deny, Revoke};
use crate::gen::{self, Rng};
use crate::harness::{fnv1a, timed, Ctx, Outcome};
use crate::span::Tracer;
use crate::stats;
use lbtrust::{AuthzReader, Principal, SyncPolicy, System};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Rounds (stores built, closed and reopened) at the nominal run length.
const ROUNDS: usize = 5;
/// Certificates per store, imported in bundles of `BUNDLE` (bundles of
/// eight or more take `import_certificates`' parallel-verify path).
/// Every step's work is linear in the store, so the import rate falls
/// as it fills and a revocation takes 30–47 ms here, 94 ms at 2 048:
/// five stores of 1 024 fit the run length, one of 2 048 with as many
/// revocations takes 26 s. Bundle b of every round meets a store of the
/// same size, so the rounds' b-th bundles are like for like.
const CERTS: usize = 1024;
const BUNDLE: usize = 16;
/// Per round: 5 × 21 = 105 samples, 10 beyond p90.
const REVOCATIONS: usize = 21;
/// Per round: 5 × 5 = 25 reopens.
const REOPENS: usize = 5;
/// Per round: how often the two key generations are timed alone.
const KEYGENS: usize = 2;

pub fn run(ctx: &mut Ctx, scratch: &Path) -> Outcome {
    let rounds = ctx.scaled(ROUNDS, 1);
    run_sized(ctx, scratch, rounds, CERTS, REVOCATIONS, REOPENS)
}

/// A directory removed when dropped, on every exit path (a panicking
/// check unwinds through it).
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(parent: &Path, tag: &str) -> TempDir {
        let dir = parent.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir under the benchmark's results/");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// The filesystem type `/proc/mounts` reports for the longest mount
/// point that prefixes `path`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut cols = line.split_whitespace();
            let (_, mount, fs) = (cols.next()?, cols.next()?, cols.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// An opened store directory and how long opening it took.
struct Opened {
    sys: System,
    alice: Principal,
    bob: Principal,
    reader: AuthzReader,
    took: Duration,
}

/// Opens the store directory the way a restarted process would:
/// `open_persistent`, both principals (each replays its log), bob's
/// policy, quiescence, and a reader over the first published snapshot.
/// `seeded` carries the run's key-generation seed.
fn open(seeded: System, dir: &Path, tr: &mut Tracer, op: u64) -> Opened {
    let started = Instant::now();
    let mut sys = tr
        .call("open_persistent", op, || seeded.persist_at(dir))
        .expect("store directory opens");
    let alice = tr
        .call("add_principal", op, || sys.add_principal("alice", "n1"))
        .expect("alice registers");
    let bob = tr
        .call("add_principal", op, || sys.add_principal("bob", "n2"))
        .expect("bob registers");
    tr.call("load", op, || {
        sys.load_program(bob, "policy", &policy("alice"))
    })
    .expect("policy loads");
    tr.call("run_to_quiescence", op, || sys.run_to_quiescence(16))
        .expect("quiesces");
    let reader = tr.call("publish_authz_snapshot", op, || sys.authz_reader());
    Opened {
        sys,
        alice,
        bob,
        reader,
        took: started.elapsed(),
    }
}

/// The simulation regenerates each principal's RSA key inside
/// `add_principal` (25 ms apiece) where a restarted process would load
/// it, and the same call replays the store, so the two cannot be timed
/// apart. This registers the same two principals — same seed, so the
/// same prime search — on a system with no store directory: what a
/// reopen spends on key generation, to be taken off `reopen_s`.
fn keygen_s(mut seeded: System, tr: &mut Tracer, op: u64) -> f64 {
    let ((), took) = timed(|| {
        tr.call("keygen x2", op, || {
            seeded
                .add_principal("alice", "n1")
                .expect("alice registers");
            seeded.add_principal("bob", "n2").expect("bob registers");
        })
    });
    took.as_secs_f64()
}

pub fn run_sized(
    ctx: &mut Ctx,
    scratch: &Path,
    rounds: usize,
    certs: usize,
    revocations: usize,
    reopens: usize,
) -> Outcome {
    let mut out = Outcome::default();
    // Per bundle position: one sample per round.
    let mut import_s: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); certs.div_ceil(BUNDLE)];
    let mut to_deny = Vec::new();
    let mut reopen_s = Vec::new();
    let mut keygen = Vec::new();
    let mut disk_per_cert = Vec::new();
    let mut appended_per_cert = Vec::new();
    out.notes
        .insert("temp_dir_filesystem", filesystem_of(scratch));
    out.notes.insert(
        "flush_policy",
        format!(
            "{:?}: append + fsync per bundle and per revocation",
            SyncPolicy::default()
        ),
    );

    // Every life of the store regenerates the same keys, so the
    // certificates issued in round 0 verify in all of them.
    let mut rng = Rng::new(ctx.seed, 0);
    let subjects = gen::subjects(&mut rng, 's', certs);
    let mut issued = Vec::new();

    for round in 0..rounds as u64 {
        let round_start = Instant::now();
        let victims = gen::order(&mut rng, certs);
        for v in &victims[..revocations] {
            out.inputs_fnv = fnv1a(out.inputs_fnv, subjects[*v].as_bytes());
        }
        let tmp = TempDir::create(scratch, &format!("store-r{round}"));
        let first_life = ctx.system();
        let lives: Vec<System> = (0..reopens).map(|_| ctx.system()).collect();
        let keys_only: Vec<System> = (0..KEYGENS).map(|_| ctx.system()).collect();
        let tr = &mut ctx.tracer;
        tr.enter("round", round);
        let Opened {
            mut sys,
            alice,
            bob,
            reader,
            ..
        } = open(first_life, tmp.path(), tr, round);
        let mut in_timed = Duration::ZERO;
        if issued.is_empty() {
            let (signed, took) = timed(|| {
                tr.call("issue_certificates", round, || {
                    sys.issue_certificates(alice, &gen::good_facts(&subjects), &[], None)
                })
            });
            issued = signed.expect("alice issues");
            in_timed += took;
        }

        // Imports: a bundle counts once bob's reader grants a subject of
        // it, i.e. verified, appended, fsynced and published.
        tr.enter("imports", round);
        for (b, bundle) in issued.chunks(BUNDLE).enumerate() {
            let op = round << 32 | b as u64;
            let goal = gen::read_goal(&subjects[b * BUNDLE]);
            let ((imported, quiesced, seen), took) = timed(|| {
                let imported = tr.call("import_certificates", op, || {
                    sys.import_certificates(bob, bundle.to_vec())
                });
                let quiesced = tr.call("run_to_quiescence", op, || sys.run_to_quiescence(16));
                let seen = tr.call("AuthzReader::authorize", op, || ask(&reader, bob, &goal));
                (imported, quiesced, seen)
            });
            in_timed += took;
            import_s[b].push(took.as_secs_f64());
            let ok = imported.is_ok() && quiesced.is_ok() && seen == Some(true);
            out.checks.op(ok, || {
                format!("bundle {b}: import {imported:?}, probe {seen:?}")
            });
        }
        tr.exit();
        let bytes_after_imports = dir_bytes(tmp.path());

        tr.enter("revocations", round);
        for (k, &victim) in victims[..revocations].iter().enumerate() {
            let op = round << 32 | 1 << 20 | k as u64;
            let goal = gen::read_goal(&subjects[victim]);
            let target = Revoke {
                issuer: alice,
                digest: issued[victim].digest(),
                reader: &reader,
                at: bob,
                goal: &goal,
            };
            let (took, ok) = revoke_to_deny(&mut sys, tr, op, target);
            in_timed += took;
            to_deny.push(took);
            out.checks.op(ok.is_ok(), || ok.clone().unwrap_err());
        }
        tr.exit();

        // The state a reopen must reproduce: the verdicts on the revoked
        // subjects and on as many live ones.
        let sample: Vec<String> = victims[..(2 * revocations).min(certs)]
            .iter()
            .map(|&s| gen::read_goal(&subjects[s]))
            .collect();
        let before: Vec<Option<bool>> = sample.iter().map(|g| ask(&reader, bob, g)).collect();
        let live = certs - revocations;
        disk_per_cert.push(dir_bytes(tmp.path()) as f64 / certs as f64);
        appended_per_cert.push(bytes_after_imports as f64 / certs as f64);
        out.absorb_system(&sys);
        tr.call("drop", round, || drop((sys, reader)));

        for (k, sys) in keys_only.into_iter().enumerate() {
            keygen.push(keygen_s(sys, tr, round << 32 | 3 << 20 | k as u64));
        }
        for (k, life) in lives.into_iter().enumerate() {
            let op = round << 32 | 2 << 20 | k as u64;
            tr.enter("reopen", op);
            let opened = open(life, tmp.path(), tr, op);
            let (first, deciding) = timed(|| {
                tr.call("AuthzReader::authorize", op, || {
                    ask(&opened.reader, opened.bob, &sample[0])
                })
            });
            tr.exit();
            let took = opened.took + deciding;
            reopen_s.push(took.as_secs_f64());
            in_timed += took;
            let after: Vec<Option<bool>> = std::iter::once(first)
                .chain(
                    sample[1..]
                        .iter()
                        .map(|g| ask(&opened.reader, opened.bob, g)),
                )
                .collect();
            let replayed = opened.sys.stats().certs_replayed;
            out.checks.op(after == before && replayed == live, || {
                format!(
                    "reopen {k}: verdicts match={}, replayed {replayed} of {live} live",
                    after == before
                )
            });
            tr.call("drop", op, || drop(opened));
        }
        tr.exit();
        drop(tmp);
        out.round(round_start, in_timed);
    }

    // Filling one store from empty: per bundle position the median and
    // the least disturbed round, summed over the positions.
    let fill_s = |pick: fn(&[f64]) -> f64| import_s.iter().map(|b| pick(b)).sum::<f64>();
    out.e2e
        .insert("import_certs_per_s", certs as f64 / fill_s(stats::median));
    out.e2e.insert(
        "import_certs_per_s_best",
        certs as f64 / fill_s(stats::best),
    );
    // Restart to first correct decision, less the key generation a real
    // restart would not do.
    let (reopen_all_s, keygen_s) = (stats::median(&reopen_s), stats::median(&keygen));
    out.e2e.insert("reopen_s", reopen_all_s - keygen_s);
    out.e2e.insert(
        "reopen_s_best",
        stats::best(&reopen_s) - stats::best(&keygen),
    );
    out.notes.insert(
        "reopen_with_keygen_s",
        format!("{reopen_all_s:.4} of which key generation {keygen_s:.4}"),
    );
    out.e2e
        .insert("disk_bytes_per_cert", stats::median(&disk_per_cert));
    report_to_deny(&mut out, &to_deny);
    out.samples
        .insert("import_certs_per_s", (rounds * certs) as u64);
    out.samples.insert("reopen_s", reopen_s.len() as u64);
    out.add_layer(
        "certstore.bytes_appended_per_cert",
        stats::median(&appended_per_cert),
    );
    out
}

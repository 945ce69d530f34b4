//! The concurrent authorization read path: `Send + Sync` reader
//! handles answering `authorize()` against atomically published
//! snapshots while the system keeps importing and revoking, the
//! decisions each snapshot caches, and the revocation contract they
//! keep (a cached grant never survives the retraction that killed its
//! support past the next snapshot publish).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

use lbtrust::certstore::{CertDigest, FaultConfig};
use lbtrust::{Principal, StoreHealth, SysError, System};
use proptest::prelude::*;

const ACCESS_POLICY: &str = "access(P,file1,read) <- says(alice,me,[| good(P) |]).";

/// A recursive access policy: trust travels along `vouches`, and the
/// cyclic rule comes before the one that reads a certificate, so the
/// first rule instance a proof search meets for a subject leads back to
/// it.
const RECURSIVE_POLICY: &str = "trusted(X) <- trusted(Y), vouches(Y,X).\n\
     trusted(X) <- says(alice,me,[| good(X) |]).\n\
     access(P,file1,read) <- trusted(P).";

/// One issuer, `receivers` importing principals with the access policy,
/// one certificate per subject `s0..s{subjects}` imported everywhere.
fn cert_fanout(
    receivers: usize,
    subjects: usize,
) -> (System, Principal, Vec<Principal>, Vec<CertDigest>) {
    fanout_under(ACCESS_POLICY, receivers, subjects)
}

/// [`cert_fanout`] under `policy`.
fn fanout_under(
    policy: &str,
    receivers: usize,
    subjects: usize,
) -> (System, Principal, Vec<Principal>, Vec<CertDigest>) {
    let mut sys = System::new().with_rsa_bits(512);
    let alice = sys.add_principal("alice", "n0").unwrap();
    let recs: Vec<Principal> = (0..receivers)
        .map(|i| {
            sys.add_principal(&format!("r{i}"), &format!("node{i}"))
                .unwrap()
        })
        .collect();
    let facts: String = (0..subjects).map(|i| format!("good(s{i}). ")).collect();
    let certs = sys.issue_certificates(alice, &facts, &[], None).unwrap();
    let digests: Vec<CertDigest> = certs.iter().map(|c| c.digest()).collect();
    for &r in &recs {
        sys.workspace_mut(r)
            .unwrap()
            .load("policy", policy)
            .unwrap();
        sys.import_certificates(r, certs.clone()).unwrap();
    }
    sys.run_to_quiescence(64).unwrap();
    (sys, alice, recs, digests)
}

fn volatile_counter(sys: &System, name: &str) -> u64 {
    sys.obs_registry().snapshot().counter(name).unwrap_or(0)
}

/// Raises `stop` when dropped — once the writer is through, or has
/// panicked — so reader threads never spin on beside a failed test.
struct Raise<'a>(&'a AtomicBool);

impl Drop for Raise<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Equivalence: for every (principal, goal) pair, a reader thread's
    /// decision over the published snapshot is identical — grant bit
    /// and supporting digests — to the serial `System::authorize` at
    /// the same store version, for arbitrary fanout shapes, under the
    /// plain or the recursive policy (its `vouches` a ring over every
    /// subject), with an arbitrary subset of the certificates revoked —
    /// every decision either computed afresh after the revocations, or
    /// cached before them.
    #[test]
    fn reader_decisions_match_serial_authorize(
        receivers in 1usize..4,
        subjects in 1usize..5,
        revoke_mask in 0usize..32,
        recursive in any::<bool>(),
        precache in any::<bool>(),
    ) {
        let ring: String = (0..=subjects)
            .map(|i| format!("vouches(s{i},s{}). ", (i + 1) % (subjects + 1)))
            .collect();
        let policy = match recursive {
            true => format!("{RECURSIVE_POLICY}\n{ring}"),
            false => ACCESS_POLICY.to_string(),
        };
        let (mut sys, alice, recs, digests) = fanout_under(&policy, receivers, subjects);
        let goals: Vec<String> = (0..subjects + 1) // one never-certified subject
            .map(|i| format!("access(s{i},file1,read)"))
            .collect();
        let precached = precache.then(|| {
            let reader = sys.authz_reader();
            for &r in &recs {
                for g in &goals {
                    reader.authorize(r, g).unwrap();
                }
            }
            reader
        });
        for (i, d) in digests.iter().enumerate() {
            if revoke_mask & (1 << i) != 0 {
                sys.revoke_certificate(alice, *d).unwrap();
            }
        }
        sys.run_to_quiescence(64).unwrap();

        let mut serial = Vec::new();
        for &r in &recs {
            for g in &goals {
                serial.push((r, g.clone(), sys.authorize(r, g).unwrap()));
            }
        }

        let reader = precached.unwrap_or_else(|| sys.authz_reader());
        for &r in &recs {
            // The snapshot is of exactly the store state serial saw.
            prop_assert_eq!(
                reader.store_version(r),
                Some(sys.cert_store(r).unwrap().version())
            );
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reader = reader.clone();
                let serial = &serial;
                scope.spawn(move || {
                    for (r, g, want) in serial {
                        let got = reader.authorize(*r, g).unwrap();
                        assert_eq!(got.granted, want.granted, "{r}: {g}");
                        assert_eq!(got.supporting, want.supporting, "{r}: {g}");
                    }
                });
            }
        });
    }
}

/// A recursive policy whose cyclic rule comes first: the first rule
/// instance for `trusted(a)` goes through `trusted(b)`, whose only one
/// leads back to `trusted(a)`. Both grants must rest on the certificate
/// — a proof that closed the cycle with a `trusted(a)` leaf cited
/// nothing, so the reader kept serving both grants after the revocation
/// that made the serial path deny them.
#[test]
fn a_recursive_policy_does_not_keep_a_revoked_grant_in_the_cache() {
    let mut sys = System::new().with_rsa_bits(512);
    let hub = sys.add_principal("hub", "n0").unwrap();
    let r0 = sys.add_principal("r0", "n1").unwrap();
    sys.workspace_mut(r0)
        .unwrap()
        .load(
            "policy",
            "trusted(X) <- trusted(Y), vouches(Y,X).\n\
             trusted(X) <- says(hub,me,[| good(X) |]).\n\
             vouches(a,b). vouches(b,a).",
        )
        .unwrap();
    let cert = sys.issue_certificate(hub, "good(a).", &[], None).unwrap();
    let digest = cert.digest();
    sys.import_certificates(r0, vec![cert]).unwrap();
    sys.run_to_quiescence(64).unwrap();

    let reader = sys.authz_reader();
    let goals = ["trusted(a)", "trusted(b)"];
    for goal in goals {
        let read = reader.authorize(r0, goal).unwrap();
        let serial = sys.authorize(r0, goal).unwrap();
        assert!(read.granted && serial.granted, "{goal}");
        assert_eq!(read.supporting, vec![digest], "{goal}");
        assert_eq!(
            (&read.supporting, &read.proof),
            (&serial.supporting, &serial.proof),
            "{goal}"
        );
    }

    sys.revoke_certificate(hub, digest).unwrap();
    sys.run_to_quiescence(64).unwrap();
    for goal in goals {
        assert!(!sys.authorize(r0, goal).unwrap().granted, "{goal}");
        assert!(
            !reader.authorize(r0, goal).unwrap().granted,
            "{goal}: a cached grant outlived the revocation of its certificate"
        );
    }
}

/// A certificate's `says` fact under mutual speaks-for rules, in a
/// workspace without the authentication prelude: each `says` is
/// concluded from the other, and the first rule instance for alice's
/// leads back to it. The proof rests on the asserted `certified` fact
/// the import filed, so both paths grant, cite the certificate, and
/// deny once it is revoked.
#[test]
fn a_certified_says_under_mutual_speaks_for_is_granted_and_cited() {
    let mut sys = System::new().with_rsa_bits(512);
    let alice = sys.add_principal("alice", "n0").unwrap();
    sys.add_principal("bob", "n2").unwrap();
    let r0 = sys.add_principal("r0", "n1").unwrap();
    let ws = sys.workspace_mut(r0).unwrap();
    ws.replace_tag("auth", "").unwrap();
    ws.load(
        "policy",
        "says(alice,me,R) <- says(bob,me,R).\n\
         says(bob,me,R) <- says(alice,me,R).\n\
         access(P,file1,read) <- says(alice,me,[| good(P) |]).",
    )
    .unwrap();
    let cert = sys
        .issue_certificate(alice, "good(s0).", &[], None)
        .unwrap();
    let digest = cert.digest();
    sys.import_certificates(r0, vec![cert]).unwrap();
    sys.run_to_quiescence(64).unwrap();

    let reader = sys.authz_reader();
    let goal = "access(s0,file1,read)";
    let read = reader.authorize(r0, goal).unwrap();
    let serial = sys.authorize(r0, goal).unwrap();
    assert!(read.granted && serial.granted);
    assert_eq!(read.supporting, vec![digest]);
    assert_eq!(
        (&read.supporting, &read.proof),
        (&serial.supporting, &serial.proof)
    );
    let proof = serial.proof.expect("granted").to_string();
    let leaf = format!(
        "    certified(alice,r0,[| good(s0). |],#{}) [fact]\n",
        digest.to_hex()
    );
    assert!(proof.ends_with(&leaf), "{proof}");

    sys.revoke_certificate(alice, digest).unwrap();
    sys.run_to_quiescence(64).unwrap();
    assert!(!sys.authorize(r0, goal).unwrap().granted);
    assert!(!reader.authorize(r0, goal).unwrap().granted);
}

/// The revocation-invalidation regression at the heart of the cache
/// contract: a decision cached from a published snapshot must flip to
/// deny in the first snapshot published after the retraction — and in a
/// retraction-only window the invalidation is surgical: the poisoned
/// entry dies, unrelated cached decisions are handed on to the new
/// snapshot.
#[test]
fn cached_grant_dies_with_its_certificate_and_nothing_else_does() {
    let (mut sys, alice, recs, digests) = cert_fanout(1, 2);
    let bob = recs[0];
    let reader = sys.authz_reader();

    // Prime the cache: one miss then hits for both subjects.
    assert!(
        reader
            .authorize(bob, "access(s0,file1,read)")
            .unwrap()
            .granted
    );
    assert!(
        reader
            .authorize(bob, "access(s1,file1,read)")
            .unwrap()
            .granted
    );
    let misses_primed = volatile_counter(&sys, "authz.cache_misses");
    reader.authorize(bob, "access(s0,file1,read)").unwrap();
    assert_eq!(volatile_counter(&sys, "authz.cache_misses"), misses_primed);
    assert!(volatile_counter(&sys, "authz.cache_hits") >= 1);

    // Revoke s0's certificate; the next quiescence delivers the notice,
    // retracts the derived access through DRed, and publishes.
    let generation_before = reader.generation();
    sys.revoke_certificate(alice, digests[0]).unwrap();
    sys.run_to_quiescence(64).unwrap();
    assert!(reader.generation() > generation_before);

    // The poisoned grant is gone — the reader denies, no stale answer.
    assert!(
        !reader
            .authorize(bob, "access(s0,file1,read)")
            .unwrap()
            .granted,
        "a cached grant must not survive the revocation of its support"
    );
    // And it was a surgical kill, not a wholesale flush: the entry was
    // invalidated by digest intersection…
    assert!(
        volatile_counter(&sys, "authz.cache_invalidations") >= 1,
        "retraction-only window must take the precise invalidation path"
    );
    // …while the unrelated cached decision is still served from cache
    // by the new snapshot.
    let hits_before = volatile_counter(&sys, "authz.cache_hits");
    let d = reader.authorize(bob, "access(s1,file1,read)").unwrap();
    assert!(d.granted);
    assert!(
        volatile_counter(&sys, "authz.cache_hits") > hits_before,
        "unrelated decisions must survive a precise invalidation"
    );
}

/// TTL expiry is a retraction like any other: the cached grant dies at
/// the first publish after the certificate's deadline passes.
#[test]
fn ttl_expiry_invalidates_the_cached_grant() {
    let mut sys = System::new().with_rsa_bits(512);
    let alice = sys.add_principal("alice", "n0").unwrap();
    let bob = sys.add_principal("bob", "n1").unwrap();
    sys.workspace_mut(bob)
        .unwrap()
        .load("policy", ACCESS_POLICY)
        .unwrap();
    let cert = sys
        .issue_certificate(alice, "good(erin).", &[], Some(5))
        .unwrap();
    sys.import_certificates(bob, vec![cert]).unwrap();
    sys.run_to_quiescence(64).unwrap();

    let reader = sys.authz_reader();
    assert!(
        reader
            .authorize(bob, "access(erin,file1,read)")
            .unwrap()
            .granted
    );

    assert!(sys.advance_time(6).unwrap() >= 1, "certificate must expire");
    sys.run_to_quiescence(64).unwrap();
    assert!(
        !reader
            .authorize(bob, "access(erin,file1,read)")
            .unwrap()
            .granted,
        "expired certificate's cached grant must not be served"
    );
}

/// The PR 8 degradation contract carries over to the read front-end: a
/// quarantined store keeps publishing and its reader keeps answering —
/// including the stale state the store could not absorb revocations
/// into — while healthy principals move on.
#[test]
fn quarantined_store_keeps_serving_reads_through_snapshots() {
    let mut sys = System::new()
        .with_rsa_bits(512)
        .with_storage_faults(FaultConfig::uniform(7, 0));
    let alice = sys.add_principal("alice", "n0").unwrap();
    let bob = sys.add_principal("bob", "n1").unwrap();
    let carol = sys.add_principal("carol", "n2").unwrap();
    for &r in &[bob, carol] {
        sys.workspace_mut(r)
            .unwrap()
            .load("policy", ACCESS_POLICY)
            .unwrap();
    }
    let cert = sys
        .issue_certificate(alice, "good(dave).", &[], None)
        .unwrap();
    let digest = cert.digest();
    sys.import_certificates(bob, vec![cert.clone()]).unwrap();
    sys.import_certificates(carol, vec![cert]).unwrap();
    sys.run_to_quiescence(64).unwrap();

    // Quarantine bob's store with a persistent fault + failed write.
    sys.fault_handle(bob).unwrap().fail_persistently();
    let extra = sys
        .issue_certificate(alice, "good(frank).", &[], None)
        .unwrap();
    let err = sys.import_certificates(bob, vec![extra]).unwrap_err();
    assert!(matches!(err, SysError::Degraded(_)), "got {err}");
    assert_eq!(sys.store_health(bob), StoreHealth::Quarantined);

    // The revocation storm converges carol and skips bob's store.
    sys.revoke_certificate(alice, digest).unwrap();
    sys.run_to_quiescence(400).unwrap();

    // The post-storm snapshot still covers the quarantined principal:
    // reads are served, reflecting the stale state it is stuck with.
    let reader = sys.authz_reader();
    assert!(
        reader.store_version(bob).is_some(),
        "quarantined stores must stay in the published snapshot"
    );
    assert!(
        !reader
            .authorize(carol, "access(dave,file1,read)")
            .unwrap()
            .granted,
        "healthy principals see the revocation"
    );
    let stale = reader.authorize(bob, "access(dave,file1,read)").unwrap();
    assert_eq!(
        stale.granted,
        sys.authorize(bob, "access(dave,file1,read)")
            .unwrap()
            .granted,
        "reader and serial path must agree on the quarantined store"
    );
}

/// Smoke: four reader threads hammer the cache while the writer streams
/// imports and revocations through repeated quiescence runs. Readers
/// must never error, never see a grant for a subject whose certificate
/// was revoked before their snapshot's generation, and converge to the
/// final state once the stream ends. Every reader makes one full pass
/// before the writer's first wave, however the threads are scheduled.
#[test]
fn concurrent_readers_survive_a_live_revocation_stream() {
    const READERS: usize = 4;
    let (mut sys, alice, recs, _digests) = cert_fanout(2, 1);
    let reader = sys.authz_reader();
    let stop = AtomicBool::new(false);
    let goals: Vec<String> = (0..8).map(|i| format!("access(w{i},file1,read)")).collect();
    let (passed, first_passes) = mpsc::channel();

    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let reader = reader.clone();
            let passed = passed.clone();
            let stop = &stop;
            let goals = &goals;
            let recs = &recs;
            scope.spawn(move || {
                let pass = |queries: &mut u64| {
                    for &r in recs {
                        for g in goals {
                            reader.authorize(r, g).unwrap();
                            *queries += 1;
                        }
                    }
                };
                let mut queries = 0u64;
                pass(&mut queries);
                passed.send(()).expect("the writer is waiting");
                drop(passed);
                while !stop.load(Ordering::Acquire) {
                    pass(&mut queries);
                }
                assert!(queries > 0);
            });
        }
        let stop = Raise(&stop);
        drop(passed);
        for _ in 0..READERS {
            first_passes.recv().expect("every reader passed once");
        }

        // Writer: certify each wave subject, spread it, then kill it.
        let mut live: HashSet<usize> = HashSet::new();
        for wave in 0..8usize {
            let cert = sys
                .issue_certificate(alice, &format!("good(w{wave})."), &[], None)
                .unwrap();
            let digest = cert.digest();
            for &r in &recs {
                sys.import_certificates(r, vec![cert.clone()]).unwrap();
            }
            sys.run_to_quiescence(64).unwrap();
            live.insert(wave);
            if wave % 2 == 0 {
                sys.revoke_certificate(alice, digest).unwrap();
                sys.run_to_quiescence(64).unwrap();
                live.remove(&wave);
            }
        }
        drop(stop);

        // Convergence: the final snapshot answers exactly the live set.
        sys.publish_authz_snapshot();
        for &r in &recs {
            for (i, g) in goals.iter().enumerate() {
                let got = reader.authorize(r, g).unwrap();
                assert_eq!(got.granted, live.contains(&i), "{r}: {g}");
                assert_eq!(got.granted, sys.authorize(r, g).unwrap().granted);
            }
        }
    });
}

/// Regression (the stale grant the repository benchmark counted): a
/// reader sweeps the very keys the writer revokes, one per wave. Once
/// `run_to_quiescence` has returned, the revocation is published, and
/// no later `authorize` may grant it — in particular not from a cache
/// entry a concurrent miss re-proved on the superseded snapshot (it is
/// cached in that snapshot, which no later reader answers from; the core
/// crate's `a_grant_proved_on_a_superseded_snapshot_is_never_served`
/// forces this ordering). The sweeper makes one full sweep,
/// granting and caching every subject, before the first revocation,
/// however the threads are scheduled.
#[test]
fn swept_grant_does_not_outlive_the_publish_of_its_revocation() {
    const SUBJECTS: usize = 24;
    let (mut sys, alice, recs, digests) = cert_fanout(1, SUBJECTS);
    let reader = sys.authz_reader();
    let at = recs[0];
    let goals: Vec<(String, AtomicBool)> = (0..SUBJECTS)
        .map(|i| (format!("access(s{i},file1,read)"), AtomicBool::new(false)))
        .collect();
    let stop = AtomicBool::new(false);
    let (swept_once, first_sweep) = mpsc::channel();

    let stale = std::thread::scope(|scope| {
        let sweeper = {
            let (reader, goals, stop) = (reader.clone(), &goals, &stop);
            scope.spawn(move || {
                let mut stale = Vec::new();
                let mut sweep = || {
                    for (goal, enforced) in goals {
                        // Loaded before asking: `true` means the
                        // revocation's publish has already returned.
                        let published = enforced.load(Ordering::Acquire);
                        let granted = reader.authorize(at, goal).unwrap().granted;
                        if published && granted && !stale.contains(goal) {
                            stale.push(goal.clone());
                        }
                    }
                };
                sweep();
                swept_once.send(()).expect("the writer is waiting");
                while !stop.load(Ordering::Acquire) {
                    sweep();
                }
                stale
            })
        };
        let stop = Raise(&stop);
        first_sweep.recv().expect("the sweeper swept once");
        for (digest, (_, enforced)) in digests.iter().zip(&goals) {
            sys.revoke_certificate(alice, *digest).unwrap();
            sys.run_to_quiescence(64).unwrap();
            enforced.store(true, Ordering::Release);
        }
        drop(stop);
        sweeper.join().expect("reader thread")
    });
    assert!(
        stale.is_empty(),
        "granted after the revocation was published: {stale:?}"
    );
    // Precise invalidation did the work: each revocation is a
    // retraction-only window, whose publish drops the revoked grant.
    assert!(volatile_counter(&sys, "authz.cache_invalidations") > 0);
    for (goal, _) in &goals {
        assert!(!reader.authorize(at, goal).unwrap().granted, "{goal}");
    }
}

/// Republishing without intervening changes reuses the per-principal
/// snapshots (same store version, cache still warm) and a fresh reader
/// handle sees the current generation immediately.
#[test]
fn republish_without_changes_is_stable() {
    let (mut sys, _alice, recs, _digests) = cert_fanout(1, 1);
    let bob = recs[0];
    let reader = sys.authz_reader();
    assert!(
        reader
            .authorize(bob, "access(s0,file1,read)")
            .unwrap()
            .granted
    );

    let hits_before = volatile_counter(&sys, "authz.cache_hits");
    sys.publish_authz_snapshot();
    let second = sys.authz_reader();
    assert_eq!(second.store_version(bob), reader.store_version(bob));
    assert!(
        second
            .authorize(bob, "access(s0,file1,read)")
            .unwrap()
            .granted
    );
    assert!(
        volatile_counter(&sys, "authz.cache_hits") > hits_before,
        "an unchanged republish must not orphan cached decisions"
    );
}

/// A grant cached by a reader that is gone is never served to the next
/// one, however the system moved in between: its certificate revoked,
/// an unrelated one imported, the system quiescing after each step. The
/// next reader denies, cites what the serial path cites, and proves its
/// first answer afresh.
#[test]
fn readers_that_come_and_go_never_serve_a_stale_grant() {
    let (mut sys, alice, recs, digests) = cert_fanout(1, 2);
    let bob = recs[0];
    let goal = "access(s0,file1,read)";
    let first = sys.authz_reader();
    assert!(first.authorize(bob, goal).unwrap().granted);
    let hits = volatile_counter(&sys, "authz.cache_hits");
    assert!(first.authorize(bob, goal).unwrap().granted);
    assert_eq!(volatile_counter(&sys, "authz.cache_hits"), hits + 1);
    drop(first);
    sys.run_to_quiescence(64).unwrap();

    sys.revoke_certificate(alice, digests[0]).unwrap();
    sys.run_to_quiescence(64).unwrap();
    let unrelated = sys.issue_certificate(alice, "good(u).", &[], None).unwrap();
    sys.import_certificates(bob, vec![unrelated]).unwrap();
    sys.run_to_quiescence(64).unwrap();

    let second = sys.authz_reader();
    let misses = volatile_counter(&sys, "authz.cache_misses");
    let read = second.authorize(bob, goal).unwrap();
    assert_eq!(volatile_counter(&sys, "authz.cache_misses"), misses + 1);
    let serial = sys.authorize(bob, goal).unwrap();
    assert!(!read.granted, "a released grant must not be served");
    assert_eq!(
        (read.granted, &read.supporting, &read.proof),
        (serial.granted, &serial.supporting, &serial.proof)
    );
}

/// Unknown principals are a structured error on the reader, exactly as
/// on the serial path.
#[test]
fn reader_rejects_unknown_principals() {
    let (mut sys, _alice, _recs, _digests) = cert_fanout(1, 1);
    let reader = sys.authz_reader();
    let ghost = Principal::from("ghost");
    assert!(matches!(
        reader.authorize(ghost, "access(s0,file1,read)"),
        Err(SysError::UnknownPrincipal(_))
    ));
}

//! Crash-recovery properties of the log-structured backend: a store
//! reopened from its segment log at an arbitrary operation prefix must
//! be indistinguishable from an in-memory store that applied the same
//! prefix, and a truncated or corrupted tail must be discarded cleanly
//! at the last valid record.

use lbtrust_certstore::{
    cert::signing_bytes, shared_verify_cache, CertDigest, CertStatus, CertStore, CertStoreError,
    LinkedCert, RetractReason, Revocation, SignatureVerifier,
};
use lbtrust_datalog::{parse_rule, Symbol};
use lbtrust_net::revoke_signing_bytes;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Toy deterministic signing (the store treats signatures as opaque).
fn sign(issuer: Symbol, message: &[u8]) -> Vec<u8> {
    let mut out = format!("signed:{issuer}:").into_bytes();
    out.extend_from_slice(message);
    out
}

fn toy_verifier() -> impl SignatureVerifier {
    |signer: Symbol, message: &[u8], sig: &[u8]| sig == sign(signer, message).as_slice()
}

fn make_cert(issuer: &str, body: &str, links: Vec<CertDigest>, ttl: Option<u64>) -> LinkedCert {
    let issuer = Symbol::intern(issuer);
    let rule = Arc::new(parse_rule(body).unwrap());
    let to_sign = signing_bytes(issuer, &rule, &links, ttl);
    LinkedCert {
        issuer,
        rule,
        links,
        ttl,
        signature: sign(issuer, &to_sign),
    }
}

fn make_revocation(issuer: Symbol, target: CertDigest) -> Revocation {
    Revocation {
        issuer,
        target,
        signature: sign(issuer, &revoke_signing_bytes(issuer, target.as_bytes())),
    }
}

/// A fixed universe of certificates the generated programs draw from:
/// plain, TTL-carrying, and linked (each linked cert cites the previous
/// universe member), from two issuers.
fn universe() -> Vec<LinkedCert> {
    let mut certs: Vec<LinkedCert> = Vec::new();
    for i in 0..8usize {
        let issuer = if i % 2 == 0 { "alice" } else { "bob" };
        let ttl = match i % 3 {
            0 => None,
            1 => Some(3),
            _ => Some(7),
        };
        let links = if i % 4 == 3 {
            vec![certs[i - 1].digest()]
        } else {
            vec![]
        };
        certs.push(make_cert(issuer, &format!("fact{i}(x)."), links, ttl));
    }
    certs
}

/// One generated store operation over the universe.
#[derive(Clone, Debug)]
enum Op {
    Insert(usize),
    Revoke(usize),
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8).prop_map(Op::Insert),
        (0usize..8).prop_map(Op::Revoke),
        (1u64..4).prop_map(Op::Advance),
    ]
}

/// Applies one op, ignoring the per-op result (failures — revoked
/// reinserts, dead links — must occur identically on both stores and
/// leave no record).
fn apply(store: &mut CertStore, certs: &[LinkedCert], op: &Op) {
    match op {
        Op::Insert(i) => {
            let _ = store.insert(certs[*i].clone(), &toy_verifier());
        }
        Op::Revoke(i) => {
            let cert = &certs[*i];
            let _ = store.revoke(
                &make_revocation(cert.issuer, cert.digest()),
                &toy_verifier(),
            );
        }
        Op::Advance(t) => {
            store.advance_clock(*t).expect("memory/log append succeeds");
        }
    }
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn fresh_log_path(tag: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "crashrec-{}-{tag}-{case}.certlog",
        std::process::id()
    ))
}

/// Every observable piece of store state the equivalence compares.
fn fingerprint(store: &CertStore, certs: &[LinkedCert]) -> Vec<(usize, Option<CertStatus>)> {
    certs
        .iter()
        .enumerate()
        .map(|(i, c)| (i, store.status(&c.digest())))
        .collect()
}

/// The universe members other members link to (3 cites 2, 7 cites 6).
const SUPPORTS: [usize; 2] = [2, 6];

/// Revokes every support certificate `memory` still holds live on both
/// stores and compares what died, in order. The link cascade runs over
/// the `dependents` index, which a reopen rebuilds from the log or from
/// a checkpoint.
fn revoking_supports_cascades_alike(
    reopened: &mut CertStore,
    memory: &mut CertStore,
    certs: &[LinkedCert],
) {
    let died = |store: &mut CertStore, cert: &LinkedCert| -> Vec<(CertDigest, RetractReason)> {
        store
            .revoke(
                &make_revocation(cert.issuer, cert.digest()),
                &toy_verifier(),
            )
            .expect("an issuer may revoke its own certificate")
            .iter()
            .map(|e| (e.digest, e.reason))
            .collect()
    };
    for cert in SUPPORTS.map(|i| &certs[i]) {
        if memory.status(&cert.digest()) == Some(CertStatus::Active) {
            assert_eq!(
                died(reopened, cert),
                died(memory, cert),
                "revocation cascade"
            );
        }
    }
    assert_eq!(
        reopened.active(),
        memory.active(),
        "post-cascade active set"
    );
    assert_eq!(
        reopened.ground_heads(),
        memory.ground_heads(),
        "post-cascade ground heads"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash-recovery equivalence: run a random op sequence against a
    /// log-backed store, "crash" (drop) it after an arbitrary prefix,
    /// reopen from the file alone — the reopened store must match an
    /// in-memory store that applied the same prefix exactly: same
    /// statuses, same active set, same clock, same audit length, and
    /// the same accept/reject behaviour afterwards.
    #[test]
    fn reopen_at_any_prefix_matches_memory(
        ops in prop::collection::vec(op_strategy(), 1..24),
        cut in 0usize..24,
    ) {
        let certs = universe();
        let prefix = cut.min(ops.len());
        let path = fresh_log_path("prefix");

        let mut durable = CertStore::open(&path, shared_verify_cache()).unwrap();
        for op in &ops[..prefix] {
            apply(&mut durable, &certs, op);
        }
        drop(durable); // crash: nothing but the file survives

        let reopened = CertStore::open(&path, shared_verify_cache()).unwrap();
        let mut memory = CertStore::new();
        for op in &ops[..prefix] {
            apply(&mut memory, &certs, op);
        }

        prop_assert_eq!(reopened.now(), memory.now(), "logical clock");
        prop_assert_eq!(reopened.len(), memory.len(), "entry count");
        prop_assert_eq!(
            fingerprint(&reopened, &certs),
            fingerprint(&memory, &certs),
            "per-certificate statuses"
        );
        prop_assert_eq!(reopened.active(), memory.active(), "active set + order");
        prop_assert_eq!(reopened.ground_heads(), memory.ground_heads(), "ground heads");
        prop_assert_eq!(
            reopened.revocation_fingerprints(),
            memory.revocation_fingerprints(),
            "revocation fingerprints"
        );
        prop_assert_eq!(
            reopened.audit().len(),
            memory.audit().len(),
            "audit trail length"
        );
        // Future behaviour matches too: every universe member is
        // accepted/rejected the same way by both stores.
        let mut reopened = reopened;
        for (i, cert) in certs.iter().enumerate() {
            let a = reopened.insert(cert.clone(), &toy_verifier());
            let b = memory.insert(cert.clone(), &toy_verifier());
            prop_assert_eq!(
                a.as_ref().err(),
                b.as_ref().err(),
                "post-reopen import behaviour diverged for cert {}",
                i
            );
        }
        revoking_supports_cascades_alike(&mut reopened, &mut memory, &certs);
        let _ = std::fs::remove_file(&path);
    }

    /// A corrupted tail (torn write, bit rot in the last record) never
    /// poisons recovery: replay stops at the last valid record and the
    /// store equals the in-memory store over the surviving prefix.
    #[test]
    fn corrupt_tail_recovers_valid_prefix(
        ops in prop::collection::vec(op_strategy(), 2..16),
        chop in 1usize..12,
    ) {
        let certs = universe();
        let path = fresh_log_path("chop");
        let mut durable = CertStore::open(&path, shared_verify_cache()).unwrap();
        for op in &ops {
            apply(&mut durable, &certs, op);
        }
        durable.sync().unwrap();
        drop(durable);

        // Tear off the last `chop` bytes (at most one full record is
        // guaranteed torn; more may survive intact before it).
        let bytes = std::fs::read(&path).unwrap();
        prop_assume!(!bytes.is_empty());
        let keep = bytes.len().saturating_sub(chop);
        std::fs::write(&path, &bytes[..keep]).unwrap();

        let reopened = CertStore::open(&path, shared_verify_cache()).unwrap();
        let report = reopened.replay_report();
        prop_assert!(report.bytes <= keep as u64);

        // The reopened store equals the in-memory store over however
        // many ops produced the surviving records. Ops that appended
        // nothing (failed inserts, idempotent re-revocations) make the
        // record→op mapping non-injective, so recompute by replaying
        // op prefixes until the fingerprint matches.
        let target = fingerprint(&reopened, &certs);
        let mut matched = false;
        for k in (0..=ops.len()).rev() {
            let mut memory = CertStore::new();
            for op in &ops[..k] {
                apply(&mut memory, &certs, op);
            }
            if fingerprint(&memory, &certs) == target
                && memory.now() == reopened.now()
                && memory.active() == reopened.active()
            {
                matched = true;
                break;
            }
        }
        prop_assert!(matched, "recovered state must equal some op prefix");
        let _ = std::fs::remove_file(&path);
    }
}

/// One generated operation over a store that also performs lifecycle
/// maintenance. Maintenance ops apply to the durable store only — the
/// in-memory reference model is the *uncompacted* truth the reopened
/// store is compared against.
#[derive(Clone, Debug)]
enum MaintOp {
    Base(Op),
    Compact,
    Checkpoint,
}

fn maint_op_strategy() -> impl Strategy<Value = MaintOp> {
    // The shim's `prop_oneof!` is unweighted; repeating the base arm
    // biases sequences toward real mutations with occasional
    // maintenance, like a deployment.
    prop_oneof![
        op_strategy().prop_map(MaintOp::Base),
        op_strategy().prop_map(MaintOp::Base),
        op_strategy().prop_map(MaintOp::Base),
        op_strategy().prop_map(MaintOp::Base),
        Just(MaintOp::Compact),
        Just(MaintOp::Checkpoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compaction/checkpoint equivalence: interleave compactions and
    /// checkpoints at *any* points in a random command sequence, then
    /// reopen from disk alone. The reopened store must match the
    /// uncompacted in-memory store on every preserved observable — the
    /// logical clock, the active set (digests, order, entries, expiry
    /// deadlines), the audit trail length, revocation blocking — and
    /// must keep behaving identically under further safe commands.
    /// (The one sanctioned divergence: dead *non-revoked* certificates
    /// lose their in-memory tombstone across a compacted reopen.)
    #[test]
    fn compaction_at_any_point_preserves_observable_state(
        ops in prop::collection::vec(maint_op_strategy(), 1..32),
    ) {
        let certs = universe();
        let path = fresh_log_path("maint");
        let mut durable = CertStore::open(&path, shared_verify_cache()).unwrap();
        let mut memory = CertStore::new();
        for op in &ops {
            match op {
                MaintOp::Base(op) => {
                    apply(&mut durable, &certs, op);
                    apply(&mut memory, &certs, op);
                }
                MaintOp::Compact => {
                    assert!(durable.compact().unwrap().performed);
                }
                MaintOp::Checkpoint => {
                    assert!(durable.checkpoint().unwrap().performed);
                }
            }
        }
        drop(durable); // crash/restart: nothing but the files survive

        let mut reopened = CertStore::open(&path, shared_verify_cache()).unwrap();
        prop_assert_eq!(reopened.now(), memory.now(), "logical clock");
        prop_assert_eq!(reopened.active(), memory.active(), "active set + order");
        for d in reopened.active() {
            let r = reopened.get(&d).unwrap();
            let m = memory.get(&d).unwrap();
            prop_assert_eq!(&r.cert, &m.cert, "active entry content");
            prop_assert_eq!(r.expires_at, m.expires_at, "expiry deadline");
        }
        prop_assert_eq!(reopened.ground_heads(), memory.ground_heads(), "ground heads");
        prop_assert_eq!(
            reopened.revocation_fingerprints(),
            memory.revocation_fingerprints(),
            "revocation fingerprints"
        );
        prop_assert_eq!(
            reopened.audit().len(),
            memory.audit().len(),
            "every audit entry must survive compaction (folded or replayed)"
        );
        for cert in &certs {
            let m = memory.status(&cert.digest());
            let r = reopened.status(&cert.digest());
            match m {
                Some(CertStatus::Active) | None => prop_assert_eq!(r, m),
                Some(dead) => prop_assert!(
                    r == Some(dead) || r.is_none(),
                    "dead status may only be identical or forgotten, got {:?} vs {:?}",
                    r,
                    m
                ),
            }
        }
        // Revocation rejection is preserved verbatim.
        for cert in &certs {
            if memory.status(&cert.digest()) == Some(CertStatus::Revoked) {
                prop_assert!(matches!(
                    reopened.insert(cert.clone(), &toy_verifier()),
                    Err(CertStoreError::Revoked(_))
                ));
            }
        }
        // Continued operation stays equivalent: inserts of never-dead
        // certificates, then a clock advance, land identically.
        for (i, cert) in certs.iter().enumerate() {
            match memory.status(&cert.digest()) {
                None | Some(CertStatus::Active) => {
                    let a = reopened.insert(cert.clone(), &toy_verifier());
                    let b = memory.insert(cert.clone(), &toy_verifier());
                    prop_assert_eq!(
                        a.is_ok(),
                        b.is_ok(),
                        "continuation insert diverged for cert {}: {:?} vs {:?}",
                        i,
                        a.err(),
                        b.err()
                    );
                }
                _ => {}
            }
        }
        let e1: Vec<_> = reopened.advance_clock(3).unwrap().iter().map(|e| e.digest).collect();
        let e2: Vec<_> = memory.advance_clock(3).unwrap().iter().map(|e| e.digest).collect();
        prop_assert_eq!(e1, e2, "expiry events after reopen");
        prop_assert_eq!(reopened.active(), memory.active(), "post-advance active set");
        revoking_supports_cascades_alike(&mut reopened, &mut memory, &certs);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(path.with_extension(""));
    }
}

/// Snapshots every file under the store's path (single-segment file
/// and/or segment directory) so a crash can be simulated by restoring
/// it wholesale.
fn snapshot_store_files(path: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    if path.exists() {
        files.push((path.to_path_buf(), std::fs::read(path).unwrap()));
    }
    let dir = path.with_extension("");
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.filter_map(|e| e.ok()) {
            files.push((entry.path(), std::fs::read(entry.path()).unwrap()));
        }
    }
    files
}

/// Crash during compaction: the compactor's work (the new checkpoint
/// segment, the audit fold, the pruning of old segments) must be
/// invisible until the manifest swap is durable — restoring the
/// pre-compaction files must yield exactly the uncompacted store.
#[test]
fn crash_during_compaction_old_segments_win() {
    let certs = universe();
    let path = fresh_log_path("crashcompact");
    // A tiny rotation budget so the history genuinely spans segments.
    let mut store = CertStore::open_with_budget(&path, shared_verify_cache(), 512).unwrap();
    let mut memory = CertStore::new();
    for op in [
        Op::Insert(0),
        Op::Insert(1),
        Op::Insert(2),
        Op::Advance(2),
        Op::Revoke(0),
        Op::Insert(4),
        Op::Revoke(4),
        Op::Advance(3),
        Op::Insert(6),
    ] {
        apply(&mut store, &certs, &op);
        apply(&mut memory, &certs, &op);
    }
    store.sync().unwrap();
    let audit_before = store.audit().len();
    drop(store);

    // The durable state at the crash point.
    let snapshot = snapshot_store_files(&path);

    // Run the compaction that will "crash": reopen, compact, drop.
    let mut store = CertStore::open(&path, shared_verify_cache()).unwrap();
    assert!(store.compact().unwrap().performed);
    drop(store);

    // Crash rollback: none of the compactor's renames/deletes became
    // durable. Restore the snapshot wholesale.
    let dir = path.with_extension("");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
    for (file, bytes) in &snapshot {
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(file, bytes).unwrap();
    }

    // The reopened store is byte-for-byte the uncompacted one: full
    // audit trail, full tombstone knowledge, same active set.
    let reopened = CertStore::open(&path, shared_verify_cache()).unwrap();
    assert!(!reopened.replay_report().from_checkpoint);
    assert_eq!(reopened.audit().len(), audit_before);
    assert_eq!(reopened.active(), memory.active());
    assert_eq!(reopened.now(), memory.now());
    for cert in &certs {
        assert_eq!(
            reopened.status(&cert.digest()),
            memory.status(&cert.digest()),
            "pre-compaction tombstones must be fully intact after the crash"
        );
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bounded replay: after compaction, the records a reopen replays are
/// checkpoint + suffix — independent of how much history preceded the
/// checkpoint.
#[test]
fn replay_cost_is_independent_of_precheckpoint_history() {
    let certs = universe();
    let mut replayed = Vec::new();
    for &history_multiplier in &[1u64, 4, 16] {
        let path = fresh_log_path(&format!("bounded{history_multiplier}"));
        let mut store = CertStore::open_with_budget(&path, shared_verify_cache(), 2048).unwrap();
        // History: the same two live certificates, plus a pile of dead
        // records scaling with the multiplier (churned TTL certs and
        // superseded ticks).
        store.insert(certs[0].clone(), &toy_verifier()).unwrap();
        store.insert(certs[6].clone(), &toy_verifier()).unwrap();
        for _ in 0..history_multiplier {
            for _ in 0..8 {
                store.advance_clock(1).unwrap();
            }
            let c = &certs[1]; // ttl cert: expires and gets re-imported
            let _ = store.insert(c.clone(), &toy_verifier());
            store.advance_clock(5).unwrap();
        }
        assert!(store.compact().unwrap().performed);
        // A post-checkpoint suffix of fixed size.
        store.advance_clock(1).unwrap();
        store.sync().unwrap();
        drop(store);

        let store = CertStore::open(&path, shared_verify_cache()).unwrap();
        let report = store.replay_report();
        assert!(report.from_checkpoint);
        replayed.push(report.records);
        assert_eq!(store.status(&certs[0].digest()), Some(CertStatus::Active));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(path.with_extension(""));
    }
    assert_eq!(
        replayed[0], replayed[1],
        "replayed record count must not scale with pre-checkpoint history"
    );
    assert_eq!(replayed[1], replayed[2]);
}

/// Deterministic (non-property) regression: a truncated tail is
/// physically dropped at reopen and appending afterwards works.
#[test]
fn truncated_tail_then_append() {
    let certs = universe();
    let path = fresh_log_path("regress");
    let mut store = CertStore::open(&path, shared_verify_cache()).unwrap();
    store.insert(certs[0].clone(), &toy_verifier()).unwrap();
    store.insert(certs[1].clone(), &toy_verifier()).unwrap();
    store.sync().unwrap();
    drop(store);

    // Corrupt the second record's body.
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 10] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let mut store = CertStore::open(&path, shared_verify_cache()).unwrap();
    assert!(store.replay_report().truncated_tail);
    assert_eq!(store.len(), 1, "only the first record survived");
    assert_eq!(store.status(&certs[0].digest()), Some(CertStatus::Active));
    assert_eq!(store.status(&certs[1].digest()), None);

    // The lost certificate can simply be imported again …
    store.insert(certs[1].clone(), &toy_verifier()).unwrap();
    store.sync().unwrap();
    drop(store);
    // … and a clean reopen sees both.
    let store = CertStore::open(&path, shared_verify_cache()).unwrap();
    assert!(!store.replay_report().truncated_tail);
    assert_eq!(store.active_len(), 2);
    let _ = std::fs::remove_file(&path);
}

/// Revocation durability: the acceptance-critical property that a
/// Revocation objects stay *re-servable* across checkpoint, compaction
/// and reopen: the checkpoint carries each object's signature, so a
/// restarted store can still answer anti-entropy pulls and fingerprints
/// identically to its pre-restart self.
#[test]
fn revocation_objects_survive_compaction_with_signatures() {
    let certs = universe();
    let path = fresh_log_path("gossip-objects");
    let mut store = CertStore::open(&path, shared_verify_cache()).unwrap();
    store.insert(certs[0].clone(), &toy_verifier()).unwrap();
    // Two signers: alice's object covers the imported certificate,
    // bob's arrived before its certificate ever did.
    let imported = make_revocation(certs[0].issuer, certs[0].digest());
    let pre_arrival = make_revocation(certs[1].issuer, certs[1].digest());
    store.revoke(&imported, &toy_verifier()).unwrap();
    store.revoke(&pre_arrival, &toy_verifier()).unwrap();
    let fps_before = store.revocation_fingerprints();
    let report = store.compact().unwrap();
    assert!(report.performed, "log store must install the checkpoint");
    store.sync().unwrap();
    drop(store);

    let store = CertStore::open(&path, shared_verify_cache()).unwrap();
    assert!(store.replay_report().from_checkpoint);
    assert_eq!(
        store.revocation_fingerprints(),
        fps_before,
        "fingerprints must survive compaction + reopen"
    );
    // The exact signed objects are served back.
    assert_eq!(
        store.revocations_by(certs[0].issuer),
        vec![imported.clone()]
    );
    assert_eq!(store.revocations_by(certs[1].issuer), vec![pre_arrival]);
    assert_ne!(certs[0].issuer, certs[1].issuer);
}

/// A tolerantly absorbed foreign object (signer ≠ the held
/// certificate's issuer) is durably logged and must replay: dropping
/// it on reopen would shrink the store's gossip fingerprint and make
/// every restart re-pull (and re-append) the same object.
#[test]
fn absorbed_foreign_objects_survive_reopen() {
    let certs = universe();
    let path = fresh_log_path("foreign-objects");
    let mut store = CertStore::open(&path, shared_verify_cache()).unwrap();
    store.insert(certs[0].clone(), &toy_verifier()).unwrap();
    let foreign = make_revocation(Symbol::intern("mallory"), certs[0].digest());
    assert!(
        store
            .absorb_revocation(&foreign, &toy_verifier())
            .unwrap()
            .applied
    );
    let fps = store.revocation_fingerprints();
    store.sync().unwrap();
    drop(store);

    let store = CertStore::open(&path, shared_verify_cache()).unwrap();
    assert_eq!(store.revocation_fingerprints(), fps);
    assert_eq!(
        store.revocations_by(Symbol::intern("mallory")),
        vec![foreign]
    );
    // Still inert: the certificate the foreign object points at is
    // alive and re-importable state is untouched.
    assert_eq!(store.status(&certs[0].digest()), Some(CertStatus::Active));
}

/// revoked certificate stays rejected across reopen, including when it
/// was revoked before ever arriving.
#[test]
fn revocations_survive_reopen() {
    let certs = universe();
    let path = fresh_log_path("revoked");
    let mut store = CertStore::open(&path, shared_verify_cache()).unwrap();
    // certs[0]: imported then revoked. certs[2]: revoked pre-arrival.
    store.insert(certs[0].clone(), &toy_verifier()).unwrap();
    store
        .revoke(
            &make_revocation(certs[0].issuer, certs[0].digest()),
            &toy_verifier(),
        )
        .unwrap();
    store
        .revoke(
            &make_revocation(certs[2].issuer, certs[2].digest()),
            &toy_verifier(),
        )
        .unwrap();
    store.sync().unwrap();
    drop(store);

    let mut store = CertStore::open(&path, shared_verify_cache()).unwrap();
    assert!(matches!(
        store.insert(certs[0].clone(), &toy_verifier()),
        Err(CertStoreError::Revoked(_))
    ));
    assert_eq!(store.status(&certs[0].digest()), Some(CertStatus::Revoked));
    assert!(
        matches!(
            store.insert(certs[2].clone(), &toy_verifier()),
            Err(CertStoreError::Revoked(_))
        ),
        "pre-arrival revocation must survive restart"
    );
    let _ = std::fs::remove_file(&path);
}

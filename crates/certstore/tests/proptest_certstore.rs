//! Property tests for the certificate store: content-address and
//! store/fetch identities, revocation idempotence, and the cache-hit ≡
//! fresh-verification law.

use lbtrust_certstore::{
    cert::signing_bytes, CertDigest, CertStore, LinkedCert, Revocation, SignatureVerifier,
    VerifyCache,
};
use lbtrust_datalog::{parse_rule, Symbol};
use lbtrust_net::revoke_signing_bytes;
use proptest::prelude::*;
use std::sync::Arc;

/// Toy deterministic signing: signature = "signed:<issuer>:" + message.
/// The store treats signatures as opaque bytes, so the scheme is
/// irrelevant to the invariants under test (integration tests use RSA).
fn sign(issuer: Symbol, message: &[u8]) -> Vec<u8> {
    let mut out = format!("signed:{issuer}:").into_bytes();
    out.extend_from_slice(message);
    out
}

fn toy_verifier() -> impl SignatureVerifier {
    |signer: Symbol, message: &[u8], sig: &[u8]| sig == sign(signer, message).as_slice()
}

fn make_cert(
    issuer: &str,
    pred: &str,
    arg: &str,
    links: Vec<CertDigest>,
    ttl: Option<u64>,
) -> LinkedCert {
    let issuer = Symbol::intern(issuer);
    let rule = Arc::new(parse_rule(&format!("{pred}({arg}).")).unwrap());
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

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,6}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// store → fetch is the identity on certificates.
    #[test]
    fn store_fetch_identity(
        issuer in ident(),
        pred in ident(),
        arg in ident(),
        ttl in prop_oneof![Just(None), (1u64..1000).prop_map(Some)],
    ) {
        let cert = make_cert(&issuer, &pred, &arg, vec![], ttl);
        let mut store = CertStore::new();
        let out = store.insert(cert.clone(), &toy_verifier()).unwrap();
        prop_assert!(out.newly_added);
        let fetched = store.get(&out.digest).expect("stored");
        prop_assert_eq!(&fetched.cert, &cert);
        prop_assert_eq!(cert.digest(), out.digest);
    }

    /// The content address survives a hex round-trip and is stable
    /// under recomputation.
    #[test]
    fn digest_roundtrip(issuer in ident(), pred in ident(), arg in ident()) {
        let cert = make_cert(&issuer, &pred, &arg, vec![], None);
        let d = cert.digest();
        prop_assert_eq!(d, cert.digest(), "digest must be deterministic");
        prop_assert_eq!(CertDigest::parse_hex(&d.to_hex()), Some(d));
    }

    /// Revocation is idempotent: the first application emits events,
    /// every later application emits none and leaves the store fixed.
    #[test]
    fn revocation_is_idempotent(
        issuer in ident(),
        pred in ident(),
        args in prop::collection::vec(ident(), 1..6),
        extra_revokes in 1usize..4,
    ) {
        let mut store = CertStore::new();
        let mut digests = Vec::new();
        for (i, arg) in args.iter().enumerate() {
            // Chain: each certificate cites the previous one.
            let links = digests.last().copied().into_iter().collect();
            let cert = make_cert(&issuer, &pred, &format!("{arg}{i}"), links, None);
            let out = store.insert(cert, &toy_verifier()).unwrap();
            digests.push(out.digest);
        }
        let target = digests[0];
        let revocation = make_revocation(Symbol::intern(&issuer), target);
        let first = store.revoke(&revocation, &toy_verifier()).unwrap();
        // Revoking the chain root kills the whole chain.
        prop_assert_eq!(first.len(), digests.len());
        let statuses: Vec<_> = digests.iter().map(|d| store.status(d)).collect();
        for _ in 0..extra_revokes {
            let again = store.revoke(&revocation, &toy_verifier()).unwrap();
            prop_assert!(again.is_empty(), "re-revocation must be a no-op");
            let now: Vec<_> = digests.iter().map(|d| store.status(d)).collect();
            prop_assert_eq!(&now, &statuses, "store state must be fixed");
        }
    }

    /// A cached verification answer equals what a fresh verification
    /// would produce. Only a success is remembered: a forged
    /// signature's second check is a miss again, and still `false`.
    #[test]
    fn cache_hit_equals_fresh_verification(
        signer in ident(),
        message in prop::collection::vec(any::<u8>(), 1..64),
        tamper in any::<bool>(),
    ) {
        let signer = Symbol::intern(&signer);
        let mut signature = sign(signer, &message);
        if tamper {
            let last = signature.len() - 1;
            signature[last] ^= 1;
        }
        let fresh = toy_verifier().verify(signer, &message, &signature);
        prop_assert_eq!(fresh, !tamper);
        let mut cache = VerifyCache::new();
        let (first, hit1) = cache.check(&toy_verifier(), signer, &message, &signature);
        let (second, hit2) = cache.check(&toy_verifier(), signer, &message, &signature);
        prop_assert!(!hit1, "first check is a miss");
        prop_assert_eq!(hit2, fresh, "only a success is answered from the cache");
        prop_assert_eq!(first, fresh, "miss path equals fresh verification");
        prop_assert_eq!(second, fresh, "second check equals fresh verification");
        prop_assert_eq!(cache.len(), usize::from(fresh));
    }

    /// Random `check` / `prime` sequences against the plain verifier as
    /// the model. The alphabet holds the same bytes under two signers and
    /// triples whose `message ‖ signature` concatenations are equal but
    /// split differently; which triples verify is drawn per case. Every
    /// answer is the verifier's, and a hit follows only a success (a
    /// verified check or a prime) on the identical triple.
    #[test]
    fn cache_agrees_with_verifier_on_any_sequence(
        valid in any::<u32>(),
        ops in prop::collection::vec((any::<bool>(), 0usize..32), 1..64),
    ) {
        const PARTS: [&[u8]; 4] = [b"", b"x", b"xy", b"xyz"];
        let signers = [Symbol::intern("a"), Symbol::intern("b")];
        // 32 triples: signer × message ∈ PARTS × signature ∈ suffixes
        // of "xyz", so ("x", "yz"), ("xy", "z") and ("xyz", "") spell
        // the same concatenation.
        let triple = |i: usize| (signers[i / 16], PARTS[i / 4 % 4], &b"xyz"[i % 4..]);
        let index = |s: Symbol, m: &[u8], sig: &[u8]| {
            let signer = signers.iter().position(|x| *x == s).unwrap();
            let message = PARTS.iter().position(|p| *p == m).unwrap();
            signer * 16 + message * 4 + (3 - sig.len())
        };
        let calls = std::cell::Cell::new(0u64);
        let verifier = |s: Symbol, m: &[u8], sig: &[u8]| {
            calls.set(calls.get() + 1);
            valid >> index(s, m, sig) & 1 == 1
        };
        let mut cache = VerifyCache::new();
        let mut remembered = std::collections::HashSet::new();
        for (prime, i) in ops {
            let (signer, message, signature) = triple(i);
            let truth = valid >> i & 1 == 1;
            if prime && truth {
                // Replay primes only what verified when it was written.
                cache.prime(signer, message, signature);
                remembered.insert(i);
            } else {
                let before = calls.get();
                let (ok, hit) = cache.check(&verifier, signer, message, signature);
                prop_assert_eq!(ok, truth, "triple {} answered wrongly", i);
                prop_assert_eq!(hit, remembered.contains(&i), "triple {} hit wrongly", i);
                prop_assert_eq!(calls.get() - before, u64::from(!hit));
                if ok {
                    remembered.insert(i);
                }
            }
            prop_assert_eq!(cache.len(), remembered.len());
        }
    }

    /// Bundles resolve regardless of member order: any rotation of a
    /// linked chain imports fully.
    #[test]
    fn bundle_order_irrelevant(
        issuer in ident(),
        pred in ident(),
        n in 2usize..6,
        rotate in 0usize..6,
    ) {
        let mut certs: Vec<LinkedCert> = Vec::new();
        for i in 0..n {
            let links = certs.last().map(|c: &LinkedCert| c.digest()).into_iter().collect();
            certs.push(make_cert(&issuer, &pred, &format!("a{i}"), links, None));
        }
        let k = rotate % n;
        certs.rotate_left(k);
        let mut store = CertStore::new();
        let outcomes = store.import_bundle(certs, &toy_verifier()).unwrap();
        prop_assert_eq!(outcomes.len(), n);
        prop_assert_eq!(store.active().len(), n);
    }

    /// Re-importing any stored live certificate is answered from the
    /// store: same digest, no new entry, cache-hit flagged.
    #[test]
    fn reimport_is_stable(
        issuer in ident(),
        pred in ident(),
        args in prop::collection::vec(ident(), 1..5),
    ) {
        let mut store = CertStore::new();
        let certs: Vec<LinkedCert> = args
            .iter()
            .enumerate()
            .map(|(i, a)| make_cert(&issuer, &pred, &format!("{a}{i}"), vec![], None))
            .collect();
        let first: Vec<_> = certs
            .iter()
            .map(|c| store.insert(c.clone(), &toy_verifier()).unwrap())
            .collect();
        let len_after_first = store.len();
        for (cert, orig) in certs.iter().zip(&first) {
            let again = store.insert(cert.clone(), &toy_verifier()).unwrap();
            prop_assert_eq!(again.digest, orig.digest);
            prop_assert!(again.cache_hit);
            prop_assert!(!again.newly_added);
        }
        prop_assert_eq!(store.len(), len_after_first);
    }
}

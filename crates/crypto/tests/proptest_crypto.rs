//! Property tests for the cryptographic substrate: big-integer laws,
//! modular arithmetic, hash/MAC behaviour, and cipher roundtrips.

use lbtrust_crypto::bignum::BigUint;
use lbtrust_crypto::hmac::{hmac_sha1, hmac_sha256, verify_mac};
use lbtrust_crypto::sha1::Sha1;
use lbtrust_crypto::sha256::Sha256;
use lbtrust_crypto::stream;
use lbtrust_crypto::{KeyPair, RsaError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::sync::OnceLock;

fn big(bytes: &[u8]) -> BigUint {
    BigUint::from_bytes_be(bytes)
}

/// One 512-bit key for every case that needs one (`k` = 64 bytes).
fn test_key() -> &'static KeyPair {
    static KEY: OnceLock<KeyPair> = OnceLock::new();
    KEY.get_or_init(|| KeyPair::generate(512, &mut StdRng::seed_from_u64(20)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever arrives as a signature — any bytes, any length from
    /// nothing to twice the modulus — is refused, not panicked on; and a
    /// real signature with any one bit flipped is refused too.
    #[test]
    fn rsa_verify_refuses_arbitrary_bytes(sig in prop::collection::vec(any::<u8>(), 0..129),
                                          msg in prop::collection::vec(any::<u8>(), 0..40),
                                          flip in 0usize..512) {
        let key = test_key();
        prop_assert_eq!(key.public_key().verify(&msg, &sig), Err(RsaError::BadSignature));
        let mut real = key.private.sign(&msg).unwrap();
        prop_assert!(key.public_key().verify(&msg, &real).is_ok());
        real[flip / 8] ^= 1 << (flip % 8);
        prop_assert_eq!(key.public_key().verify(&msg, &real), Err(RsaError::BadSignature));
    }

    #[test]
    fn bytes_roundtrip(data in prop::collection::vec(any::<u8>(), 1..64)) {
        let v = big(&data);
        let back = BigUint::from_bytes_be(&v.to_bytes_be());
        prop_assert_eq!(v, back);
    }

    #[test]
    fn add_sub_inverse(a in prop::collection::vec(any::<u8>(), 1..40),
                       b in prop::collection::vec(any::<u8>(), 1..40)) {
        let (x, y) = (big(&a), big(&b));
        let sum = x.add(&y);
        prop_assert_eq!(sum.sub(&y), x.clone());
        prop_assert_eq!(sum.sub(&x), y);
    }

    #[test]
    fn mul_distributes_over_add(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (x, y, z) = (BigUint::from_u64(a), BigUint::from_u64(b), BigUint::from_u64(c));
        prop_assert_eq!(
            x.mul(&y.add(&z)),
            x.mul(&y).add(&x.mul(&z))
        );
    }

    #[test]
    fn div_rem_invariant(a in prop::collection::vec(any::<u8>(), 1..48),
                         b in prop::collection::vec(any::<u8>(), 1..24)) {
        let x = big(&a);
        let mut y = big(&b);
        if y.is_zero() { y = BigUint::one(); }
        let (q, r) = x.div_rem(&y);
        prop_assert_eq!(q.mul(&y).add(&r), x);
        prop_assert!(r.cmp_big(&y) == Ordering::Less);
    }

    #[test]
    fn modpow_exponent_addition(base in 2u64..1000, e1 in 0u64..40, e2 in 0u64..40) {
        // a^(e1+e2) = a^e1 * a^e2 (mod m), m odd so Montgomery is used.
        let m = BigUint::from_u64(1_000_003); // prime
        let a = BigUint::from_u64(base);
        let lhs = a.modpow(&BigUint::from_u64(e1 + e2), &m);
        let rhs = a
            .modpow(&BigUint::from_u64(e1), &m)
            .mulmod(&a.modpow(&BigUint::from_u64(e2), &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modinv_is_inverse(a in 1u64..1_000_000) {
        let m = BigUint::from_u64(1_000_000_007); // prime
        let x = BigUint::from_u64(a);
        let inv = x.modinv(&m).expect("prime modulus");
        prop_assert_eq!(x.mulmod(&inv, &m), BigUint::one());
    }

    #[test]
    fn shifts_are_mul_div_by_powers(a in any::<u64>(), s in 0usize..40) {
        let x = BigUint::from_u64(a);
        let two_s = BigUint::one().shl(s);
        prop_assert_eq!(x.shl(s), x.mul(&two_s));
        prop_assert_eq!(x.shl(s).shr(s), x);
    }

    #[test]
    fn sha1_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..300),
                                       split in 0usize..300) {
        let split = split.min(data.len());
        let mut h = Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha1::digest(&data));
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..300),
                                         split in 0usize..300) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn hmac_verifies_only_exact_mac(key in prop::collection::vec(any::<u8>(), 1..40),
                                    msg in prop::collection::vec(any::<u8>(), 0..100),
                                    flip in 0usize..20) {
        let mac = hmac_sha1(&key, &msg);
        prop_assert!(verify_mac(&mac, &mac));
        let mut bad = mac.clone();
        let pos = flip % bad.len();
        bad[pos] ^= 1;
        prop_assert!(!verify_mac(&mac, &bad));
        // SHA-256 variant agrees on self-verification.
        let mac256 = hmac_sha256(&key, &msg);
        prop_assert!(verify_mac(&mac256, &mac256));
    }

    #[test]
    fn stream_cipher_roundtrip(key in prop::collection::vec(any::<u8>(), 1..40),
                               pt in prop::collection::vec(any::<u8>(), 0..200)) {
        let nonce = stream::siv_nonce(&key, &pt);
        let ct = stream::encrypt_with_nonce(&key, &nonce, &pt);
        prop_assert_eq!(stream::decrypt(&key, &ct).unwrap(), pt.clone());
        // Deterministic under SIV.
        let ct2 = stream::encrypt_with_nonce(&key, &stream::siv_nonce(&key, &pt), &pt);
        prop_assert_eq!(ct, ct2);
    }

    #[test]
    fn stream_cipher_key_sensitivity(pt in prop::collection::vec(any::<u8>(), 8..100)) {
        let nonce = stream::siv_nonce(b"key-one", &pt);
        let ct = stream::encrypt_with_nonce(b"key-one", &nonce, &pt);
        let wrong = stream::decrypt(b"key-two", &ct).unwrap();
        prop_assert_ne!(wrong, pt);
    }
}

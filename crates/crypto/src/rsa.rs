//! RSA signatures: the `rsasign`/`rsaverify` built-ins of the paper
//! (§4.1.1) and the certificate scheme Binder specifies.
//!
//! Signing follows EMSA-PKCS1-v1_5 over a SHA-1 digest (`00 01 FF…FF 00 ||
//! DigestInfo || H(m)`), matching the paper's "1024-bit RSA signatures
//! given an input fact". Private-key operations use the CRT for the usual
//! ~4× speedup, and a key holds the Montgomery context of each modulus it
//! exponentiates under (`n`, `p`, `q`), built once when the key is
//! generated. `benchmark/` measures the pieces as `crypto.rsa_sign_us`,
//! `crypto.rsa_verify_us` and `crypto.rsa_keygen_ms`, and the full
//! sign+verify path, as Figure 2 does, as its `fig2_rsa` workload.

use crate::bignum::{BigUint, Montgomery};
use crate::prime::gen_prime;
use crate::sha1::Sha1;
use rand::Rng;
use std::fmt;

/// ASN.1 DER prefix of `DigestInfo` for SHA-1 (RFC 8017 §9.2 note 1).
const SHA1_DIGEST_INFO: [u8; 15] = [
    0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14,
];

/// Errors from RSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// The modulus is too small to hold the padded digest.
    ModulusTooSmall,
    /// The signature does not verify.
    BadSignature,
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsaError::ModulusTooSmall => write!(f, "RSA modulus too small for padded digest"),
            RsaError::BadSignature => write!(f, "RSA signature verification failed"),
        }
    }
}

impl std::error::Error for RsaError {}

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PublicKey {
    /// The modulus, with its exponentiation context (which compares,
    /// hashes and prints as the modulus alone).
    n: Montgomery,
    e: BigUint,
}

impl PublicKey {
    /// The modulus size in bytes (rounded up).
    pub fn modulus_len(&self) -> usize {
        self.n().bits().div_ceil(8)
    }

    /// The modulus.
    pub fn n(&self) -> &BigUint {
        self.n.modulus()
    }

    /// The public exponent.
    pub fn e(&self) -> &BigUint {
        &self.e
    }

    /// Short stable fingerprint of the key (first 8 hex chars of
    /// `SHA1(n || e)`), used for the `rsa:3:c1ebab5d`-style key references
    /// in Binder certificates (§5.1 of the paper).
    pub fn fingerprint(&self) -> String {
        let mut h = Sha1::new();
        h.update(&self.n().to_bytes_be());
        h.update(&self.e.to_bytes_be());
        let digest = h.finalize();
        digest[..4].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Verifies `signature` over `message`. Returns `Ok(())` iff the
    /// signature is exactly the expected PKCS#1 v1.5 encoding.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), RsaError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(RsaError::BadSignature);
        }
        let s = BigUint::from_bytes_be(signature);
        if s.cmp_big(self.n()) != std::cmp::Ordering::Less {
            return Err(RsaError::BadSignature);
        }
        let em = self.n.modpow(&s, &self.e);
        let expected = emsa_pkcs1_v15(message, k)?;
        if em == BigUint::from_bytes_be(&expected) {
            Ok(())
        } else {
            Err(RsaError::BadSignature)
        }
    }
}

/// An RSA private key with CRT parameters.
#[derive(Debug, Clone)]
pub struct PrivateKey {
    public: PublicKey,
    d: BigUint,
    p: Montgomery,
    q: Montgomery,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

impl PrivateKey {
    /// The corresponding public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// Signs `message` with EMSA-PKCS1-v1_5 over SHA-1.
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.public.modulus_len();
        let em = BigUint::from_bytes_be(&emsa_pkcs1_v15(message, k)?);
        let s = self.private_op(&em);
        Ok(s.to_bytes_be_padded(k).expect("s < n fits in k bytes"))
    }

    /// `m^d mod n` via the Chinese Remainder Theorem.
    fn private_op(&self, m: &BigUint) -> BigUint {
        let m1 = self.p.modpow(m, &self.dp);
        let m2 = self.q.modpow(m, &self.dq);
        let (p, q) = (self.p.modulus(), self.q.modulus());
        // h = qinv * (m1 - m2) mod p
        let h = self.qinv.mulmod(&m1.submod(&m2.rem(p), p), p);
        m2.add(&h.mul(q))
    }

    /// Raw exponent (exposed for tests of CRT consistency).
    pub fn d(&self) -> &BigUint {
        &self.d
    }
}

/// A convenience pair of private and public key.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// The private half (includes the public key).
    pub private: PrivateKey,
}

impl KeyPair {
    /// Generates a fresh keypair with a modulus of `bits` bits
    /// (e.g. 1024 as in the paper) and public exponent 65537.
    ///
    /// All randomness comes from `rng`, so a seeded RNG yields a
    /// deterministic key — used heavily in tests and benches.
    pub fn generate<R: Rng>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 64, "modulus too small: {bits} bits");
        let e = BigUint::from_u64(65537);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let one = BigUint::one();
            let phi = p.sub(&one).mul(&q.sub(&one));
            let Some(d) = e.modinv(&phi) else {
                continue; // gcd(e, phi) != 1; retry with new primes
            };
            let dp = d.rem(&p.sub(&one));
            let dq = d.rem(&q.sub(&one));
            let Some(qinv) = q.modinv(&p) else { continue };
            return KeyPair {
                private: PrivateKey {
                    public: PublicKey {
                        n: Montgomery::new(&n),
                        e,
                    },
                    d,
                    p: Montgomery::new(&p),
                    q: Montgomery::new(&q),
                    dp,
                    dq,
                    qinv,
                },
            };
        }
    }

    /// The public key.
    pub fn public_key(&self) -> &PublicKey {
        self.private.public_key()
    }
}

/// EMSA-PKCS1-v1_5 encoding of `SHA1(message)` into `k` bytes.
fn emsa_pkcs1_v15(message: &[u8], k: usize) -> Result<Vec<u8>, RsaError> {
    let digest = Sha1::digest(message);
    let t_len = SHA1_DIGEST_INFO.len() + digest.len();
    if k < t_len + 11 {
        return Err(RsaError::ModulusTooSmall);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA1_DIGEST_INFO);
    em.extend_from_slice(&digest);
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_keypair(seed: u64) -> KeyPair {
        // 512-bit keys keep the test suite fast; benches use 1024.
        KeyPair::generate(512, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = test_keypair(1);
        let msg = b"access(alice, file1, read)";
        let sig = kp.private.sign(msg).unwrap();
        assert!(kp.public_key().verify(msg, &sig).is_ok());
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = test_keypair(2);
        let sig = kp.private.sign(b"good(alice)").unwrap();
        assert_eq!(
            kp.public_key().verify(b"good(mallory)", &sig),
            Err(RsaError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = test_keypair(3);
        let mut sig = kp.private.sign(b"msg").unwrap();
        sig[0] ^= 0x40;
        assert_eq!(
            kp.public_key().verify(b"msg", &sig),
            Err(RsaError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = test_keypair(4);
        let kp2 = test_keypair(5);
        let sig = kp1.private.sign(b"msg").unwrap();
        assert!(kp2.public_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let kp = test_keypair(6);
        let m = BigUint::from_u64(0xdeadbeef);
        let crt = kp.private.private_op(&m);
        let plain = m.modpow(kp.private.d(), kp.public_key().n());
        assert_eq!(crt, plain);
    }

    #[test]
    fn signature_length_is_modulus_length() {
        let kp = test_keypair(7);
        let sig = kp.private.sign(b"x").unwrap();
        assert_eq!(sig.len(), kp.public_key().modulus_len());
    }

    #[test]
    fn fingerprint_stable_and_distinct() {
        let kp1 = test_keypair(8);
        let kp2 = test_keypair(9);
        assert_eq!(
            kp1.public_key().fingerprint(),
            kp1.public_key().fingerprint()
        );
        assert_ne!(
            kp1.public_key().fingerprint(),
            kp2.public_key().fingerprint()
        );
        assert_eq!(kp1.public_key().fingerprint().len(), 8);
    }

    #[test]
    fn keygen_deterministic_for_seed() {
        let a = test_keypair(10);
        let b = test_keypair(10);
        assert_eq!(a.public_key(), b.public_key());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Keys and signatures are functions of the seed and the message
    /// alone: these vectors were taken before the exponentiation kernel
    /// was replaced and must hold whatever computes them.
    #[test]
    fn pinned_keys_and_signatures() {
        struct Pin {
            bits: usize,
            seed: u64,
            fingerprint: &'static str,
            n: &'static str,
            d: &'static str,
            sig_access: &'static str,
            sig_empty: &'static str,
        }
        let pins = [
            Pin {
                bits: 512,
                seed: 1,
                fingerprint: "e8e2ed0d",
                n: "b5eb67b32d899ad682dc0e6b1b040bcbed65e86cb43f5c03e5d482a9f27b9e3c\
                    462095da77a03dd640edef168fd7508f7d6215e30590128e879ff59512a8d75d",
                d: "558a3b58a530eefdaeca8a7d1256f4b50f0bbc1e6122e9c16b70618047e498a2\
                    33e0c556bffee4c07ec27884f8866fe17fcd961d44e0992ccb9c4f323bcdaa9",
                sig_access: "08bfde83fc8c11c1eb2b2f2eb466809357b6071de2706b84eef72136bdbf951f\
                             ff8378cb97781d3063a70cdd1239b1fa6e78ad3cc72feefd2083e992a31866b4",
                sig_empty: "476af64e8bcddc9e44d52e84c99e7383660bad8c8d6543810f31a2cc8bb6cfcc\
                            c0e88147f46793e2aac85470e7bdafa857eaeb72b3da22fe8497beeb5a867a98",
            },
            Pin {
                bits: 1024,
                seed: 7,
                fingerprint: "ae4760f7",
                n: "b2be9c33d47b4c91b40aff127ee9f7f8a1d3bdf6ed51e2b7211dbed70fb3793e\
                    6e6f64906f8fd840ea0f6e4fed5eb47754b3675c2a00187a4fe0d9b371c76e31\
                    ec7aa1db0927c7320fe691e571b8bcddd8b74b8715ec9a67923f892d5c4e00d4\
                    2067185fe6b956de5eb513f6d675f47af9b5019873473159295282f8acd36195",
                d: "9d061029041ff12b0ab4a251b84687fdd704319ccbed24b2e617c080239df204\
                    23761e2d38a47040ce9e11b58b7ca82330b88e338bfe1b82cfcb62d45e3ee990\
                    e02286082adf957451f687191e5a25bbb5bc032970d93dfa99a94125fe483a2d\
                    b095845a25a43dd080aa02cc56e6a0afd13714080ecbbff60b5da33530b33b9d",
                sig_access: "2e066728bde30afb3a54d93e2a181ea09b6508544fe05633f5fac9303ad58d6c\
                             dfc2694448a830b982ba62384f671aefb88e69841d47d63336a8a3a97bde3c3a\
                             378f7121d0da93a40a7a2bc14d7e84ed40b809e580815e92897e83537543a718\
                             665c10a5d929801308deab5ed62bc9e004643a4c2947d64cb388d11bf9031d95",
                sig_empty: "7ba8e059336f1a9f8a6828c7b844588da1d40ff860f2960e3ef7440f79de6d87\
                            6cd42f266d4554e9347843802f06ba1aa4bba12cc7b080952938480ec37a1cf1\
                            f167f1b6b817a8d079b99cd379ff163e54d0d9560694982f266832c097fb02cd\
                            c2edb4867bbc882e95816bfdc97fca8ff7488fd20107a038edf32972e902db94",
            },
        ];
        for pin in pins {
            let kp = KeyPair::generate(pin.bits, &mut StdRng::seed_from_u64(pin.seed));
            let public = kp.public_key();
            assert_eq!(public.fingerprint(), pin.fingerprint);
            assert_eq!(public.n().to_hex(), pin.n);
            assert_eq!(kp.private.d().to_hex(), pin.d);
            for (msg, want) in [
                (&b"access(alice, file1, read)"[..], pin.sig_access),
                (&b""[..], pin.sig_empty),
            ] {
                let sig = kp.private.sign(msg).unwrap();
                assert_eq!(hex(&sig), want, "{} bits, seed {}", pin.bits, pin.seed);
                assert!(public.verify(msg, &sig).is_ok());
            }
        }
    }

    /// The contexts are the keys': built when the key is, and by nothing
    /// that signs or verifies with it.
    #[test]
    fn signing_and_verifying_build_no_context() {
        use crate::bignum::CONTEXTS_BUILT;
        let before = CONTEXTS_BUILT.with(|built| built.get());
        let kp = test_keypair(12);
        let generated = CONTEXTS_BUILT.with(|built| built.get());
        // n, p and q, and one per candidate prime that reached Miller–Rabin.
        assert!(generated - before >= 3 + 2);
        let sig = kp.private.sign(b"msg").unwrap();
        assert!(kp.public_key().verify(b"msg", &sig).is_ok());
        assert!(kp.public_key().verify(b"other", &sig).is_err());
        assert_eq!(CONTEXTS_BUILT.with(|built| built.get()), generated);
    }

    /// Bytes from the network: a signature of any length, and the values
    /// at the edges of `[0, n)`, is a `BadSignature`, never a panic.
    #[test]
    fn hostile_signatures_are_rejected() {
        let kp = test_keypair(13);
        let public = kp.public_key();
        let k = public.modulus_len();
        for len in 0..=2 * k {
            for fill in [0x00, 0x01, 0xff] {
                assert_eq!(
                    public.verify(b"msg", &vec![fill; len]),
                    Err(RsaError::BadSignature),
                    "{len} bytes of {fill:#04x}"
                );
            }
        }
        let one = BigUint::one();
        let n = public.n();
        for value in [
            BigUint::zero(),
            one.clone(),
            n.sub(&one),
            n.clone(),
            n.add(&one),
            one.shl(8 * k).sub(&one),
        ] {
            let bytes = value.to_bytes_be_padded(k).expect("at most k bytes");
            assert_eq!(
                public.verify(b"msg", &bytes),
                Err(RsaError::BadSignature),
                "{value:?}"
            );
        }
    }

    #[test]
    fn empty_and_large_messages() {
        let kp = test_keypair(11);
        for msg in [&b""[..], &[0xabu8; 10_000][..]] {
            let sig = kp.private.sign(msg).unwrap();
            assert!(kp.public_key().verify(msg, &sig).is_ok());
        }
    }
}

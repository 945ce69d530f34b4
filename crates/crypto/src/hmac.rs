//! HMAC (RFC 2104), generic over any [`Digest`].
//!
//! Implements the paper's `hmacsign`/`hmacverify` built-ins (§4.1.2): a MAC
//! is "a 160-bit SHA-1 cryptographic hash of the message data and a secret
//! key shared between the two communicating principals".

use crate::digest::Digest;

/// The block of both hashes this crate has, so both pads are stack
/// arrays; a wider hash would raise it (and does not compile until it
/// does).
const MAX_BLOCK_LEN: usize = 64;

/// Computes `HMAC_H(key, message)`.
pub fn hmac<H: Digest>(key: &[u8], message: &[u8]) -> Vec<u8> {
    const { assert!(H::BLOCK_LEN <= MAX_BLOCK_LEN, "hash block wider than a pad") };
    // Keys longer than the block size are hashed first.
    let hashed;
    let key = if key.len() > H::BLOCK_LEN {
        hashed = H::hash(key);
        &hashed[..]
    } else {
        key
    };
    let (mut ipad, mut opad) = ([0x36u8; MAX_BLOCK_LEN], [0x5cu8; MAX_BLOCK_LEN]);
    for ((i, o), k) in ipad.iter_mut().zip(&mut opad).zip(key) {
        *i ^= k;
        *o ^= k;
    }

    let mut inner = H::fresh();
    inner.absorb(&ipad[..H::BLOCK_LEN]);
    inner.absorb(message);

    let mut outer = H::fresh();
    outer.absorb(&opad[..H::BLOCK_LEN]);
    outer.absorb(&inner.produce());
    outer.produce()
}

/// Convenience alias: HMAC-SHA1, the scheme named in the paper.
pub fn hmac_sha1(key: &[u8], message: &[u8]) -> Vec<u8> {
    hmac::<crate::sha1::Sha1>(key, message)
}

/// Convenience alias: HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Vec<u8> {
    hmac::<crate::sha256::Sha256>(key, message)
}

/// Constant-*length* comparison of two MACs.
///
/// Rejects immediately on length mismatch, then compares every byte without
/// early exit. (The rest of this crate is not constant-time; this guard is
/// still cheap to do properly.)
pub fn verify_mac(expected: &[u8], actual: &[u8]) -> bool {
    if expected.len() != actual.len() {
        return false;
    }
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 2202 test vectors for HMAC-SHA1.
    #[test]
    fn rfc2202_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&hmac_sha1(&key, b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    #[test]
    fn rfc2202_case2() {
        assert_eq!(
            hex(&hmac_sha1(b"Jefe", b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    #[test]
    fn rfc2202_case3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        assert_eq!(
            hex(&hmac_sha1(&key, &data)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
    }

    #[test]
    fn rfc2202_case6_long_key() {
        let key = [0xaa; 80];
        assert_eq!(
            hex(&hmac_sha1(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    // RFC 4231 test vector 1 for HMAC-SHA256.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn verify_mac_behaviour() {
        let mac = hmac_sha1(b"k", b"m");
        assert!(verify_mac(&mac, &mac));
        let mut bad = mac.clone();
        bad[0] ^= 1;
        assert!(!verify_mac(&mac, &bad));
        assert!(!verify_mac(&mac, &mac[..10]));
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha1(b"key1", b"msg"), hmac_sha1(b"key2", b"msg"));
        assert_ne!(hmac_sha1(b"key", b"msg1"), hmac_sha1(b"key", b"msg2"));
    }
}

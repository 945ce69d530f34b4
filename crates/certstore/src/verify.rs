//! Signature verification with content-addressed caching.
//!
//! Checking an RSA signature costs a modular exponentiation; in a busy
//! deployment the same certificate arrives at many principals and is
//! re-checked on every fixpoint round. The cache remembers each
//! signature that *verified* by its exact bytes: one boxed byte string
//! `signer ‖ len(message) ‖ message ‖ signature`, where the length
//! prefix makes the message/signature split unambiguous. A signature
//! over identical canonical bytes is verified once per process and
//! every later check is a set lookup. No digest is computed, so a hit
//! does not rest on any hash function's collision resistance; the set
//! hashes with std's keyed SipHash because the bytes are chosen by
//! whoever sent them.
//!
//! Only successes are remembered. A failed check runs the verifier again
//! the next time it is asked: a remembered failure would hold
//! attacker-chosen bytes (a `says` rule of any size plus a forged
//! signature) for the life of the process.
//!
//! One extension serves the durable store ([`crate::backend`]):
//! [`VerifyCache::prime`] records a success without running a verifier.
//! Log replay primes every recorded signature, so a reopened store never
//! re-pays the modular exponentiation.
//!
//! The set is unbounded: one entry per distinct signature ever verified
//! or primed in the process, each holding its message and signature
//! plus a 12-byte header in one allocation. A certificate has one
//! entry: its signed form and its raw signature.

use lbtrust_datalog::Symbol;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Resolves a principal's key material and checks signatures. The
/// runtime implements this over its key directory; tests implement it
/// directly.
pub trait SignatureVerifier {
    /// Whether `signature` is `signer`'s signature over `message`.
    fn verify(&self, signer: Symbol, message: &[u8], signature: &[u8]) -> bool;
}

/// Blanket impl so closures can act as verifiers in tests.
impl<F: Fn(Symbol, &[u8], &[u8]) -> bool> SignatureVerifier for F {
    fn verify(&self, signer: Symbol, message: &[u8], signature: &[u8]) -> bool {
        self(signer, message, signature)
    }
}

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered without touching the verifier.
    pub hits: u64,
    /// Lookups that had to run a real signature check.
    pub misses: u64,
    /// Outcomes installed without a verifier (log replay).
    pub primed: u64,
}

/// A memo set of verified signatures.
pub struct VerifyCache {
    verified: HashSet<Box<[u8]>>,
    stats: CacheStats,
}

impl Default for VerifyCache {
    fn default() -> Self {
        VerifyCache::new()
    }
}

impl VerifyCache {
    /// An empty, unbounded cache.
    pub fn new() -> VerifyCache {
        VerifyCache {
            verified: HashSet::new(),
            stats: CacheStats::default(),
        }
    }

    /// The memo key: `signer ‖ len(message) ‖ message ‖ signature`.
    fn key(signer: Symbol, message: &[u8], signature: &[u8]) -> Box<[u8]> {
        let mut key = Vec::with_capacity(12 + message.len() + signature.len());
        key.extend_from_slice(&signer.index().to_le_bytes());
        key.extend_from_slice(&(message.len() as u64).to_le_bytes());
        key.extend_from_slice(message);
        key.extend_from_slice(signature);
        key.into_boxed_slice()
    }

    /// Checks `signature` over `message` as `signer`, consulting the
    /// memo set first. Returns `(outcome, was_cache_hit)`; a hit is
    /// always a success.
    pub fn check(
        &mut self,
        verifier: &dyn SignatureVerifier,
        signer: Symbol,
        message: &[u8],
        signature: &[u8],
    ) -> (bool, bool) {
        let key = Self::key(signer, message, signature);
        if self.verified.contains(&key) {
            self.stats.hits += 1;
            return (true, true);
        }
        self.stats.misses += 1;
        let ok = verifier.verify(signer, message, signature);
        if ok {
            self.verified.insert(key);
        }
        (ok, false)
    }

    /// Records a success without running a verifier — the trusted fast
    /// path for log replay (a record is written only after its
    /// signatures verified).
    pub fn prime(&mut self, signer: Symbol, message: &[u8], signature: &[u8]) {
        self.verified.insert(Self::key(signer, message, signature));
        self.stats.primed += 1;
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of remembered signatures.
    pub fn len(&self) -> usize {
        self.verified.len()
    }

    /// Whether the memo set is empty.
    pub fn is_empty(&self) -> bool {
        self.verified.is_empty()
    }
}

/// A verification cache shared across certificate stores and workspace
/// builtins — the "checked once, reused across principals" property.
pub type SharedVerifyCache = Arc<Mutex<VerifyCache>>;

/// Builds an empty shared cache.
pub fn shared_verify_cache() -> SharedVerifyCache {
    Arc::new(Mutex::new(VerifyCache::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn second_check_hits_cache() {
        let calls = Cell::new(0u32);
        let verifier = |_s: Symbol, m: &[u8], sig: &[u8]| {
            calls.set(calls.get() + 1);
            m == sig // toy rule: signature equals message
        };
        let mut cache = VerifyCache::new();
        let alice = Symbol::intern("alice");
        let (ok1, hit1) = cache.check(&verifier, alice, b"m", b"m");
        let (ok2, hit2) = cache.check(&verifier, alice, b"m", b"m");
        assert!(ok1 && ok2);
        assert!(!hit1 && hit2);
        assert_eq!(calls.get(), 1, "real verification must run once");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn negative_outcomes_are_checked_again() {
        let calls = Cell::new(0u32);
        let verifier = |_s: Symbol, _m: &[u8], _sig: &[u8]| {
            calls.set(calls.get() + 1);
            false
        };
        let mut cache = VerifyCache::new();
        let p = Symbol::intern("p");
        assert_eq!(cache.check(&verifier, p, b"m", b"s"), (false, false));
        assert_eq!(cache.check(&verifier, p, b"m", b"s"), (false, false));
        assert_eq!(calls.get(), 2, "a failure is verified every time");
        assert!(cache.is_empty());
    }

    #[test]
    fn forged_checks_hold_nothing() {
        let verifier = |_s: Symbol, m: &[u8], sig: &[u8]| m == sig;
        let mut cache = VerifyCache::new();
        let p = Symbol::intern("p");
        cache.prime(p, b"kept", b"kept");
        let before = cache.len();
        for i in 0..1_000u32 {
            let rule = format!("grant(user{i}).");
            assert!(!cache.check(&verifier, p, rule.as_bytes(), b"forged").0);
        }
        assert_eq!(cache.len(), before, "a forged signature is not remembered");
        assert_eq!(cache.stats().misses, 1_000);
    }

    #[test]
    fn keys_distinguish_signer_message_and_signature() {
        let verifier = |_s: Symbol, _m: &[u8], _sig: &[u8]| true;
        let mut cache = VerifyCache::new();
        let (a, b) = (Symbol::intern("a"), Symbol::intern("b"));
        cache.check(&verifier, a, b"m", b"s");
        cache.check(&verifier, b, b"m", b"s");
        cache.check(&verifier, a, b"n", b"s");
        cache.check(&verifier, a, b"m", b"t");
        // The same concatenation split differently is another triple.
        cache.check(&verifier, a, b"ms", b"");
        cache.check(&verifier, a, b"", b"ms");
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn primed_outcome_skips_verifier() {
        let calls = Cell::new(0u32);
        let verifier = |_s: Symbol, _m: &[u8], _sig: &[u8]| {
            calls.set(calls.get() + 1);
            false // a real check would *fail*; the primed outcome wins
        };
        let mut cache = VerifyCache::new();
        let p = Symbol::intern("p");
        cache.prime(p, b"msg", b"sig");
        let (ok, hit) = cache.check(&verifier, p, b"msg", b"sig");
        assert!(ok && hit);
        assert_eq!(calls.get(), 0, "primed outcome answers without verifier");
        assert_eq!(cache.stats().primed, 1);
    }
}

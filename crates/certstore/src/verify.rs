//! Signature verification with content-addressed caching.
//!
//! Checking an RSA signature costs a modular exponentiation; in a busy
//! deployment the same certificate arrives at many principals and is
//! re-checked on every fixpoint round. The cache memoizes verification
//! *outcomes* keyed by `(signer, digest(message), digest(signature))`,
//! so a signature over identical canonical bytes is verified exactly
//! once per process and every later check is a hash lookup.
//!
//! One extension serves the durable store ([`crate::backend`]):
//! [`VerifyCache::prime`] installs an outcome without running a
//! verifier. Log replay primes recorded outcomes, so a reopened store
//! never re-pays the modular exponentiation.
//!
//! The memo table is unbounded: one entry per distinct signature ever
//! checked or primed in the process.

use crate::digest::CertDigest;
use lbtrust_datalog::Symbol;
use std::collections::HashMap;
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

/// The memo key: signer plus content addresses of message and signature.
type OutcomeKey = (Symbol, CertDigest, CertDigest);

/// A memo table of signature-verification outcomes.
pub struct VerifyCache {
    outcomes: HashMap<OutcomeKey, bool>,
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
            outcomes: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn key(signer: Symbol, message: &[u8], signature: &[u8]) -> OutcomeKey {
        (signer, CertDigest::of(message), CertDigest::of(signature))
    }

    /// Checks `signature` over `message` as `signer`, consulting the
    /// memo table first. Returns `(outcome, was_cache_hit)`.
    pub fn check(
        &mut self,
        verifier: &dyn SignatureVerifier,
        signer: Symbol,
        message: &[u8],
        signature: &[u8],
    ) -> (bool, bool) {
        let key = Self::key(signer, message, signature);
        if let Some(&ok) = self.outcomes.get(&key) {
            self.stats.hits += 1;
            return (ok, true);
        }
        self.stats.misses += 1;
        let ok = verifier.verify(signer, message, signature);
        self.outcomes.insert(key, ok);
        (ok, false)
    }

    /// Installs an outcome without running a verifier — the trusted
    /// fast path for log replay (the outcome was recorded when the
    /// signature was first checked).
    pub fn prime(&mut self, signer: Symbol, message: &[u8], signature: &[u8], outcome: bool) {
        self.outcomes
            .insert(Self::key(signer, message, signature), outcome);
        self.stats.primed += 1;
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of memoized outcomes.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the memo table is empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
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
    fn negative_outcomes_are_cached_too() {
        let calls = Cell::new(0u32);
        let verifier = |_s: Symbol, _m: &[u8], _sig: &[u8]| {
            calls.set(calls.get() + 1);
            false
        };
        let mut cache = VerifyCache::new();
        let p = Symbol::intern("p");
        assert!(!cache.check(&verifier, p, b"m", b"s").0);
        assert!(!cache.check(&verifier, p, b"m", b"s").0);
        assert_eq!(calls.get(), 1);
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
        assert_eq!(cache.len(), 4);
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
        cache.prime(p, b"msg", b"sig", true);
        let (ok, hit) = cache.check(&verifier, p, b"msg", b"sig");
        assert!(ok && hit);
        assert_eq!(calls.get(), 0, "primed outcome answers without verifier");
        assert_eq!(cache.stats().primed, 1);
    }
}

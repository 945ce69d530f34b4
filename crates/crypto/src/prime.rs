//! Probabilistic prime generation for RSA key material.
//!
//! Miller–Rabin with random bases after trial division by small primes.
//! All randomness flows through caller-provided RNGs so key generation is
//! reproducible in tests and benches.

use crate::bignum::{BigUint, Montgomery};
use rand::Rng;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Number of Miller–Rabin rounds; 2^-80 error bound is ample for a
/// reproduction whose keys protect simulated principals.
const MILLER_RABIN_ROUNDS: usize = 40;

/// Whether `n` is (probably) prime.
pub fn is_probable_prime<R: Rng>(n: &BigUint, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    if n == &BigUint::from_u64(2) {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let pv = BigUint::from_u64(p);
        if n == &pv {
            return true;
        }
        if n.rem(&pv).is_zero() {
            return false;
        }
    }
    miller_rabin(n, MILLER_RABIN_ROUNDS, rng)
}

/// Miller–Rabin with `rounds` random bases. `n` must be odd and > 3.
///
/// One Montgomery context serves the candidate: every base is raised, and
/// every result squared and compared, in Montgomery form on it.
fn miller_rabin<R: Rng>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let n_minus_1 = n.sub(&BigUint::one());
    // n - 1 = 2^s * d with d odd
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    let ctx = Montgomery::new(n);
    let (one, minus_one) = (ctx.to_mont(&BigUint::one()), ctx.to_mont(&n_minus_1));
    'witness: for _ in 0..rounds {
        // Random base in [2, n-2].
        let a = loop {
            let a = BigUint::random_below(rng, &n_minus_1);
            if !a.is_zero() && !a.is_one() {
                break a;
            }
        };
        let mut x = ctx.pow(&a, &d);
        if x == one || x == minus_one {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = ctx.sqr(&x);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// The top two bits are forced to 1 (standard RSA practice, guaranteeing
/// that the product of two such primes has `2*bits` bits) and the low bit
/// is forced to 1 (odd).
pub fn gen_prime<R: Rng>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size too small: {bits} bits");
    loop {
        let mut candidate = BigUint::random_bits(rng, bits);
        // Force the top two bits and the low bit. Adding 2^k when bit k is
        // clear sets exactly that bit (no carry), so the value keeps its
        // width.
        if !candidate.bit(bits - 1) {
            candidate = candidate.add(&BigUint::one().shl(bits - 1));
        }
        if !candidate.bit(bits - 2) {
            candidate = candidate.add(&BigUint::one().shl(bits - 2));
        }
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
        }
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_primes_classified() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [2u64, 3, 5, 7, 11, 13, 101, 997, 7919] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), &mut rng),
                "{p} should be prime"
            );
        }
        for c in [0u64, 1, 4, 9, 15, 1000, 7917, 997 * 991] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn known_large_prime() {
        let mut rng = StdRng::seed_from_u64(2);
        // 2^127 - 1 is a Mersenne prime.
        let m127 = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(is_probable_prime(&m127, &mut rng));
        // 2^128 - 1 is composite.
        let c = BigUint::one().shl(128).sub(&BigUint::one());
        assert!(!is_probable_prime(&c, &mut rng));
    }

    #[test]
    fn carmichael_numbers_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), &mut rng),
                "Carmichael {c} must be rejected"
            );
        }
    }

    /// A candidate that reaches Miller–Rabin costs one context, whether
    /// it takes all forty bases (a prime) or falls to the first (a
    /// composite with no small factor) — not one per base and squaring.
    #[test]
    fn one_context_per_candidate() {
        use crate::bignum::CONTEXTS_BUILT;
        let mut rng = StdRng::seed_from_u64(5);
        let m127 = BigUint::one().shl(127).sub(&BigUint::one());
        let m61 = BigUint::one().shl(61).sub(&BigUint::one());
        for (candidate, prime) in [(m127.clone(), true), (m127.mul(&m61), false)] {
            let before = CONTEXTS_BUILT.with(|built| built.get());
            assert_eq!(is_probable_prime(&candidate, &mut rng), prime);
            assert_eq!(CONTEXTS_BUILT.with(|built| built.get()) - before, 1);
        }
        // One the small primes settle builds none.
        let before = CONTEXTS_BUILT.with(|built| built.get());
        assert!(!is_probable_prime(
            &m127.mul(&BigUint::from_u64(3)),
            &mut rng
        ));
        assert_eq!(CONTEXTS_BUILT.with(|built| built.get()), before);
    }

    #[test]
    fn gen_prime_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(4);
        for bits in [64usize, 128, 256] {
            let p = gen_prime(bits, &mut rng);
            assert_eq!(p.bits(), bits, "requested {bits} bits");
            assert!(p.is_odd());
            assert!(p.bit(bits - 2), "second-highest bit forced");
            assert!(is_probable_prime(&p, &mut rng));
        }
    }

    #[test]
    fn gen_prime_deterministic_for_seed() {
        let a = gen_prime(96, &mut StdRng::seed_from_u64(99));
        let b = gen_prime(96, &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
    }
}

//! The exponentiation as it was before the kernel was replaced, kept as
//! the model the new one is tested against: a context built per call, a
//! two-pass `mont_mul` that allocates its result, and a one-bit-at-a-time
//! ladder. The bodies are the old ones, verbatim.

use super::BigUint;
use std::cmp::Ordering;

/// Montgomery-form modular arithmetic over a fixed odd modulus.
///
/// Precomputes `n0' = -n^{-1} mod 2^64` and `R^2 mod n` so that repeated
/// multiplications inside [`BigUint::modpow`] avoid full divisions.
pub(super) struct Montgomery {
    n: Vec<u64>,
    n0_inv: u64,
    r2: BigUint,
    modulus: BigUint,
}

impl Montgomery {
    pub(super) fn new(modulus: &BigUint) -> Self {
        debug_assert!(modulus.is_odd());
        let n = modulus.limbs.clone();
        // Newton iteration for the inverse of n[0] mod 2^64.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let n0_inv = inv.wrapping_neg();
        // R^2 mod n where R = 2^(64 * len).
        let r2 = BigUint::one().shl(n.len() * 128).rem(modulus);
        Montgomery {
            n,
            n0_inv,
            r2,
            modulus: modulus.clone(),
        }
    }

    /// Montgomery product: `a · b · R^{-1} mod n` (CIOS method).
    pub(super) fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let len = self.n.len();
        let mut t = vec![0u64; len + 2];
        for i in 0..len {
            let ai = a.get(i).copied().unwrap_or(0);
            // t += ai * b
            let mut carry = 0u128;
            #[allow(clippy::needless_range_loop)] // reads b while writing t
            for j in 0..len {
                let bj = b.get(j).copied().unwrap_or(0);
                let cur = t[j] as u128 + ai as u128 * bj as u128 + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[len] as u128 + carry;
            t[len] = cur as u64;
            t[len + 1] = (cur >> 64) as u64;

            // m = t[0] * n0' mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n0_inv);
            let cur = t[0] as u128 + m as u128 * self.n[0] as u128;
            let mut carry = cur >> 64;
            #[allow(clippy::needless_range_loop)] // shifts t while indexing n
            for j in 1..len {
                let cur = t[j] as u128 + m as u128 * self.n[j] as u128 + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[len] as u128 + carry;
            t[len - 1] = cur as u64;
            t[len] = t[len + 1].wrapping_add((cur >> 64) as u64);
            t[len + 1] = 0;
        }
        t.truncate(len + 1);
        // Conditional final subtraction to bring the result below n.
        let mut res = BigUint::from_limbs(t);
        if res.cmp_big(&self.modulus) != Ordering::Less {
            res = res.sub(&self.modulus);
        }
        let mut out = res.limbs;
        out.resize(len, 0);
        out
    }

    pub(super) fn modpow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        let len = self.n.len();
        let mut base_limbs = base.limbs.clone();
        base_limbs.resize(len, 0);
        // Convert into Montgomery form: base · R mod n = montmul(base, R²).
        let mut r2 = self.r2.limbs.clone();
        r2.resize(len, 0);
        let base_m = self.mont_mul(&base_limbs, &r2);
        // one · R mod n = montmul(1, R²)
        let mut one = vec![0u64; len];
        one[0] = 1;
        let mut acc = self.mont_mul(&one, &r2);
        // Left-to-right square and multiply.
        for i in (0..exponent.bits()).rev() {
            acc = self.mont_mul(&acc, &acc);
            if exponent.bit(i) {
                acc = self.mont_mul(&acc, &base_m);
            }
        }
        // Convert out of Montgomery form: montmul(acc, 1).
        let out = self.mont_mul(&acc, &one);
        BigUint::from_limbs(out)
    }
}

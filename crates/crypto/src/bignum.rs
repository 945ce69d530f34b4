//! Arbitrary-precision unsigned integer arithmetic.
//!
//! [`BigUint`] stores magnitudes as little-endian `u64` limbs and provides
//! the operations the RSA implementation needs: schoolbook multiplication,
//! Knuth Algorithm D division, extended Euclid modular inverses,
//! big-endian byte conversions, and modular exponentiation.
//!
//! Everything but the exponentiation is deliberately simple: each
//! operation returns a fresh value, and none of them is where a signature
//! spends its time. The exponentiation is where it does — a 1024-bit
//! signature is some 1 300 modular products — so that one kernel
//! (`Montgomery`, below) works on caller-owned limb slices, allocates
//! nothing per product and reads long exponents a window at a time. It is
//! plain `u64 × u64 → u128` arithmetic: no intrinsics, no `unsafe`, and
//! **not constant time**; see the crate-level documentation for the
//! threat model.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` never has trailing zero limbs (the canonical zero is
/// the empty limb vector), so equality and ordering can compare limb slices
/// directly.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Parses a big-endian byte string (as produced by [`Self::to_bytes_be`]).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes to big-endian bytes with no leading zeros (zero ⇒ `[0]`).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return vec![0];
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend_from_slice(&bytes[first..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padding with
    /// zeros. Returns `None` if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        let raw = if raw == [0] { Vec::new() } else { raw };
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut limbs = Vec::new();
        let digits: Vec<u64> = s
            .chars()
            .map(|c| c.to_digit(16).map(u64::from))
            .collect::<Option<Vec<_>>>()?;
        for &d in &digits {
            // value = value * 16 + d
            let mut carry = d;
            for limb in limbs.iter_mut() {
                let v = (*limb as u128) * 16 + carry as u128;
                *limb = v as u64;
                carry = (v >> 64) as u64;
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        Some(Self::from_limbs(limbs))
    }

    /// Renders as lowercase hexadecimal with no leading zeros.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Whether this value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether this value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Whether the low bit is set.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Whether the low bit is clear (zero counts as even).
    pub fn is_even(&self) -> bool {
        !self.is_odd()
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (counting from the least significant bit).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Returns the low 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        #[allow(clippy::needless_range_loop)] // indexes two slices in lockstep
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        Self::from_limbs(out)
    }

    /// `self - other`. Panics if `other > self` (callers uphold ordering).
    pub fn sub(&self, other: &Self) -> Self {
        assert!(
            self.cmp_big(other) != Ordering::Less,
            "BigUint::sub underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Self::from_limbs(out)
    }

    /// `self * other` (schoolbook, O(n·m) limb products).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        Self::from_limbs(out)
    }

    /// `self << bits`.
    pub fn shl(&self, bits: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Self::from_limbs(out)
    }

    /// `self >> bits`.
    pub fn shr(&self, bits: usize) -> Self {
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let mut out: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift != 0 {
            let mut carry = 0u64;
            for l in out.iter_mut().rev() {
                let new = (*l >> bit_shift) | carry;
                carry = *l << (64 - bit_shift);
                *l = new;
            }
        }
        Self::from_limbs(out)
    }

    /// Total ordering on magnitudes.
    pub fn cmp_big(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// `(self / divisor, self % divisor)` via Knuth Algorithm D.
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp_big(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, Self::from_u64(r));
        }

        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un = u.limbs.clone();
        un.push(0); // extra high limb for the algorithm
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];

        let mut q_limbs = vec![0u64; m + 1];

        // D2..D7: compute one quotient limb per iteration, most significant
        // first.
        for j in (0..=m).rev() {
            // D3: estimate q̂ from the top two limbs of the current remainder.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = num / v_top as u128;
            let mut rhat = num % v_top as u128;
            while qhat >> 64 != 0 || qhat * v_next as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }

            // D4: multiply and subtract q̂·v from the remainder window.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = un[j + i] as i128 - (p as u64) as i128 + borrow;
                un[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = un[j + n] as i128 - carry as i128 + borrow;
            un[j + n] = sub as u64;
            borrow = sub >> 64;

            // D5/D6: if we subtracted too much, add v back once.
            if borrow != 0 {
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q_limbs[j] = qhat as u64;
        }

        // D8: denormalize the remainder.
        un.truncate(n);
        let rem = Self::from_limbs(un).shr(shift);
        (Self::from_limbs(q_limbs), rem)
    }

    /// Divides by a single limb, returning `(quotient, remainder)`.
    pub fn div_rem_u64(&self, divisor: u64) -> (Self, u64) {
        assert!(divisor != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / divisor as u128) as u64;
            rem = cur % divisor as u128;
        }
        (Self::from_limbs(out), rem as u64)
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &Self) -> Self {
        self.div_rem(modulus).1
    }

    /// `(self * other) mod modulus` without building huge intermediates
    /// beyond the double-width product.
    pub fn mulmod(&self, other: &Self, modulus: &Self) -> Self {
        self.mul(other).rem(modulus)
    }

    /// `(self + other) mod modulus`, assuming both inputs are `< modulus`.
    pub fn addmod(&self, other: &Self, modulus: &Self) -> Self {
        let s = self.add(other);
        if s.cmp_big(modulus) == Ordering::Less {
            s
        } else {
            s.sub(modulus)
        }
    }

    /// `(self - other) mod modulus`, assuming both inputs are `< modulus`.
    pub fn submod(&self, other: &Self, modulus: &Self) -> Self {
        if self.cmp_big(other) != Ordering::Less {
            self.sub(other)
        } else {
            self.add(modulus).sub(other)
        }
    }

    /// `self^exponent mod modulus`.
    ///
    /// Uses Montgomery multiplication when the modulus is odd, on a context
    /// built for this one call (RSA keys and Miller–Rabin hold theirs), and
    /// falls back to square-and-multiply with explicit reductions otherwise.
    pub fn modpow(&self, exponent: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "modpow modulus must be nonzero");
        if modulus.is_one() {
            return Self::zero();
        }
        if exponent.is_zero() {
            return Self::one();
        }
        if modulus.is_odd() {
            return Montgomery::new(modulus).modpow(self, exponent);
        }
        self.modpow_by_ladder(exponent, modulus)
    }

    /// Square-and-multiply with an explicit reduction per step: what an
    /// even modulus gets (RSA has none), and the oracle the Montgomery
    /// kernel is tested against.
    fn modpow_by_ladder(&self, exponent: &Self, modulus: &Self) -> Self {
        let mut base = self.rem(modulus);
        let mut result = Self::one();
        for i in 0..exponent.bits() {
            if exponent.bit(i) {
                result = result.mulmod(&base, modulus);
            }
            base = base.mulmod(&base, modulus);
        }
        result
    }

    /// Greatest common divisor (binary-free Euclid).
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: the `x` with `self·x ≡ 1 (mod modulus)`, or `None`
    /// when `gcd(self, modulus) ≠ 1`.
    pub fn modinv(&self, modulus: &Self) -> Option<Self> {
        // Extended Euclid tracking only the coefficient of `self`, with the
        // sign carried separately to stay in unsigned arithmetic.
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        let mut t0 = (Self::zero(), false); // (magnitude, negative?)
        let mut t1 = (Self::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1
            let qt1 = q.mul(&t1.0);
            let t2 = match (t0.1, t1.1) {
                (false, false) => {
                    if t0.0.cmp_big(&qt1) != Ordering::Less {
                        (t0.0.sub(&qt1), false)
                    } else {
                        (qt1.sub(&t0.0), true)
                    }
                }
                (false, true) => (t0.0.add(&qt1), false),
                (true, false) => (t0.0.add(&qt1), true),
                (true, true) => {
                    if t0.0.cmp_big(&qt1) != Ordering::Less {
                        (t0.0.sub(&qt1), true)
                    } else {
                        (qt1.sub(&t0.0), false)
                    }
                }
            };
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        let (mag, neg) = t0;
        let mag = mag.rem(modulus);
        Some(if neg && !mag.is_zero() {
            modulus.sub(&mag)
        } else {
            mag
        })
    }

    /// Uniform random value in `[0, bound)` drawn from `rng`.
    pub fn random_below<R: rand::Rng>(rng: &mut R, bound: &Self) -> Self {
        assert!(!bound.is_zero());
        let bits = bound.bits();
        loop {
            let v = Self::random_bits(rng, bits);
            if v.cmp_big(bound) == Ordering::Less {
                return v;
            }
        }
    }

    /// Uniform random value with at most `bits` bits.
    pub fn random_bits<R: rand::Rng>(rng: &mut R, bits: usize) -> Self {
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let extra = limbs * 64 - bits;
        if extra > 0 {
            if let Some(top) = v.last_mut() {
                *top >>= extra;
            }
        }
        Self::from_limbs(v)
    }
}

/// Montgomery-form arithmetic over one odd modulus `n` of `len` limbs,
/// with `R = 2^(64·len)`: a residue `x` is held as `x·R mod n`, and the
/// product of two such residues is one pass of multiply-and-reduce with
/// no division.
///
/// **What it holds, and who owns it.** The modulus, `-n⁻¹ mod 2⁶⁴` and
/// `R² mod n` (which takes a value into Montgomery form). Building it
/// costs a Knuth division, so it is built once per modulus:
/// [`crate::rsa::KeyPair::generate`] builds one each for `n`, `p` and `q`
/// and the keys hold them, Miller–Rabin builds one per candidate, and
/// [`BigUint::modpow`] builds a throw-away one. Everything but the
/// modulus is derived from it, so equality, hashing and `Debug` are the
/// modulus's own.
///
/// **The multiply** ([`mul_body`]) is one fused pass ([`fused_row`]) per
/// limb `aᵢ` of `a`: `t[j-1] ← t[j] + aᵢ·bⱼ + m·nⱼ`, with `m` chosen so
/// the lowest limb cancels. The two products can sum past 128 bits, so
/// each has its own carry; the two chains also overlap in the pipeline,
/// which is why the pass is fused. It allocates nothing and leaves a
/// result below `2n` that one in-place conditional subtraction brings
/// below `n`. **A square** is that multiply with both operands the same:
/// a routine that forms each cross product once was measured and did not
/// pay once the multiply was unrolled for the limb counts RSA uses.
/// **The exponent** is read in fixed windows whose width
/// ([`window_bits`]) depends on its bit length alone. None of it is
/// constant time.
#[derive(Clone)]
pub(crate) struct Montgomery {
    n: BigUint,
    n0_inv: u64,
    r2: Vec<u64>,
}

impl PartialEq for Montgomery {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
    }
}

impl Eq for Montgomery {}

impl Hash for Montgomery {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.n.hash(state);
    }
}

impl fmt::Debug for Montgomery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.n.fmt(f)
    }
}

#[cfg(test)]
thread_local! {
    /// Contexts built on this thread, so a test can show who builds none.
    pub(crate) static CONTEXTS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Montgomery {
    /// Builds the context of an odd `modulus`.
    pub(crate) fn new(modulus: &BigUint) -> Self {
        assert!(modulus.is_odd(), "Montgomery modulus must be odd");
        #[cfg(test)]
        CONTEXTS_BUILT.with(|built| built.set(built.get() + 1));
        let len = modulus.limbs.len();
        // Newton iteration for the inverse of n[0] mod 2^64.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(modulus.limbs[0].wrapping_mul(inv)));
        }
        let mut r2 = BigUint::one().shl(len * 128).rem(modulus).limbs;
        r2.resize(len, 0);
        Montgomery {
            n: modulus.clone(),
            n0_inv: inv.wrapping_neg(),
            r2,
        }
    }

    /// The modulus.
    pub(crate) fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// `out ← a·b·R⁻¹ mod n`, for `a, b < n`; `out` is neither of them.
    fn mul_into(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        let n = &self.n.limbs[..];
        // The limb counts of 1024-bit RSA (`p` and `q`, then `n`) get the
        // body with its length known to the compiler, which unrolls it
        // and keeps `out` in registers; every other length gets the same
        // body over slices.
        match n.len() {
            8 => mul_body(out, a, b, &n[..8], self.n0_inv),
            16 => mul_body(out, a, b, &n[..16], self.n0_inv),
            _ => mul_body(out, a, b, n, self.n0_inv),
        }
    }

    /// `v·R mod n`. A `v` of `n` or more is reduced first: the kernel
    /// needs operands below `n`, and a caller may hold any value.
    pub(crate) fn to_mont(&self, v: &BigUint) -> Vec<u64> {
        let reduced;
        let v = if v.cmp_big(&self.n) == Ordering::Less {
            v
        } else {
            reduced = v.rem(&self.n);
            &reduced
        };
        let mut limbs = v.limbs.clone();
        limbs.resize(self.r2.len(), 0);
        let mut out = vec![0; limbs.len()];
        self.mul_into(&mut out, &limbs, &self.r2);
        out
    }

    /// The value whose Montgomery form is `x`: `x·1·R⁻¹ mod n`.
    pub(crate) fn to_plain(&self, x: &[u64]) -> BigUint {
        let (mut out, mut one) = (vec![0; x.len()], vec![0; x.len()]);
        one[0] = 1;
        self.mul_into(&mut out, x, &one);
        BigUint::from_limbs(out)
    }

    /// The square of a Montgomery-form `x`, in Montgomery form.
    pub(crate) fn sqr(&self, x: &[u64]) -> Vec<u64> {
        let mut out = vec![0; x.len()];
        self.mul_into(&mut out, x, x);
        out
    }

    /// `base^exponent mod n`.
    pub(crate) fn modpow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        self.to_plain(&self.pow(base, exponent))
    }

    /// `base^exponent mod n` in Montgomery form: the exponent is read
    /// from the top in windows of [`window_bits`] bits, each `w` squarings
    /// and, unless its digit is zero, one multiply by `base^digit` from a
    /// table built up front. The table and the buffers are allocated here
    /// and swapped; the loop allocates nothing.
    pub(crate) fn pow(&self, base: &BigUint, exponent: &BigUint) -> Vec<u64> {
        let len = self.r2.len();
        let w = window_bits(exponent.bits());
        let digit = |i: usize| {
            (0..w)
                .rev()
                .fold(0, |d, b| d << 1 | exponent.bit(i * w + b) as usize)
        };
        // table[d] = base^d for d in 1..2^w (a zero digit multiplies by
        // nothing, so entry 0 is never read).
        let mut table = vec![0u64; len << w];
        table[len..2 * len].copy_from_slice(&self.to_mont(base));
        for d in 2..1 << w {
            let (lower, entry) = table.split_at_mut(d * len);
            self.mul_into(entry, &lower[(d - 1) * len..], &lower[len..]);
        }
        let entry = |d: usize| &table[d * len..(d + 1) * len];
        let mut windows = (0..exponent.bits().div_ceil(w)).rev();
        // The top window's digit is not zero: start from its entry.
        let mut acc = match windows.next() {
            Some(top) => entry(digit(top)).to_vec(),
            None => return self.to_mont(&BigUint::one()),
        };
        let mut next = vec![0; len];
        for i in windows {
            for _ in 0..w {
                self.mul_into(&mut next, &acc, &acc);
                std::mem::swap(&mut acc, &mut next);
            }
            let d = digit(i);
            if d != 0 {
                self.mul_into(&mut next, &acc, entry(d));
                std::mem::swap(&mut acc, &mut next);
            }
        }
        acc
    }
}

/// Window width for an exponent of `bits` bits: a property of the input,
/// so a short public exponent (`65537`: 16 squarings and one multiply)
/// builds no table, and a long private one trades 30 table entries for a
/// multiply every five bits instead of every other bit (even at 129 bits:
/// 30 + 25 multiplies against 64).
fn window_bits(bits: usize) -> usize {
    if bits > WINDOW_MIN_BITS {
        5
    } else {
        1
    }
}

/// The longest exponent read a bit at a time.
const WINDOW_MIN_BITS: usize = 128;

/// One row of the fused pass: `out ← (top·R + out + ai·b + m·n) / 2^64`,
/// with `m` chosen so the division is exact; returns the new `top`.
#[inline(always)]
fn fused_row(out: &mut [u64], ai: u64, b: &[u64], n: &[u64], n0_inv: u64, top: u64) -> u64 {
    // Every slice is re-bound to the modulus's length, so the loop carries
    // no bounds check and a constant length unrolls.
    let len = n.len();
    let (out, b, ai) = (&mut out[..len], &b[..len], ai as u128);
    let x = out[0] as u128 + ai * b[0] as u128;
    let m = (x as u64).wrapping_mul(n0_inv) as u128;
    let y = (x as u64) as u128 + m * n[0] as u128;
    let (mut carry_ab, mut carry_mn) = (x >> 64, y >> 64);
    for j in 1..len {
        let x = out[j] as u128 + ai * b[j] as u128 + carry_ab;
        let y = (x as u64) as u128 + m * n[j] as u128 + carry_mn;
        (out[j - 1], carry_ab, carry_mn) = (y as u64, x >> 64, y >> 64);
    }
    let z = top as u128 + carry_ab + carry_mn;
    out[len - 1] = z as u64;
    (z >> 64) as u64
}

/// The fused Montgomery multiply: see [`Montgomery`].
#[inline(always)]
fn mul_body(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0_inv: u64) {
    let out = &mut out[..n.len()];
    out.fill(0);
    let mut top = 0;
    for &ai in &a[..n.len()] {
        top = fused_row(out, ai, b, n, n0_inv, top);
    }
    reduce_once(out, top, n);
}

/// Brings `top·R + out < 2n` below `n`: the one conditional subtraction
/// that ends a multiply, in place.
#[inline(always)]
fn reduce_once(out: &mut [u64], top: u64, n: &[u64]) {
    if top == 0 && out.iter().rev().lt(n.iter().rev()) {
        return;
    }
    let mut borrow = false;
    for (o, &nj) in out.iter_mut().zip(n) {
        let (d, b1) = o.overflowing_sub(nj);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        (*o, borrow) = (d, b1 | b2);
    }
}

#[cfg(test)]
mod model;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    /// Trivially correct binary long division used as an oracle.
    fn oracle_div_rem(a: &BigUint, b: &BigUint) -> (BigUint, BigUint) {
        let mut q = BigUint::zero();
        let mut r = BigUint::zero();
        for i in (0..a.bits()).rev() {
            r = r.shl(1);
            if a.bit(i) {
                r = r.add(&BigUint::one());
            }
            if r.cmp_big(b) != Ordering::Less {
                r = r.sub(b);
                q = q.add(&BigUint::one().shl(i));
            }
        }
        (q, r)
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let b = BigUint::from_hex("1").unwrap();
        let c = a.add(&b);
        assert_eq!(c.to_hex(), "100000000000000000000000000000000");
        assert_eq!(c.sub(&b), a);
        assert_eq!(c.sub(&a), b);
    }

    #[test]
    fn mul_known() {
        let a = BigUint::from_hex("123456789abcdef").unwrap();
        let b = BigUint::from_hex("fedcba987654321").unwrap();
        assert_eq!(a.mul(&b).to_hex(), "121fa00ad77d7422236d88fe5618cf");
    }

    #[test]
    fn mul_zero_and_one() {
        let a = big(12345);
        assert!(a.mul(&BigUint::zero()).is_zero());
        assert_eq!(a.mul(&BigUint::one()), a);
    }

    #[test]
    fn shl_shr_inverse() {
        let a = BigUint::from_hex("deadbeefcafebabe1234").unwrap();
        for s in [0usize, 1, 7, 63, 64, 65, 130] {
            assert_eq!(a.shl(s).shr(s), a, "shift {s}");
        }
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = big(100).div_rem(&big(7));
        assert_eq!(q, big(14));
        assert_eq!(r, big(2));
    }

    #[test]
    fn div_rem_matches_oracle_random() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let a_bits = 1 + (rng.gen::<usize>() % 512);
            let b_bits = 1 + (rng.gen::<usize>() % 256);
            let a = BigUint::random_bits(&mut rng, a_bits);
            let mut b = BigUint::random_bits(&mut rng, b_bits);
            if b.is_zero() {
                b = BigUint::one();
            }
            let (q, r) = a.div_rem(&b);
            let (oq, or) = oracle_div_rem(&a, &b);
            assert_eq!(q, oq, "quotient a={a:?} b={b:?}");
            assert_eq!(r, or, "remainder a={a:?} b={b:?}");
            // And the fundamental invariant a = q*b + r, r < b.
            assert_eq!(q.mul(&b).add(&r), a);
            assert!(r.cmp_big(&b) == Ordering::Less);
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let a = BigUint::from_hex("00ff00ff00ff00ff00ff00ff00").unwrap();
        let bytes = a.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), a);
        let padded = a.to_bytes_be_padded(32).unwrap();
        assert_eq!(padded.len(), 32);
        assert_eq!(BigUint::from_bytes_be(&padded), a);
        assert!(a.to_bytes_be_padded(2).is_none());
    }

    #[test]
    fn hex_roundtrip() {
        for h in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            let v = BigUint::from_hex(h).unwrap();
            assert_eq!(v.to_hex(), h, "hex roundtrip for {h}");
        }
        // Leading zeros are normalized away.
        assert_eq!(BigUint::from_hex("000ff").unwrap().to_hex(), "ff");
    }

    #[test]
    fn modpow_small_cases() {
        // 3^4 mod 5 = 81 mod 5 = 1
        assert_eq!(big(3).modpow(&big(4), &big(5)), big(1));
        // 2^10 mod 1000 = 24
        assert_eq!(big(2).modpow(&big(10), &big(1000)), big(24));
        // Fermat: a^(p-1) ≡ 1 mod p for prime p
        let p = big(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            assert_eq!(big(a).modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
        }
    }

    #[test]
    fn modpow_matches_naive_random() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let m = {
                let mut m = BigUint::random_bits(&mut rng, 128);
                if m.is_even() {
                    m = m.add(&BigUint::one());
                }
                if m.is_one() || m.is_zero() {
                    m = big(3);
                }
                m
            };
            let b = BigUint::random_below(&mut rng, &m);
            let e = BigUint::random_bits(&mut rng, 16);
            // naive repeated multiplication
            let mut expect = BigUint::one();
            let mut count = e.low_u64();
            while count > 0 {
                expect = expect.mulmod(&b, &m);
                count -= 1;
            }
            assert_eq!(b.modpow(&e, &m), expect);
        }
    }

    #[test]
    fn modinv_known() {
        // 3 * 4 = 12 ≡ 1 mod 11
        assert_eq!(big(3).modinv(&big(11)), Some(big(4)));
        // gcd(6, 9) = 3, no inverse
        assert_eq!(big(6).modinv(&big(9)), None);
    }

    #[test]
    fn modinv_random() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = BigUint::from_hex("ffffffffffffffffffffffffffffff61").unwrap(); // prime
        for _ in 0..50 {
            let a = BigUint::random_below(&mut rng, &m);
            if a.is_zero() {
                continue;
            }
            let inv = a.modinv(&m).expect("prime modulus: inverse exists");
            assert_eq!(a.mulmod(&inv, &m), BigUint::one());
        }
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(big(48).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(13)), big(1));
        assert_eq!(big(0).gcd(&big(5)), big(5));
    }

    #[test]
    fn cmp_and_bits() {
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(big(1).bits(), 1);
        assert_eq!(big(255).bits(), 8);
        assert_eq!(BigUint::one().shl(100).bits(), 101);
        assert!(big(5).cmp_big(&big(6)) == Ordering::Less);
    }

    /// All-ones limbs: `2^(64·len) - 1`, the largest value of its length.
    fn all_ones(len: usize) -> BigUint {
        BigUint::from_limbs(vec![u64::MAX; len])
    }

    /// `len` limbs, each as likely an extreme (where a limb product or a
    /// carry is at its largest or vanishes) as a random one.
    fn extreme_limbs(rng: &mut StdRng, len: usize) -> Vec<u64> {
        (0..len)
            .map(|_| match rng.gen::<u64>() % 8 {
                0 | 1 => u64::MAX,
                2 => u64::MAX - 1,
                3 => 0,
                4 => 1 << 63,
                _ => rng.gen(),
            })
            .collect()
    }

    /// An odd modulus of 1 to 17 limbs, at least 3. One in four is an
    /// edge: all-ones limbs, `2^k - c` or extreme limbs (the rows of the
    /// fused pass carry out of the top), or a single limb; and the two
    /// lengths the kernel is unrolled for come up as often as all the
    /// others together.
    fn arb_modulus(rng: &mut StdRng) -> BigUint {
        let len = match rng.gen::<u64>() % 4 {
            0 => 8,
            1 => 16,
            _ => 1 + rng.gen::<usize>() % 17,
        };
        let kind = rng.gen::<u64>() % 16;
        let m = match kind {
            0 => all_ones(len),
            1 => all_ones(len).sub(&big((rng.gen::<u64>() % 1000) * 2)),
            2 => big(rng.gen::<u64>() | 1),
            _ => {
                let mut limbs: Vec<u64> = if kind == 3 {
                    extreme_limbs(rng, len)
                } else {
                    (0..len).map(|_| rng.gen()).collect()
                };
                limbs[0] |= 1;
                limbs[len - 1] |= 1 << (rng.gen::<u64>() % 64);
                BigUint::from_limbs(limbs)
            }
        };
        if m.is_one() {
            big(3)
        } else {
            m
        }
    }

    /// A base for modulus `n`; one in four is 0, 1, `n - 1`, extreme limbs
    /// or not below `n`.
    fn arb_base(rng: &mut StdRng, n: &BigUint) -> BigUint {
        match rng.gen::<u64>() % 20 {
            0 => BigUint::zero(),
            1 => BigUint::one(),
            2 => n.sub(&BigUint::one()),
            3 => n.add(&BigUint::random_bits(rng, n.bits() + 64)),
            4 => BigUint::from_limbs(extreme_limbs(rng, n.limbs.len())),
            _ => BigUint::random_below(rng, n),
        }
    }

    /// An exponent; one in four is 0, 1, 2, 65537, all ones, or has a bit
    /// length one under, at or one over a multiple of the window or the
    /// length from which a window is used.
    fn arb_exponent(rng: &mut StdRng) -> BigUint {
        let exactly = |rng: &mut StdRng, bits: usize| {
            BigUint::random_bits(rng, bits - 1).add(&BigUint::one().shl(bits - 1))
        };
        let around = |rng: &mut StdRng, bits: usize| bits - 1 + rng.gen::<usize>() % 3;
        match rng.gen::<u64>() % 32 {
            0 => BigUint::zero(),
            1 => big(1 + rng.gen::<u64>() % 2),
            2 => big(65537),
            3 => all_ones(3).shr(rng.gen::<usize>() % 192),
            4 | 5 => {
                let bits = around(rng, WINDOW_MIN_BITS);
                exactly(rng, bits)
            }
            6 | 7 => {
                let windows = 26 + rng.gen::<usize>() % 30;
                let bits = around(rng, 5 * windows);
                exactly(rng, bits)
            }
            _ => {
                let bits = 1 + rng.gen::<usize>() % 320;
                BigUint::random_bits(rng, bits)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The kernel against the exponentiation it replaced and against
        /// the division-per-step ladder, on the context path and on
        /// `BigUint::modpow`'s throw-away one.
        #[test]
        fn modpow_model_equivalence(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = arb_modulus(&mut rng);
            let base = arb_base(&mut rng, &n);
            let e = arb_exponent(&mut rng);
            let expect = base.modpow_by_ladder(&e, &n);
            assert_eq!(
                model::Montgomery::new(&n).modpow(&base.rem(&n), &e),
                expect,
                "the model: {base:?}^{e:?} mod {n:?}"
            );
            assert_eq!(
                Montgomery::new(&n).modpow(&base, &e),
                expect,
                "{base:?}^{e:?} mod {n:?}"
            );
            assert_eq!(base.modpow(&e, &n), expect);
        }

        /// One product in Montgomery form is one `mulmod`, and into and
        /// out of Montgomery form is the identity below `n`.
        #[test]
        fn one_square_matches_mulmod(seed in proptest::prelude::any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = arb_modulus(&mut rng);
            let a = arb_base(&mut rng, &n);
            let ctx = Montgomery::new(&n);
            let a_mont = ctx.to_mont(&a);
            assert_eq!(ctx.to_plain(&ctx.sqr(&a_mont)), a.mulmod(&a, &n));
            assert_eq!(ctx.to_plain(&a_mont), a.rem(&n));
        }
    }

    #[test]
    fn window_follows_the_exponent() {
        assert_eq!(window_bits(big(65537).bits()), 1);
        assert_eq!(window_bits(WINDOW_MIN_BITS), 1);
        assert_eq!(window_bits(WINDOW_MIN_BITS + 1), 5);
        assert_eq!(window_bits(512), 5);
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let bound = BigUint::from_hex("10000000000000000000001").unwrap();
        for _ in 0..100 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v.cmp_big(&bound) == Ordering::Less);
        }
    }
}

//! Arbitrary-precision unsigned integer arithmetic.
//!
//! The offline dependency set contains no bignum crate, so the modular
//! arithmetic needed by the Schnorr group ([`crate::sha256`] supplies the
//! random oracle) is implemented here from scratch: schoolbook
//! multiplication, Knuth Algorithm D division, square-and-multiply modular
//! exponentiation, and Miller–Rabin primality testing.
//!
//! Limbs are `u64`, stored little-endian, with the invariant that the most
//! significant limb is nonzero (the canonical representation of zero is an
//! empty limb vector).
//!
//! # Examples
//!
//! ```
//! use proauth_primitives::bigint::BigUint;
//!
//! let a = BigUint::from_u64(1 << 40);
//! let b = BigUint::from_u64(12345);
//! let (q, r) = a.divrem(&b);
//! assert_eq!(&q * &b + &r, a);
//! ```

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// See the [module documentation](self) for representation details.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; highest limb nonzero (empty == zero).
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Creates a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Creates a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint { limbs: vec![lo, hi] };
        n.normalize();
        n
    }

    /// Creates a value from little-endian limbs (any trailing zeros allowed).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Returns the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => (self.limbs.len() - 1) * 64 + (64 - hi.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            false
        } else {
            (self.limbs[limb] >> (i % 64)) & 1 == 1
        }
    }

    /// Returns the `width`-bit window starting at bit `lo` (little-endian),
    /// zero-padded past the top. `width` must be `≤ 64`.
    ///
    /// This is the digit-extraction primitive for windowed and fixed-base
    /// exponentiation: digit `d` of a radix-`2^w` decomposition is
    /// `bits_range(d·w, w)`.
    pub fn bits_range(&self, lo: usize, width: usize) -> u64 {
        debug_assert!((1..=64).contains(&width));
        let limb_idx = lo / 64;
        let bit_idx = lo % 64;
        let mut v = self.limbs.get(limb_idx).copied().unwrap_or(0) >> bit_idx;
        if bit_idx != 0 && bit_idx + width > 64 {
            v |= self.limbs.get(limb_idx + 1).copied().unwrap_or(0) << (64 - bit_idx);
        }
        if width < 64 {
            v &= (1u64 << width) - 1;
        }
        v
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Parses a big-endian byte string.
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

    /// Serializes to minimal big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to big-endian bytes left-padded with zeros to `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns `None` if `s` contains non-hex characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<u8> = s.bytes().collect();
        let mut i = 0;
        // Handle odd-length strings by treating the first nibble alone.
        if chars.len() % 2 == 1 {
            bytes.push(hex_val(chars[0])?);
            i = 1;
        }
        while i < chars.len() {
            bytes.push(hex_val(chars[i])? << 4 | hex_val(chars[i + 1])?);
            i += 2;
        }
        Some(Self::from_bytes_be(&bytes))
    }

    /// Formats as lowercase hex without leading zeros (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let bytes = self.to_bytes_be();
        let mut s = String::with_capacity(bytes.len() * 2);
        for (i, b) in bytes.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{b:x}"));
            } else {
                s.push_str(&format!("{b:02x}"));
            }
        }
        s
    }

    /// Compares two values.
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

    /// Adds `other` to `self`.
    pub fn add(&self, other: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        Self::from_limbs(out)
    }

    /// Subtracts `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        assert!(
            self.cmp_big(other) != Ordering::Less,
            "BigUint subtraction underflow"
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

    /// Multiplies `self` by `other` (schoolbook).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
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

    /// Left-shifts by `n` bits.
    pub fn shl(&self, n: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &limb in &self.limbs {
                out.push((limb << bit_shift) | carry);
                carry = limb >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Self::from_limbs(out)
    }

    /// Right-shifts by `n` bits.
    pub fn shr(&self, n: usize) -> Self {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).map_or(0, |&l| l << (64 - bit_shift));
                out.push(lo | hi);
            }
        }
        Self::from_limbs(out)
    }

    /// Divides `self` by `divisor`, returning `(quotient, remainder)`.
    ///
    /// Uses Knuth's Algorithm D.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn divrem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp_big(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut q = Vec::with_capacity(self.limbs.len());
            let mut rem = 0u128;
            for &limb in self.limbs.iter().rev() {
                let cur = (rem << 64) | limb as u128;
                q.push((cur / d as u128) as u64);
                rem = cur % d as u128;
            }
            q.reverse();
            return (Self::from_limbs(q), Self::from_u64(rem as u64));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let mut u_limbs = u.limbs.clone();
        // Ensure u has an extra high limb.
        u_limbs.push(0);
        let m = u_limbs.len() - 1 - n; // number of quotient limbs - 1
        let v_limbs = &v.limbs;
        let v_hi = v_limbs[n - 1];
        let v_hi2 = v_limbs[n - 2];
        let mut q_limbs = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate q_hat from the top two limbs of the current remainder.
            let num = ((u_limbs[j + n] as u128) << 64) | u_limbs[j + n - 1] as u128;
            let mut q_hat = num / v_hi as u128;
            let mut r_hat = num % v_hi as u128;
            while q_hat >= 1 << 64
                || q_hat * v_hi2 as u128 > ((r_hat << 64) | u_limbs[j + n - 2] as u128)
            {
                q_hat -= 1;
                r_hat += v_hi as u128;
                if r_hat >= 1 << 64 {
                    break;
                }
            }
            // Multiply-and-subtract: u[j..j+n+1] -= q_hat * v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = q_hat * v_limbs[i] as u128 + carry;
                carry = p >> 64;
                let sub = (p as u64) as i128;
                let cur = u_limbs[j + i] as i128 - sub + borrow;
                u_limbs[j + i] = cur as u64;
                borrow = cur >> 64; // arithmetic shift keeps the sign
            }
            let cur = u_limbs[j + n] as i128 - carry as i128 + borrow;
            u_limbs[j + n] = cur as u64;
            borrow = cur >> 64;

            if borrow < 0 {
                // q_hat was one too large: add back.
                q_hat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let sum = u_limbs[j + i] as u128 + v_limbs[i] as u128 + carry;
                    u_limbs[j + i] = sum as u64;
                    carry = sum >> 64;
                }
                u_limbs[j + n] = u_limbs[j + n].wrapping_add(carry as u64);
            }
            q_limbs[j] = q_hat as u64;
        }

        let q = Self::from_limbs(q_limbs);
        let r = Self::from_limbs(u_limbs[..n].to_vec()).shr(shift);
        (q, r)
    }

    /// Returns `self mod m`.
    pub fn rem(&self, m: &Self) -> Self {
        self.divrem(m).1
    }

    /// Modular addition: `(self + other) mod m`.
    ///
    /// Both operands must already be reduced mod `m`.
    pub fn add_mod(&self, other: &Self, m: &Self) -> Self {
        let s = self.add(other);
        if s.cmp_big(m) == Ordering::Less {
            s
        } else {
            s.sub(m)
        }
    }

    /// Modular subtraction: `(self - other) mod m`.
    ///
    /// Both operands must already be reduced mod `m`.
    pub fn sub_mod(&self, other: &Self, m: &Self) -> Self {
        if self.cmp_big(other) != Ordering::Less {
            self.sub(other)
        } else {
            self.add(m).sub(other)
        }
    }

    /// Modular multiplication: `(self * other) mod m`.
    pub fn mul_mod(&self, other: &Self, m: &Self) -> Self {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Dispatches to Montgomery-form exponentiation
    /// ([`crate::montgomery::Montgomery`]) for odd multi-limb moduli — the
    /// protocol's hot path — and falls back to the generic
    /// square-and-multiply otherwise. Callers exponentiating repeatedly with
    /// one modulus should hold a [`crate::montgomery::Montgomery`] context
    /// directly to amortize its setup.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &Self, m: &Self) -> Self {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.limbs.len() >= 2 && !m.is_even() {
            if let Some(ctx) = crate::montgomery::Montgomery::new(m) {
                return ctx.modpow(self, exp);
            }
        }
        self.modpow_generic(exp, m)
    }

    /// Generic square-and-multiply modular exponentiation (one Knuth
    /// division per step). Works for every modulus; kept public as the
    /// reference implementation the property tests compare against.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow_generic(&self, exp: &Self, m: &Self) -> Self {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return Self::zero();
        }
        let mut result = Self::one();
        let mut base = self.rem(m);
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mul_mod(&base, m);
            }
            if i + 1 < exp.bits() {
                base = base.mul_mod(&base, m);
            }
        }
        result
    }

    /// Modular inverse for a *prime* modulus via Fermat's little theorem.
    ///
    /// Returns `None` if `self ≡ 0 (mod p)`.
    pub fn inv_mod_prime(&self, p: &Self) -> Option<Self> {
        let reduced = self.rem(p);
        if reduced.is_zero() {
            return None;
        }
        let exp = p.sub(&Self::from_u64(2));
        Some(reduced.modpow(&exp, p))
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

    /// Samples a uniform value in `[0, bound)` using rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: rand::RngCore>(rng: &mut R, bound: &Self) -> Self {
        assert!(!bound.is_zero(), "random_below with zero bound");
        let bits = bound.bits();
        let limbs = bits.div_ceil(64);
        let top_mask = if bits.is_multiple_of(64) {
            u64::MAX
        } else {
            (1u64 << (bits % 64)) - 1
        };
        loop {
            let mut candidate: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
            if let Some(last) = candidate.last_mut() {
                *last &= top_mask;
            }
            let candidate = Self::from_limbs(candidate);
            if candidate.cmp_big(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    pub fn is_probable_prime<R: rand::RngCore>(&self, rounds: u32, rng: &mut R) -> bool {
        if self.is_zero() || self.is_one() {
            return false;
        }
        let two = Self::from_u64(2);
        let three = Self::from_u64(3);
        if self.cmp_big(&three) != Ordering::Greater {
            return true; // 2 and 3
        }
        if self.is_even() {
            return false;
        }
        // Quick trial division by small primes.
        for &p in &[3u64, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
            let pb = Self::from_u64(p);
            if self.cmp_big(&pb) == Ordering::Equal {
                return true;
            }
            if self.rem(&pb).is_zero() {
                return false;
            }
        }
        // Write self - 1 = d * 2^r.
        let n_minus_1 = self.sub(&Self::one());
        let mut d = n_minus_1.clone();
        let mut r = 0usize;
        while d.is_even() {
            d = d.shr(1);
            r += 1;
        }
        let bound = self.sub(&three); // bases in [2, n-2]
        'witness: for _ in 0..rounds {
            let a = Self::random_below(rng, &bound).add(&two);
            let mut x = a.modpow(&d, self);
            if x.is_one() || x.cmp_big(&n_minus_1) == Ordering::Equal {
                continue;
            }
            for _ in 0..r - 1 {
                x = x.mul_mod(&x, self);
                if x.cmp_big(&n_minus_1) == Ordering::Equal {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
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

impl std::ops::Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::add(self, rhs)
    }
}

impl std::ops::Add<&BigUint> for BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::add(&self, rhs)
    }
}

impl std::ops::Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        BigUint::sub(self, rhs)
    }
}

impl std::ops::Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::mul(self, rhs)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn b(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
    }

    #[test]
    fn add_small() {
        assert_eq!(b(2).add(&b(3)), b(5));
        assert_eq!(b(u64::MAX).add(&b(1)), BigUint::from_u128(1u128 << 64));
    }

    #[test]
    fn sub_small() {
        assert_eq!(b(5).sub(&b(3)), b(2));
        assert_eq!(
            BigUint::from_u128(1u128 << 64).sub(&b(1)),
            b(u64::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = b(1).sub(&b(2));
    }

    #[test]
    fn mul_small() {
        assert_eq!(b(7).mul(&b(6)), b(42));
        let big = BigUint::from_u128(u128::MAX);
        let sq = big.mul(&big);
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let expect = BigUint::one()
            .shl(256)
            .sub(&BigUint::one().shl(129))
            .add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts() {
        assert_eq!(b(1).shl(64), BigUint::from_u128(1u128 << 64));
        assert_eq!(BigUint::from_u128(1u128 << 64).shr(64), b(1));
        assert_eq!(b(0b1011).shl(3), b(0b1011000));
        assert_eq!(b(0b1011000).shr(3), b(0b1011));
        assert_eq!(b(1).shr(1), BigUint::zero());
    }

    #[test]
    fn divrem_small() {
        let (q, r) = b(17).divrem(&b(5));
        assert_eq!((q, r), (b(3), b(2)));
        let (q, r) = b(4).divrem(&b(5));
        assert_eq!((q, r), (BigUint::zero(), b(4)));
        let (q, r) = b(5).divrem(&b(5));
        assert_eq!((q, r), (BigUint::one(), BigUint::zero()));
    }

    #[test]
    fn divrem_multi_limb() {
        let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff00000000").unwrap();
        let d = BigUint::from_hex("fedcba9876543210f").unwrap();
        let (q, r) = a.divrem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
    }

    #[test]
    fn divrem_addback_case() {
        // Construct a case that exercises the Knuth D "add back" branch:
        // divisor with maximal top limb.
        let d = BigUint::from_limbs(vec![0, 0, u64::MAX]);
        let a = BigUint::from_limbs(vec![u64::MAX, u64::MAX, u64::MAX, u64::MAX - 1]);
        let (q, r) = a.divrem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = BigUint::from_hex("0123456789abcdef0123456789abcdef01").unwrap();
        assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
        assert_eq!(BigUint::from_bytes_be(&[]), BigUint::zero());
        assert_eq!(a.to_bytes_be_padded(20).len(), 20);
        assert_eq!(
            BigUint::from_bytes_be(&a.to_bytes_be_padded(32)),
            a
        );
    }

    #[test]
    fn hex_roundtrip() {
        for s in ["0", "1", "ff", "deadbeef", "123456789abcdef0123456789abcdef"] {
            let v = BigUint::from_hex(s).unwrap();
            assert_eq!(v.to_hex(), s, "hex {s}");
        }
        // Case-insensitive parse, odd lengths, leading zeros.
        assert_eq!(BigUint::from_hex("DEADBEEF").unwrap(), BigUint::from_hex("deadbeef").unwrap());
        assert_eq!(BigUint::from_hex("00ff").unwrap(), BigUint::from_u64(255));
        assert_eq!(BigUint::from_hex("f00").unwrap(), BigUint::from_u64(0xf00));
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn modpow_small() {
        // 3^7 mod 10 = 2187 mod 10 = 7
        assert_eq!(b(3).modpow(&b(7), &b(10)), b(7));
        // Fermat: a^(p-1) = 1 mod p for prime p
        let p = b(1_000_000_007);
        assert_eq!(b(12345).modpow(&p.sub(&BigUint::one()), &p), BigUint::one());
        assert_eq!(b(5).modpow(&BigUint::zero(), &b(7)), BigUint::one());
        assert_eq!(b(5).modpow(&b(3), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn inv_mod_prime_works() {
        let p = b(1_000_000_007);
        let a = b(123_456_789);
        let inv = a.inv_mod_prime(&p).unwrap();
        assert_eq!(a.mul_mod(&inv, &p), BigUint::one());
        assert!(BigUint::zero().inv_mod_prime(&p).is_none());
    }

    #[test]
    fn gcd_works() {
        assert_eq!(b(48).gcd(&b(18)), b(6));
        assert_eq!(b(17).gcd(&b(5)), b(1));
        assert_eq!(b(0).gcd(&b(5)), b(5));
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let bound = BigUint::from_hex("ffffffffffffffffffffffff").unwrap();
        for _ in 0..50 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn miller_rabin_classifies_known_values() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [2u64, 3, 5, 7, 101, 65537, 1_000_000_007] {
            assert!(b(p).is_probable_prime(16, &mut rng), "{p} should be prime");
        }
        for c in [1u64, 4, 100, 65535, 561 /* Carmichael */, 1_000_000_008] {
            assert!(!b(c).is_probable_prime(16, &mut rng), "{c} should be composite");
        }
        // A known 128-bit prime: 2^127 - 1 (Mersenne).
        let m127 = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(m127.is_probable_prime(16, &mut rng));
    }

    #[test]
    fn mod_helpers() {
        let m = b(97);
        assert_eq!(b(90).add_mod(&b(10), &m), b(3));
        assert_eq!(b(3).sub_mod(&b(10), &m), b(90));
        assert_eq!(b(50).mul_mod(&b(2), &m), b(3));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", b(255)), "0xff");
        assert_eq!(format!("{:?}", BigUint::zero()), "BigUint(0x0)");
    }
}

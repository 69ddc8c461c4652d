//! Montgomery-form modular exponentiation.
//!
//! The protocol stack's cost is dominated by `modpow` over 256–1024-bit
//! odd moduli (group exponentiation and scalar inversion). The generic
//! square-and-multiply in [`crate::bigint`] performs a full Knuth division
//! per step; this module replaces the reduction with Montgomery REDC,
//! cutting each step to two schoolbook multiplications plus carries.
//!
//! [`BigUint::modpow`] dispatches here automatically for odd multi-limb
//! moduli; `prop_montgomery` pins it to `modpow_generic`, and the
//! `primitives.montgomery.*` rows of `BENCHMARK.json` time it.
//!
//! # Examples
//!
//! ```
//! use proauth_primitives::bigint::BigUint;
//! use proauth_primitives::montgomery::Montgomery;
//!
//! let m = BigUint::from_hex("ffffffffffffffc5").unwrap(); // odd
//! let ctx = Montgomery::new(&m).unwrap();
//! let base = BigUint::from_u64(7);
//! let exp = BigUint::from_u64(65537);
//! assert_eq!(ctx.modpow(&base, &exp), base.modpow_generic(&exp, &m));
//! ```

use crate::bigint::BigUint;

/// Precomputed context for Montgomery arithmetic modulo an odd `m`.
#[derive(Debug, Clone)]
pub struct Montgomery {
    m: BigUint,
    /// Limb count of `m` (the Montgomery radix is `R = 2^(64·n)`).
    n: usize,
    /// `-m^{-1} mod 2^64`.
    m_inv_neg: u64,
    /// `R² mod m`, used to enter the Montgomery domain.
    r2: BigUint,
    /// `R mod m` — the Montgomery representation of `1`.
    r1: BigUint,
}

/// Fixed-base precomputation for one base (radix-`2^w` comb).
///
/// `table[pos][d-1]` holds `base^(d · 2^(w·pos))` in Montgomery form for
/// `d ∈ 1..2^w`, so evaluating `base^e` for any `e` with at most
/// [`FixedBaseTable::max_bits`] bits needs **no squarings** — one table
/// multiplication per nonzero radix-`2^w` digit of `e` (≈ `max_bits/w`
/// Montgomery products in total, ~40 for a 160-bit exponent at `w = 4`,
/// versus ~240 for plain square-and-multiply).
///
/// Tables are tied to the [`Montgomery`] context that built them; using a
/// table with a different modulus context produces garbage.
#[derive(Debug, Clone)]
pub struct FixedBaseTable {
    base: BigUint,
    window: usize,
    max_bits: usize,
    /// `table[pos][d-1] = base^(d << (window·pos))`, Montgomery form.
    table: Vec<Vec<BigUint>>,
}

impl FixedBaseTable {
    /// The plain (non-Montgomery) base this table was built for.
    pub fn base(&self) -> &BigUint {
        &self.base
    }

    /// The largest exponent bit-length the table covers.
    pub fn max_bits(&self) -> usize {
        self.max_bits
    }
}

/// One term of a multi-exponentiation: a base with or without a
/// precomputed fixed-base table.
pub enum ExpTerm<'a> {
    /// An ad-hoc base handled by Straus interleaving.
    Plain {
        /// The base element.
        base: &'a BigUint,
        /// Its exponent.
        exp: &'a BigUint,
    },
    /// A base with a precomputed comb table (no squarings needed).
    Fixed {
        /// The precomputed table.
        table: &'a FixedBaseTable,
        /// Its exponent.
        exp: &'a BigUint,
    },
}

/// Sliding-window size for a single exponentiation of `bits` bits,
/// balancing the `2^(w-1)`-entry table cost against saved multiplies.
fn window_for_bits(bits: usize) -> usize {
    match bits {
        0..=24 => 1,
        25..=80 => 3,
        81..=240 => 4,
        241..=768 => 5,
        _ => 6,
    }
}

impl Montgomery {
    /// Builds a context for the odd modulus `m`.
    ///
    /// Returns `None` if `m` is even or `≤ 1` (Montgomery reduction requires
    /// `gcd(m, 2^64) = 1`).
    pub fn new(m: &BigUint) -> Option<Self> {
        if m.is_even() || m.is_zero() || m.is_one() {
            return None;
        }
        let n = m.limbs().len();
        // Newton–Hensel: invert m mod 2^64 (5 iterations double precision
        // each time: 2^4 → 2^64).
        let m0 = m.limbs()[0];
        let mut inv: u64 = m0; // correct mod 2^4 for odd m0 (actually mod 8)
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let m_inv_neg = inv.wrapping_neg();
        // R² mod m via shifting (2n limbs = 128·n bits doubling).
        let r2 = BigUint::one().shl(128 * n).rem(m);
        let r1 = BigUint::one().shl(64 * n).rem(m);
        Some(Montgomery {
            m: m.clone(),
            n,
            m_inv_neg,
            r2,
            r1,
        })
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.m
    }

    /// Montgomery reduction: given `t < m·R`, returns `t·R^{-1} mod m`.
    fn redc(&self, t: &BigUint) -> BigUint {
        let n = self.n;
        let m_limbs = self.m.limbs();
        let mut work: Vec<u64> = vec![0; 2 * n + 1];
        let t_limbs = t.limbs();
        work[..t_limbs.len()].copy_from_slice(t_limbs);
        for i in 0..n {
            let u = work[i].wrapping_mul(self.m_inv_neg);
            // work += u * m << (64*i)
            let mut carry: u128 = 0;
            for (j, &mj) in m_limbs.iter().enumerate() {
                let cur = work[i + j] as u128 + (u as u128) * (mj as u128) + carry;
                work[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + n;
            while carry != 0 {
                let cur = work[k] as u128 + carry;
                work[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut out = BigUint::from_limbs(work[n..].to_vec());
        if out >= self.m {
            out = out.sub(&self.m);
        }
        out
    }

    /// Montgomery product: `a·b·R^{-1} mod m` for `a, b < m`.
    pub fn mont_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.redc(&a.mul(b))
    }

    /// Converts into the Montgomery domain: `a·R mod m`.
    pub fn to_mont(&self, a: &BigUint) -> BigUint {
        self.mont_mul(&a.rem(&self.m), &self.r2)
    }

    /// Leaves the Montgomery domain: `ã·R^{-1} mod m`.
    pub fn from_mont(&self, a: &BigUint) -> BigUint {
        self.redc(a)
    }

    /// Full modular product `a·b mod m` without a trial division: one
    /// schoolbook multiply plus two REDC passes (enter, multiply-reduce),
    /// replacing the Knuth division of the generic `mul_mod`.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let b = if b >= &self.m { b.rem(&self.m) } else { b.clone() };
        self.redc(&self.to_mont(a).mul(&b))
    }

    /// `base^exp mod m` via sliding-window (2^k-ary) square-and-multiply in
    /// the Montgomery domain. The window size adapts to the exponent length
    /// (4 for the 160–256-bit scalars the crypto layer uses), cutting the
    /// expected multiplies per bit from 0.5 to ≈ 0.2 versus
    /// [`Self::modpow_binary`].
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let bits = exp.bits();
        if bits == 0 {
            return BigUint::one().rem(&self.m);
        }
        let w = window_for_bits(bits);
        if w == 1 {
            return self.modpow_binary(base, exp);
        }
        let base_m = self.to_mont(base);
        // Odd powers base^1, base^3, …, base^(2^w − 1), Montgomery form.
        let base_sq = self.mont_mul(&base_m, &base_m);
        let mut odd = Vec::with_capacity(1 << (w - 1));
        odd.push(base_m);
        for i in 1..(1usize << (w - 1)) {
            let next = self.mont_mul(&odd[i - 1], &base_sq);
            odd.push(next);
        }
        let mut acc: Option<BigUint> = None;
        let mut i = bits as isize - 1;
        while i >= 0 {
            if !exp.bit(i as usize) {
                // Singleton zero bit: square through it.
                let a = acc.as_mut().expect("leading bit of exp is set");
                *a = self.mont_mul(a, a);
                i -= 1;
                continue;
            }
            // Greedy window [j..=i] of ≤ w bits ending on a set bit, so the
            // digit is odd and lives in the precomputed table.
            let mut j = i - (w.min(i as usize + 1) as isize) + 1;
            while !exp.bit(j as usize) {
                j += 1;
            }
            let width = (i - j + 1) as usize;
            let digit = exp.bits_range(j as usize, width);
            let entry = &odd[((digit - 1) / 2) as usize];
            acc = Some(match acc {
                Some(mut a) => {
                    for _ in 0..width {
                        a = self.mont_mul(&a, &a);
                    }
                    self.mont_mul(&a, entry)
                }
                None => entry.clone(),
            });
            i = j - 1;
        }
        self.redc(&acc.expect("bits > 0"))
    }

    /// `base^exp mod m` using plain left-to-right binary square-and-multiply
    /// in the Montgomery domain.
    ///
    /// This is the pre-windowing code path, kept as the property tests'
    /// reference and as the windowed routine's short-exponent fallback.
    pub fn modpow_binary(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let bits = exp.bits();
        if bits == 0 {
            return BigUint::one().rem(&self.m);
        }
        let base_m = self.to_mont(base);
        let mut acc = self.r1.clone();
        for i in (0..bits).rev() {
            acc = self.mont_mul(&acc, &acc);
            if exp.bit(i) {
                acc = self.mont_mul(&acc, &base_m);
            }
        }
        // Leave the Montgomery domain: multiply by 1 (i.e. REDC once).
        self.redc(&acc)
    }

    /// Builds a radix-`2^4` comb table for `base`, covering exponents of up
    /// to `max_bits` bits (rounded up to a whole number of digits).
    ///
    /// One-time cost ≈ `max_bits/4 · 15` Montgomery products (≈ 600 for a
    /// 160-bit exponent range); afterwards [`Self::modpow_fixed`] evaluates
    /// any in-range exponent squaring-free.
    pub fn precompute(&self, base: &BigUint, max_bits: usize) -> FixedBaseTable {
        let w = 4usize;
        let positions = max_bits.div_ceil(w).max(1);
        let mut table = Vec::with_capacity(positions);
        // cur = base^(2^(w·pos)) in Montgomery form.
        let mut cur = self.to_mont(base);
        for _ in 0..positions {
            let mut row = Vec::with_capacity((1 << w) - 1);
            row.push(cur.clone());
            for d in 1..(1 << w) - 1 {
                let next = self.mont_mul(&row[d - 1], &cur);
                row.push(next);
            }
            // Advance: cur^(2^w) = row[2^w − 2] · cur (= cur^15 · cur).
            cur = self.mont_mul(&row[(1 << w) - 2], &cur);
            table.push(row);
        }
        FixedBaseTable { base: base.clone(), window: w, max_bits: positions * w, table }
    }

    /// `table.base^exp mod m` via the comb table — zero squarings for
    /// in-range exponents; falls back to [`Self::modpow`] past `max_bits`.
    pub fn modpow_fixed(&self, table: &FixedBaseTable, exp: &BigUint) -> BigUint {
        if exp.bits() > table.max_bits {
            return self.modpow(&table.base, exp);
        }
        self.redc(&self.comb_eval_mont(table, exp))
    }

    /// Comb evaluation in the Montgomery domain (exponent must fit).
    fn comb_eval_mont(&self, t: &FixedBaseTable, exp: &BigUint) -> BigUint {
        debug_assert!(exp.bits() <= t.max_bits);
        let w = t.window;
        let positions = exp.bits().div_ceil(w);
        let mut acc: Option<BigUint> = None;
        for (pos, row) in t.table.iter().enumerate().take(positions) {
            let d = exp.bits_range(pos * w, w);
            if d != 0 {
                let entry = &row[(d - 1) as usize];
                acc = Some(match acc {
                    Some(a) => self.mont_mul(&a, entry),
                    None => entry.clone(),
                });
            }
        }
        acc.unwrap_or_else(|| self.r1.clone())
    }

    /// Interleaved multi-exponentiation: `Π_i termᵢ mod m` in one pass.
    ///
    /// `Fixed` terms are evaluated through their comb tables (no squarings);
    /// `Plain` terms share one Straus/Shamir squaring chain whose length is
    /// the *longest plain exponent* — so mixing a table-backed full-width
    /// term with short plain exponents (the Feldman share check: tiny
    /// `i^k` exponents next to a 160-bit `g^share`) squares only up to the
    /// short exponents' width. Equal plain bases are merged by adding their
    /// exponents (always sound: `a^e1·a^e2 = a^(e1+e2)`).
    pub fn multi_exp(&self, terms: &[ExpTerm<'_>]) -> BigUint {
        let mut fixed_acc: Option<BigUint> = None;
        let mut plain: Vec<(&BigUint, BigUint)> = Vec::new();
        for term in terms {
            match term {
                ExpTerm::Fixed { table, exp } if exp.bits() <= table.max_bits => {
                    let part = self.comb_eval_mont(table, exp);
                    fixed_acc = Some(match fixed_acc {
                        Some(a) => self.mont_mul(&a, &part),
                        None => part,
                    });
                }
                // Out-of-range exponent: treat as a plain base.
                ExpTerm::Fixed { table, exp } => merge_term(&mut plain, &table.base, exp),
                ExpTerm::Plain { base, exp } => merge_term(&mut plain, base, exp),
            }
        }
        let straus = if plain.is_empty() {
            None
        } else {
            Some(self.straus_mont(&plain))
        };
        let combined = match (fixed_acc, straus) {
            (Some(f), Some(s)) => self.mont_mul(&f, &s),
            (Some(f), None) => f,
            (None, Some(s)) => s,
            (None, None) => return BigUint::one().rem(&self.m),
        };
        self.redc(&combined)
    }

    /// Straus/Shamir interleaving over plain `(base, exp)` pairs, result in
    /// Montgomery form. All pairs share one radix-`2^w` squaring chain.
    fn straus_mont(&self, pairs: &[(&BigUint, BigUint)]) -> BigUint {
        let max_bits = pairs.iter().map(|(_, e)| e.bits()).max().unwrap_or(0);
        if max_bits == 0 {
            return self.r1.clone();
        }
        // Narrow digits when every exponent is short (Feldman's i^k), wide
        // ones for full-width scalars.
        let w = if max_bits <= 16 { 2usize } else { 4 };
        let tables: Vec<Vec<BigUint>> = pairs
            .iter()
            .map(|(b, _)| {
                let b_m = self.to_mont(b);
                let mut t = Vec::with_capacity((1 << w) - 1);
                t.push(b_m.clone());
                for d in 1..(1 << w) - 1 {
                    let next = self.mont_mul(&t[d - 1], &b_m);
                    t.push(next);
                }
                t
            })
            .collect();
        let positions = max_bits.div_ceil(w);
        let mut acc: Option<BigUint> = None;
        for pos in (0..positions).rev() {
            if let Some(a) = acc.as_mut() {
                for _ in 0..w {
                    *a = self.mont_mul(a, a);
                }
            }
            for (i, (_, e)) in pairs.iter().enumerate() {
                let d = e.bits_range(pos * w, w);
                if d != 0 {
                    let entry = &tables[i][(d - 1) as usize];
                    acc = Some(match acc.take() {
                        Some(a) => self.mont_mul(&a, entry),
                        None => entry.clone(),
                    });
                }
            }
        }
        acc.unwrap_or_else(|| self.r1.clone())
    }
}

/// Adds a plain term, merging exponents of an already-seen base.
fn merge_term<'a>(plain: &mut Vec<(&'a BigUint, BigUint)>, base: &'a BigUint, exp: &BigUint) {
    // Call sites have a handful of distinct bases; linear scan is fine.
    for (b, e) in plain.iter_mut() {
        if *b == base {
            *e = e.add(exp);
            return;
        }
    }
    plain.push((base, exp.clone()));
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
    fn rejects_even_and_trivial_moduli() {
        assert!(Montgomery::new(&b(10)).is_none());
        assert!(Montgomery::new(&b(0)).is_none());
        assert!(Montgomery::new(&b(1)).is_none());
        assert!(Montgomery::new(&b(9)).is_some());
    }

    #[test]
    fn matches_generic_small() {
        let m = b(1_000_000_007);
        let ctx = Montgomery::new(&m).unwrap();
        for (base, exp) in [(0u64, 5u64), (1, 0), (2, 10), (12345, 67890), (999, 1)] {
            assert_eq!(
                ctx.modpow(&b(base), &b(exp)),
                b(base).modpow_generic(&b(exp), &m),
                "{base}^{exp}"
            );
        }
    }

    #[test]
    fn matches_generic_multi_limb() {
        let mut rng = StdRng::seed_from_u64(42);
        for limbs in [2usize, 4, 8] {
            let bound = BigUint::one().shl(64 * limbs);
            let mut m = BigUint::random_below(&mut rng, &bound);
            if m.is_even() {
                m = m.add(&BigUint::one());
            }
            let ctx = Montgomery::new(&m).unwrap();
            for _ in 0..10 {
                let base = BigUint::random_below(&mut rng, &bound);
                let exp = BigUint::random_below(&mut rng, &BigUint::one().shl(96));
                assert_eq!(
                    ctx.modpow(&base, &exp),
                    base.modpow_generic(&exp, &m),
                    "limbs {limbs}"
                );
            }
        }
    }

    #[test]
    fn base_larger_than_modulus_reduced() {
        let m = b(101);
        let ctx = Montgomery::new(&m).unwrap();
        assert_eq!(
            ctx.modpow(&b(10_000), &b(3)),
            b(10_000).modpow_generic(&b(3), &m)
        );
    }

    #[test]
    fn windowed_matches_binary_and_generic() {
        let mut rng = StdRng::seed_from_u64(7);
        for limbs in [1usize, 3, 5] {
            let bound = BigUint::one().shl(64 * limbs);
            let mut m = BigUint::random_below(&mut rng, &bound);
            if m.is_even() {
                m = m.add(&BigUint::one());
            }
            let ctx = Montgomery::new(&m).unwrap();
            for exp_bits in [0usize, 1, 13, 64, 160, 300] {
                let base = BigUint::random_below(&mut rng, &bound);
                let exp = BigUint::random_below(&mut rng, &BigUint::one().shl(exp_bits.max(1)));
                let want = base.modpow_generic(&exp, &m);
                assert_eq!(ctx.modpow(&base, &exp), want, "windowed {limbs}l/{exp_bits}b");
                assert_eq!(ctx.modpow_binary(&base, &exp), want, "binary {limbs}l/{exp_bits}b");
            }
        }
    }

    #[test]
    fn fixed_base_matches_modpow() {
        let mut rng = StdRng::seed_from_u64(8);
        let m = BigUint::one().shl(127).sub(&BigUint::one());
        let ctx = Montgomery::new(&m).unwrap();
        let base = BigUint::random_below(&mut rng, &m);
        let table = ctx.precompute(&base, 126);
        for exp_bits in [0usize, 1, 7, 64, 126] {
            let exp = BigUint::random_below(&mut rng, &BigUint::one().shl(exp_bits.max(1)));
            assert_eq!(ctx.modpow_fixed(&table, &exp), ctx.modpow_binary(&base, &exp));
        }
        // Out-of-range exponent falls back to the windowed path.
        let big_exp = BigUint::random_below(&mut rng, &BigUint::one().shl(200));
        assert_eq!(ctx.modpow_fixed(&table, &big_exp), ctx.modpow_binary(&base, &big_exp));
    }

    #[test]
    fn multi_exp_matches_product_of_modpows() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = BigUint::one().shl(127).sub(&BigUint::one());
        let ctx = Montgomery::new(&m).unwrap();
        let g = BigUint::random_below(&mut rng, &m);
        let table = ctx.precompute(&g, 126);
        for _ in 0..10 {
            let b1 = BigUint::random_below(&mut rng, &m);
            let b2 = BigUint::random_below(&mut rng, &m);
            let (e0, e1, e2) = (
                BigUint::random_below(&mut rng, &BigUint::one().shl(126)),
                BigUint::random_below(&mut rng, &BigUint::one().shl(126)),
                BigUint::random_below(&mut rng, &BigUint::one().shl(14)),
            );
            let got = ctx.multi_exp(&[
                ExpTerm::Fixed { table: &table, exp: &e0 },
                ExpTerm::Plain { base: &b1, exp: &e1 },
                ExpTerm::Plain { base: &b2, exp: &e2 },
                // Duplicate base: exponents must merge.
                ExpTerm::Plain { base: &b2, exp: &e1 },
            ]);
            let want = ctx
                .modpow_binary(&g, &e0)
                .mul_mod(&ctx.modpow_binary(&b1, &e1), &m)
                .mul_mod(&ctx.modpow_binary(&b2, &e2), &m)
                .mul_mod(&ctx.modpow_binary(&b2, &e1), &m);
            assert_eq!(got, want);
        }
        // Degenerate inputs.
        assert!(ctx.multi_exp(&[]).is_one());
        let zero = BigUint::zero();
        assert!(ctx
            .multi_exp(&[ExpTerm::Plain { base: &g, exp: &zero }])
            .is_one());
    }

    #[test]
    fn mont_mul_mod_matches_generic() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = BigUint::one().shl(127).sub(&BigUint::one());
        let ctx = Montgomery::new(&m).unwrap();
        for _ in 0..20 {
            let a = BigUint::random_below(&mut rng, &BigUint::one().shl(160));
            let b = BigUint::random_below(&mut rng, &BigUint::one().shl(160));
            assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &m));
        }
    }

    #[test]
    fn fermat_little_theorem_holds() {
        // Known 128-bit prime: 2^127 − 1.
        let p = BigUint::one().shl(127).sub(&BigUint::one());
        let ctx = Montgomery::new(&p).unwrap();
        let a = b(123_456_789);
        let exp = p.sub(&BigUint::one());
        assert!(ctx.modpow(&a, &exp).is_one());
    }
}

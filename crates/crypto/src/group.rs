//! Schnorr groups: prime-order subgroups of `Z_p^*`.
//!
//! The paper's constructions need a centralized EUF-CMA signature scheme
//! (called `CS` in §4) and a threshold scheme with a homomorphic structure
//! (the AL-model PDS of Theorem 13). Both are instantiated over a subgroup of
//! order `q` inside `Z_p^*` with `p = q·r + 1`, the classic DSA/Schnorr
//! setting the paper itself cites (\[20\], \[23\]).
//!
//! Parameters are deterministic constants produced by
//! `proauth-primitives/examples/gen_params.rs` (fixed seed) and re-verified by
//! the tests in this module. `Toy64` exists so that protocol-level tests can
//! run thousands of group operations quickly; it is *structurally* identical
//! to the larger presets.
//!
//! # Examples
//!
//! ```
//! use proauth_crypto::group::{Group, GroupId};
//!
//! let group = Group::new(GroupId::Toy64);
//! let mut rng = rand::thread_rng();
//! let x = group.random_scalar(&mut rng);
//! let y = group.exp_g(&x);
//! assert!(group.contains(&y));
//! ```

use proauth_primitives::bigint::BigUint;
use proauth_primitives::montgomery::{ExpTerm, FixedBaseTable, Montgomery};
use proauth_primitives::sha256;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

// Deterministically generated constants (see module docs).
// TOY64: p 64 bits, q 32 bits
const TOY64_P: &str = "a11d9cb960b74c67";
const TOY64_Q: &str = "ecda6e37";
const TOY64_G: &str = "9a1e9a826b2dfdb1";

// S256: p 256 bits, q 160 bits
const S256_P: &str = "813bac2b6be9fec9ddfc3466e8280c4e063b2dc9fa386a2b241f7e6e51de6589";
const S256_Q: &str = "92c8235d88b8afc1a8ed2cec9e30e5e1ee4c39f1";
const S256_G: &str = "6308a8042a0b7676d31fd579167b16564789d98b22541f67f1c293cfb54b17dd";

// S512: p 512 bits, q 256 bits
const S512_P: &str = "b45e5efc957844888b034a6076bc5bf812b682c1ea04a88bb57d0257453daae3572c9499e67fe6d57108636242667788a6e918a92722549e12ab6e8ea94a7f83";
const S512_Q: &str = "d05827a9dd590362d874acef9aa4af9eb45f62ca778e561f712f625a064884ab";
const S512_G: &str = "b00aacff5d295bf7146ee4c6a1751c99ff741910db85acc272384e788e14600526d602dac24cc5ca2393a200bbf279b1e41d088d5b5c8d697e506e005d049275";

// S1024: p 1024 bits, q 256 bits
const S1024_P: &str = "98d5fef2ec7fd37c3eea935e7e3b9201acbf487ddf7c05e9128e380670df3b38ccc5a94901c2fcba67d44e3c54a5ce50f78f583fb0252993f47fcf8e46e4a83c997ce6a2923597ec364545f6ea192b3509d528a0982bf29ecdbde7795b4513537fe491a40a8fdcd27390729cb7d30bc0a3bfaf6fb416f0bb41898632d057c2af";
const S1024_Q: &str = "bb25da037e16f6d85de9fac9e344eb4b9a87eba7463659946f9c6d16e6f0d321";
const S1024_G: &str = "2ebd63250e09239f2310e82040f0ccb0e236a87d8ce3bbaac19f53e8182aefbe4514c3ec2cdf2d7ade830f1efea6e0df58f0efeb682ab09338654fca395331015fd55c7358688b1731dd4f7d3e11659f959e2ab185a31116a0bc3ee411fd350d5ecab7e0a1e5941d4358d6a46efd1fa287f745e657c841278ebc7f750c8e927b";

/// Identifies a parameter preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupId {
    /// 64-bit `p` — *insecure*, for fast protocol tests only.
    Toy64,
    /// 256-bit `p`, 160-bit `q` (DSA-1 sized).
    S256,
    /// 512-bit `p`, 256-bit `q`.
    S512,
    /// 1024-bit `p`, 256-bit `q`.
    S1024,
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            GroupId::Toy64 => "toy64",
            GroupId::S256 => "s256",
            GroupId::S512 => "s512",
            GroupId::S1024 => "s1024",
        };
        write!(f, "{name}")
    }
}

/// A Schnorr group: the order-`q` subgroup of `Z_p^*` generated by `g`.
///
/// Cheap to clone (internally `Arc`-shared parameters).
#[derive(Clone)]
pub struct Group {
    inner: Arc<GroupInner>,
}

struct GroupInner {
    id: GroupId,
    p: BigUint,
    q: BigUint,
    g: BigUint,
    /// Montgomery context for exponentiation mod `p` (both our primes are
    /// odd, so these always exist for the presets).
    mont_p: Option<Montgomery>,
    /// Montgomery context for scalar arithmetic mod `q` (multiplication and
    /// Fermat inversion).
    mont_q: Option<Montgomery>,
    /// Fixed-base comb table for the generator `g`, built once per group.
    g_table: Option<FixedBaseTable>,
    /// Comb tables for non-generator bases that proved hot (verify keys,
    /// the certification key `v_cert`), promoted on second use.
    table_cache: TableCache,
}

/// Promote-on-second-use table cache.
///
/// Building a comb table costs ≈ `|q|/4 · 15` Montgomery products, about
/// 2.5 full exponentiations — a loss for one-shot bases (ephemeral nonce
/// commitments, membership tests) but a ~6× win for every exponentiation
/// after the second under a long-lived key. Bases are counted by value; the
/// second sighting pays the build. Both maps are capped so adversarially
/// many distinct bases cannot balloon memory: at ~19 KiB per s256 table,
/// `MAX_TABLES` bounds the cache at ~2.4 MiB per group.
///
/// The hot lookup path is read-mostly: many simulator worker threads share
/// one `Group` and hit promoted tables on every signature/verify. Promoted
/// tables therefore live in an immutable `Arc<HashMap>` snapshot behind a
/// `RwLock` (readers take a cheap read lock and clone the `Arc`); only the
/// rare promotion path takes a write lock, swapping in a rebuilt map. The
/// seen-counters sit behind their own `Mutex` so counting a cold base never
/// contends with table hits. All lock acquisitions recover from poisoning
/// (a panicking worker thread must not wedge the cache for the others —
/// both maps are valid at every sequence point, so recovery is safe).
#[derive(Default)]
struct TableCache {
    tables: RwLock<Arc<HashMap<Vec<u8>, Arc<FixedBaseTable>>>>,
    seen: Mutex<HashMap<Vec<u8>, u32>>,
}

/// Cap on promoted tables per group.
const MAX_TABLES: usize = 128;
/// Cap on the once-seen counter map; reaching it resets the counters.
const MAX_SEEN: usize = 4096;

impl fmt::Debug for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Group({}, |p|={} bits, |q|={} bits)",
            self.inner.id,
            self.inner.p.bits(),
            self.inner.q.bits()
        )
    }
}

impl PartialEq for Group {
    fn eq(&self, other: &Self) -> bool {
        self.inner.id == other.inner.id
    }
}
impl Eq for Group {}

impl Group {
    /// Loads a parameter preset.
    pub fn new(id: GroupId) -> Self {
        let (p, q, g) = match id {
            GroupId::Toy64 => (TOY64_P, TOY64_Q, TOY64_G),
            GroupId::S256 => (S256_P, S256_Q, S256_G),
            GroupId::S512 => (S512_P, S512_Q, S512_G),
            GroupId::S1024 => (S1024_P, S1024_Q, S1024_G),
        };
        let p = BigUint::from_hex(p).expect("valid constant");
        let q = BigUint::from_hex(q).expect("valid constant");
        let g = BigUint::from_hex(g).expect("valid constant");
        let mont_p = Montgomery::new(&p);
        // Every exponent in protocol use is reduced mod q; `contains` raises
        // to q itself, so q.bits() covers all in-protocol exponents.
        let g_table = mont_p.as_ref().map(|ctx| ctx.precompute(&g, q.bits()));
        Group {
            inner: Arc::new(GroupInner {
                id,
                mont_p,
                mont_q: Montgomery::new(&q),
                p,
                q,
                g,
                g_table,
                table_cache: TableCache::default(),
            }),
        }
    }

    /// The preset identifier.
    pub fn id(&self) -> GroupId {
        self.inner.id
    }

    /// The field prime `p`.
    pub fn p(&self) -> &BigUint {
        &self.inner.p
    }

    /// The subgroup order `q`.
    pub fn q(&self) -> &BigUint {
        &self.inner.q
    }

    /// The generator `g`.
    pub fn g(&self) -> &BigUint {
        &self.inner.g
    }

    /// The group identity element `1`.
    pub fn identity(&self) -> BigUint {
        BigUint::one()
    }

    /// `g^s mod p` — squaring-free via the generator's comb table.
    pub fn exp_g(&self, s: &BigUint) -> BigUint {
        match (&self.inner.mont_p, &self.inner.g_table) {
            (Some(ctx), Some(table)) => ctx.modpow_fixed(table, s),
            _ => self.exp(&self.inner.g, s),
        }
    }

    /// `base^s mod p`.
    ///
    /// Fast paths, in order: the generator's comb table; a promoted table
    /// for a hot base (see `TableCache`); windowed Montgomery modpow.
    pub fn exp(&self, base: &BigUint, s: &BigUint) -> BigUint {
        let Some(ctx) = &self.inner.mont_p else {
            return base.modpow(s, &self.inner.p);
        };
        if base == &self.inner.g {
            if let Some(table) = &self.inner.g_table {
                return ctx.modpow_fixed(table, s);
            }
        }
        if let Some(table) = self.hot_table(base) {
            return ctx.modpow_fixed(&table, s);
        }
        ctx.modpow(base, s)
    }

    /// `base^s mod p` via plain binary square-and-multiply — the seed code
    /// path, kept as the reference for the multi-exponentiation property
    /// tests.
    pub fn exp_binary(&self, base: &BigUint, s: &BigUint) -> BigUint {
        match &self.inner.mont_p {
            Some(ctx) => ctx.modpow_binary(base, s),
            None => base.modpow(s, &self.inner.p),
        }
    }

    /// `Π baseᵢ^expᵢ mod p` in one interleaved pass.
    ///
    /// Table-backed bases (the generator, promoted hot bases) contribute
    /// squaring-free comb digits; the remaining bases share a single
    /// Straus squaring chain as long as the *longest* such exponent. This
    /// collapses the Feldman share check (one full-width `g` term plus tiny
    /// `i^k` terms) and Schnorr verification (`g^s · y^{q−e}`) into a
    /// fraction of two sequential exponentiations.
    pub fn multi_exp(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        let Some(ctx) = &self.inner.mont_p else {
            return self.multi_exp_naive(pairs);
        };
        enum Slot<'a> {
            G(&'a BigUint),
            Hot(Arc<FixedBaseTable>, &'a BigUint),
            Plain(&'a BigUint, &'a BigUint),
        }
        let slots: Vec<Slot<'_>> = pairs
            .iter()
            .map(|&(base, exp)| {
                if base == &self.inner.g && self.inner.g_table.is_some() {
                    Slot::G(exp)
                } else if let Some(table) = self.table_lookup(base) {
                    Slot::Hot(table, exp)
                } else {
                    Slot::Plain(base, exp)
                }
            })
            .collect();
        let terms: Vec<ExpTerm<'_>> = slots
            .iter()
            .map(|slot| match slot {
                Slot::G(exp) => ExpTerm::Fixed {
                    table: self.inner.g_table.as_ref().expect("checked above"),
                    exp,
                },
                Slot::Hot(table, exp) => ExpTerm::Fixed { table: table.as_ref(), exp },
                Slot::Plain(base, exp) => ExpTerm::Plain { base, exp },
            })
            .collect();
        ctx.multi_exp(&terms)
    }

    /// Reference multi-exponentiation: the plain product of binary modpows.
    /// Bit-identical to [`Self::multi_exp`]; kept for the property tests.
    pub fn multi_exp_naive(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        pairs.iter().fold(self.identity(), |acc, &(base, exp)| {
            self.mul(&acc, &self.exp_binary(base, exp))
        })
    }

    /// Looks up (and possibly promotes) a comb table for a hot base.
    /// Table lookup without sighting accounting: returns the comb table for
    /// `base` if one was already promoted, and never counts the miss. This is
    /// what `multi_exp` uses — its bases include transient random-linear-
    /// combination terms (nonce commitments under batch verification) that
    /// must not compete with long-lived bases for the promotion heuristic.
    fn table_lookup(&self, base: &BigUint) -> Option<Arc<FixedBaseTable>> {
        let snapshot = self
            .inner
            .table_cache
            .tables
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        snapshot.get(&base.to_bytes_be()).cloned()
    }

    /// Eagerly builds and installs a fixed-base comb table for `base`,
    /// bypassing the two-sighting promotion heuristic. Idempotent; a no-op
    /// when the cache is full or the group has no Montgomery context. This is
    /// the preprocessing hook: drivers promote long-lived bases (share keys,
    /// the joint public key) during offline windows so the first online
    /// exponentiation already runs on the comb path.
    pub fn promote(&self, base: &BigUint) {
        let Some(ctx) = self.inner.mont_p.as_ref() else {
            return;
        };
        let cache = &self.inner.table_cache;
        let key = base.to_bytes_be();
        {
            let guard = cache.tables.read().unwrap_or_else(PoisonError::into_inner);
            if guard.contains_key(&key) || guard.len() >= MAX_TABLES {
                return;
            }
        }
        let table = Arc::new(ctx.precompute(base, self.inner.q.bits()));
        let mut guard = cache
            .tables
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if guard.contains_key(&key) || guard.len() >= MAX_TABLES {
            return;
        }
        let mut next = (**guard).clone();
        next.insert(key, table);
        *guard = Arc::new(next);
    }

    fn hot_table(&self, base: &BigUint) -> Option<Arc<FixedBaseTable>> {
        let ctx = self.inner.mont_p.as_ref()?;
        let cache = &self.inner.table_cache;
        let key = base.to_bytes_be();
        // Fast path: grab the current snapshot under a read lock; the lookup
        // itself runs on the snapshot after the lock is dropped, so table
        // hits from many threads never serialize on promotion.
        let snapshot = cache
            .tables
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(table) = snapshot.get(&key) {
            return Some(table.clone());
        }
        if snapshot.len() >= MAX_TABLES {
            return None;
        }
        // Cold base: bump its sighting count; only the second sighting pays
        // the build. The counters have their own lock so counting one-shot
        // bases never contends with hot-table readers.
        {
            let mut seen = cache.seen.lock().unwrap_or_else(PoisonError::into_inner);
            if seen.len() >= MAX_SEEN {
                seen.clear();
            }
            let count = seen.entry(key.clone()).or_insert(0);
            *count += 1;
            if *count < 2 {
                return None;
            }
            seen.remove(&key);
        }
        // Promotion: build the table outside any lock (it costs about 2.5
        // exponentiations), then clone-and-swap the snapshot. A racing
        // promoter may have inserted the same base meanwhile; keep the first
        // table so every thread agrees on one `Arc`.
        let table = Arc::new(ctx.precompute(base, self.inner.q.bits()));
        let mut guard = cache
            .tables
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = guard.get(&key) {
            return Some(existing.clone());
        }
        if guard.len() >= MAX_TABLES {
            return None;
        }
        let mut next = (**guard).clone();
        next.insert(key, table.clone());
        *guard = Arc::new(next);
        Some(table)
    }

    /// Group multiplication `a·b mod p` (REDC-based, no trial division).
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        match &self.inner.mont_p {
            Some(ctx) => ctx.mul_mod(a, b),
            None => a.mul_mod(b, &self.inner.p),
        }
    }

    /// Group inverse `a^{-1} mod p` (via `a^{p-2}`).
    ///
    /// # Panics
    ///
    /// Panics if `a ≡ 0 (mod p)`, which is never a group element.
    pub fn inv(&self, a: &BigUint) -> BigUint {
        a.inv_mod_prime(&self.inner.p).expect("nonzero group element")
    }

    /// Membership test: `1 ≤ e < p` and `e^q = 1`.
    pub fn contains(&self, e: &BigUint) -> bool {
        if e.is_zero() || e >= &self.inner.p {
            return false;
        }
        // Membership candidates are overwhelmingly one-shot bases (nonce
        // commitments, received elements), so this deliberately bypasses the
        // hot-base machinery: counting them as sightings would flood the
        // promotion heuristic and fill the table cache with bases that are
        // never exponentiated again.
        match &self.inner.mont_p {
            Some(ctx) => ctx.modpow(e, &self.inner.q).is_one(),
            None => e.modpow(&self.inner.q, &self.inner.p).is_one(),
        }
    }

    /// Scalar addition mod `q`.
    pub fn scalar_add(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.add_mod(b, &self.inner.q)
    }

    /// Scalar subtraction mod `q`.
    pub fn scalar_sub(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.sub_mod(b, &self.inner.q)
    }

    /// Scalar multiplication mod `q` (REDC-based via the cached `q`
    /// Montgomery context, no trial division).
    pub fn scalar_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        match &self.inner.mont_q {
            Some(ctx) => ctx.mul_mod(a, b),
            None => a.mul_mod(b, &self.inner.q),
        }
    }

    /// Scalar inverse mod `q` (Fermat via the cached Montgomery context).
    ///
    /// Returns `None` for zero.
    pub fn scalar_inv(&self, a: &BigUint) -> Option<BigUint> {
        let reduced = a.rem(&self.inner.q);
        if reduced.is_zero() {
            return None;
        }
        let exp = self.inner.q.sub(&BigUint::from_u64(2));
        Some(match &self.inner.mont_q {
            Some(ctx) => ctx.modpow(&reduced, &exp),
            None => reduced.modpow(&exp, &self.inner.q),
        })
    }

    /// Scalar negation mod `q`.
    pub fn scalar_neg(&self, a: &BigUint) -> BigUint {
        if a.is_zero() {
            BigUint::zero()
        } else {
            self.inner.q.sub(&a.rem(&self.inner.q))
        }
    }

    /// Uniform random scalar in `[0, q)`.
    pub fn random_scalar<R: rand::RngCore>(&self, rng: &mut R) -> BigUint {
        BigUint::random_below(rng, &self.inner.q)
    }

    /// Uniform random *nonzero* scalar in `[1, q)`.
    pub fn random_nonzero_scalar<R: rand::RngCore>(&self, rng: &mut R) -> BigUint {
        loop {
            let s = self.random_scalar(rng);
            if !s.is_zero() {
                return s;
            }
        }
    }

    /// Hashes domain-separated parts into a scalar mod `q` (random oracle).
    pub fn hash_to_scalar(&self, domain: &str, parts: &[&[u8]]) -> BigUint {
        // Expand to 2×|q| bits worth of digest to make mod-q bias negligible.
        let d1 = sha256::hash_parts(domain, parts);
        let mut parts2: Vec<&[u8]> = vec![&d1];
        parts2.extend_from_slice(parts);
        let d2 = sha256::hash_parts("expand2", &parts2);
        let mut wide = Vec::with_capacity(64);
        wide.extend_from_slice(&d1);
        wide.extend_from_slice(&d2);
        BigUint::from_bytes_be(&wide).rem(&self.inner.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn constants_are_valid_groups() {
        let mut rng = StdRng::seed_from_u64(42);
        for id in [GroupId::Toy64, GroupId::S256, GroupId::S512, GroupId::S1024] {
            let grp = Group::new(id);
            assert!(grp.p().is_probable_prime(16, &mut rng), "{id}: p prime");
            assert!(grp.q().is_probable_prime(16, &mut rng), "{id}: q prime");
            // q divides p-1
            let p_minus_1 = grp.p().sub(&BigUint::one());
            assert!(p_minus_1.rem(grp.q()).is_zero(), "{id}: q | p-1");
            // g has order q
            assert!(!grp.g().is_one(), "{id}: g != 1");
            assert!(grp.exp_g(grp.q()).is_one(), "{id}: g^q = 1");
        }
    }

    #[test]
    fn exponent_laws() {
        let grp = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = grp.random_scalar(&mut rng);
            let b = grp.random_scalar(&mut rng);
            // g^(a+b) = g^a * g^b
            let lhs = grp.exp_g(&grp.scalar_add(&a, &b));
            let rhs = grp.mul(&grp.exp_g(&a), &grp.exp_g(&b));
            assert_eq!(lhs, rhs);
            // (g^a)^b = g^(ab)
            let lhs = grp.exp(&grp.exp_g(&a), &b);
            let rhs = grp.exp_g(&grp.scalar_mul(&a, &b));
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn membership() {
        let grp = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(2);
        let x = grp.random_scalar(&mut rng);
        assert!(grp.contains(&grp.exp_g(&x)));
        assert!(grp.contains(&grp.identity()));
        assert!(!grp.contains(&BigUint::zero()));
        assert!(!grp.contains(grp.p()));
        // A random element of Z_p^* is w.h.p. not in the order-q subgroup.
        assert!(!grp.contains(&BigUint::from_u64(2)) || grp.exp(&BigUint::from_u64(2), grp.q()).is_one());
    }

    #[test]
    fn inv_is_inverse() {
        let grp = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(3);
        let x = grp.random_scalar(&mut rng);
        let y = grp.exp_g(&x);
        assert!(grp.mul(&y, &grp.inv(&y)).is_one());
    }

    #[test]
    fn scalar_field_laws() {
        let grp = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(4);
        let a = grp.random_nonzero_scalar(&mut rng);
        let inv = grp.scalar_inv(&a).unwrap();
        assert!(grp.scalar_mul(&a, &inv).is_one());
        assert!(grp.scalar_add(&a, &grp.scalar_neg(&a)).is_zero());
        assert!(grp.scalar_inv(&BigUint::zero()).is_none());
        assert_eq!(grp.scalar_neg(&BigUint::zero()), BigUint::zero());
    }

    #[test]
    fn multi_exp_matches_naive() {
        let mut rng = StdRng::seed_from_u64(5);
        for id in [GroupId::Toy64, GroupId::S256] {
            let grp = Group::new(id);
            for _ in 0..10 {
                let y = grp.exp_g(&grp.random_scalar(&mut rng));
                let z = grp.exp_g(&grp.random_scalar(&mut rng));
                let (e1, e2, e3) = (
                    grp.random_scalar(&mut rng),
                    grp.random_scalar(&mut rng),
                    BigUint::from_u64(rng.gen_range(0u64..0x4000)),
                );
                let pairs: Vec<(&BigUint, &BigUint)> =
                    vec![(grp.g(), &e1), (&y, &e2), (&z, &e3)];
                assert_eq!(grp.multi_exp(&pairs), grp.multi_exp_naive(&pairs), "{id}");
            }
        }
    }

    #[test]
    fn hot_base_promotion_keeps_results_identical() {
        let grp = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(6);
        let y = grp.exp_g(&grp.random_scalar(&mut rng));
        let s = grp.random_scalar(&mut rng);
        // First use counts, second promotes, third hits the table — all
        // three must agree with the binary reference.
        let want = grp.exp_binary(&y, &s);
        for _ in 0..3 {
            assert_eq!(grp.exp(&y, &s), want);
        }
    }

    #[test]
    fn table_cache_survives_worker_panic() {
        // A thread that panics while holding a cache lock must not wedge the
        // cache for other users of the shared Group.
        let grp = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(8);
        let y = grp.exp_g(&grp.random_scalar(&mut rng));
        let s = grp.random_scalar(&mut rng);
        let want = grp.exp_binary(&y, &s);
        // Promote y so the hot path is active.
        for _ in 0..3 {
            assert_eq!(grp.exp(&y, &s), want);
        }
        // Poison both cache locks from another thread.
        {
            let grp2 = grp.clone();
            let _ = std::thread::spawn(move || {
                let _guard = grp2.inner.table_cache.tables.write().unwrap();
                panic!("poison tables lock");
            })
            .join();
            let grp3 = grp.clone();
            let _ = std::thread::spawn(move || {
                let _guard = grp3.inner.table_cache.seen.lock().unwrap();
                panic!("poison seen lock");
            })
            .join();
        }
        // Both the promoted-table hit and a fresh promotion still work.
        assert_eq!(grp.exp(&y, &s), want);
        let z = grp.exp_g(&grp.random_scalar(&mut rng));
        let want_z = grp.exp_binary(&z, &s);
        for _ in 0..3 {
            assert_eq!(grp.exp(&z, &s), want_z);
        }
    }

    #[test]
    fn exp_g_matches_generic_exp() {
        let mut rng = StdRng::seed_from_u64(7);
        for id in [GroupId::Toy64, GroupId::S256] {
            let grp = Group::new(id);
            for _ in 0..5 {
                let s = grp.random_scalar(&mut rng);
                assert_eq!(grp.exp_g(&s), grp.exp_binary(grp.g(), &s), "{id}");
            }
            assert!(grp.exp_g(&BigUint::zero()).is_one());
        }
    }

    #[test]
    fn hash_to_scalar_in_range_and_separated() {
        let grp = Group::new(GroupId::Toy64);
        let a = grp.hash_to_scalar("d1", &[b"m"]);
        let b = grp.hash_to_scalar("d2", &[b"m"]);
        assert!(a < *grp.q());
        assert_ne!(a, b);
        assert_eq!(a, grp.hash_to_scalar("d1", &[b"m"]));
    }
}

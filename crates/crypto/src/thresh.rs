//! Threshold Schnorr signing over a [`crate::dkg::KeyShare`].
//!
//! `t+1` signers jointly produce an ordinary Schnorr signature
//! ([`crate::schnorr::Signature`]) verifiable against the joint public key —
//! the *unchanging* PDS verification key the paper stores in ROM (§1.3).
//!
//! Protocol shape (two logical message rounds, matching the efficient schemes
//! the paper cites \[20\], \[23\]):
//!
//! 1. each signer `i` in the signer set `S` samples a nonce `k_i` and
//!    publishes `R_i = g^{k_i}`;
//! 2. everyone computes `R = Π R_i`, `e = H(R ‖ y ‖ m)`, and signer `i`
//!    publishes `z_i = k_i + e·λ_i·x_i` where `λ_i` is the Lagrange
//!    coefficient of `S` at zero;
//! 3. anyone combines `z = Σ z_i`, giving the signature `(e, z)`.
//!
//! Each partial `z_i` is publicly checkable against `R_i` and the share key
//! `X_i = g^{x_i}`: `g^{z_i} = R_i · X_i^{e·λ_i}` — this is what makes the
//! scheme *robust* (cheating signers are identified and excluded, and the
//! session restarted with another signer set).
//!
//! # Examples
//!
//! See `tests::full_threshold_signature` in this module.

use crate::dkg::KeyShare;
use crate::group::Group;
use crate::schnorr::{self, Signature};
use crate::shamir;
use proauth_primitives::bigint::BigUint;
use proauth_primitives::sha256;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A signer's nonce for one signing session.
///
/// Must be used at most once; the session driver enforces this.
#[derive(Debug, Clone)]
pub struct Nonce {
    /// Secret nonce scalar `k_i`.
    pub k: BigUint,
    /// Public nonce commitment `R_i = g^{k_i}`.
    pub commitment: BigUint,
}

/// Samples a fresh signing nonce.
pub fn generate_nonce<R: rand::RngCore>(group: &Group, rng: &mut R) -> Nonce {
    let k = group.random_nonzero_scalar(rng);
    let commitment = group.exp_g(&k);
    Nonce { k, commitment }
}

/// A batch of pre-generated nonces: the micro-benchmark's unit of nonce
/// generation (`crypto.thresh.nonce_refill_us`). No protocol path uses it.
///
/// The PDS draws each nonce when its sign session starts or retries
/// ([`generate_nonce`]). A pool that outlives a proactive refresh hands
/// nonces drawn under one share to sessions signing with the next, and a
/// `k` read by a break-in then solves `z = k + e·λ·x` for a share the
/// refresh was meant to protect. Pooling also only moves `g^{k}` out of the
/// signing round; it saves no total work.
///
/// `take` pops the oldest nonce and records its commitment as spent, and
/// `refill` re-draws any sample colliding with a spent or pooled
/// commitment (relevant for toy groups). `spent` grows by one entry per
/// nonce taken, for the life of the pool.
#[derive(Debug, Clone, Default)]
pub struct NoncePool {
    avail: VecDeque<Nonce>,
    /// Commitments of every nonce ever taken or discarded (big-endian bytes).
    spent: BTreeSet<Vec<u8>>,
    capacity: usize,
}

impl NoncePool {
    /// An empty pool that [`NoncePool::refill`] tops up to `capacity`.
    pub fn new(capacity: usize) -> Self {
        NoncePool {
            avail: VecDeque::with_capacity(capacity),
            spent: BTreeSet::new(),
            capacity,
        }
    }

    /// Tops the pool back up to capacity, returning how many nonces were
    /// generated. Samples colliding with a spent or pooled commitment are
    /// discarded and re-drawn (bounded, to stay total on tiny groups).
    pub fn refill<R: rand::RngCore>(&mut self, group: &Group, rng: &mut R) -> usize {
        let mut added = 0;
        let mut misses = 0;
        while self.avail.len() < self.capacity && misses < 8 * self.capacity + 8 {
            let nonce = generate_nonce(group, rng);
            let bytes = nonce.commitment.to_bytes_be();
            let pooled = self.avail.iter().any(|n| n.commitment == nonce.commitment);
            if pooled || self.spent.contains(&bytes) {
                misses += 1;
                continue;
            }
            self.avail.push_back(nonce);
            added += 1;
        }
        added
    }

    /// Pops the oldest preprocessed nonce, recording its commitment as spent
    /// forever. `None` when the pool is empty (caller falls back to
    /// [`generate_nonce`]).
    pub fn take(&mut self) -> Option<Nonce> {
        let nonce = self.avail.pop_front()?;
        self.spent.insert(nonce.commitment.to_bytes_be());
        Some(nonce)
    }

    /// Erases all pooled secret nonces (break-in hygiene). The spent set is
    /// public data and is kept, so accounting stays strict across wipes.
    pub fn wipe(&mut self) {
        self.avail.clear();
    }

    /// Preprocessed nonces currently available.
    pub fn len(&self) -> usize {
        self.avail.len()
    }

    /// Whether no preprocessed nonce is available.
    pub fn is_empty(&self) -> bool {
        self.avail.is_empty()
    }

    /// The refill target.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many nonces have ever been handed out.
    pub fn spent_count(&self) -> usize {
        self.spent.len()
    }
}

/// Aggregates the nonce commitments of the signer set: `R = Π R_i`.
///
/// # Panics
///
/// Panics if `commitments` is empty.
pub fn combine_nonces(group: &Group, commitments: &[BigUint]) -> BigUint {
    assert!(!commitments.is_empty(), "empty signer set");
    commitments
        .iter()
        .fold(group.identity(), |acc, r| group.mul(&acc, r))
}

/// The signing challenge `e = H(R ‖ y ‖ m)` — identical to the centralized
/// Schnorr challenge, so threshold signatures verify as ordinary ones.
pub fn challenge(group: &Group, combined_nonce: &BigUint, public_key: &BigUint, msg: &[u8]) -> BigUint {
    schnorr::challenge(group, combined_nonce, public_key, msg)
}

/// Computes signer `i`'s partial signature `z_i = k_i + e·λ_i·x_i`.
///
/// `signer_set` must contain `key.index` and be the exact set whose nonces
/// were combined.
pub fn partial_sign(
    group: &Group,
    key: &KeyShare,
    signer_set: &[u32],
    nonce: &Nonce,
    e: &BigUint,
) -> BigUint {
    let lambda = shamir::lagrange_coeff_at_zero(group, signer_set, key.index);
    partial_sign_with_coeff(group, key, &lambda, nonce, e)
}

/// [`partial_sign`] with the signer's Lagrange coefficient supplied by the
/// caller (typically from a [`SignerPrecomp`] warmed in the offline window).
pub fn partial_sign_with_coeff(
    group: &Group,
    key: &KeyShare,
    lambda: &BigUint,
    nonce: &Nonce,
    e: &BigUint,
) -> BigUint {
    let weighted = group.scalar_mul(e, &group.scalar_mul(lambda, &key.share));
    group.scalar_add(&nonce.k, &weighted)
}

/// How many distinct signer sets a [`SignerPrecomp`] memoizes before it
/// stops inserting (each entry is a handful of scalars; the cap only guards
/// against adversarially churned signer sets).
const MAX_PRECOMP_SETS: usize = 64;

/// Preprocessed per-signer-set scalar context: the Lagrange coefficients
/// `λ_j(0)` for each signer set seen so far.
///
/// Computing a coefficient costs several modular inversions' worth of
/// scalar work per signer — more than a table-backed exponentiation — and
/// every session over the same signer set recomputes the identical values.
/// Warming the expected signer set during the refresh window (next to the
/// nonce pool) moves all of that off the online path; unexpected sets
/// (retries after exclusions) are memoized on first use. Coefficients are
/// public data: unlike pooled nonces they need no wiping on break-in.
#[derive(Debug, Clone, Default)]
pub struct SignerPrecomp {
    sets: BTreeMap<Vec<u32>, BTreeMap<u32, BigUint>>,
    /// Recompute slot for misses once `sets` is at capacity.
    scratch: BTreeMap<u32, BigUint>,
}

impl SignerPrecomp {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Precomputes (or returns) the coefficients for `signer_set`, keyed by
    /// signer index. One batched inversion on a miss; a lookup afterwards.
    pub fn coeffs(&mut self, group: &Group, signer_set: &[u32]) -> &BTreeMap<u32, BigUint> {
        if self.sets.contains_key(signer_set) {
            return &self.sets[signer_set];
        }
        let computed: BTreeMap<u32, BigUint> = shamir::lagrange_coeffs_at_zero(group, signer_set)
            .into_iter()
            .collect();
        if self.sets.len() < MAX_PRECOMP_SETS {
            self.sets.insert(signer_set.to_vec(), computed);
            &self.sets[signer_set]
        } else {
            self.scratch = computed;
            &self.scratch
        }
    }

    /// Warms the cache for `signer_set`; returns `true` if it was a miss.
    pub fn warm(&mut self, group: &Group, signer_set: &[u32]) -> bool {
        let miss = !self.sets.contains_key(signer_set);
        let _ = self.coeffs(group, signer_set);
        miss
    }

    /// Distinct signer sets currently memoized.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// Verifies signer `i`'s partial signature: `g^{z_i} = R_i · X_i^{e·λ_i}`.
///
/// The left side comes squaring-free from the generator's comb table; the
/// `X_i` term uses the windowed Montgomery path (and a promoted table once
/// the share key repeats across sessions).
pub fn verify_partial(
    group: &Group,
    signer_set: &[u32],
    signer: u32,
    share_key: &BigUint,
    nonce_commitment: &BigUint,
    e: &BigUint,
    z_i: &BigUint,
) -> bool {
    let lambda = shamir::lagrange_coeff_at_zero(group, signer_set, signer);
    verify_partial_with_coeff(group, share_key, nonce_commitment, &lambda, e, z_i)
}

/// [`verify_partial`] with the signer's Lagrange coefficient supplied by
/// the caller (typically from a [`SignerPrecomp`]).
pub fn verify_partial_with_coeff(
    group: &Group,
    share_key: &BigUint,
    nonce_commitment: &BigUint,
    lambda: &BigUint,
    e: &BigUint,
    z_i: &BigUint,
) -> bool {
    group.contains(nonce_commitment)
        && verify_partial_preverified(group, share_key, nonce_commitment, lambda, e, z_i)
}

/// [`verify_partial_with_coeff`] for commitments whose subgroup membership
/// the caller **already validated** (e.g. at session admission). Skips the
/// membership modpow, which otherwise gets double-paid once per partial.
pub fn verify_partial_preverified(
    group: &Group,
    share_key: &BigUint,
    nonce_commitment: &BigUint,
    lambda: &BigUint,
    e: &BigUint,
    z_i: &BigUint,
) -> bool {
    if z_i >= group.q() {
        return false;
    }
    let expected = group.mul(
        nonce_commitment,
        &group.exp(share_key, &group.scalar_mul(e, lambda)),
    );
    group.exp_g(z_i) == expected
}

/// One partial-signature check, for [`batch_verify_partials`].
#[derive(Debug, Clone, Copy)]
pub struct PartialCheck<'a> {
    /// The signer index `i` (must be in the signer set).
    pub signer: u32,
    /// The signer's share key `X_i = g^{x_i}`.
    pub share_key: &'a BigUint,
    /// The signer's transmitted nonce commitment `R_i`.
    pub nonce_commitment: &'a BigUint,
    /// The partial signature `z_i`.
    pub z_i: &'a BigUint,
}

/// Randomized batch verification of a session's partial signatures:
/// `true` ⟹ accept them all.
///
/// Unlike full `(e, s)` Schnorr signatures, partials CAN be batched with a
/// random linear combination, because the commitment `R_i` is transmitted
/// rather than recomputed: raising each equation
/// `g^{z_i} = R_i · X_i^{e·λ_i}` to a coefficient `r_i` and multiplying
/// gives the single equation
///
/// ```text
/// g^{Σ r_i·z_i}  ==  Π R_i^{r_i} · Π X_i^{r_i·e·λ_i}
/// ```
///
/// — one comb evaluation plus one shared-squaring multi-exponentiation in
/// place of `|S|` full verifications. Coefficients are deterministic
/// Fiat–Shamir hashes of the transcript so all honest verifiers agree (see
/// [`crate::feldman::batch_verify_shares`] for why). On `false`, fall back
/// to per-signer [`verify_partial`] to identify the cheater.
///
/// All exponents are reduced mod `q`, which is sound because every base is
/// an order-`q` subgroup member: nonce commitments are `contains`-checked
/// here (unless the caller passes `commitments_checked`, taking the
/// obligation on itself), and share keys are products of powers of Feldman
/// commitments that [`crate::feldman::Commitments::from_elements`] already
/// validated.
/// Reduction keeps the combined exponents inside the range of the promoted
/// fixed-base tables (built at `q.bits()`), so repeat share keys get the
/// squaring-free comb path instead of demoting to the generic chain — this,
/// plus 128-bit blinding coefficients, is what makes the batch actually
/// cheaper than `|S|` per-signer checks.
pub fn batch_verify_partials(
    group: &Group,
    signer_set: &[u32],
    e: &BigUint,
    checks: &[PartialCheck<'_>],
) -> bool {
    batch_verify_partials_with(group, signer_set, e, checks, None, false)
}

/// [`batch_verify_partials`] with an optional Lagrange-coefficient cache
/// (see [`SignerPrecomp`]; `None` computes coefficients inline) and a
/// `commitments_checked` flag that skips the per-check membership modpows.
/// Pass `true` only when membership is established elsewhere: either the
/// caller validated every `nonce_commitment` up front, or — as the signing
/// session does — every accept is backstopped by a full verification of the
/// combined signature, with exact per-signer checks (whose equation itself
/// implies membership) identifying cheaters on failure.
pub fn batch_verify_partials_with(
    group: &Group,
    signer_set: &[u32],
    e: &BigUint,
    checks: &[PartialCheck<'_>],
    mut precomp: Option<&mut SignerPrecomp>,
    commitments_checked: bool,
) -> bool {
    if checks.is_empty() {
        return true;
    }
    let mut lambda_for = |group: &Group, signer: u32| -> BigUint {
        match precomp.as_deref_mut() {
            Some(p) => match p.coeffs(group, signer_set).get(&signer) {
                Some(l) => l.clone(),
                None => shamir::lagrange_coeff_at_zero(group, signer_set, signer),
            },
            None => shamir::lagrange_coeff_at_zero(group, signer_set, signer),
        }
    };
    if checks.len() == 1 {
        let c = &checks[0];
        let lambda = lambda_for(group, c.signer);
        let ok = commitments_checked || group.contains(c.nonce_commitment);
        return ok
            && verify_partial_preverified(group, c.share_key, c.nonce_commitment, &lambda, e, c.z_i);
    }
    if checks.iter().any(|c| {
        c.z_i >= group.q() || (!commitments_checked && !group.contains(c.nonce_commitment))
    }) {
        return false;
    }
    let mut transcript = Vec::new();
    for c in checks {
        transcript.extend_from_slice(&c.signer.to_be_bytes());
        transcript.extend_from_slice(&c.share_key.to_bytes_be());
        transcript.extend_from_slice(&c.nonce_commitment.to_bytes_be());
        transcript.extend_from_slice(&c.z_i.to_bytes_be());
    }
    let digest = sha256::hash_parts("proauth/thresh/batch/v2", &[&e.to_bytes_be(), &transcript]);

    let mut lhs_exp = BigUint::zero();
    let mut rhs: Vec<(&BigUint, BigUint)> = Vec::with_capacity(2 * checks.len());
    for (j, c) in checks.iter().enumerate() {
        // 128-bit blinding coefficient: a forged set survives with
        // probability ≤ 2^-128, and the short coefficient keeps the
        // R_i exponent (and the mod-q X_i exponent) table-range.
        let coeff_digest = sha256::hash_parts(
            "proauth/thresh/batch/coeff/v2",
            &[&digest, &(j as u64).to_be_bytes()],
        );
        let r_j = BigUint::from_bytes_be(&coeff_digest[..16]).rem(group.q());
        lhs_exp = group.scalar_add(&lhs_exp, &group.scalar_mul(&r_j, c.z_i));
        let lambda = lambda_for(group, c.signer);
        // Sound to work mod q throughout: both R_i and X_i have order
        // dividing q (see above), so x^(a mod q) = x^a.
        let x_exp = group.scalar_mul(&r_j, &group.scalar_mul(e, &lambda));
        for (base, exp) in [(c.nonce_commitment, r_j), (c.share_key, x_exp)] {
            match rhs.iter_mut().find(|(b, _)| *b == base) {
                Some((_, acc)) => *acc = group.scalar_add(acc, &exp),
                None => rhs.push((base, exp)),
            }
        }
    }
    let rhs_pairs: Vec<(&BigUint, &BigUint)> = rhs.iter().map(|(b, e)| (*b, e)).collect();
    group.exp_g(&lhs_exp) == group.multi_exp(&rhs_pairs)
}

/// Combines partial signatures into a full Schnorr signature `(e, Σ z_i)`.
///
/// # Panics
///
/// Panics if `partials` is empty.
pub fn combine_partials(group: &Group, e: &BigUint, partials: &[BigUint]) -> Signature {
    assert!(!partials.is_empty(), "no partial signatures");
    let s = partials
        .iter()
        .fold(BigUint::zero(), |acc, z| group.scalar_add(&acc, z));
    Signature { e: e.clone(), s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dkg::{self, ReceivedDealing};
    use crate::group::GroupId;
    use crate::schnorr::VerifyKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[ignore]
    fn micro_batch_vs_item() {
        let (n, t) = (13usize, 6usize);
        let group = Group::new(GroupId::S256);
        let mut rng = StdRng::seed_from_u64(7);
        let dealings: Vec<(u32, crate::feldman::Dealing)> = (1..=n as u32)
            .map(|i| (i, dkg::deal(&group, t, n, &mut rng)))
            .collect();
        let keys: Vec<KeyShare> = (1..=n as u32)
            .map(|me| {
                let inputs: Vec<ReceivedDealing> = dealings
                    .iter()
                    .map(|(dealer, d)| ReceivedDealing {
                        dealer: *dealer,
                        commitments: d.commitments.clone(),
                        share: d.share_for(me).clone(),
                    })
                    .collect();
                dkg::aggregate(&group, t, n, me, &inputs).unwrap()
            })
            .collect();
        let signer_set: Vec<u32> = (1..=t as u32 + 1).collect();
        let nonces: Vec<(u32, Nonce)> = signer_set
            .iter()
            .map(|&i| (i, generate_nonce(&group, &mut rng)))
            .collect();
        let commitments: Vec<BigUint> = nonces.iter().map(|(_, nc)| nc.commitment.clone()).collect();
        let r = combine_nonces(&group, &commitments);
        let e = challenge(&group, &r, &keys[0].public_key, b"micro");
        let partials: Vec<BigUint> = nonces
            .iter()
            .map(|(i, nonce)| partial_sign(&group, &keys[(*i - 1) as usize], &signer_set, nonce, &e))
            .collect();
        let checks: Vec<PartialCheck> = signer_set
            .iter()
            .zip(&nonces)
            .zip(&partials)
            .map(|((&s, (_, nc)), z)| PartialCheck {
                signer: s,
                share_key: keys[0].share_key(s),
                nonce_commitment: &nc.commitment,
                z_i: z,
            })
            .collect();
        let iters = 50u32;
        let start = std::time::Instant::now();
        for _ in 0..iters {
            assert!(batch_verify_partials(&group, &signer_set, &e, &checks));
        }
        let batch = start.elapsed();
        let mut precomp = SignerPrecomp::new();
        precomp.warm(&group, &signer_set);
        let start = std::time::Instant::now();
        for _ in 0..iters {
            assert!(batch_verify_partials_with(
                &group,
                &signer_set,
                &e,
                &checks,
                Some(&mut precomp),
                true
            ));
        }
        let batch_pre = start.elapsed();
        let start = std::time::Instant::now();
        for _ in 0..iters {
            for c in &checks {
                assert!(verify_partial(
                    &group,
                    &signer_set,
                    c.signer,
                    c.share_key,
                    c.nonce_commitment,
                    &e,
                    c.z_i
                ));
            }
        }
        let item = start.elapsed();
        let start = std::time::Instant::now();
        for _ in 0..iters {
            let _ = generate_nonce(&group, &mut rng);
        }
        let nonce_t = start.elapsed();
        let start = std::time::Instant::now();
        for _ in 0..iters {
            let _ = shamir::lagrange_coeff_at_zero(&group, &signer_set, 1);
        }
        let t_lagrange = start.elapsed();
        let start = std::time::Instant::now();
        for _ in 0..iters {
            let _ = shamir::lagrange_coeffs_at_zero(&group, &signer_set);
        }
        let t_lagrange_all = start.elapsed();
        println!(
            "batch k=7: {:?}/iter  batch+precomp: {:?}/iter  per-item: {:?}/iter  \
             gen_nonce: {:?}/iter  lagrange(one): {:?}  lagrange(all 7, batched inv): {:?}",
            batch / iters,
            batch_pre / iters,
            item / iters,
            nonce_t / iters,
            t_lagrange / iters,
            t_lagrange_all / iters
        );
    }

    fn dkg_keys(n: usize, t: usize, seed: u64) -> (Group, Vec<KeyShare>) {
        let group = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(seed);
        let dealings: Vec<(u32, crate::feldman::Dealing)> = (1..=n as u32)
            .map(|i| (i, dkg::deal(&group, t, n, &mut rng)))
            .collect();
        let shares = (1..=n as u32)
            .map(|me| {
                let inputs: Vec<ReceivedDealing> = dealings
                    .iter()
                    .map(|(dealer, d)| ReceivedDealing {
                        dealer: *dealer,
                        commitments: d.commitments.clone(),
                        share: d.share_for(me).clone(),
                    })
                    .collect();
                dkg::aggregate(&group, t, n, me, &inputs).unwrap()
            })
            .collect();
        (group, shares)
    }

    fn sign_with(
        group: &Group,
        keys: &[KeyShare],
        signer_set: &[u32],
        msg: &[u8],
        rng: &mut StdRng,
    ) -> Signature {
        let nonces: Vec<(u32, Nonce)> = signer_set
            .iter()
            .map(|&i| (i, generate_nonce(group, rng)))
            .collect();
        let commitments: Vec<BigUint> = nonces.iter().map(|(_, n)| n.commitment.clone()).collect();
        let r = combine_nonces(group, &commitments);
        let pk = &keys[0].public_key;
        let e = challenge(group, &r, pk, msg);
        let partials: Vec<BigUint> = nonces
            .iter()
            .map(|(i, nonce)| {
                let key = &keys[(*i - 1) as usize];
                let z = partial_sign(group, key, signer_set, nonce, &e);
                assert!(verify_partial(
                    group,
                    signer_set,
                    *i,
                    key.share_key(*i),
                    &nonce.commitment,
                    &e,
                    &z
                ));
                z
            })
            .collect();
        combine_partials(group, &e, &partials)
    }

    #[test]
    fn full_threshold_signature() {
        let (group, keys) = dkg_keys(5, 2, 71);
        let mut rng = StdRng::seed_from_u64(72);
        let sig = sign_with(&group, &keys, &[1, 3, 5], b"threshold message", &mut rng);
        let vk = VerifyKey::from_element(&group, keys[0].public_key.clone()).unwrap();
        assert!(vk.verify(b"threshold message", &sig));
        assert!(!vk.verify(b"other", &sig));
    }

    #[test]
    fn any_quorum_produces_valid_signature() {
        let (group, keys) = dkg_keys(5, 2, 73);
        let mut rng = StdRng::seed_from_u64(74);
        let vk = VerifyKey::from_element(&group, keys[0].public_key.clone()).unwrap();
        for set in [[1u32, 2, 3], [2, 4, 5], [1, 4, 5]] {
            let sig = sign_with(&group, &keys, &set, b"m", &mut rng);
            assert!(vk.verify(b"m", &sig), "set {set:?}");
        }
    }

    #[test]
    fn bad_partial_detected() {
        let (group, keys) = dkg_keys(4, 1, 75);
        let mut rng = StdRng::seed_from_u64(76);
        let signer_set = [1u32, 2];
        let nonce = generate_nonce(&group, &mut rng);
        let r = combine_nonces(&group, std::slice::from_ref(&nonce.commitment));
        let e = challenge(&group, &r, &keys[0].public_key, b"m");
        let z = partial_sign(&group, &keys[0], &signer_set, &nonce, &e);
        let bad_z = group.scalar_add(&z, &BigUint::one());
        assert!(!verify_partial(
            &group,
            &signer_set,
            1,
            keys[0].share_key(1),
            &nonce.commitment,
            &e,
            &bad_z
        ));
        // Also: a correct z_i presented for the wrong signer fails.
        assert!(!verify_partial(
            &group,
            &signer_set,
            2,
            keys[1].share_key(2),
            &nonce.commitment,
            &e,
            &z
        ));
    }

    #[test]
    fn out_of_range_partial_rejected() {
        let (group, keys) = dkg_keys(3, 1, 77);
        let e = BigUint::from_u64(5);
        let too_big = group.q().add(&BigUint::one());
        assert!(!verify_partial(
            &group,
            &[1, 2],
            1,
            keys[0].share_key(1),
            &group.exp_g(&BigUint::from_u64(3)),
            &e,
            &too_big
        ));
        // Nonce commitment outside the group rejected.
        assert!(!verify_partial(
            &group,
            &[1, 2],
            1,
            keys[0].share_key(1),
            &BigUint::zero(),
            &e,
            &BigUint::one()
        ));
    }

    #[test]
    fn batch_partials_accepts_valid_rejects_tampered() {
        let (group, keys) = dkg_keys(5, 2, 80);
        let mut rng = StdRng::seed_from_u64(81);
        let signer_set = [1u32, 3, 5];
        let nonces: Vec<(u32, Nonce)> = signer_set
            .iter()
            .map(|&i| (i, generate_nonce(&group, &mut rng)))
            .collect();
        let commitments: Vec<BigUint> = nonces.iter().map(|(_, n)| n.commitment.clone()).collect();
        let r = combine_nonces(&group, &commitments);
        let e = challenge(&group, &r, &keys[0].public_key, b"batch");
        let partials: Vec<(u32, BigUint)> = nonces
            .iter()
            .map(|(i, nonce)| {
                (*i, partial_sign(&group, &keys[(*i - 1) as usize], &signer_set, nonce, &e))
            })
            .collect();
        let checks: Vec<PartialCheck<'_>> = signer_set
            .iter()
            .enumerate()
            .map(|(idx, &i)| PartialCheck {
                signer: i,
                share_key: keys[(i - 1) as usize].share_key(i),
                nonce_commitment: &nonces[idx].1.commitment,
                z_i: &partials[idx].1,
            })
            .collect();
        assert!(batch_verify_partials(&group, &signer_set, &e, &checks));
        assert!(batch_verify_partials(&group, &signer_set, &e, &[]));
        assert!(batch_verify_partials(&group, &signer_set, &e, &checks[..1]));

        let bad = group.scalar_add(&partials[1].1, &BigUint::one());
        let mut bad_checks = checks.clone();
        bad_checks[1].z_i = &bad;
        assert!(!batch_verify_partials(&group, &signer_set, &e, &bad_checks));

        // The precomputed-coefficient path is decision-identical.
        let mut precomp = SignerPrecomp::new();
        assert!(precomp.warm(&group, &signer_set), "first warm is a miss");
        assert!(!precomp.warm(&group, &signer_set), "second warm is a hit");
        assert_eq!(precomp.len(), 1);
        assert!(batch_verify_partials_with(
            &group,
            &signer_set,
            &e,
            &checks,
            Some(&mut precomp),
            false
        ));
        // Trusted-commitment mode: same decisions, membership modpows
        // skipped (a bad z_i is still caught by the combined equation).
        assert!(batch_verify_partials_with(
            &group,
            &signer_set,
            &e,
            &checks[..1],
            Some(&mut precomp),
            true
        ));
        assert!(!batch_verify_partials_with(
            &group,
            &signer_set,
            &e,
            &bad_checks,
            Some(&mut precomp),
            true
        ));
    }

    #[test]
    fn signer_precomp_matches_per_index_coefficients() {
        let group = Group::new(GroupId::Toy64);
        let mut precomp = SignerPrecomp::new();
        assert!(precomp.is_empty());
        for set in [vec![1u32, 2, 3], vec![4, 9, 2, 13, 7], vec![5]] {
            let coeffs = precomp.coeffs(&group, &set).clone();
            for &i in &set {
                assert_eq!(
                    coeffs[&i],
                    shamir::lagrange_coeff_at_zero(&group, &set, i),
                    "set {set:?} signer {i}"
                );
            }
        }
        assert_eq!(precomp.len(), 3);
    }

    #[test]
    fn nonce_pool_never_reissues_a_commitment() {
        let group = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(90);
        let mut pool = NoncePool::new(8);
        assert!(pool.is_empty());
        assert_eq!(pool.refill(&group, &mut rng), 8);
        assert_eq!(pool.len(), 8);

        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..5 {
            let n = pool.take().expect("pooled nonce");
            assert_eq!(group.exp_g(&n.k), n.commitment, "commitment matches k");
            assert!(seen.insert(n.commitment.to_bytes_be()), "reissued commitment");
        }
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.spent_count(), 5);

        // Refill tops back up without ever re-serving a spent commitment.
        assert_eq!(pool.refill(&group, &mut rng), 5);
        while let Some(n) = pool.take() {
            assert!(seen.insert(n.commitment.to_bytes_be()), "reissued commitment");
        }
        assert_eq!(pool.spent_count(), 13);
        assert!(pool.take().is_none(), "empty pool yields None");
    }

    #[test]
    fn nonce_pool_wipe_drops_secrets_keeps_accounting() {
        let group = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(91);
        let mut pool = NoncePool::new(4);
        pool.refill(&group, &mut rng);
        let first = pool.take().expect("one");
        pool.wipe();
        assert!(pool.is_empty());
        assert_eq!(pool.spent_count(), 1);
        pool.refill(&group, &mut rng);
        for _ in 0..pool.capacity() {
            let n = pool.take().expect("refilled");
            assert_ne!(n.commitment, first.commitment, "spent set survived wipe");
        }
    }

    #[test]
    fn undersized_signer_set_fails_verification() {
        // t = 2 needs 3 signers; 2 signers produce an invalid signature.
        let (group, keys) = dkg_keys(5, 2, 78);
        let mut rng = StdRng::seed_from_u64(79);
        let sig = sign_with(&group, &keys, &[1, 2], b"m", &mut rng);
        let vk = VerifyKey::from_element(&group, keys[0].public_key.clone()).unwrap();
        assert!(!vk.verify(b"m", &sig));
    }
}

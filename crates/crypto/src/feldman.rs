//! Feldman verifiable secret sharing.
//!
//! A dealer publishing commitments `C_k = g^{a_k}` to the coefficients of its
//! Shamir polynomial lets every receiver check its share non-interactively:
//! `g^{f(i)} = Π_k C_k^{i^k}`. This is the verifiability layer used by the
//! joint-Feldman DKG ([`crate::dkg`]), by partial-signature verification in
//! [`crate::thresh`], and by the proactive update/recovery dealings in
//! [`crate::refresh`].
//!
//! # Examples
//!
//! ```
//! use proauth_crypto::group::{Group, GroupId};
//! use proauth_crypto::shamir::Polynomial;
//! use proauth_crypto::feldman::Commitments;
//!
//! let group = Group::new(GroupId::Toy64);
//! let mut rng = rand::thread_rng();
//! let poly = Polynomial::random(&group, 2, &mut rng);
//! let comms = Commitments::from_polynomial(&group, &poly);
//! assert!(comms.verify_share_in(&group, 3, &poly.eval_at(3)));
//! ```

use crate::group::Group;
use crate::shamir::Polynomial;
use proauth_primitives::bigint::BigUint;
use proauth_primitives::sha256;
use proauth_primitives::wire::{Decode, Encode, Reader, WireError, Writer};

/// Feldman coefficient commitments `C_k = g^{a_k}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commitments {
    c: Vec<BigUint>,
}

impl Commitments {
    /// Commits to every coefficient of `poly`.
    pub fn from_polynomial(group: &Group, poly: &Polynomial) -> Self {
        Commitments {
            c: poly.coeffs().iter().map(|a| group.exp_g(a)).collect(),
        }
    }

    /// Constructs from raw commitment elements, validating group membership.
    ///
    /// Returns `None` if any element is not in the group or the list is empty.
    pub fn from_elements(group: &Group, c: Vec<BigUint>) -> Option<Self> {
        if c.is_empty() || !c.iter().all(|e| group.contains(e)) {
            return None;
        }
        Some(Commitments { c })
    }

    /// The committed polynomial degree.
    pub fn degree(&self) -> usize {
        self.c.len() - 1
    }

    /// Commitment to the secret: `C_0 = g^{f(0)}`.
    pub fn secret_commitment(&self) -> &BigUint {
        &self.c[0]
    }

    /// The raw commitment elements.
    pub fn elements(&self) -> &[BigUint] {
        &self.c
    }

    /// Computes `g^{f(i)}` "in the exponent": `Π_k C_k^{i^k} mod p`.
    ///
    /// One interleaved multi-exponentiation. The `i^k` exponents are tiny
    /// (`i ≤ n`, so ≲ 60 bits even at `k = 4`), and the shared Straus
    /// squaring chain only runs to the *longest* of them — a fraction of the
    /// `t+1` sequential full modpows of [`Self::eval_in_exponent_naive`].
    pub fn eval_in_exponent(&self, group: &Group, i: u32) -> BigUint {
        let pairs = self.eval_pairs(group, i);
        let borrowed: Vec<(&BigUint, &BigUint)> = self.c.iter().zip(pairs.iter()).collect();
        group.multi_exp(&borrowed)
    }

    /// `g^{f(i)}` along the seed code path (a loop of sequential modpows).
    /// Kept as the property tests' reference.
    pub fn eval_in_exponent_naive(&self, group: &Group, i: u32) -> BigUint {
        let pairs = self.eval_pairs(group, i);
        let mut acc = group.identity();
        for (ck, i_pow) in self.c.iter().zip(pairs.iter()) {
            acc = group.mul(&acc, &group.exp_binary(ck, i_pow));
        }
        acc
    }

    /// The exponents `i^k mod q` for `k = 0..=degree`.
    fn eval_pairs(&self, group: &Group, i: u32) -> Vec<BigUint> {
        let q = group.q();
        let i_scalar = BigUint::from_u64(i as u64).rem(q);
        let mut pows = Vec::with_capacity(self.c.len());
        let mut i_pow = BigUint::one();
        for _ in &self.c {
            pows.push(i_pow.clone());
            i_pow = i_pow.mul_mod(&i_scalar, q);
        }
        pows
    }

    /// Verifies that `share` equals `f(i)` for the committed polynomial.
    pub fn verify_share_in(&self, group: &Group, i: u32, share: &BigUint) -> bool {
        if share >= group.q() {
            return false;
        }
        group.exp_g(share) == self.eval_in_exponent(group, i)
    }

    /// Share verification along the seed code path (see
    /// [`Self::eval_in_exponent_naive`]); the property tests' reference.
    pub fn verify_share_in_naive(&self, group: &Group, i: u32, share: &BigUint) -> bool {
        if share >= group.q() {
            return false;
        }
        group.exp_binary(group.g(), share) == self.eval_in_exponent_naive(group, i)
    }

    /// Pointwise product of commitments: commits to the *sum* polynomial.
    ///
    /// # Panics
    ///
    /// Panics if degrees differ.
    pub fn combine(&self, group: &Group, other: &Commitments) -> Commitments {
        assert_eq!(self.c.len(), other.c.len(), "degree mismatch");
        Commitments {
            c: self
                .c
                .iter()
                .zip(&other.c)
                .map(|(a, b)| group.mul(a, b))
                .collect(),
        }
    }
}

/// One share-against-commitments check, for [`batch_verify_shares`].
#[derive(Debug, Clone, Copy)]
pub struct ShareCheck<'a> {
    /// The dealer's coefficient commitments.
    pub commitments: &'a Commitments,
    /// The receiver index `i` the share is claimed for (1-based).
    pub index: u32,
    /// The claimed share `f(i)`.
    pub share: &'a BigUint,
}

/// Randomized batch verification of many Feldman share checks (typically:
/// one receiver, many dealers): `true` ⟹ accept the whole set.
///
/// Each check `g^{s_j} = Π_k C_{j,k}^{i_j^k}` is raised to a random
/// coefficient `r_j` and all are multiplied into a single equation
///
/// ```text
/// g^{Σ_j r_j·s_j}  ==  Π_j Π_k C_{j,k}^{r_j·i_j^k}
/// ```
///
/// evaluated as one interleaved multi-exponentiation per side (equal
/// commitment bases merge their exponents). If every individual check
/// holds the batch equation holds **identically** — the right-hand
/// exponents are kept as integer products, so no subgroup-order assumption
/// on the `C_{j,k}` is needed and there are no false negatives. A set with
/// an invalid share passes with probability `≤ 1/q` per the standard
/// small-exponents argument.
///
/// The coefficients are *deterministic* Fiat–Shamir hashes of the full
/// check transcript, not fresh randomness: every honest node evaluating
/// the same adoption/complaint evidence computes the same coefficients and
/// therefore reaches the same accept/reject decision, which the
/// consensus-style call sites (certificate adoption, refresh complaints)
/// require. On `false`, callers fall back to per-item
/// [`Commitments::verify_share_in`] to identify the culprit.
pub fn batch_verify_shares(group: &Group, checks: &[ShareCheck<'_>]) -> bool {
    if checks.is_empty() {
        return true;
    }
    if checks.len() == 1 {
        let c = &checks[0];
        return c.commitments.verify_share_in(group, c.index, c.share);
    }
    if checks.iter().any(|c| c.share >= group.q()) {
        return false;
    }
    // Transcript-derived coefficients (see doc comment).
    let mut transcript = Vec::new();
    for c in checks {
        transcript.extend_from_slice(&c.commitments.to_bytes());
        transcript.extend_from_slice(&c.index.to_be_bytes());
        transcript.extend_from_slice(&c.share.to_bytes_be());
    }
    let digest = sha256::hash_parts("proauth/feldman/batch/v1", &[&transcript]);

    let mut lhs_exp = BigUint::zero();
    // (base, integer exponent) pairs for the right-hand side.
    let mut rhs: Vec<(&BigUint, BigUint)> = Vec::new();
    for (j, c) in checks.iter().enumerate() {
        let r_j = group.hash_to_scalar(
            "proauth/feldman/batch/coeff/v1",
            &[&digest, &(j as u64).to_be_bytes()],
        );
        lhs_exp = group.scalar_add(&lhs_exp, &group.scalar_mul(&r_j, c.share));
        let i_pows = c.commitments.eval_pairs(group, c.index);
        for (ck, i_pow) in c.commitments.c.iter().zip(i_pows.iter()) {
            // Integer product — deliberately NOT reduced mod q (the C_k are
            // only assumed to be elements of Z_p^*, not of the subgroup).
            let e = r_j.mul(i_pow);
            match rhs.iter_mut().find(|(b, _)| *b == ck) {
                Some((_, acc)) => *acc = acc.add(&e),
                None => rhs.push((ck, e)),
            }
        }
    }
    let rhs_pairs: Vec<(&BigUint, &BigUint)> = rhs.iter().map(|(b, e)| (*b, e)).collect();
    group.exp_g(&lhs_exp) == group.multi_exp(&rhs_pairs)
}

impl Encode for Commitments {
    fn encode(&self, w: &mut Writer) {
        self.c.encode(w);
    }
}

impl Decode for Commitments {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let c = Vec::<BigUint>::decode(r)?;
        if c.is_empty() {
            return Err(WireError::BadLength);
        }
        Ok(Commitments { c })
    }
}

/// A full Feldman dealing: public commitments plus the per-node shares
/// (`shares[i-1]` is node `i`'s share). The dealer sends each node its share
/// privately and the commitments to everyone.
#[derive(Debug, Clone)]
pub struct Dealing {
    /// Public part.
    pub commitments: Commitments,
    /// Private shares, indexed by node (1-based node `i` ↦ `shares[i-1]`).
    pub shares: Vec<BigUint>,
}

impl Dealing {
    /// Deals a random degree-`threshold` sharing of `secret` to `n` nodes.
    pub fn deal<R: rand::RngCore>(
        group: &Group,
        threshold: usize,
        n: usize,
        secret: BigUint,
        rng: &mut R,
    ) -> Self {
        let poly = Polynomial::random_with_secret(group, threshold, secret, rng);
        Self::from_polynomial(group, &poly, n)
    }

    /// Deals a sharing of zero (used by proactive refresh).
    pub fn deal_zero<R: rand::RngCore>(
        group: &Group,
        threshold: usize,
        n: usize,
        rng: &mut R,
    ) -> Self {
        Self::deal(group, threshold, n, BigUint::zero(), rng)
    }

    /// Builds the dealing for an explicit polynomial.
    pub fn from_polynomial(group: &Group, poly: &Polynomial, n: usize) -> Self {
        Dealing {
            commitments: Commitments::from_polynomial(group, poly),
            shares: (1..=n as u32).map(|i| poly.eval_at(i)).collect(),
        }
    }

    /// Node `i`'s share (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn share_for(&self, i: u32) -> &BigUint {
        &self.shares[(i - 1) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Group, StdRng) {
        (Group::new(GroupId::Toy64), StdRng::seed_from_u64(21))
    }

    #[test]
    fn honest_shares_verify() {
        let (group, mut rng) = setup();
        let secret = group.random_scalar(&mut rng);
        let dealing = Dealing::deal(&group, 2, 5, secret.clone(), &mut rng);
        for i in 1..=5u32 {
            assert!(dealing
                .commitments
                .verify_share_in(&group, i, dealing.share_for(i)));
        }
        assert_eq!(
            dealing.commitments.secret_commitment(),
            &group.exp_g(&secret)
        );
    }

    #[test]
    fn tampered_share_rejected() {
        let (group, mut rng) = setup();
        let dealing = Dealing::deal(&group, 2, 5, BigUint::from_u64(7), &mut rng);
        let bad = group.scalar_add(dealing.share_for(3), &BigUint::one());
        assert!(!dealing.commitments.verify_share_in(&group, 3, &bad));
        // Share valid for node 3 is not valid for node 4 (w.h.p.).
        assert!(!dealing
            .commitments
            .verify_share_in(&group, 4, dealing.share_for(3)));
    }

    #[test]
    fn out_of_range_share_rejected() {
        let (group, mut rng) = setup();
        let dealing = Dealing::deal(&group, 1, 3, BigUint::zero(), &mut rng);
        let oversized = dealing.share_for(1).add(group.q());
        assert!(!dealing.commitments.verify_share_in(&group, 1, &oversized));
    }

    #[test]
    fn zero_dealing_has_identity_secret_commitment() {
        let (group, mut rng) = setup();
        let dealing = Dealing::deal_zero(&group, 2, 5, &mut rng);
        assert!(dealing.commitments.secret_commitment().is_one());
        for i in 1..=5u32 {
            assert!(dealing
                .commitments
                .verify_share_in(&group, i, dealing.share_for(i)));
        }
    }

    #[test]
    fn combine_commits_to_sum() {
        let (group, mut rng) = setup();
        let d1 = Dealing::deal(&group, 2, 4, BigUint::from_u64(3), &mut rng);
        let d2 = Dealing::deal(&group, 2, 4, BigUint::from_u64(9), &mut rng);
        let combined = d1.commitments.combine(&group, &d2.commitments);
        for i in 1..=4u32 {
            let sum_share = group.scalar_add(d1.share_for(i), d2.share_for(i));
            assert!(combined.verify_share_in(&group, i, &sum_share));
        }
        assert_eq!(
            combined.secret_commitment(),
            &group.exp_g(&BigUint::from_u64(12))
        );
    }

    #[test]
    fn eval_in_exponent_matches_direct() {
        let (group, mut rng) = setup();
        let poly = Polynomial::random(&group, 3, &mut rng);
        let comms = Commitments::from_polynomial(&group, &poly);
        for i in [1u32, 2, 9, 20] {
            assert_eq!(
                comms.eval_in_exponent(&group, i),
                group.exp_g(&poly.eval_at(i))
            );
        }
    }

    #[test]
    fn fast_and_naive_eval_agree() {
        let (group, mut rng) = setup();
        let poly = Polynomial::random(&group, 3, &mut rng);
        let comms = Commitments::from_polynomial(&group, &poly);
        for i in [1u32, 2, 9, 20, 1000] {
            assert_eq!(
                comms.eval_in_exponent(&group, i),
                comms.eval_in_exponent_naive(&group, i)
            );
        }
        for i in 1..=4u32 {
            let share = poly.eval_at(i);
            assert!(comms.verify_share_in(&group, i, &share));
            assert!(comms.verify_share_in_naive(&group, i, &share));
        }
    }

    #[test]
    fn batch_accepts_all_valid_and_rejects_any_invalid() {
        let (group, mut rng) = setup();
        let dealings: Vec<Dealing> = (0..4)
            .map(|k| Dealing::deal(&group, 2, 5, BigUint::from_u64(k), &mut rng))
            .collect();
        // Receiver 3 checks its share from every dealer.
        let checks: Vec<ShareCheck<'_>> = dealings
            .iter()
            .map(|d| ShareCheck {
                commitments: &d.commitments,
                index: 3,
                share: d.share_for(3),
            })
            .collect();
        assert!(batch_verify_shares(&group, &checks));
        assert!(batch_verify_shares(&group, &[]));
        assert!(batch_verify_shares(&group, &checks[..1]));

        // Corrupt one share: the batch must reject.
        let bad = group.scalar_add(dealings[2].share_for(3), &BigUint::one());
        let mut bad_checks = checks.clone();
        bad_checks[2].share = &bad;
        assert!(!batch_verify_shares(&group, &bad_checks));

        // Out-of-range share: reject without panicking.
        let oversized = dealings[0].share_for(3).add(group.q());
        bad_checks[2].share = &oversized;
        assert!(!batch_verify_shares(&group, &bad_checks));
    }

    #[test]
    fn wire_roundtrip() {
        let (group, mut rng) = setup();
        let dealing = Dealing::deal(&group, 2, 3, BigUint::from_u64(5), &mut rng);
        let bytes = dealing.commitments.to_bytes();
        let decoded = Commitments::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, dealing.commitments);
    }

    #[test]
    fn from_elements_validates() {
        let (group, mut rng) = setup();
        let dealing = Dealing::deal(&group, 1, 3, BigUint::one(), &mut rng);
        let elems = dealing.commitments.elements().to_vec();
        assert!(Commitments::from_elements(&group, elems).is_some());
        assert!(Commitments::from_elements(&group, vec![]).is_none());
        assert!(Commitments::from_elements(&group, vec![BigUint::zero()]).is_none());
    }
}

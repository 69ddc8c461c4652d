//! Centralized Schnorr signatures — the scheme `CS` of §4 of the paper.
//!
//! The paper requires `CS` to be existentially unforgeable under adaptive
//! chosen-message attack (\[22\]); Schnorr signatures have exactly this property
//! in the random-oracle model under the discrete-log assumption, and are the
//! natural companion of the threshold scheme in [`crate::thresh`], whose
//! output signatures verify with the *same* verification equation.
//!
//! Signatures are in `(e, s)` form: `e = H(R ‖ pk ‖ msg)`, `s = k + e·x`,
//! verified by recomputing `R' = g^s · y^{-e}` and checking `H(R' ‖ pk ‖ msg)
//! = e`.
//!
//! # Examples
//!
//! ```
//! use proauth_crypto::group::{Group, GroupId};
//! use proauth_crypto::schnorr::SigningKey;
//!
//! let group = Group::new(GroupId::Toy64);
//! let mut rng = rand::thread_rng();
//! let sk = SigningKey::generate(&group, &mut rng);
//! let sig = sk.sign(b"hello", &mut rng);
//! assert!(sk.verify_key().verify(b"hello", &sig));
//! ```

use crate::group::Group;
use proauth_primitives::bigint::BigUint;
use proauth_primitives::wire::{Decode, Encode, Reader, WireError, Writer};

const DOMAIN: &str = "proauth/schnorr/v1";

/// A Schnorr signature in `(e, s)` form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Challenge scalar.
    pub e: BigUint,
    /// Response scalar.
    pub s: BigUint,
}

impl Encode for Signature {
    fn encode(&self, w: &mut Writer) {
        self.e.encode(w);
        self.s.encode(w);
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Signature {
            e: BigUint::decode(r)?,
            s: BigUint::decode(r)?,
        })
    }
}

/// A Schnorr verification (public) key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyKey {
    group: Group,
    y: BigUint,
}

impl VerifyKey {
    /// Constructs a verify key from a group element.
    ///
    /// Returns `None` if `y` is not a valid group element.
    pub fn from_element(group: &Group, y: BigUint) -> Option<Self> {
        if group.contains(&y) {
            Some(VerifyKey {
                group: group.clone(),
                y,
            })
        } else {
            None
        }
    }

    /// Constructs a verify key from an element **already known** to be a
    /// valid group member — e.g. a DKG joint public key (a product of
    /// Feldman-validated commitments) or a key that previously went through
    /// [`VerifyKey::from_element`]. Skips the subgroup-membership
    /// exponentiation, which costs a full modpow per call and dominates hot
    /// paths that reconstruct the key every round.
    ///
    /// Callers must not pass untrusted wire data here.
    pub fn from_element_trusted(group: &Group, y: BigUint) -> Self {
        debug_assert!(group.contains(&y));
        VerifyKey {
            group: group.clone(),
            y,
        }
    }

    /// The underlying group element `y = g^x`.
    pub fn element(&self) -> &BigUint {
        &self.y
    }

    /// The group this key lives in.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Canonical byte encoding of the key (group id is contextual).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.y.to_bytes_be()
    }

    /// Verifies `sig` over `msg`.
    ///
    /// `R' = g^s · y^{q−e}` is computed as one interleaved
    /// multi-exponentiation: the `g` term comes squaring-free from the
    /// generator's comb table, and `y` rides its own comb table whenever the
    /// key was promoted — by [`batch_verify`], by [`Group::promote`] during a
    /// preprocessing window, or by earlier plain exponentiations.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        if sig.e >= *self.group.q() || sig.s >= *self.group.q() {
            return false;
        }
        let neg_e = self.group.scalar_neg(&sig.e);
        let r_prime = self.group.multi_exp(&[(self.group.g(), &sig.s), (&self.y, &neg_e)]);
        let e_prime = challenge(&self.group, &r_prime, &self.y, msg);
        e_prime == sig.e
    }

    /// Verifies `sig` over `msg` along the seed code path (two sequential
    /// binary exponentiations). Kept for the batch/property tests'
    /// reference semantics.
    pub fn verify_naive(&self, msg: &[u8], sig: &Signature) -> bool {
        if sig.e >= *self.group.q() || sig.s >= *self.group.q() {
            return false;
        }
        let y_to_neg_e = self.group.exp_binary(&self.y, &self.group.scalar_neg(&sig.e));
        let r_prime = self
            .group
            .mul(&self.group.exp_binary(self.group.g(), &sig.s), &y_to_neg_e);
        let e_prime = challenge(&self.group, &r_prime, &self.y, msg);
        e_prime == sig.e
    }
}

/// Verifies many `(msg, sig)` pairs under **one** key; `true` iff every
/// signature individually verifies.
///
/// `(e, s)`-form Schnorr cannot be collapsed into a random-linear-
/// combination batch: each check must *recompute* its own `R'` and hash it,
/// so the exponentiations cannot be merged across signatures (contrast
/// [`crate::thresh::batch_verify_partials`], where the commitment `R` is
/// transmitted). What *does* amortize is the per-base work: the batch
/// promotes `y` into the group's table cache up front, making every check
/// in the batch squaring-free on both terms. The certificate-heavy call
/// sites (ULS evidence windows, certificate adoption) verify dozens of
/// signatures under the same `v_cert`, which is exactly this shape.
pub fn batch_verify(vk: &VerifyKey, items: &[(&[u8], &Signature)]) -> bool {
    // Promote the key's table deliberately so even a small batch amortizes.
    if items.len() >= 2 {
        vk.group.promote(&vk.y);
    }
    items.iter().all(|(msg, sig)| vk.verify(msg, sig))
}

/// A Schnorr signing (secret) key.
#[derive(Clone)]
pub struct SigningKey {
    group: Group,
    x: BigUint,
    vk: VerifyKey,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret scalar.
        write!(f, "SigningKey(vk = 0x{})", self.vk.element().to_hex())
    }
}

impl SigningKey {
    /// Generates a fresh key pair.
    pub fn generate<R: rand::RngCore>(group: &Group, rng: &mut R) -> Self {
        let x = group.random_nonzero_scalar(rng);
        Self::from_scalar(group, x)
    }

    /// Builds a key pair from an explicit secret scalar.
    pub fn from_scalar(group: &Group, x: BigUint) -> Self {
        let y = group.exp_g(&x);
        SigningKey {
            group: group.clone(),
            x,
            vk: VerifyKey {
                group: group.clone(),
                y,
            },
        }
    }

    /// The corresponding verification key.
    pub fn verify_key(&self) -> &VerifyKey {
        &self.vk
    }

    /// The secret scalar (used by the simulator's break-in semantics).
    pub fn secret_scalar(&self) -> &BigUint {
        &self.x
    }

    /// Signs `msg` with fresh randomness.
    pub fn sign<R: rand::RngCore>(&self, msg: &[u8], rng: &mut R) -> Signature {
        let k = self.group.random_nonzero_scalar(rng);
        let r = self.group.exp_g(&k);
        let e = challenge(&self.group, &r, &self.vk.y, msg);
        let s = self.group.scalar_add(&k, &self.group.scalar_mul(&e, &self.x));
        Signature { e, s }
    }
}

/// The Fiat–Shamir challenge `H(R ‖ y ‖ msg) mod q`.
pub(crate) fn challenge(group: &Group, r: &BigUint, y: &BigUint, msg: &[u8]) -> BigUint {
    group.hash_to_scalar(DOMAIN, &[&r.to_bytes_be(), &y.to_bytes_be(), msg])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Group, SigningKey, StdRng) {
        let group = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(99);
        let sk = SigningKey::generate(&group, &mut rng);
        (group, sk, rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (_, sk, mut rng) = setup();
        let sig = sk.sign(b"message", &mut rng);
        assert!(sk.verify_key().verify(b"message", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let (_, sk, mut rng) = setup();
        let sig = sk.sign(b"message", &mut rng);
        assert!(!sk.verify_key().verify(b"other", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let (group, sk, mut rng) = setup();
        let sig = sk.sign(b"message", &mut rng);
        let other = SigningKey::generate(&group, &mut rng);
        assert!(!other.verify_key().verify(b"message", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (group, sk, mut rng) = setup();
        let sig = sk.sign(b"message", &mut rng);
        let bad = Signature {
            e: sig.e.clone(),
            s: group.scalar_add(&sig.s, &BigUint::one()),
        };
        assert!(!sk.verify_key().verify(b"message", &bad));
        let bad = Signature {
            e: group.scalar_add(&sig.e, &BigUint::one()),
            s: sig.s,
        };
        assert!(!sk.verify_key().verify(b"message", &bad));
    }

    #[test]
    fn out_of_range_scalars_rejected() {
        let (group, sk, mut rng) = setup();
        let sig = sk.sign(b"m", &mut rng);
        let bad = Signature {
            e: sig.e.add(group.q()),
            s: sig.s,
        };
        assert!(!sk.verify_key().verify(b"m", &bad));
    }

    #[test]
    fn signature_wire_roundtrip() {
        let (_, sk, mut rng) = setup();
        let sig = sk.sign(b"m", &mut rng);
        let decoded = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(decoded, sig);
    }

    #[test]
    fn signatures_are_randomized() {
        let (_, sk, mut rng) = setup();
        let s1 = sk.sign(b"m", &mut rng);
        let s2 = sk.sign(b"m", &mut rng);
        assert_ne!(s1, s2, "fresh nonce each signature");
        assert!(sk.verify_key().verify(b"m", &s1));
        assert!(sk.verify_key().verify(b"m", &s2));
    }

    #[test]
    fn from_element_validates_membership() {
        let (group, sk, _) = setup();
        assert!(VerifyKey::from_element(&group, sk.verify_key().element().clone()).is_some());
        assert!(VerifyKey::from_element(&group, BigUint::zero()).is_none());
    }

    #[test]
    fn larger_group_roundtrip() {
        let group = Group::new(GroupId::S256);
        let mut rng = StdRng::seed_from_u64(5);
        let sk = SigningKey::generate(&group, &mut rng);
        let sig = sk.sign(b"larger group", &mut rng);
        assert!(sk.verify_key().verify(b"larger group", &sig));
        assert!(!sk.verify_key().verify(b"other", &sig));
    }

    #[test]
    fn debug_hides_secret() {
        let (_, sk, _) = setup();
        let dbg = format!("{sk:?}");
        assert!(!dbg.contains(&sk.secret_scalar().to_hex()));
    }
}

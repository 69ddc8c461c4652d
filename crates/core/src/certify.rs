//! CERTIFY and VER-CERT (Fig. 3), plus the per-unit local key bundle.
//!
//! Each node holds, per time unit `u`: a centralized signing/verification
//! key pair (`s_i^u`, `v_i^u`) and the PDS certificate `cert_i^u` over the
//! statement *"the public key of `N_i` in time unit `u` is `v_i^u`"*.
//!
//! CERTIFY signs `⟨m, i, j, u, w⟩` with the local key and attaches
//! `(v, cert)`; VER-CERT checks format (source, destination, unit, round),
//! the certificate against the ROM-resident global verification key, and
//! finally the message signature — exactly the three steps of Fig. 3.

use crate::wire::{CertifiedMsg, MacMsg};
use proauth_crypto::group::Group;
use proauth_crypto::schnorr::{Signature, SigningKey, VerifyKey};
use proauth_pds::als::AlsPds;
use proauth_pds::statement::key_statement;
use proauth_primitives::bigint::BigUint;
use proauth_primitives::hmac::{hmac_sha256, tags_equal};
use proauth_primitives::sha256;
use proauth_primitives::wire::Writer;
use proauth_sim::message::NodeId;
use proauth_telemetry as telemetry;

/// A node's local (centralized) keys for one time unit.
#[derive(Debug, Clone)]
pub struct LocalKeys {
    /// The time unit these keys belong to.
    pub unit: u64,
    /// The signing key `s_i^u`.
    pub signing: SigningKey,
    /// The certificate `cert_i^u`, once obtained.
    pub cert: Option<Signature>,
}

impl LocalKeys {
    /// Generates a fresh pair for `unit` (certificate pending).
    pub fn generate<R: rand::RngCore>(group: &Group, unit: u64, rng: &mut R) -> Self {
        LocalKeys {
            unit,
            signing: SigningKey::generate(group, rng),
            cert: None,
        }
    }

    /// The verification key bytes (`v_i^u`).
    pub fn vk_bytes(&self) -> Vec<u8> {
        self.signing.verify_key().to_bytes()
    }

    /// Whether the bundle is usable for CERTIFY (certificate present).
    pub fn is_certified(&self) -> bool {
        self.cert.is_some()
    }
}

/// Derives the pairwise session key of §1.3's shared-key mode:
/// `H(g^{x_i·x_j} ‖ min(v_i, v_j) ‖ max(v_i, v_j) ‖ u)` — a static
/// Diffie–Hellman over the certified per-unit keys, so both endpoints derive
/// it without extra messages and it dies with the unit's keys.
///
/// Returns `None` if `peer_vk` is not a valid group element.
pub fn session_key(
    group: &Group,
    my_signing: &SigningKey,
    peer_vk: &BigUint,
    unit: u64,
) -> Option<[u8; 32]> {
    if !group.contains(peer_vk) {
        return None;
    }
    let dh = group.exp(peer_vk, my_signing.secret_scalar());
    let my_vk = my_signing.verify_key().element().to_bytes_be();
    let peer_bytes = peer_vk.to_bytes_be();
    let (lo, hi) = if my_vk <= peer_bytes {
        (my_vk, peer_bytes)
    } else {
        (peer_bytes, my_vk)
    };
    Some(sha256::hash_parts(
        "proauth/session-key/v1",
        &[&dh.to_bytes_be(), &lo, &hi, &unit.to_be_bytes()],
    ))
}

/// MAC-mode CERTIFY: authenticates `⟨m, i, j, u, w⟩` with the session key
/// instead of a signature. The certificate still rides along for receivers
/// that have not yet pinned the sender's key.
///
/// Returns `None` if the keys have no certificate yet.
pub fn mac_certify(
    keys: &LocalKeys,
    key: &[u8; 32],
    m: &[u8],
    i: NodeId,
    j: NodeId,
    w: u64,
) -> Option<MacMsg> {
    let cert = keys.cert.clone()?;
    let tuple = message_tuple(m, i.0, j.0, keys.unit, w);
    Some(MacMsg {
        m: m.to_vec(),
        i: i.0,
        j: j.0,
        u: keys.unit,
        w,
        tag: hmac_sha256(key, &tuple),
        vk: keys.vk_bytes(),
        cert,
    })
}

/// MAC-mode VER-CERT, format-and-tag part: checks the field bindings and the
/// HMAC. Certificate validation (once per sender per unit) is the caller's
/// job via [`ver_certificate`].
pub fn ver_mac(
    me: NodeId,
    from: NodeId,
    expected_unit: u64,
    expected_w: u64,
    msg: &MacMsg,
    key: &[u8; 32],
) -> bool {
    if msg.i != from.0 || msg.j != me.0 || msg.u != expected_unit || msg.w != expected_w {
        return false;
    }
    let tuple = message_tuple(&msg.m, msg.i, msg.j, msg.u, msg.w);
    tags_equal(&msg.tag, &hmac_sha256(key, &tuple))
}

/// The canonical bytes signed by the local key: `⟨m, i, j, u, w⟩`.
fn message_tuple(m: &[u8], i: u32, j: u32, u: u64, w: u64) -> Vec<u8> {
    let mut wr = Writer::new();
    wr.put_bytes(b"proauth/certify/tuple/v1");
    wr.put_bytes(m);
    wr.put_u32(i);
    wr.put_u32(j);
    wr.put_u64(u);
    wr.put_u64(w);
    wr.into_bytes()
}

/// CERTIFY (Fig. 3): produces the message `⟨m, i, j, u, w, σ, v, cert⟩`.
///
/// Returns `None` if the keys have no certificate yet (a certless node
/// cannot authenticate — it is expected to alert instead).
pub fn certify<R: rand::RngCore>(
    keys: &LocalKeys,
    m: &[u8],
    i: NodeId,
    j: NodeId,
    w: u64,
    rng: &mut R,
) -> Option<CertifiedMsg> {
    let cert = keys.cert.clone()?;
    let tuple = message_tuple(m, i.0, j.0, keys.unit, w);
    let sig = telemetry::timed("crypto/sign_ns", || keys.signing.sign(&tuple, rng));
    Some(CertifiedMsg {
        m: m.to_vec(),
        i: i.0,
        j: j.0,
        u: keys.unit,
        w,
        sig,
        vk: keys.vk_bytes(),
        cert,
    })
}

/// How strictly VER-CERT checks the destination field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestCheck {
    /// Fig. 3 as written: the destination must be me.
    Me(NodeId),
    /// PARTIAL-AGREEMENT step 4: relayed messages were addressed to the
    /// relayer; accept any in-range destination (the message still binds its
    /// original destination inside the signature, so it cannot be replayed
    /// *as if* addressed to me by the strict paths).
    AnyDestination,
}

/// VER-CERT (Fig. 3): verifies a certified message.
///
/// * `from` — the node the message claims to come from (`i`);
/// * `expected_unit` — the unit whose keys are in force (`auth_unit`);
/// * `expected_w` — the round the message must have been certified at
///   (two physical rounds before receipt under AUTH-SEND);
/// * `v_cert` — the PDS global verification key from ROM.
pub fn ver_cert(
    group: &Group,
    dest: DestCheck,
    from: NodeId,
    expected_unit: u64,
    expected_w: u64,
    msg: &CertifiedMsg,
    v_cert: &BigUint,
) -> bool {
    ver_cert_format(dest, from, expected_unit, expected_w, msg)
        && ver_certificate(group, from, msg.u, &msg.vk, &msg.cert, v_cert)
            .is_some_and(|key| ver_cert_signature(&key, msg))
}

/// VER-CERT step 1: field bindings.
pub(crate) fn ver_cert_format(
    dest: DestCheck,
    from: NodeId,
    expected_unit: u64,
    expected_w: u64,
    msg: &CertifiedMsg,
) -> bool {
    if msg.i != from.0 || msg.u != expected_unit || msg.w != expected_w {
        return false;
    }
    match dest {
        DestCheck::Me(me) => msg.j == me.0,
        DestCheck::AnyDestination => msg.j != 0,
    }
}

/// VER-CERT step 2: checks the PDS certificate `cert` for "the public key of
/// `node` in time unit `unit` is `vk`" against the ROM key `v_cert`, and `vk`
/// for group membership. Returns the validated key. The result is a function
/// of exactly these bytes, which is what lets a receiver remember it (the
/// pin table of [`crate::uls::UlsNode`]) instead of repeating it per message.
pub fn ver_certificate(
    group: &Group,
    node: NodeId,
    unit: u64,
    vk: &[u8],
    cert: &Signature,
    v_cert: &BigUint,
) -> Option<VerifyKey> {
    let statement = key_statement(node, unit, vk);
    if !AlsPds::verify(group, v_cert, &statement, unit, cert) {
        return None;
    }
    VerifyKey::from_element(group, BigUint::from_bytes_be(vk))
}

/// VER-CERT step 3: the message signature under the sender's certified key.
pub(crate) fn ver_cert_signature(key: &VerifyKey, msg: &CertifiedMsg) -> bool {
    let tuple = message_tuple(&msg.m, msg.i, msg.j, msg.u, msg.w);
    telemetry::timed("crypto/verify_ns", || key.verify(&tuple, &msg.sig))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proauth_crypto::group::GroupId;
    use proauth_pds::msg::signing_payload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a "PDS" whose key is just a centralized Schnorr key — enough
    /// to mint valid certificates for tests.
    struct TestCa {
        group: Group,
        sk: SigningKey,
    }

    impl TestCa {
        fn new(seed: u64) -> Self {
            let group = Group::new(GroupId::Toy64);
            let mut rng = StdRng::seed_from_u64(seed);
            let sk = SigningKey::generate(&group, &mut rng);
            TestCa { group, sk }
        }

        fn v_cert(&self) -> BigUint {
            self.sk.verify_key().element().clone()
        }

        fn issue(&self, node: NodeId, unit: u64, vk: &[u8], rng: &mut StdRng) -> Signature {
            let st = key_statement(node, unit, vk);
            self.sk.sign(&signing_payload(&st, unit), rng)
        }
    }

    fn setup() -> (TestCa, LocalKeys, StdRng) {
        let ca = TestCa::new(11);
        let mut rng = StdRng::seed_from_u64(22);
        let mut keys = LocalKeys::generate(&ca.group, 3, &mut rng);
        keys.cert = Some(ca.issue(NodeId(1), 3, &keys.vk_bytes(), &mut rng));
        (ca, keys, rng)
    }

    #[test]
    fn certify_verify_roundtrip() {
        let (ca, keys, mut rng) = setup();
        let msg = certify(&keys, b"hello", NodeId(1), NodeId(2), 40, &mut rng).unwrap();
        assert!(ver_cert(
            &ca.group,
            DestCheck::Me(NodeId(2)),
            NodeId(1),
            3,
            40,
            &msg,
            &ca.v_cert()
        ));
    }

    #[test]
    fn wrong_destination_rejected() {
        let (ca, keys, mut rng) = setup();
        let msg = certify(&keys, b"m", NodeId(1), NodeId(2), 40, &mut rng).unwrap();
        assert!(!ver_cert(
            &ca.group,
            DestCheck::Me(NodeId(3)),
            NodeId(1),
            3,
            40,
            &msg,
            &ca.v_cert()
        ));
        // Relaxed destination check accepts it (it is still well-formed).
        assert!(ver_cert(
            &ca.group,
            DestCheck::AnyDestination,
            NodeId(1),
            3,
            40,
            &msg,
            &ca.v_cert()
        ));
    }

    #[test]
    fn wrong_source_unit_or_round_rejected() {
        let (ca, keys, mut rng) = setup();
        let msg = certify(&keys, b"m", NodeId(1), NodeId(2), 40, &mut rng).unwrap();
        let v = ca.v_cert();
        assert!(!ver_cert(&ca.group, DestCheck::Me(NodeId(2)), NodeId(9), 3, 40, &msg, &v));
        assert!(!ver_cert(&ca.group, DestCheck::Me(NodeId(2)), NodeId(1), 4, 40, &msg, &v));
        assert!(!ver_cert(&ca.group, DestCheck::Me(NodeId(2)), NodeId(1), 3, 41, &msg, &v),
            "replay to a different round rejected");
    }

    #[test]
    fn forged_certificate_rejected() {
        let (ca, keys, mut rng) = setup();
        let rogue_ca = TestCa::new(99);
        let mut forged_keys = keys.clone();
        forged_keys.cert =
            Some(rogue_ca.issue(NodeId(1), 3, &forged_keys.vk_bytes(), &mut rng));
        let msg = certify(&forged_keys, b"m", NodeId(1), NodeId(2), 40, &mut rng).unwrap();
        assert!(!ver_cert(
            &ca.group,
            DestCheck::Me(NodeId(2)),
            NodeId(1),
            3,
            40,
            &msg,
            &ca.v_cert()
        ));
    }

    #[test]
    fn tampered_payload_rejected() {
        let (ca, keys, mut rng) = setup();
        let mut msg = certify(&keys, b"m", NodeId(1), NodeId(2), 40, &mut rng).unwrap();
        msg.m = b"tampered".to_vec();
        assert!(!ver_cert(
            &ca.group,
            DestCheck::Me(NodeId(2)),
            NodeId(1),
            3,
            40,
            &msg,
            &ca.v_cert()
        ));
    }

    #[test]
    fn stolen_cert_with_wrong_key_rejected() {
        // An adversary pairs node 1's valid certificate with its own local
        // key: the certificate does not match the attached vk.
        let (ca, keys, mut rng) = setup();
        let mut rogue = LocalKeys::generate(&ca.group, 3, &mut rng);
        rogue.cert = keys.cert.clone(); // steal node 1's cert
        let msg = certify(&rogue, b"m", NodeId(1), NodeId(2), 40, &mut rng).unwrap();
        assert!(!ver_cert(
            &ca.group,
            DestCheck::Me(NodeId(2)),
            NodeId(1),
            3,
            40,
            &msg,
            &ca.v_cert()
        ));
    }

    #[test]
    fn session_key_is_symmetric() {
        let group = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(77);
        let a = LocalKeys::generate(&group, 4, &mut rng);
        let b = LocalKeys::generate(&group, 4, &mut rng);
        let k_ab = session_key(&group, &a.signing, b.signing.verify_key().element(), 4).unwrap();
        let k_ba = session_key(&group, &b.signing, a.signing.verify_key().element(), 4).unwrap();
        assert_eq!(k_ab, k_ba, "both endpoints derive the same key");
        // Unit separation: a different unit gives a different key.
        let k_ab5 = session_key(&group, &a.signing, b.signing.verify_key().element(), 5).unwrap();
        assert_ne!(k_ab, k_ab5);
        // Invalid peer key rejected.
        assert!(session_key(&group, &a.signing, &BigUint::zero(), 4).is_none());
    }

    #[test]
    fn mac_certify_verify_roundtrip_and_binding() {
        let (ca, keys, mut rng) = setup();
        let peer = LocalKeys::generate(&ca.group, 3, &mut rng);
        let key =
            session_key(&ca.group, &keys.signing, peer.signing.verify_key().element(), 3).unwrap();
        let msg = mac_certify(&keys, &key, b"payload", NodeId(1), NodeId(2), 40).unwrap();
        assert!(ver_mac(NodeId(2), NodeId(1), 3, 40, &msg, &key));
        // Wrong key, destination, round, unit, or payload all fail.
        assert!(!ver_mac(NodeId(2), NodeId(1), 3, 40, &msg, &[0u8; 32]));
        assert!(!ver_mac(NodeId(3), NodeId(1), 3, 40, &msg, &key));
        assert!(!ver_mac(NodeId(2), NodeId(1), 3, 41, &msg, &key));
        assert!(!ver_mac(NodeId(2), NodeId(1), 4, 40, &msg, &key));
        let mut tampered = msg.clone();
        tampered.m = b"other".to_vec();
        assert!(!ver_mac(NodeId(2), NodeId(1), 3, 40, &tampered, &key));
        // Certificate validation yields the right key.
        let certified =
            |m: &MacMsg| ver_certificate(&ca.group, NodeId(1), m.u, &m.vk, &m.cert, &ca.v_cert());
        assert_eq!(certified(&msg).as_ref(), Some(keys.signing.verify_key()));
        // A rogue certificate fails.
        let rogue = TestCa::new(55);
        let mut bad = msg.clone();
        bad.cert = rogue.issue(NodeId(1), 3, &bad.vk, &mut rng);
        assert!(certified(&bad).is_none());
    }

    #[test]
    fn certless_keys_cannot_certify() {
        let (_, _, mut rng) = setup();
        let group = Group::new(GroupId::Toy64);
        let keys = LocalKeys::generate(&group, 1, &mut rng);
        assert!(certify(&keys, b"m", NodeId(1), NodeId(2), 0, &mut rng).is_none());
        assert!(!keys.is_certified());
    }
}

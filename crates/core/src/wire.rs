//! Wire formats of the UL-model protocol stack (§4.1–4.2).
//!
//! Layering, outermost first:
//!
//! 1. [`UlsWire`] — what actually travels in a physical envelope: either a
//!    *clear* key announcement (refresh Part I, step 2 — the one message the
//!    paper deliberately leaves unauthenticated) or a [`DisperseMsg`].
//! 2. [`DisperseMsg`] — the two-phase echo of Fig. 2 carrying an opaque blob
//!    ([`DisperseView`] is the same message read in place, which is how the
//!    receive path sees it).
//! 3. [`Blob`] — what DISPERSE carries: a [`CertifiedMsg`] (AUTH-SEND),
//!    relayed equivocation [`Blob::Evidence`] (PARTIAL-AGREEMENT step 3), or
//!    a self-authenticating certificate delivery (URfr Part I step 4).
//! 4. [`Inner`] — the payload of a certified message: PDS traffic, top-layer
//!    (π) application traffic, or a PARTIAL-AGREEMENT input value.

use proauth_crypto::schnorr::Signature;
use proauth_primitives::wire::{
    decode_seq, encode_seq, Decode, Encode, InternedBlob, Reader, WireError, Writer,
};
use proauth_sim::message::Payload;

/// Outermost physical payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UlsWire {
    /// Refresh Part I step 2: "the public key of N_i in time unit u is v",
    /// sent in the clear (the sender may have nothing to authenticate with).
    KeyAnnounce {
        /// The unit the key is for.
        unit: u64,
        /// The announced verification key bytes.
        vk: Vec<u8>,
    },
    /// Everything else rides the DISPERSE echo.
    Disperse(DisperseMsg),
}

/// [`UlsWire`] tag bytes.
const TAG_KEY_ANNOUNCE: u8 = 1;
const TAG_DISPERSE: u8 = 2;

impl UlsWire {
    /// Encodes into a shared [`Payload`] — for fan-out sites that send the
    /// same bytes to many peers: one allocation, refcounted clones.
    pub fn to_payload(&self) -> Payload {
        self.to_bytes().into()
    }
}

/// The two-phase echo of Fig. 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisperseMsg {
    /// Round 1: "forward `blob` to `dst`" (from the claimed `origin`).
    Forward {
        /// Claimed originator.
        origin: u32,
        /// Final destination.
        dst: u32,
        /// Opaque cargo, shared (never re-copied) across fan-out and
        /// inspection.
        blob: InternedBlob,
    },
    /// Round 2: "forwarding `blob` from `origin`".
    Forwarding {
        /// Claimed originator.
        origin: u32,
        /// Opaque cargo (shared handle, as in `Forward`).
        blob: InternedBlob,
    },
}

/// A [`DisperseMsg`] read in place: the same fields, with the cargo borrowed
/// from the envelope it arrived in. DISPERSE receives `n − 1` copies of
/// every blob (Fig. 2) and keeps one; the view lets it compare the copies as
/// bytes and allocate only the one it keeps. It is also the single
/// definition of the encoding — [`DisperseMsg`] encodes and decodes through
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisperseView<'a> {
    /// See [`DisperseMsg::Forward`].
    Forward {
        /// Claimed originator.
        origin: u32,
        /// Final destination.
        dst: u32,
        /// The cargo bytes.
        body: &'a [u8],
    },
    /// See [`DisperseMsg::Forwarding`].
    Forwarding {
        /// Claimed originator.
        origin: u32,
        /// The cargo bytes.
        body: &'a [u8],
    },
}

impl<'a> DisperseView<'a> {
    /// Reads a physical payload as a DISPERSE message: `Some` exactly when
    /// [`UlsWire::from_bytes`] returns `Ok(UlsWire::Disperse(_))`, with the
    /// same fields.
    pub fn parse(payload: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        if r.get_u8().ok()? != TAG_DISPERSE {
            return None;
        }
        let view = Self::decode(&mut r).ok()?;
        (r.remaining() == 0).then_some(view)
    }

    fn decode(r: &mut Reader<'a>) -> Result<Self, WireError> {
        match r.get_u8()? {
            1 => Ok(DisperseView::Forward {
                origin: r.get_u32()?,
                dst: r.get_u32()?,
                body: r.get_bytes_ref()?,
            }),
            2 => Ok(DisperseView::Forwarding {
                origin: r.get_u32()?,
                body: r.get_bytes_ref()?,
            }),
            t => Err(WireError::InvalidTag(t)),
        }
    }

    /// Encodes as a complete physical payload — the bytes of the
    /// corresponding `UlsWire::Disperse(_)`.
    pub fn to_payload(&self) -> Payload {
        let mut w = Writer::new();
        w.put_u8(TAG_DISPERSE);
        self.encode(&mut w);
        w.into_bytes().into()
    }
}

impl Encode for DisperseView<'_> {
    fn encode(&self, w: &mut Writer) {
        match *self {
            DisperseView::Forward { origin, dst, body } => {
                w.put_u8(1);
                w.put_u32(origin);
                w.put_u32(dst);
                w.put_bytes(body);
            }
            DisperseView::Forwarding { origin, body } => {
                w.put_u8(2);
                w.put_u32(origin);
                w.put_bytes(body);
            }
        }
    }
}

impl DisperseMsg {
    /// The borrowed form of this message.
    pub fn view(&self) -> DisperseView<'_> {
        match self {
            DisperseMsg::Forward { origin, dst, blob } => DisperseView::Forward {
                origin: *origin,
                dst: *dst,
                body: blob,
            },
            DisperseMsg::Forwarding { origin, blob } => DisperseView::Forwarding {
                origin: *origin,
                body: blob,
            },
        }
    }
}

/// Cargo carried by DISPERSE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Blob {
    /// An AUTH-SEND message.
    Certified(CertifiedMsg),
    /// PARTIAL-AGREEMENT step 3: a relayed certified message serving as
    /// (majority or equivocation) evidence about `subject`'s announced key.
    Evidence {
        /// The PA subject the evidence concerns.
        subject: u32,
        /// The original certified message (addressed to the relayer).
        msg: CertifiedMsg,
    },
    /// PARTIAL-AGREEMENT step 3, bundled: *all* of a node's evidence relays
    /// for one PA instance in a single DISPERSE send — one bundle per
    /// destination instead of |MAJ| separate `Evidence` DISPERSEs, cutting a
    /// node's refresh envelopes from Θ(n³) to Θ(n²). Receivers unpack the
    /// bundle and feed each message through the exact `Evidence` checks, so
    /// `PaInstance::on_evidence` (Lemma 16, cheater exposure) sees the same
    /// (certifier, value) pairs either way.
    EvidenceBundle {
        /// The PA subject the evidence concerns.
        subject: u32,
        /// The majority members' certified step-1 messages.
        msgs: Vec<CertifiedMsg>,
    },
    /// A session-MAC authenticated message (the §1.3 shared-key mode).
    MacCertified(MacMsg),
    /// URfr Part I step 4: a certificate delivered to its subject. The
    /// certificate is a PDS signature verifiable straight from ROM, so the
    /// carrier needs no authentication of its own.
    CertDeliver {
        /// The node the certificate is for.
        subject: u32,
        /// The time unit of the certificate.
        unit: u64,
        /// The certified verification key bytes.
        vk: Vec<u8>,
        /// The PDS signature over the key statement.
        cert: Signature,
    },
}

/// A message authenticated with a per-unit *session MAC* instead of a
/// signature — the paper's shared-key alternative (§1.3): nodes derive a
/// pairwise key from their certified per-unit keys (Diffie–Hellman in the
/// same group) and authenticate with HMAC. The certificate still rides
/// along so a receiver that has not yet cached the sender's key can verify
/// it once, then authenticate every later message with two hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacMsg {
    /// The inner payload bytes (an encoded [`Inner`]).
    pub m: Vec<u8>,
    /// Claimed source node.
    pub i: u32,
    /// Destination node.
    pub j: u32,
    /// Time unit whose keys authenticate the message.
    pub u: u64,
    /// Physical round the message was authenticated at.
    pub w: u64,
    /// `HMAC-SHA256(session_key, ⟨m, i, j, u, w⟩)`.
    pub tag: [u8; 32],
    /// The sender's local verification key bytes.
    pub vk: Vec<u8>,
    /// The PDS certificate for `vk` in unit `u`.
    pub cert: Signature,
}

impl Encode for MacMsg {
    fn encode(&self, w: &mut Writer) {
        self.m.encode(w);
        w.put_u32(self.i);
        w.put_u32(self.j);
        w.put_u64(self.u);
        w.put_u64(self.w);
        self.tag.encode(w);
        self.vk.encode(w);
        self.cert.encode(w);
    }
}

impl Decode for MacMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(MacMsg {
            m: Vec::<u8>::decode(r)?,
            i: r.get_u32()?,
            j: r.get_u32()?,
            u: r.get_u64()?,
            w: r.get_u64()?,
            tag: <[u8; 32]>::decode(r)?,
            vk: Vec::<u8>::decode(r)?,
            cert: Signature::decode(r)?,
        })
    }
}

/// A message in the Fig. 3 format: `⟨m, i, j, u, w, σ, v, cert⟩`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedMsg {
    /// The inner payload bytes (`m`), an encoded [`Inner`].
    pub m: Vec<u8>,
    /// Claimed source node.
    pub i: u32,
    /// Destination node.
    pub j: u32,
    /// Time unit (`u`) whose local keys certify the message.
    pub u: u64,
    /// Physical communication round when the message was certified (`w`).
    pub w: u64,
    /// The sender's local signature over `⟨m, i, j, u, w⟩`.
    pub sig: Signature,
    /// The sender's local verification key bytes (`v`).
    pub vk: Vec<u8>,
    /// The PDS certificate for `v` in unit `u`.
    pub cert: Signature,
}

/// Payloads inside certified messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inner {
    /// PDS protocol traffic (encoded `AlsMsg`).
    Pds(Vec<u8>),
    /// Top-layer protocol (π) traffic — the authenticator of §5.
    App(Vec<u8>),
    /// PARTIAL-AGREEMENT step 1 input: "I received `value` as `subject`'s
    /// announced key".
    PaValue {
        /// Whose key is being agreed on.
        subject: u32,
        /// The value I received (announced verification key bytes).
        value: Vec<u8>,
    },
}

impl Encode for UlsWire {
    fn encode(&self, w: &mut Writer) {
        match self {
            UlsWire::KeyAnnounce { unit, vk } => {
                w.put_u8(TAG_KEY_ANNOUNCE);
                w.put_u64(*unit);
                vk.encode(w);
            }
            UlsWire::Disperse(d) => {
                w.put_u8(TAG_DISPERSE);
                d.encode(w);
            }
        }
    }
}

impl Decode for UlsWire {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            TAG_KEY_ANNOUNCE => Ok(UlsWire::KeyAnnounce {
                unit: r.get_u64()?,
                vk: Vec::<u8>::decode(r)?,
            }),
            TAG_DISPERSE => Ok(UlsWire::Disperse(DisperseMsg::decode(r)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl Encode for DisperseMsg {
    fn encode(&self, w: &mut Writer) {
        self.view().encode(w);
    }
}

impl Decode for DisperseMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match DisperseView::decode(r)? {
            DisperseView::Forward { origin, dst, body } => DisperseMsg::Forward {
                origin,
                dst,
                blob: body.into(),
            },
            DisperseView::Forwarding { origin, body } => DisperseMsg::Forwarding {
                origin,
                blob: body.into(),
            },
        })
    }
}

impl Encode for Blob {
    fn encode(&self, w: &mut Writer) {
        match self {
            Blob::Certified(msg) => {
                w.put_u8(1);
                msg.encode(w);
            }
            Blob::Evidence { subject, msg } => {
                w.put_u8(2);
                w.put_u32(*subject);
                msg.encode(w);
            }
            Blob::EvidenceBundle { subject, msgs } => {
                w.put_u8(5);
                w.put_u32(*subject);
                encode_seq(msgs, w);
            }
            Blob::MacCertified(msg) => {
                w.put_u8(4);
                msg.encode(w);
            }
            Blob::CertDeliver {
                subject,
                unit,
                vk,
                cert,
            } => {
                w.put_u8(3);
                w.put_u32(*subject);
                w.put_u64(*unit);
                vk.encode(w);
                cert.encode(w);
            }
        }
    }
}

impl Decode for Blob {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            1 => Ok(Blob::Certified(CertifiedMsg::decode(r)?)),
            2 => Ok(Blob::Evidence {
                subject: r.get_u32()?,
                msg: CertifiedMsg::decode(r)?,
            }),
            3 => Ok(Blob::CertDeliver {
                subject: r.get_u32()?,
                unit: r.get_u64()?,
                vk: Vec::<u8>::decode(r)?,
                cert: Signature::decode(r)?,
            }),
            4 => Ok(Blob::MacCertified(MacMsg::decode(r)?)),
            5 => Ok(Blob::EvidenceBundle {
                subject: r.get_u32()?,
                msgs: decode_seq(r)?,
            }),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl Blob {
    /// Encodes into an interned blob — the handle DISPERSE shares across
    /// every fan-out copy.
    pub fn intern(&self) -> InternedBlob {
        InternedBlob::from(self.to_bytes())
    }
}

impl Encode for CertifiedMsg {
    fn encode(&self, w: &mut Writer) {
        self.m.encode(w);
        w.put_u32(self.i);
        w.put_u32(self.j);
        w.put_u64(self.u);
        w.put_u64(self.w);
        self.sig.encode(w);
        self.vk.encode(w);
        self.cert.encode(w);
    }
}

impl Decode for CertifiedMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CertifiedMsg {
            m: Vec::<u8>::decode(r)?,
            i: r.get_u32()?,
            j: r.get_u32()?,
            u: r.get_u64()?,
            w: r.get_u64()?,
            sig: Signature::decode(r)?,
            vk: Vec::<u8>::decode(r)?,
            cert: Signature::decode(r)?,
        })
    }
}

impl Encode for Inner {
    fn encode(&self, w: &mut Writer) {
        match self {
            Inner::Pds(b) => {
                w.put_u8(1);
                b.encode(w);
            }
            Inner::App(b) => {
                w.put_u8(2);
                b.encode(w);
            }
            Inner::PaValue { subject, value } => {
                w.put_u8(3);
                w.put_u32(*subject);
                value.encode(w);
            }
        }
    }
}

impl Decode for Inner {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            1 => Ok(Inner::Pds(Vec::<u8>::decode(r)?)),
            2 => Ok(Inner::App(Vec::<u8>::decode(r)?)),
            3 => Ok(Inner::PaValue {
                subject: r.get_u32()?,
                value: Vec::<u8>::decode(r)?,
            }),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proauth_primitives::bigint::BigUint;

    fn sig(n: u64) -> Signature {
        Signature {
            e: BigUint::from_u64(n),
            s: BigUint::from_u64(n + 1),
        }
    }

    fn certified() -> CertifiedMsg {
        CertifiedMsg {
            m: Inner::App(b"payload".to_vec()).to_bytes(),
            i: 1,
            j: 2,
            u: 3,
            w: 44,
            sig: sig(5),
            vk: vec![7, 8],
            cert: sig(9),
        }
    }

    #[test]
    fn uls_wire_roundtrip() {
        let msgs = vec![
            UlsWire::KeyAnnounce {
                unit: 2,
                vk: vec![1, 2, 3],
            },
            UlsWire::Disperse(DisperseMsg::Forward {
                origin: 1,
                dst: 2,
                blob: vec![9].into(),
            }),
            UlsWire::Disperse(DisperseMsg::Forwarding {
                origin: 1,
                blob: vec![9].into(),
            }),
        ];
        for m in msgs {
            assert_eq!(UlsWire::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    fn mac_msg() -> MacMsg {
        MacMsg {
            m: Inner::App(b"p".to_vec()).to_bytes(),
            i: 1,
            j: 2,
            u: 3,
            w: 44,
            tag: [9; 32],
            vk: vec![7, 8],
            cert: sig(9),
        }
    }

    #[test]
    fn blob_roundtrip() {
        let blobs = vec![
            Blob::Certified(certified()),
            Blob::MacCertified(mac_msg()),
            Blob::Evidence {
                subject: 4,
                msg: certified(),
            },
            Blob::EvidenceBundle {
                subject: 4,
                msgs: vec![certified(), certified()],
            },
            Blob::EvidenceBundle {
                subject: 7,
                msgs: vec![],
            },
            Blob::CertDeliver {
                subject: 4,
                unit: 2,
                vk: vec![1],
                cert: sig(3),
            },
        ];
        for b in blobs {
            assert_eq!(Blob::from_bytes(&b.to_bytes()).unwrap(), b);
        }
    }

    #[test]
    fn inner_roundtrip() {
        for inner in [
            Inner::Pds(vec![1, 2]),
            Inner::App(vec![]),
            Inner::PaValue {
                subject: 3,
                value: vec![4],
            },
        ] {
            assert_eq!(Inner::from_bytes(&inner.to_bytes()).unwrap(), inner);
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(UlsWire::from_bytes(&[99]).is_err());
        assert!(Blob::from_bytes(&[]).is_err());
        assert!(Inner::from_bytes(&[7, 7]).is_err());
        // A bundle claiming an absurd message count is rejected up front.
        assert!(Blob::from_bytes(&[5, 0, 0, 0, 4, 0xff, 0xff, 0xff, 0xff]).is_err());
    }

    #[test]
    fn intern_matches_to_bytes() {
        let b = Blob::Certified(certified());
        let interned = b.intern();
        assert_eq!(interned.as_bytes(), &b.to_bytes()[..]);
        assert_eq!(Blob::from_bytes(interned.as_bytes()).unwrap(), b);
    }
}

//! ULS — the UL-model PDS and proactive authenticator node (§4.2 + §5).
//!
//! [`UlsNode`] assembles the whole construction:
//!
//! * an embedded AL-model PDS ([`AlsPds`]) whose every message rides
//!   AUTH-SEND (one logical PDS round = two physical rounds);
//! * per-unit local keys certified through the refresh Part I machinery
//!   (key announcement in the clear → n parallel PARTIAL-AGREEMENTs →
//!   threshold-signed certificates → delivery → adoption or **alert**);
//! * refresh Part II: the PDS share refresh (`ARfr`) over AUTH-SEND with the
//!   *new* keys, including share recovery for wiped nodes;
//! * an optional top-layer protocol `π` ([`AlProtocol`]) — making the node
//!   the compiled `Λ(π)` of §5.
//!
//! ## Physical schedule
//!
//! A time unit `u ≥ 1` opens with a refresh phase of
//! [`PART1_ROUNDS`]` + `[`PART2_ROUNDS`] physical rounds:
//!
//! ```text
//! Part I (old keys):                      Part II (new keys):
//!   0      KeyAnnounce (clear)              20+2k   ARfr step k (k = 0..=6)
//!   1      PA step 1 (AUTH-SEND)            34..35  slack
//!   3      PA step 2+3 (evidence DISPERSE)
//!   5      PA decide; request certificates
//!   5..15  PDS signing ticks (odd offsets)
//!   16     certificate delivery (DISPERSE)
//!   19     adopt new keys / ALERT
//! ```
//!
//! Unit 0's keys and certificates come from the adversary-free setup phase
//! (`UGen`, §4.2.1), which also burns the PDS verification key into ROM.

use crate::authenticator::{AlProtocol, AppCtx};
use crate::certify::{
    certify, mac_certify, session_key, ver_cert_format, ver_cert_signature, ver_certificate,
    ver_mac, DestCheck, LocalKeys,
};
use crate::disperse::{DisperseLayer, DisperseMode};
use crate::pa::PaInstance;
use crate::wire::{Blob, CertifiedMsg, Inner, UlsWire};
use proauth_crypto::group::Group;
use proauth_crypto::schnorr::{Signature, VerifyKey};
use proauth_pds::api::{AlPds, PdsPhase, PdsTime};
use proauth_pds::als::{AlsConfig, AlsPds};
use proauth_pds::statement::{key_statement, parse_key_statement};
use proauth_primitives::bigint::BigUint;
use proauth_primitives::wire::{Decode, Encode};
use proauth_sim::clock::{Phase, TimeView};
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_telemetry as telemetry;
use proauth_sim::process::{Process, RoundCtx, SetupCtx};
use std::collections::BTreeMap;

/// Physical rounds of refresh Part I.
pub const PART1_ROUNDS: u64 = 20;
/// Physical rounds of refresh Part II.
pub const PART2_ROUNDS: u64 = 16;
/// Setup rounds a ULS network needs (DKG + unit-0 certificates).
pub const SETUP_ROUNDS: u64 = 8;

const OFF_ANNOUNCE: u64 = 0;
const OFF_PA_SEND: u64 = 1;
const OFF_PA_MAJ: u64 = 3;
const OFF_PA_DECIDE: u64 = 5;
const OFF_CERT_DELIVER: u64 = 16;
const OFF_ADOPT: u64 = PART1_ROUNDS - 1;

/// Builds the simulator schedule for a ULS network with `normal_rounds`
/// rounds of ordinary operation per unit (must be even).
///
/// # Panics
///
/// Panics if `normal_rounds` is odd.
pub fn uls_schedule(normal_rounds: u64) -> proauth_sim::clock::Schedule {
    assert!(normal_rounds.is_multiple_of(2), "normal rounds must be even");
    proauth_sim::clock::Schedule::new(
        PART1_ROUNDS + PART2_ROUNDS + normal_rounds,
        PART1_ROUNDS,
        PART2_ROUNDS,
    )
}

/// Tags a runner input as a USign request ("sign these bytes").
pub fn sign_input(msg: &[u8]) -> Vec<u8> {
    let mut v = vec![1u8];
    v.extend_from_slice(msg);
    v
}

/// Tags a runner input as top-layer (π) input.
pub fn app_input(bytes: &[u8]) -> Vec<u8> {
    let mut v = vec![2u8];
    v.extend_from_slice(bytes);
    v
}

/// How steady-state messages are authenticated (§1.3 offers both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuthMode {
    /// Sign every message with the per-unit local key (Fig. 3 as written).
    #[default]
    Sign,
    /// Derive pairwise session keys from the certified per-unit keys
    /// (static DH) and authenticate with HMAC — two hashes instead of three
    /// exponentiations per message. PARTIAL-AGREEMENT inputs always stay
    /// signed (their step-3 evidence must be *publicly* verifiable), and any
    /// message to a peer whose key is not yet pinned falls back to signing.
    SessionMac,
}

/// Static ULS parameters.
#[derive(Debug, Clone)]
pub struct UlsConfig {
    /// The Schnorr group.
    pub group: Group,
    /// Network size.
    pub n: usize,
    /// Threshold (`n ≥ 2t+1`).
    pub t: usize,
    /// DISPERSE fan-out policy.
    pub disperse: DisperseMode,
    /// Steady-state authentication mode.
    pub auth_mode: AuthMode,
    /// PDS session-id scope (see [`proauth_pds::msg::sid_for_scoped`]).
    /// Empty (the default) keeps the flat scheme's sids bit-for-bit; the
    /// hierarchical runner scopes each cluster so concurrent cluster-local
    /// PDS instances can never route each other's sessions.
    pub sid_scope: Vec<u8>,
}

impl UlsConfig {
    /// Standard configuration.
    pub fn new(group: Group, n: usize, t: usize) -> Self {
        assert!(n > 2 * t, "ULS requires n >= 2t+1");
        UlsConfig {
            group,
            n,
            t,
            disperse: DisperseMode::Full,
            auth_mode: AuthMode::default(),
            sid_scope: Vec::new(),
        }
    }

    /// Scopes this instance's PDS session ids (builder style).
    pub fn scoped(mut self, scope: impl Into<Vec<u8>>) -> Self {
        self.sid_scope = scope.into();
        self
    }
}

/// A node's certified key for one unit, as this node verified it: the exact
/// `(vk, cert)` bytes whose certificate held under the ROM `v_cert`, and the
/// validated key. VER-CERT step 2 is a function of `(node, unit, vk, cert)`
/// alone, so a message carrying exactly these bytes need not repeat it.
struct Pin {
    vk: Vec<u8>,
    cert: Signature,
    key: VerifyKey,
}

/// The ULS node: UL-model PDS + proactive authenticator.
pub struct UlsNode<A: AlProtocol> {
    cfg: UlsConfig,
    me: NodeId,
    /// The embedded AL-model PDS.
    pub pds: AlsPds,
    /// Current local keys (`None` ⇒ certless, cannot authenticate).
    local: Option<LocalKeys>,
    /// Keys generated this refresh, awaiting certification.
    pending_new: Option<LocalKeys>,
    disperse: DisperseLayer,
    /// Key announcements received this refresh (first value per sender).
    announces: BTreeMap<u32, Vec<u8>>,
    /// PARTIAL-AGREEMENT instances, per subject.
    pa: BTreeMap<u32, PaInstance>,
    /// Raw certified PA messages, for evidence relay.
    pa_raw: BTreeMap<(u32, u32), CertifiedMsg>,
    /// Certificates obtained from completed PDS sessions this refresh:
    /// subject → (vk bytes, certificate).
    certs_out: BTreeMap<u32, (Vec<u8>, Signature)>,
    /// Buffered PDS messages since the last PDS tick.
    pds_inbox: Vec<(NodeId, Vec<u8>)>,
    /// Buffered app messages since the last app tick.
    app_inbox: Vec<(NodeId, Vec<u8>)>,
    /// Queued app inputs (one consumed per app tick, so inputs arriving
    /// during refresh phases or bursts are never silently overwritten).
    app_inputs: std::collections::VecDeque<Vec<u8>>,
    /// The top layer (π).
    pub app: A,
    app_logical_round: u64,
    /// Setup-phase storage: announced unit-0 keys of all nodes.
    setup_vks: BTreeMap<u32, Vec<u8>>,
    /// Certificates already verified, one per (node, unit), first one wins:
    /// filled from this node's own completed PDS sessions and from VER-CERT
    /// step 2 on received messages; read by both [`AuthMode`]s. Volatile
    /// like the keys it vouches for: wiped by a break-in, emptied of the
    /// new unit when its refresh starts (`OFF_ANNOUNCE`) and of every other
    /// unit when it ends (`OFF_ADOPT`) — so it holds at most `2n` entries,
    /// and none that a break-in planted ahead of time.
    pins: BTreeMap<(u32, u64), Pin>,
    /// Derived pairwise session keys: (peer, unit) → key. Same lifetime as
    /// `pins`.
    session_keys: BTreeMap<(u32, u64), [u8; 32]>,
    /// Count of alerts raised (mirrors the output log; handy for tests).
    pub alerts_raised: u64,
    /// Messages sent on the session-MAC fast path (instrumentation).
    pub mac_sent: u64,
    /// Messages sent on the signature path (instrumentation).
    pub sig_sent: u64,
}

impl<A: AlProtocol> UlsNode<A> {
    /// Creates a node.
    pub fn new(cfg: UlsConfig, me: NodeId, app: A) -> Self {
        let pds = AlsPds::new(
            AlsConfig::new(cfg.group.clone(), cfg.n, cfg.t).scoped(cfg.sid_scope.clone()),
            me,
        );
        let disperse = DisperseLayer::new(me, cfg.n, cfg.disperse);
        UlsNode {
            me,
            pds,
            local: None,
            pending_new: None,
            disperse,
            announces: BTreeMap::new(),
            pa: BTreeMap::new(),
            pa_raw: BTreeMap::new(),
            certs_out: BTreeMap::new(),
            pds_inbox: Vec::new(),
            app_inbox: Vec::new(),
            app_inputs: std::collections::VecDeque::new(),
            app,
            app_logical_round: 0,
            setup_vks: BTreeMap::new(),
            pins: BTreeMap::new(),
            session_keys: BTreeMap::new(),
            alerts_raised: 0,
            mac_sent: 0,
            sig_sent: 0,
            cfg,
        }
    }

    /// The node's current local keys (for tests and break-in semantics).
    pub fn local_keys(&self) -> Option<&LocalKeys> {
        self.local.as_ref()
    }

    /// Whether the node currently holds a certified key.
    pub fn is_certified(&self) -> bool {
        self.local.as_ref().is_some_and(LocalKeys::is_certified)
    }

    /// Break-in: wipe all volatile secrets (local keys, PDS state).
    pub fn corrupt_wipe(&mut self) {
        self.local = None;
        self.pending_new = None;
        self.pds.corrupt_wipe();
        self.announces.clear();
        self.pa.clear();
        self.pa_raw.clear();
        self.certs_out.clear();
        self.pds_inbox.clear();
        self.app_inbox.clear();
        self.app_inputs.clear();
        self.pins.clear();
        self.session_keys.clear();
    }

    /// Break-in: silently garble the PDS share.
    pub fn corrupt_garble_share(&mut self, garbage: u64) {
        self.pds.corrupt_share(BigUint::from_u64(garbage));
    }

    /// Break-in: steal (clone) the node's current local keys.
    pub fn steal_local_keys(&self) -> Option<LocalKeys> {
        self.local.clone()
    }

    /// The ROM copy of the PDS verification key.
    fn v_cert(rom: &proauth_sim::process::Rom) -> Option<BigUint> {
        rom.read("v_cert").map(BigUint::from_bytes_be)
    }

    /// Fig. 3 step 2, done once: the validated key of `node` for `unit` if
    /// `cert` certifies `vk` under `v_cert` — from the pin table when it
    /// holds exactly these bytes, otherwise verified now and pinned. A hit
    /// needs byte equality, so the answer is always the one
    /// [`ver_certificate`] gives; a flipped byte misses and is verified.
    fn certified_key(
        &mut self,
        node: u32,
        unit: u64,
        vk: &[u8],
        cert: &Signature,
        v_cert: &BigUint,
    ) -> Option<VerifyKey> {
        if let Some(pin) = self.pins.get(&(node, unit)) {
            if pin.vk == vk && pin.cert == *cert {
                return Some(pin.key.clone());
            }
        }
        telemetry::count("uls/certs_checked", 1);
        let key = ver_certificate(&self.cfg.group, NodeId(node), unit, vk, cert, v_cert)?;
        self.pin(node, unit, vk, cert, key.clone());
        Some(key)
    }

    /// Pins a certificate the caller has verified under `v_cert`.
    fn pin(&mut self, node: u32, unit: u64, vk: &[u8], cert: &Signature, key: VerifyKey) {
        self.pins.entry((node, unit)).or_insert_with(|| Pin {
            vk: vk.to_vec(),
            cert: cert.clone(),
            key,
        });
    }

    /// Drops the pins and session keys of the units `keep` rejects.
    fn retain_pins(&mut self, keep: impl Fn(u64) -> bool) {
        self.pins.retain(|&(_, u), _| keep(u));
        self.session_keys.retain(|&(_, u), _| keep(u));
    }

    /// Pins a certificate this node's own PDS session just produced (the
    /// session verified it under the ROM key before reporting completion).
    fn pin_signed(&mut self, node: NodeId, unit: u64, vk: &[u8], cert: &Signature) {
        if let Some(key) = VerifyKey::from_element(&self.cfg.group, BigUint::from_bytes_be(vk)) {
            self.pin(node.0, unit, vk, cert, key);
        }
    }

    /// VER-CERT (Fig. 3) for a received message, with step 2 through the
    /// pin table. Step 1 comes first, so only well-formed messages of the
    /// unit in force can cost a certificate check or take a pin.
    fn ver_cert(
        &mut self,
        dest: DestCheck,
        expected_unit: u64,
        expected_w: u64,
        msg: &CertifiedMsg,
        v_cert: &BigUint,
    ) -> bool {
        ver_cert_format(dest, NodeId(msg.i), expected_unit, expected_w, msg)
            && self
                .certified_key(msg.i, msg.u, &msg.vk, &msg.cert, v_cert)
                .is_some_and(|key| ver_cert_signature(&key, msg))
    }

    /// The pairwise session key with `peer` for `unit`, derived lazily from
    /// my local keys and the pinned peer key.
    fn session_key_for(&mut self, peer: u32, unit: u64) -> Option<[u8; 32]> {
        if let Some(k) = self.session_keys.get(&(peer, unit)) {
            return Some(*k);
        }
        let local = self.local.as_ref()?;
        if local.unit != unit || !local.is_certified() {
            return None;
        }
        let peer_vk = self.pins.get(&(peer, unit))?.key.element();
        let key = session_key(&self.cfg.group, &local.signing, peer_vk, unit)?;
        self.session_keys.insert((peer, unit), key);
        Some(key)
    }

    /// AUTH-SEND: certify `inner` for `to` and hand it to DISPERSE.
    fn auth_send<R: rand::RngCore>(
        &mut self,
        to: NodeId,
        inner: &Inner,
        round: u64,
        rng: &mut R,
    ) {
        if self.local.is_none() {
            return; // certless: cannot authenticate (the alert already fired)
        }
        // PA inputs must stay publicly verifiable (their relays serve as
        // evidence); everything else may use the session-MAC fast path.
        let use_mac = self.cfg.auth_mode == AuthMode::SessionMac
            && !matches!(inner, Inner::PaValue { .. });
        if use_mac {
            let unit = self.local.as_ref().map(|k| k.unit).unwrap_or(0);
            if let Some(key) = self.session_key_for(to.0, unit) {
                let keys = self.local.as_ref().expect("checked above");
                if let Some(mmsg) = mac_certify(keys, &key, &inner.to_bytes(), self.me, to, round)
                {
                    let blob = Blob::MacCertified(mmsg).intern();
                    self.disperse.send(to, blob);
                    self.mac_sent += 1;
                    telemetry::count("uls/mac_sent", 1);
                    return;
                }
            }
            // No pinned peer key yet: fall back to signing below.
        }
        let keys = self.local.as_ref().expect("checked above");
        let Some(cmsg) = certify(keys, &inner.to_bytes(), self.me, to, round, rng) else {
            return;
        };
        let blob = Blob::Certified(cmsg).intern();
        self.disperse.send(to, blob);
        self.sig_sent += 1;
        telemetry::count("uls/sig_sent", 1);
    }

    /// Routes one verified certified message.
    fn dispatch_inner(&mut self, from: u32, inner: Inner, in_pa_window: bool) {
        match inner {
            Inner::Pds(bytes) => self.pds_inbox.push((NodeId(from), bytes)),
            Inner::App(bytes) => self.app_inbox.push((NodeId(from), bytes)),
            Inner::PaValue { subject, value } => {
                if in_pa_window {
                    self.pa
                        .entry(subject)
                        .or_insert_with(|| PaInstance::new(self.cfg.n))
                        .on_accepted_value(from, value);
                }
            }
        }
    }

    /// PARTIAL-AGREEMENT step 4: relayed step-1 messages about `subject`.
    ///
    /// Only evidence that can still change this node's decision — it would
    /// expose a majority member as a cheater, see
    /// [`PaInstance::evidence_matters`] — is put through VER-CERT (relaxed
    /// destination, bound to the step-1 round) and fed to the instance; the
    /// rest would leave the instance's decision as it is whether or not it
    /// verifies, so it is dropped unverified.
    fn on_evidence(
        &mut self,
        subject: u32,
        msgs: &[CertifiedMsg],
        time: &TimeView,
        v_cert: &BigUint,
    ) {
        // Evidence lands two rounds after OFF_PA_MAJ, and nowhere else.
        if !matches!(time.phase, Phase::RefreshPart1 { .. }) || time.round_in_unit != OFF_PA_MAJ + 2
        {
            return;
        }
        let pa_send_round = time.round - time.round_in_unit + OFF_PA_SEND;
        for msg in msgs {
            let exposing = match Inner::from_bytes(&msg.m) {
                Ok(Inner::PaValue { subject: s, value })
                    if s == subject
                        && self
                            .pa
                            .get(&subject)
                            .is_some_and(|inst| inst.evidence_matters(msg.i, &value)) =>
                {
                    value
                }
                _ => {
                    telemetry::count("pa/evidence_skipped", 1);
                    continue;
                }
            };
            let dest = DestCheck::AnyDestination;
            if !self.ver_cert(dest, time.auth_unit, pa_send_round, msg, v_cert) {
                telemetry::count("uls/rejected", 1);
                continue;
            }
            if let Some(inst) = self.pa.get_mut(&subject) {
                inst.on_evidence(msg.i, exposing);
            }
        }
    }

    /// Processes the full physical inbox of a round.
    fn process_inbox(&mut self, ctx: &RoundCtx<'_>) {
        let Some(v_cert) = Self::v_cert(ctx.rom) else {
            return;
        };
        let round = ctx.time.round;
        let auth_unit = ctx.time.auth_unit;
        let in_part1 = matches!(ctx.time.phase, Phase::RefreshPart1 { .. });
        // PA step-1 values land exactly two rounds after OFF_PA_SEND.
        let in_pa_window = in_part1 && ctx.time.round_in_unit == OFF_PA_SEND + 2;

        // Key announcements only mean something in this unit's announce
        // window; everything else in the inbox is DISPERSE's.
        if in_part1 && ctx.time.round_in_unit == OFF_ANNOUNCE + 1 {
            for env in ctx.inbox {
                if let Ok(UlsWire::KeyAnnounce { unit, vk }) = UlsWire::from_bytes(&env.payload) {
                    if unit == ctx.time.unit && !vk.is_empty() {
                        self.announces.entry(env.from.0).or_insert(vk);
                    }
                }
            }
        }

        let delivered = self
            .disperse
            .receive(ctx.inbox.iter().map(|env| &env.payload[..]));
        for (_, blob) in &delivered {
            let Ok(blob) = Blob::from_bytes(blob) else {
                continue;
            };
            match blob {
                Blob::Certified(cmsg) => {
                    if cmsg.i == self.me.0 {
                        continue;
                    }
                    if !self.ver_cert(
                        DestCheck::Me(self.me),
                        auth_unit,
                        round.saturating_sub(2),
                        &cmsg,
                        &v_cert,
                    ) {
                        telemetry::count("uls/rejected", 1);
                        continue;
                    }
                    let Ok(inner) = Inner::from_bytes(&cmsg.m) else {
                        continue;
                    };
                    let from = cmsg.i;
                    if let Inner::PaValue { subject, .. } = &inner {
                        self.pa_raw.entry((*subject, from)).or_insert(cmsg);
                    }
                    self.dispatch_inner(from, inner, in_pa_window);
                }
                Blob::MacCertified(mmsg) => {
                    let from = mmsg.i;
                    if from == self.me.0 || from == 0 || from > self.cfg.n as u32 {
                        continue;
                    }
                    // The sender's key is pinned once per unit (from my own
                    // PDS session, or by verifying the attached certificate
                    // now); after that the message must use exactly that key.
                    if !self.pins.contains_key(&(from, auth_unit)) && mmsg.u == auth_unit {
                        self.certified_key(from, auth_unit, &mmsg.vk, &mmsg.cert, &v_cert);
                    }
                    let pin = self.pins.get(&(from, auth_unit));
                    if pin.is_none_or(|pin| pin.vk != mmsg.vk) {
                        telemetry::count("uls/rejected", 1);
                        continue;
                    }
                    let Some(key) = self.session_key_for(from, auth_unit) else {
                        continue;
                    };
                    if !ver_mac(
                        self.me,
                        NodeId(from),
                        auth_unit,
                        round.saturating_sub(2),
                        &mmsg,
                        &key,
                    ) {
                        telemetry::count("uls/rejected", 1);
                        continue;
                    }
                    let Ok(inner) = Inner::from_bytes(&mmsg.m) else {
                        continue;
                    };
                    // PA values never arrive via MAC (not publicly
                    // verifiable); drop them defensively.
                    if matches!(inner, Inner::PaValue { .. }) {
                        continue;
                    }
                    self.dispatch_inner(from, inner, false);
                }
                Blob::CertDeliver {
                    subject,
                    unit,
                    vk,
                    cert,
                } => {
                    if subject != self.me.0 || unit != ctx.time.unit {
                        continue;
                    }
                    // Only a certificate I still lack, for the key I
                    // announced, is worth checking.
                    let wanted = self
                        .pending_new
                        .as_ref()
                        .is_some_and(|p| p.cert.is_none() && p.vk_bytes() == vk);
                    if wanted
                        && self
                            .certified_key(subject, unit, &vk, &cert, &v_cert)
                            .is_some()
                    {
                        if let Some(pending) = &mut self.pending_new {
                            pending.cert = Some(cert);
                        }
                    }
                }
                // A lone `Evidence` (no honest node sends one any more, an
                // adversary may) is a bundle of one.
                Blob::Evidence { subject, msg } => {
                    self.on_evidence(subject, std::slice::from_ref(&msg), &ctx.time, &v_cert);
                }
                Blob::EvidenceBundle { subject, msgs } => {
                    self.on_evidence(subject, &msgs, &ctx.time, &v_cert);
                }
            }
        }
    }

    /// Runs one PDS logical tick, wrapping its output in AUTH-SEND.
    fn pds_tick(&mut self, ctx: &mut RoundCtx<'_>, time: PdsTime) {
        if let Some(v_cert) = Self::v_cert(ctx.rom) {
            self.pds.set_public_key(v_cert);
        }
        let inbox = std::mem::take(&mut self.pds_inbox);
        let outs = self.pds.on_logical_round(time, &inbox, ctx.rng);
        for env in outs {
            self.auth_send(
                env.to,
                &Inner::Pds(env.payload.to_vec()),
                ctx.time.round,
                ctx.rng,
            );
        }
        // Harvest completed signatures: certificates and USign results.
        for rec in self.pds.take_completed() {
            if let Some((subject, cert_unit, vk)) = parse_key_statement(&rec.msg) {
                if cert_unit == rec.unit {
                    self.certs_out.insert(subject.0, (vk.clone(), rec.sig.clone()));
                    if subject != self.me {
                        self.pin_signed(subject, cert_unit, &vk, &rec.sig);
                    }
                    if subject == self.me {
                        if let Some(pending) = &mut self.pending_new {
                            if pending.cert.is_none() && pending.vk_bytes() == vk {
                                pending.cert = Some(rec.sig.clone());
                            }
                        }
                    }
                    continue;
                }
            }
            telemetry::count("pds/signed", 1);
            ctx.emit(OutputEvent::Signed {
                msg: rec.msg,
                unit: rec.unit,
            });
        }
    }

    /// Runs one app (π) logical tick.
    fn app_tick(&mut self, ctx: &mut RoundCtx<'_>) {
        let accepted = std::mem::take(&mut self.app_inbox);
        let input = self.app_inputs.pop_front();
        let mut app_ctx = AppCtx {
            unit: ctx.time.unit,
            logical_round: self.app_logical_round,
            me: self.me,
            n: self.cfg.n,
            accepted: &accepted,
            input: input.as_deref(),
            sends: Vec::new(),
            outputs: Vec::new(),
        };
        self.app.on_logical_round(&mut app_ctx);
        self.app_logical_round += 1;
        let sends = std::mem::take(&mut app_ctx.sends);
        let outputs = std::mem::take(&mut app_ctx.outputs);
        for ev in outputs {
            ctx.emit(ev);
        }
        for (to, msg) in sends {
            ctx.emit(OutputEvent::Sent {
                to,
                msg: msg.clone(),
            });
            self.auth_send(to, &Inner::App(msg), ctx.time.round, ctx.rng);
        }
        // Surface accepted messages in the output log (external view).
        telemetry::count("uls/accepted", accepted.len() as u64);
        for (from, msg) in &accepted {
            ctx.emit(OutputEvent::Accepted {
                from: *from,
                msg: msg.clone(),
            });
        }
    }

    fn alert(&mut self, ctx: &mut RoundCtx<'_>) {
        self.alerts_raised += 1;
        telemetry::count("uls/alerts", 1);
        ctx.emit(OutputEvent::Alert);
    }

    /// Refresh Part I actions, per offset.
    fn part1_actions(&mut self, ctx: &mut RoundCtx<'_>, off: u64) {
        let unit = ctx.time.unit;
        match off {
            OFF_ANNOUNCE => {
                // Fresh keys, announced in the clear.
                self.announces.clear();
                self.pa.clear();
                self.pa_raw.clear();
                self.certs_out.clear();
                // No certificate of this unit exists yet, so no pin for it
                // can have been earned: whatever is there was planted in a
                // break-in, and must not outlive the refresh that ends it.
                self.retain_pins(|u| u < unit);
                let keys = LocalKeys::generate(&self.cfg.group, unit, ctx.rng);
                let announce = UlsWire::KeyAnnounce {
                    unit,
                    vk: keys.vk_bytes(),
                };
                self.announces.insert(self.me.0, keys.vk_bytes());
                self.pending_new = Some(keys);
                telemetry::count("uls/announces", 1);
                // One encode, one outbox entry for the whole broadcast.
                ctx.send_all(announce.to_payload());
            }
            OFF_PA_SEND => {
                // PA step 1: AUTH-SEND each received value to everyone.
                let announces = self.announces.clone();
                for (subject, value) in announces {
                    let inner = Inner::PaValue {
                        subject,
                        value: value.clone(),
                    };
                    // Seed my own instance with my own certified view.
                    self.pa
                        .entry(subject)
                        .or_insert_with(|| PaInstance::new(self.cfg.n))
                        .on_accepted_value(self.me.0, value);
                    for to in NodeId::all(self.cfg.n) {
                        if to != self.me {
                            self.auth_send(to, &inner, ctx.time.round, ctx.rng);
                        }
                    }
                }
            }
            OFF_PA_MAJ => {
                // PA steps 2–3: fix majorities; relay majority members'
                // certified messages as evidence. All of my relays for one
                // subject ride a single EvidenceBundle per destination —
                // Θ(n²) envelopes per refresh, not one DISPERSE per member.
                let subjects: Vec<u32> = self.pa.keys().copied().collect();
                for subject in subjects {
                    let members = {
                        let inst = self.pa.get_mut(&subject).expect("instance");
                        inst.fix_majority();
                        inst.majority_members()
                    };
                    let msgs: Vec<CertifiedMsg> = members
                        .iter()
                        .filter(|&&m| m != self.me.0) // others got my step-1 send directly
                        .filter_map(|&m| self.pa_raw.get(&(subject, m)).cloned())
                        .collect();
                    if msgs.is_empty() {
                        continue;
                    }
                    let blob = Blob::EvidenceBundle { subject, msgs }.intern();
                    for to in NodeId::all(self.cfg.n) {
                        if to != self.me {
                            self.disperse.send(to, blob.clone());
                        }
                    }
                }
            }
            OFF_PA_DECIDE => {
                // PA step 5 + certificate requests.
                let subjects: Vec<u32> = self.pa.keys().copied().collect();
                for subject in subjects {
                    let decided = self.pa.get(&subject).and_then(PaInstance::decide);
                    if let Some(value) = decided {
                        telemetry::count("pa/decided", 1);
                        let statement = key_statement(NodeId(subject), unit, &value);
                        self.pds.request_sign(statement, unit);
                    }
                }
            }
            OFF_CERT_DELIVER => {
                // Deliver certificates to their subjects.
                let certs = self.certs_out.clone();
                for (subject, (vk, cert)) in certs {
                    if subject == self.me.0 {
                        continue;
                    }
                    let blob = Blob::CertDeliver {
                        subject,
                        unit,
                        vk,
                        cert,
                    }
                    .intern();
                    self.disperse.send(NodeId(subject), blob);
                }
            }
            OFF_ADOPT => {
                // Adopt the certified keys — or alert (URfr I.5).
                let adopted = match self.pending_new.take() {
                    Some(keys) if keys.is_certified() => {
                        self.local = Some(keys);
                        true
                    }
                    _ => {
                        self.local = None;
                        false
                    }
                };
                if !adopted {
                    // A certless node cannot take part in the share refresh;
                    // its share will be stale, so route it to recovery.
                    self.pds.mark_share_lost();
                    self.alert(ctx);
                }
                // From the next round on only this unit's keys authenticate
                // anything: older pins are dead weight.
                self.retain_pins(|u| u == unit);
            }
            _ => {}
        }
        // PDS signing ticks during Part I (odd offsets from OFF_PA_DECIDE).
        if (OFF_PA_DECIDE..OFF_CERT_DELIVER).contains(&off) && (off - OFF_PA_DECIDE).is_multiple_of(2) {
            self.pds_tick(
                ctx,
                PdsTime {
                    unit,
                    phase: PdsPhase::Normal,
                },
            );
        }
    }
}

impl<A: AlProtocol> Process for UlsNode<A> {
    fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
        // Rounds 0–1: DKG over faithful links.
        if ctx.setup_round <= 1 {
            let inbox: Vec<_> = ctx
                .inbox
                .iter()
                .map(|e| (e.from, e.payload.to_vec()))
                .collect();
            for env in self.pds.on_setup_round(ctx.setup_round, &inbox, ctx.rng) {
                ctx.send(env.to, env.payload);
            }
            if ctx.setup_round == 1 {
                // Burn the global verification key into ROM (§4.2.1) and
                // generate + announce unit-0 local keys.
                let pk = self.pds.public_key().expect("DKG done");
                ctx.rom.write("v_cert", pk);
                let keys = LocalKeys::generate(&self.cfg.group, 0, ctx.rng);
                self.setup_vks.insert(self.me.0, keys.vk_bytes());
                for to in NodeId::all(self.cfg.n) {
                    if to != self.me {
                        ctx.send(to, keys.vk_bytes());
                    }
                }
                self.pending_new = Some(keys);
            }
            return;
        }
        // Round 2: collect announced keys, request certificates for all.
        if ctx.setup_round == 2 {
            for env in ctx.inbox {
                self.setup_vks
                    .entry(env.from.0)
                    .or_insert_with(|| env.payload.to_vec());
            }
            let vks = self.setup_vks.clone();
            for (subject, vk) in vks {
                self.pds
                    .request_sign(key_statement(NodeId(subject), 0, &vk), 0);
            }
        }
        // Rounds 2..: drive the PDS over faithful links (messages travel
        // bare — the setup phase is adversary-free), one tick per round.
        let inbox: Vec<_> = ctx
            .inbox
            .iter()
            .map(|e| (e.from, e.payload.to_vec()))
            .collect();
        let outs = self.pds.on_logical_round(
            PdsTime {
                unit: 0,
                phase: PdsPhase::Normal,
            },
            &inbox,
            ctx.rng,
        );
        for env in outs {
            ctx.send(env.to, env.payload);
        }
        for rec in self.pds.take_completed() {
            if let Some((subject, 0, vk)) = parse_key_statement(&rec.msg) {
                if subject == self.me {
                    if let Some(pending) = &mut self.pending_new {
                        if pending.cert.is_none() && pending.vk_bytes() == vk {
                            pending.cert = Some(rec.sig.clone());
                        }
                    }
                } else {
                    self.pin_signed(subject, 0, &vk, &rec.sig);
                }
            }
        }
        // Final setup round: adopt unit-0 keys.
        if ctx.setup_round + 1 == SETUP_ROUNDS {
            if let Some(keys) = self.pending_new.take() {
                if keys.is_certified() {
                    self.local = Some(keys);
                }
            }
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        // External inputs.
        if let Some(input) = ctx.input {
            match input.split_first() {
                Some((&1, msg)) => {
                    let msg = msg.to_vec();
                    ctx.emit(OutputEvent::SignRequested {
                        msg: msg.clone(),
                        unit: ctx.time.unit,
                    });
                    self.pds.request_sign(msg, ctx.time.unit);
                }
                Some((&2, bytes)) => self.app_inputs.push_back(bytes.to_vec()),
                _ => {}
            }
        }

        self.process_inbox(ctx);

        match ctx.time.phase {
            Phase::RefreshPart1 { step } => self.part1_actions(ctx, step),
            Phase::RefreshPart2 { step } => {
                if step % 2 == 0 && step / 2 <= 6 {
                    let was_failed_before = self.pds.refresh_failed();
                    self.pds_tick(
                        ctx,
                        PdsTime {
                            unit: ctx.time.unit,
                            phase: PdsPhase::Refresh { step: step / 2 },
                        },
                    );
                    // Alert on refresh failure (URfr Part II, §4.2.3).
                    if step / 2 == 6 && self.pds.refresh_failed() && !was_failed_before {
                        self.alert(ctx);
                    }
                }
            }
            Phase::Normal => {
                let tick_parity = if ctx.time.unit == 0 {
                    ctx.time.round_in_unit.is_multiple_of(2)
                } else {
                    (ctx.time.round_in_unit - (PART1_ROUNDS + PART2_ROUNDS)).is_multiple_of(2)
                };
                if tick_parity {
                    self.pds_tick(
                        ctx,
                        PdsTime {
                            unit: ctx.time.unit,
                            phase: PdsPhase::Normal,
                        },
                    );
                    self.app_tick(ctx);
                }
            }
        }

        for entry in self.disperse.drain_outgoing() {
            ctx.send_many(entry.to, entry.payload);
        }
    }

    fn state_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authenticator::HeartbeatApp;
    use crate::wire::DisperseView;
    use proauth_crypto::group::GroupId;
    use proauth_sim::adversary::{BreakPlan, FaithfulUl, NetView, UlAdversary};
    use proauth_sim::message::{Envelope, OutputLog};
    use proauth_sim::runner::{run_ul, SimConfig};
    use proauth_sim::Telemetry;
    use std::sync::{Arc, Mutex};

    const N: usize = 5;
    const T: usize = 2;
    const NORMAL: u64 = 12;

    fn unit_rounds() -> u64 {
        uls_schedule(NORMAL).unit_rounds
    }

    fn make_node(mode: AuthMode) -> impl Fn(NodeId) -> UlsNode<HeartbeatApp> {
        move |id| {
            let mut c = UlsConfig::new(Group::new(GroupId::Toy64), N, T);
            c.auth_mode = mode;
            UlsNode::new(c, id, HeartbeatApp::default())
        }
    }

    /// What a metered run shows from outside.
    struct Metered {
        /// The nodes' own output (the runner's verdicts on who counts as
        /// compromised — any injection moves those — left out).
        outputs: Vec<OutputLog>,
        alerts: u64,
        telemetry: Telemetry,
    }

    impl Metered {
        fn counter(&self, name: &str) -> u64 {
            self.telemetry.counter(name)
        }

        /// Message signatures verified (VER-CERT step 3).
        fn signatures_verified(&self) -> u64 {
            let snapshot = self.telemetry.snapshot().expect("telemetry on");
            snapshot
                .hists
                .get("crypto/verify_ns")
                .map_or(0, |h| h.total)
        }
    }

    fn sim_cfg(units: u64, seed: u64) -> SimConfig {
        let mut c = SimConfig::new(N, T, uls_schedule(NORMAL));
        c.setup_rounds = SETUP_ROUNDS;
        c.total_rounds = unit_rounds() * units;
        c.seed = seed;
        c
    }

    fn run_metered(units: u64, adv: &mut impl UlAdversary) -> Metered {
        let mut c = sim_cfg(units, 31);
        let telemetry = Telemetry::enabled();
        c.telemetry = telemetry.clone();
        let mut result = run_ul(c, make_node(AuthMode::Sign), adv);
        for log in &mut result.outputs {
            log.retain(|(_, ev)| !matches!(ev, OutputEvent::Compromised | OutputEvent::Recovered));
        }
        Metered {
            outputs: result.outputs,
            alerts: result.stats.alerts.iter().sum(),
            telemetry,
        }
    }

    /// The body and claimed origin of a `Forwarding`.
    fn forwarding(env: &Envelope) -> Option<(u32, &[u8])> {
        match DisperseView::parse(&env.payload)? {
            DisperseView::Forwarding { origin, body } => Some((origin, body)),
            DisperseView::Forward { .. } => None,
        }
    }

    fn inject(out: &mut Vec<Envelope>, origin: u32, to: NodeId, blob: &Blob) {
        let body = blob.to_bytes();
        let wire = DisperseView::Forwarding {
            origin,
            body: &body,
        };
        out.push(Envelope::new(NodeId(origin), to, wire.to_payload()));
    }

    /// Re-sends node 1's certified messages to node 2 with one certificate
    /// byte flipped, next to the originals, through unit 1's normal phase —
    /// when node 2 has long pinned node 1's certificate.
    #[derive(Default)]
    struct CertFlipper {
        flipped: u64,
    }

    impl UlAdversary for CertFlipper {
        fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
            let mut out = sent.to_vec();
            if view.time.unit != 1 || view.time.phase != Phase::Normal {
                return out;
            }
            // One copy per round is plenty: the first relay's.
            let copy = sent
                .iter()
                .filter(|env| env.to == NodeId(2))
                .find_map(|env| {
                    let (origin, body) = forwarding(env)?;
                    match Blob::from_bytes(body) {
                        Ok(Blob::Certified(cmsg)) if origin == 1 && cmsg.i == 1 => Some(cmsg),
                        _ => None,
                    }
                });
            if let Some(mut cmsg) = copy {
                let mut cert = cmsg.cert.to_bytes();
                *cert.last_mut().expect("non-empty") ^= 1;
                cmsg.cert = Signature::from_bytes(&cert).expect("same lengths");
                inject(&mut out, 1, NodeId(2), &Blob::Certified(cmsg));
                self.flipped += 1;
            }
            out
        }
    }

    #[test]
    fn flipped_certificate_byte_on_pinned_sender_is_rejected() {
        // Three units, so that every copy injected in unit 1 also arrives.
        let clean = run_metered(3, &mut FaithfulUl);
        let mut adv = CertFlipper::default();
        let attacked = run_metered(3, &mut adv);
        assert!(adv.flipped > 0, "attack actually ran");
        // Message, signature and key are the pinned sender's own; only the
        // certificate differs from the pinned one. That is a miss, not a
        // hit: the certificate is verified, fails, and the copy is rejected.
        assert_eq!(clean.counter("uls/rejected"), 0);
        assert_eq!(attacked.counter("uls/rejected"), adv.flipped);
        assert_eq!(
            attacked.counter("uls/certs_checked") - clean.counter("uls/certs_checked"),
            adv.flipped,
            "each flipped copy costs its own certificate check"
        );
        assert_eq!(attacked.signatures_verified(), clean.signatures_verified());
        assert_eq!(attacked.outputs, clean.outputs);
    }

    /// Every round of unit 1, every node gets a `CertDeliver` with a junk
    /// certificate in its own name: on even rounds for the key it really
    /// announced (read off the wire), on odd rounds for a junk key.
    #[derive(Default)]
    struct JunkCertDeliverer {
        announced: BTreeMap<NodeId, Vec<u8>>,
        /// Junk deliveries that named the victim's real key.
        plausible: u64,
    }

    impl UlAdversary for JunkCertDeliverer {
        fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
            let mut out = sent.to_vec();
            if view.time.unit != 1 {
                return out;
            }
            for env in sent {
                if let Ok(UlsWire::KeyAnnounce { unit: 1, vk }) = UlsWire::from_bytes(&env.payload)
                {
                    self.announced.insert(env.from, vk);
                }
            }
            for to in NodeId::all(view.n) {
                let real = self
                    .announced
                    .get(&to)
                    .filter(|_| view.time.round.is_multiple_of(2));
                self.plausible += u64::from(real.is_some());
                let blob = Blob::CertDeliver {
                    subject: to.0,
                    unit: 1,
                    vk: real.cloned().unwrap_or_else(|| vec![7; 8]),
                    cert: Signature {
                        e: BigUint::from_u64(view.time.round),
                        s: BigUint::from_u64(3),
                    },
                };
                inject(&mut out, to.0 % N as u32 + 1, to, &blob);
            }
            out
        }
    }

    #[test]
    fn junk_cert_deliveries_cost_their_own_check_and_nothing_else() {
        let clean = run_metered(2, &mut FaithfulUl);
        let mut adv = JunkCertDeliverer::default();
        let attacked = run_metered(2, &mut adv);
        assert!(adv.plausible > 0, "attack actually ran");
        // Nobody's view changes, and no honest message is verified twice or
        // down a slower path because junk shared its inbox.
        assert_eq!(attacked.outputs, clean.outputs);
        assert_eq!((attacked.alerts, clean.alerts), (0, 0));
        assert_eq!(attacked.signatures_verified(), clean.signatures_verified());
        // A junk certificate is checked only while it could be the one the
        // node is waiting for, and then once.
        let extra = attacked.counter("uls/certs_checked") - clean.counter("uls/certs_checked");
        assert!(
            (1..=adv.plausible).contains(&extra),
            "{extra} extra certificate checks for {} plausible junk deliveries",
            adv.plausible
        );
    }

    /// The units of a node's pins and of its session keys, on entry to a round.
    type MapLog = Arc<Mutex<Vec<(TimeView, Vec<u64>, Vec<u64>)>>>;

    /// A ULS node that logs its per-unit maps on entry to every round.
    struct Probed {
        node: UlsNode<HeartbeatApp>,
        log: MapLog,
    }

    impl Process for Probed {
        fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
            self.node.on_setup_round(ctx);
        }

        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            let units = |keys: Vec<&(u32, u64)>| keys.into_iter().map(|&(_, u)| u).collect();
            self.log.lock().unwrap().push((
                ctx.time,
                units(self.node.pins.keys().collect()),
                units(self.node.session_keys.keys().collect()),
            ));
            self.node.on_round(ctx);
        }

        fn state_mut(&mut self) -> &mut dyn std::any::Any {
            &mut self.node
        }
    }

    /// Sits on node 2 for two rounds from round `at`, doing `act` to its
    /// memory, and otherwise leaves the network alone.
    struct Intruder {
        at: u64,
        act: fn(&mut UlsNode<HeartbeatApp>),
    }

    impl UlAdversary for Intruder {
        fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
            if view.time.round == self.at {
                BreakPlan::break_into([NodeId(2)])
            } else if view.time.round == self.at + 2 {
                BreakPlan::leave([NodeId(2)])
            } else {
                BreakPlan::none()
            }
        }

        fn corrupt(&mut self, _id: NodeId, state: &mut dyn std::any::Any, _time: &TimeView) {
            (self.act)(state.downcast_mut().expect("ULS node"));
        }

        fn deliver(&mut self, sent: &[Envelope], _view: &NetView<'_>) -> Vec<Envelope> {
            sent.to_vec()
        }
    }

    /// Plants a pin and a session key in node 1's name for unit 2 (for a key
    /// the node holds: its own of unit 1).
    fn plant_pin_for_unit_2(node: &mut UlsNode<HeartbeatApp>) {
        let own = node.steal_local_keys().expect("certified in unit 1");
        node.pins.insert(
            (1, 2),
            Pin {
                vk: own.vk_bytes(),
                cert: own.cert.clone().expect("certified"),
                key: own.signing.verify_key().clone(),
            },
        );
        node.session_keys.insert((1, 2), [9; 32]);
    }

    #[test]
    fn pins_planted_for_a_later_unit_do_not_survive_into_it() {
        let c = sim_cfg(3, 33);
        let log = MapLog::default();
        let make = make_node(AuthMode::SessionMac);
        let planted_at = unit_rounds() + PART1_ROUNDS + PART2_ROUNDS + 4;
        let result = run_ul(
            c,
            |id| Probed {
                node: make(id),
                log: if id == NodeId(2) {
                    log.clone()
                } else {
                    MapLog::default()
                },
            },
            &mut Intruder {
                at: planted_at,
                act: plant_pin_for_unit_2,
            },
        );
        let log = log.lock().unwrap();
        let pins_of_unit_2 = |round: u64| {
            let (_, pins, session_keys) = log.iter().find(|(t, ..)| t.round == round).expect("ran");
            let count = |units: &Vec<u64>| units.iter().filter(|&&u| u == 2).count();
            (count(pins), count(session_keys))
        };
        // There when the adversary leaves, gone once unit 2's refresh has
        // begun — before the first message of that unit could use them.
        assert_eq!(pins_of_unit_2(planted_at + 2), (1, 1));
        assert_eq!(pins_of_unit_2(2 * unit_rounds() + OFF_ANNOUNCE + 1), (0, 0));
        // The slot was free for the real certificate: node 2 hears node 1
        // again in unit 2.
        let after_refresh = 2 * unit_rounds() + PART1_ROUNDS + PART2_ROUNDS;
        assert!(result.outputs[NodeId(2).idx()].iter().any(|(round, ev)| {
            *round > after_refresh
                && matches!(ev, OutputEvent::Accepted { from, .. } if *from == NodeId(1))
        }));
    }

    #[test]
    fn per_unit_maps_stay_bounded_and_die_with_their_keys() {
        let c = sim_cfg(6, 32);
        let logs: Vec<MapLog> = (0..N).map(|_| MapLog::default()).collect();
        let wipe_at = 2 * unit_rounds() + PART1_ROUNDS + PART2_ROUNDS + 4;
        let make = make_node(AuthMode::SessionMac);
        run_ul(
            c,
            |id| Probed {
                node: make(id),
                log: logs[id.idx()].clone(),
            },
            &mut Intruder {
                at: wipe_at,
                act: UlsNode::corrupt_wipe,
            },
        );
        for (idx, log) in logs.iter().enumerate() {
            let log = log.lock().unwrap();
            for (time, pins, session_keys) in log.iter() {
                // Two units' worth while a refresh runs (old keys still
                // authenticate, new ones are being certified), one otherwise:
                // adoption leaves nothing of other units behind.
                let adopted = time.unit == 0 || time.round_in_unit > OFF_ADOPT;
                let bound = if adopted { N } else { 2 * N };
                assert!(pins.len() <= bound, "node {idx} {time:?}: pins {pins:?}");
                assert!(
                    session_keys.len() <= bound,
                    "node {idx} {time:?}: {session_keys:?}"
                );
                if adopted {
                    let stale = |units: &Vec<u64>| units.iter().any(|&u| u != time.unit);
                    assert!(!stale(pins) && !stale(session_keys), "node {idx} {time:?}");
                }
            }
            // The maps were in use: at the end everyone else is pinned and
            // keyed (node 2 included — it recovered in unit 3).
            let (_, pins, session_keys) = log.last().expect("rounds ran");
            assert!(
                pins.len() >= N - 1 && session_keys.len() == N - 1,
                "node {idx}"
            );
        }
        // A break-in empties them: node 2's first round back starts blank.
        let log = logs[1].lock().unwrap();
        let (_, pins, session_keys) = log
            .iter()
            .find(|(time, ..)| time.round >= wipe_at)
            .expect("node 2 ran again");
        assert!(pins.is_empty() && session_keys.is_empty());
    }
}

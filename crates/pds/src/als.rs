//! The bundled AL-model PDS (`ALS = ⟨AGen, ASign, AVer, ARfr⟩` of §4):
//! threshold Schnorr with joint-Feldman key generation and proactive refresh,
//! packaged as an [`AlPds`] state machine.
//!
//! * `AGen` — joint-Feldman DKG during the adversary-free setup phase
//!   (2 logical rounds);
//! * `ASign` — [`crate::sign_session`] (2 logical rounds + retries);
//! * `AVer` — plain Schnorr verification against the joint public key
//!   ([`AlsPds::verify`]);
//! * `ARfr` — [`crate::refresh_session`] (7 logical steps inside the
//!   refresh phase), including Herzberg-style share recovery.
//!
//! The machine is deliberately oblivious to transport: `proauth-pds::AlsProcess`
//! runs it directly over authenticated links, while `proauth-core`'s ULS
//! wraps the very same machine in `AUTH-SEND` (Theorem 14's construction).

use crate::api::{AlPds, PdsEnvelope, PdsPhase, PdsTime, SignatureRecord};
use crate::msg::{sid_for_scoped, signing_payload, AlsMsg, Sid};
use crate::refresh_session::{Dest, RefreshSession};
use crate::sign_session::SignSession;
use proauth_telemetry as telemetry;
use proauth_crypto::dkg::{self, KeyShare, ReceivedDealing};
use proauth_crypto::group::Group;
use proauth_crypto::schnorr::{Signature, VerifyKey};
use proauth_crypto::thresh::{Nonce, SignerPrecomp};
use proauth_primitives::bigint::BigUint;
use proauth_primitives::wire::{Decode, Encode, InternedBlob};
use proauth_sim::message::NodeId;
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// Static parameters of an ALS instance.
#[derive(Debug, Clone)]
pub struct AlsConfig {
    /// The Schnorr group.
    pub group: Group,
    /// Number of nodes.
    pub n: usize,
    /// Threshold: `t+1` signers produce a signature; at most `t` may be
    /// broken per time unit (`n ≥ 2t + 1`).
    pub t: usize,
    /// Cap on concurrently live sign sessions per node; requests beyond it
    /// are rejected for the round (open-loop back-pressure).
    pub max_sessions: usize,
    /// Sessions older than this many ticks are garbage-collected as failed
    /// (a session normally completes in ≤ 5 ticks).
    pub session_max_age: u32,
    /// Responder-side batch-verification window: completed signatures are
    /// verified in amortized flushes of up to this many items. `≤ 1` turns
    /// amortization off (per-item verification). Also gates the in-session
    /// RLC partial batching.
    pub verify_window: usize,
    /// Instance scope mixed into every session id, isolating concurrent PDS
    /// instances (per-cluster locals and the top level of the §6 hierarchy)
    /// from one another. Empty = the flat, unscoped instance.
    pub sid_scope: Vec<u8>,
}

impl AlsConfig {
    /// Validates and builds a config with the default service knobs
    /// (64 concurrent sessions, age-16 GC and an 8-item verify window).
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 2t + 1` (Remark 4 of the paper).
    pub fn new(group: Group, n: usize, t: usize) -> Self {
        assert!(n > 2 * t, "PDS requires n >= 2t+1");
        AlsConfig {
            group,
            n,
            t,
            max_sessions: 64,
            session_max_age: 16,
            verify_window: 8,
            sid_scope: Vec::new(),
        }
    }

    /// The same config scoped to one PDS instance of a multi-instance
    /// deployment (see [`AlsConfig::sid_scope`]).
    pub fn scoped(mut self, scope: impl Into<Vec<u8>>) -> Self {
        self.sid_scope = scope.into();
        self
    }

    /// Whether in-session partial verification should run batch-first.
    pub fn batch_partials(&self) -> bool {
        self.verify_window > 1
    }
}

/// The per-node ALS state machine.
#[derive(Debug)]
pub struct AlsPds {
    cfg: AlsConfig,
    me: u32,
    /// This node's slice of the distributed key (`None` after a wipe).
    key: Option<KeyShare>,
    /// The joint public key (duplicated outside `key` so a recovering node
    /// still knows what to verify against; the ULS layer re-seeds this from
    /// ROM every round).
    public_key: Option<BigUint>,
    /// Explicitly flagged share loss (break-in recovery entry point).
    share_lost: bool,
    sessions: BTreeMap<Sid, SignSession>,
    pending_requests: Vec<(Vec<u8>, u64)>,
    completed: Vec<SignatureRecord>,
    refresh: Option<RefreshSession>,
    refresh_failed: bool,
    /// Dealings received during setup.
    setup_inbox: Vec<ReceivedDealing>,
    /// Lagrange coefficients per signer set. Public data: survives
    /// break-ins, warmed at the end of setup and of every refresh.
    lagrange: SignerPrecomp,
}

impl AlsPds {
    /// Creates the state machine for node `me`.
    pub fn new(cfg: AlsConfig, me: NodeId) -> Self {
        AlsPds {
            cfg,
            me: me.0,
            key: None,
            public_key: None,
            share_lost: false,
            sessions: BTreeMap::new(),
            pending_requests: Vec::new(),
            completed: Vec::new(),
            refresh: None,
            refresh_failed: false,
            setup_inbox: Vec::new(),
            lagrange: SignerPrecomp::new(),
        }
    }

    /// Creates the state machine for a node joining an *already keyed*
    /// instance without a share — a restarted or newly promoted member (the
    /// hierarchy's re-elected representatives enter the top-level PDS this
    /// way). The node knows the joint public key from trusted storage,
    /// participates in refresh as a share-lost party, and recovers a share
    /// through Herzberg recovery at the next refresh.
    pub fn recovering(cfg: AlsConfig, me: NodeId, public_key: BigUint) -> Self {
        let mut pds = Self::new(cfg, me);
        pds.public_key = Some(public_key);
        pds.share_lost = true;
        pds
    }

    /// Warms the public precomputation once a share is adopted (end of
    /// setup and of every refresh): memoizes the Lagrange coefficients for
    /// the signer set the next normal phase will fix absent faults (the
    /// lowest `t+1` indices), and promotes the share keys and joint public
    /// key into the group's fixed-base table cache so the online
    /// verification multi-exps run squaring-free from the first session.
    /// Retries against other signer sets memoize on first use instead.
    fn warm_offline(&mut self) {
        let expected: Vec<u32> = (1..=self.cfg.t as u32 + 1).collect();
        if self.lagrange.warm(&self.cfg.group, &expected) {
            telemetry::count("pds/lagrange_warmed", 1);
        }
        if let Some(key) = &self.key {
            for x in &key.share_keys {
                self.cfg.group.promote(x);
            }
        }
        if let Some(pk) = &self.public_key {
            self.cfg.group.promote(pk);
        }
    }

    /// The node's static config.
    pub fn config(&self) -> &AlsConfig {
        &self.cfg
    }

    /// Current key share (read access for break-in semantics and tests).
    pub fn key_share(&self) -> Option<&KeyShare> {
        self.key.as_ref()
    }

    /// `AVer`: verifies a signature on `(msg, unit)` against a public key.
    pub fn verify(group: &Group, public_key: &BigUint, msg: &[u8], unit: u64, sig: &Signature) -> bool {
        VerifyKey::from_element(group, public_key.clone())
            .map(|vk| vk.verify(&signing_payload(msg, unit), sig))
            .unwrap_or(false)
    }

    /// Break-in corruption: erase all volatile key material, the live sign
    /// sessions' secret nonces included.
    pub fn corrupt_wipe(&mut self) {
        self.key = None;
        self.public_key = None;
        self.sessions.clear();
        self.pending_requests.clear();
        self.refresh = None;
        // `self.lagrange` is deliberately NOT cleared: Lagrange coefficients
        // are public functions of the signer indices, so a break-in learns
        // nothing from them and recovery keeps the warm cache.
    }

    /// This node's secret nonces in its live sign sessions: everything a
    /// break-in reads besides the share (tests). Each is drawn when its
    /// session starts or retries, and sessions never outlive a refresh, so
    /// none is ever combined with a later share.
    pub fn session_nonces(&self) -> impl Iterator<Item = &Nonce> {
        self.sessions.values().filter_map(|s| s.my_nonce.as_ref())
    }

    /// The joint public key as a group element, once known.
    pub fn public_key_element(&self) -> Option<&BigUint> {
        self.public_key.as_ref()
    }

    /// Break-in corruption: overwrite the share with garbage (the node is
    /// *not* told — detection happens via the self-consistency check).
    pub fn corrupt_share(&mut self, garbage: BigUint) {
        if let Some(k) = &mut self.key {
            k.share = garbage;
        }
    }

    /// Re-seeds the public key from trusted storage (the ULS layer calls
    /// this each round with the ROM copy of `v_cert`).
    pub fn set_public_key(&mut self, pk: BigUint) {
        self.public_key = Some(pk);
    }

    /// Whether this node's key material is currently usable.
    fn key_usable(&self) -> bool {
        !self.share_lost
            && self
                .key
                .as_ref()
                .is_some_and(|k| k.self_consistent(&self.cfg.group))
    }

    fn route(&mut self, from: u32, payload: &[u8]) {
        let Ok(msg) = AlsMsg::from_bytes(payload) else {
            return; // garbage (possibly adversarial): drop
        };
        match &msg {
            AlsMsg::SignInit { sid, .. }
            | AlsMsg::SignRetryNonce { sid, .. }
            | AlsMsg::SignPartial { sid, .. }
            | AlsMsg::SignDone { sid, .. } => {
                let pk = self.public_key.clone();
                if let (Some(session), Some(pk)) = (self.sessions.get_mut(sid), pk) {
                    session.handle(&self.cfg.group, &pk, from, &msg);
                }
            }
            AlsMsg::GenDeal { .. } => { /* setup only; ignore post-setup */ }
            _ => {
                if let Some(refresh) = &mut self.refresh {
                    refresh.handle(from, &msg);
                }
            }
        }
    }

    fn expand(&self, dest: Dest, msg: AlsMsg) -> Vec<PdsEnvelope> {
        // One encoding per logical message; broadcast clones are handle
        // bumps on the shared interned bytes.
        let payload = InternedBlob::from(msg.to_bytes());
        match dest {
            Dest::One(to) => vec![PdsEnvelope {
                to: NodeId(to),
                payload,
            }],
            Dest::All => (1..=self.cfg.n as u32)
                .filter(|&j| j != self.me)
                .map(|j| PdsEnvelope {
                    to: NodeId(j),
                    payload: payload.clone(),
                })
                .collect(),
        }
    }

    fn drain_finished_sessions(&mut self) {
        let done: Vec<Sid> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.is_done() || s.is_failed() || s.age() > self.cfg.session_max_age)
            .map(|(sid, _)| *sid)
            .collect();
        for sid in done {
            let session = self.sessions.remove(&sid).expect("present");
            match session.result() {
                Some(sig) => {
                    telemetry::count("pds/sign_completed", 1);
                    telemetry::observe_value("pds/sign_latency_rounds", u64::from(session.age()));
                    self.completed.push(SignatureRecord {
                        msg: session.msg.clone(),
                        unit: session.unit,
                        sig: sig.clone(),
                    });
                }
                None if session.is_failed() => telemetry::count("pds/sign_failed", 1),
                None => telemetry::count("pds/sign_expired", 1),
            }
        }
    }
}

impl AlPds for AlsPds {
    fn setup_rounds(&self) -> u64 {
        2
    }

    fn on_setup_round(
        &mut self,
        round: u64,
        inbox: &[(NodeId, Vec<u8>)],
        rng: &mut StdRng,
    ) -> Vec<PdsEnvelope> {
        match round {
            0 => {
                // AGen: every node deals a random contribution.
                let dealing = dkg::deal(&self.cfg.group, self.cfg.t, self.cfg.n, rng);
                self.setup_inbox.push(ReceivedDealing {
                    dealer: self.me,
                    commitments: dealing.commitments.clone(),
                    share: dealing.share_for(self.me).clone(),
                });
                (1..=self.cfg.n as u32)
                    .filter(|&j| j != self.me)
                    .map(|j| PdsEnvelope {
                        to: NodeId(j),
                        payload: AlsMsg::GenDeal {
                            commitments: dealing.commitments.clone(),
                            share: dealing.share_for(j).clone(),
                        }
                        .to_bytes()
                        .into(),
                    })
                    .collect()
            }
            1 => {
                for (from, payload) in inbox {
                    if let Ok(AlsMsg::GenDeal { commitments, share }) =
                        AlsMsg::from_bytes(payload)
                    {
                        self.setup_inbox.push(ReceivedDealing {
                            dealer: from.0,
                            commitments,
                            share,
                        });
                    }
                }
                self.setup_inbox.sort_by_key(|d| d.dealer);
                let key = dkg::aggregate(
                    &self.cfg.group,
                    self.cfg.t,
                    self.cfg.n,
                    self.me,
                    &self.setup_inbox,
                )
                .expect("setup is adversary-free");
                self.public_key = Some(key.public_key.clone());
                self.key = Some(key);
                self.setup_inbox.clear();
                self.warm_offline();
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn public_key(&self) -> Option<Vec<u8>> {
        self.public_key.as_ref().map(|pk| pk.to_bytes_be())
    }

    fn request_sign(&mut self, msg: Vec<u8>, unit: u64) {
        self.pending_requests.push((msg, unit));
    }

    fn on_logical_round(
        &mut self,
        time: PdsTime,
        inbox: &[(NodeId, Vec<u8>)],
        rng: &mut StdRng,
    ) -> Vec<PdsEnvelope> {
        // 1. Route incoming messages.
        for (from, payload) in inbox {
            self.route(from.0, payload);
        }

        let mut out: Vec<PdsEnvelope> = Vec::new();
        match time.phase {
            PdsPhase::Refresh { step } => {
                // Abort in-flight signing sessions: shares are about to
                // change, and each session's nonce dies with it.
                if step == 0 {
                    telemetry::count("pds/refresh_started", 1);
                    if !self.sessions.is_empty() {
                        telemetry::count("pds/sign_aborted", self.sessions.len() as u64);
                    }
                    self.sessions.clear();
                    self.refresh_failed = false;
                    let old_key = if self.key_usable() {
                        self.key.clone()
                    } else {
                        None
                    };
                    self.refresh = Some(RefreshSession::new(
                        &self.cfg.group,
                        self.me,
                        self.cfg.n,
                        self.cfg.t,
                        time.unit,
                        old_key,
                    ));
                }
                if let Some(refresh) = &mut self.refresh {
                    if refresh.unit() == time.unit {
                        let outs =
                            telemetry::timed("pds/refresh_step_ns", || refresh.step(step, rng));
                        for (dest, msg) in outs {
                            out.extend(self.expand(dest, msg));
                        }
                    }
                    if step >= 6 {
                        if let Some(refresh) = self.refresh.take() {
                            let outcome = refresh.outcome();
                            self.refresh_failed = outcome.failed;
                            telemetry::count(
                                if outcome.failed {
                                    "pds/refresh_failed"
                                } else {
                                    "pds/refresh_ok"
                                },
                                1,
                            );
                            // The old share was erased inside the session
                            // (§6's erasure requirement); adopt the result.
                            match outcome.new_key {
                                Some(k) => {
                                    self.public_key = Some(k.public_key.clone());
                                    self.key = Some(k);
                                    self.share_lost = false;
                                }
                                None => {
                                    self.key = None;
                                    self.share_lost = true;
                                }
                            }
                        }
                        self.warm_offline();
                    }
                }
            }
            PdsPhase::Normal => {
                // Start sessions for pending requests, up to the concurrent
                // session cap. The session table keys by sid, so many
                // sessions progress independently in the same round.
                let usable = self.key_usable();
                let batch_partials = self.cfg.batch_partials();
                for (msg, unit) in std::mem::take(&mut self.pending_requests) {
                    let sid = sid_for_scoped(&self.cfg.sid_scope, &msg, unit);
                    if self.sessions.contains_key(&sid) {
                        continue;
                    }
                    if self.sessions.len() >= self.cfg.max_sessions {
                        telemetry::count("pds/sign_rejected", 1);
                        continue;
                    }
                    telemetry::count("pds/sign_started", 1);
                    let (mut session, init) = SignSession::start(
                        &self.cfg.group,
                        self.me,
                        self.cfg.t,
                        sid,
                        msg,
                        unit,
                        usable,
                        rng,
                    );
                    session.set_batch_partials(batch_partials);
                    self.sessions.insert(sid, session);
                    if let Some(init) = init {
                        out.extend(self.expand(Dest::All, init));
                    }
                }
                // Tick the rest.
                let pk = self.public_key.clone();
                if let Some(pk) = pk {
                    let key = if self.key_usable() { self.key.clone() } else { None };
                    let sids: Vec<Sid> = self.sessions.keys().copied().collect();
                    let mut broadcasts: Vec<AlsMsg> = Vec::new();
                    // The coefficient cache moves out of `self` for the loop
                    // so each session tick can borrow it mutably alongside
                    // the table.
                    let mut lagrange = std::mem::take(&mut self.lagrange);
                    for sid in sids {
                        // Sessions created this very round should not tick yet
                        // (their inits have not even been sent).
                        let started_now = self
                            .sessions
                            .get(&sid)
                            .map(|s| s.age() == 0)
                            .unwrap_or(false);
                        if let Some(session) = self.sessions.get_mut(&sid) {
                            if started_now {
                                session.bump_age();
                                continue;
                            }
                            broadcasts.extend(session.tick_with(
                                &self.cfg.group,
                                key.as_ref(),
                                &pk,
                                Some(&mut lagrange),
                                rng,
                            ));
                            session.bump_age();
                        }
                    }
                    self.lagrange = lagrange;
                    for msg in broadcasts {
                        out.extend(self.expand(Dest::All, msg));
                    }
                }
                self.drain_finished_sessions();
            }
        }
        out
    }

    fn take_completed(&mut self) -> Vec<SignatureRecord> {
        std::mem::take(&mut self.completed)
    }

    fn refresh_failed(&self) -> bool {
        self.refresh_failed
    }

    fn has_share(&self) -> bool {
        self.key_usable()
    }

    fn mark_share_lost(&mut self) {
        self.share_lost = true;
    }
}

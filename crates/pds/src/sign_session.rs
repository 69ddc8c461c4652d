//! One distributed-signing session (`ASign`) as a pure state machine.
//!
//! Timeline in logical rounds (session created at tick `T` when the node is
//! asked to sign):
//!
//! | tick  | action |
//! |-------|--------|
//! | T     | broadcast `SignInit` with a fresh nonce commitment |
//! | T+1   | fix the signer set `S` from received inits; the lowest `t+1` become *active*; active signers broadcast attempt-0 partials |
//! | T+2   | verify partials; all good → combine, broadcast `SignDone`; else exclude cheaters/missing, active signers of attempt 1 broadcast fresh `SignRetryNonce`s |
//! | T+3   | attempt-1 partials |
//! | T+4   | combine or fail |
//!
//! Robustness: every partial is publicly verifiable against the signer's
//! share key and nonce commitment, so cheaters are identified exactly and a
//! retry (with *fresh* nonces — reusing a nonce across attempts would leak
//! the share) excludes them. One retry suffices against `t` cheaters when
//! `|S| ≥ t+1` honest signers participate, because verification failures
//! only ever exclude cheaters.
//!
//! Drivers must ask all intended signers at the same logical tick (the ideal
//! process of §3.1 likewise requires sign requests to fall in one time unit).

use crate::msg::{signing_payload, AlsMsg, Sid};
use proauth_crypto::dkg::KeyShare;
use proauth_crypto::group::Group;
use proauth_crypto::schnorr::{Signature, VerifyKey};
use proauth_crypto::thresh::{self, Nonce, SignerPrecomp};
use proauth_primitives::bigint::BigUint;
use std::collections::{BTreeMap, BTreeSet};

/// Maximum signing attempts (initial + one retry).
const MAX_ATTEMPTS: u32 = 2;

/// Session progress.
#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    /// Waiting for the signer set to materialize (tick T → T+1).
    AwaitInits,
    /// Waiting for partials of `attempt`.
    AwaitPartials {
        attempt: u32,
        active: Vec<u32>,
        nonces: BTreeMap<u32, BigUint>,
    },
    /// Waiting for fresh nonces of `attempt`.
    AwaitRetryNonces { attempt: u32, active: Vec<u32> },
    /// Finished with a signature.
    Done,
    /// Gave up.
    Failed,
}

/// A signing session for one `(msg, unit)` pair.
#[derive(Debug, Clone)]
pub struct SignSession {
    /// Session id.
    pub sid: Sid,
    /// The message being signed.
    pub msg: Vec<u8>,
    /// The time unit of the request.
    pub unit: u64,
    me: u32,
    t: usize,
    state: State,
    /// Nonce commitments from `SignInit`s (the signer set `S`).
    inits: BTreeMap<u32, BigUint>,
    /// Partials of the current attempt.
    partials: BTreeMap<u32, BigUint>,
    /// Fresh nonces for the retry attempt.
    retry_nonces: BTreeMap<u32, BigUint>,
    /// Signers excluded for cheating or missing messages.
    excluded: BTreeSet<u32>,
    /// Every nonce commitment accepted per signer across all attempts
    /// (big-endian bytes). A retry nonce colliding with any of these is
    /// nonce reuse — cheating, since `k` reuse across challenges leaks the
    /// share — and gets the signer excluded.
    seen_commitments: BTreeMap<u32, BTreeSet<Vec<u8>>>,
    /// Whether partial verification runs batch-first (RLC) or per-signer.
    batch_partials: bool,
    /// My nonce for the current attempt, drawn when the session starts or
    /// retries — never earlier, so it cannot outlive the share it signs
    /// with (sessions are dropped at refresh).
    pub(crate) my_nonce: Option<Nonce>,
    /// The completed signature, if any.
    result: Option<Signature>,
    /// Logical ticks since creation (maintained by the driver via
    /// [`SignSession::bump_age`]).
    age: u32,
}

impl SignSession {
    /// Starts a session at the node that was asked to sign. Returns the
    /// session plus the `SignInit` broadcast (`None` if the node holds no
    /// share and thus only listens for the result).
    #[allow(clippy::too_many_arguments)]
    pub fn start<R: rand::RngCore>(
        group: &Group,
        me: u32,
        t: usize,
        sid: Sid,
        msg: Vec<u8>,
        unit: u64,
        has_share: bool,
        rng: &mut R,
    ) -> (Self, Option<AlsMsg>) {
        let mut session = SignSession {
            sid,
            msg,
            unit,
            me,
            t,
            state: State::AwaitInits,
            inits: BTreeMap::new(),
            partials: BTreeMap::new(),
            retry_nonces: BTreeMap::new(),
            excluded: BTreeSet::new(),
            seen_commitments: BTreeMap::new(),
            batch_partials: true,
            my_nonce: None,
            result: None,
            age: 0,
        };
        if !has_share {
            return (session, None);
        }
        let nonce = thresh::generate_nonce(group, rng);
        session.inits.insert(me, nonce.commitment.clone());
        session.note_commitment(me, &nonce.commitment);
        let init = AlsMsg::SignInit {
            sid,
            msg: session.msg.clone(),
            unit,
            nonce: nonce.commitment.clone(),
        };
        session.my_nonce = Some(nonce);
        (session, Some(init))
    }

    /// Switches between RLC batch-first partial verification (the default)
    /// and per-signer verification only.
    pub fn set_batch_partials(&mut self, on: bool) {
        self.batch_partials = on;
    }

    /// Signers excluded so far (cheating, silence, or nonce reuse).
    pub fn excluded(&self) -> &BTreeSet<u32> {
        &self.excluded
    }

    fn note_commitment(&mut self, signer: u32, commitment: &BigUint) {
        self.seen_commitments
            .entry(signer)
            .or_default()
            .insert(commitment.to_bytes_be());
    }

    /// Logical ticks since creation.
    pub fn age(&self) -> u32 {
        self.age
    }

    /// Advances the driver-maintained age counter.
    pub fn bump_age(&mut self) {
        self.age += 1;
    }

    /// Whether the session completed successfully.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Whether the session failed permanently.
    pub fn is_failed(&self) -> bool {
        self.state == State::Failed
    }

    /// The produced signature, once done.
    pub fn result(&self) -> Option<&Signature> {
        self.result.as_ref()
    }

    /// Feeds an incoming session message (called on delivery).
    pub fn handle(&mut self, group: &Group, public_key: &BigUint, from: u32, msg: &AlsMsg) {
        match msg {
            AlsMsg::SignInit { nonce, .. }
                // No subgroup-membership modpow here (it used to cost every
                // receiver one full exponentiation per init): membership is
                // implied by the partial-check equation `g^{z_i} = R_i ·
                // X_i^{e·λ_i}` — its left side is a subgroup member and
                // `X_i` is Feldman-validated, so an off-subgroup `R_i` can
                // never satisfy it and its sender is identified and
                // excluded at evaluation like any other cheater.
                if matches!(self.state, State::AwaitInits) => {
                    if let std::collections::btree_map::Entry::Vacant(slot) =
                        self.inits.entry(from)
                    {
                        slot.insert(nonce.clone());
                        self.note_commitment(from, nonce);
                    }
                }
            AlsMsg::SignPartial { attempt, z, .. } => {
                if let State::AwaitPartials {
                    attempt: cur,
                    active,
                    ..
                } = &self.state
                {
                    if *attempt == *cur && active.contains(&from) {
                        self.partials.entry(from).or_insert_with(|| z.clone());
                    }
                }
            }
            AlsMsg::SignRetryNonce { attempt, nonce, .. } => {
                let expected = matches!(
                    &self.state,
                    State::AwaitRetryNonces { attempt: cur, active }
                        if *attempt == *cur && active.contains(&from)
                );
                if !expected || !group.contains(nonce) || self.excluded.contains(&from) {
                    return;
                }
                if self.retry_nonces.get(&from) == Some(nonce) {
                    return; // duplicate delivery of the accepted nonce
                }
                // Nonce hygiene: a "fresh" retry nonce matching any
                // commitment this signer already used in the session is
                // reuse — it would put one `k` under two challenges, which
                // solves for the share. Treat it as cheating, not as a
                // nonce to accept.
                let bytes = nonce.to_bytes_be();
                let reused = self
                    .seen_commitments
                    .get(&from)
                    .is_some_and(|seen| seen.contains(&bytes));
                if reused {
                    self.excluded.insert(from);
                    self.retry_nonces.remove(&from);
                    return;
                }
                if let std::collections::btree_map::Entry::Vacant(slot) =
                    self.retry_nonces.entry(from)
                {
                    slot.insert(nonce.clone());
                    self.note_commitment(from, nonce);
                }
            }
            AlsMsg::SignDone { e, s, .. }
                if self.result.is_none() => {
                    let sig = Signature {
                        e: e.clone(),
                        s: s.clone(),
                    };
                    // The caller's public key is the adopted DKG output
                    // (subgroup member by construction), so skip the
                    // membership modpow on this per-delivery path.
                    let vk = VerifyKey::from_element_trusted(group, public_key.clone());
                    if vk.verify(&signing_payload(&self.msg, self.unit), &sig) {
                        self.result = Some(sig);
                        self.state = State::Done;
                    }
                }
            _ => {}
        }
    }

    /// Advances the session by one logical tick; returns broadcasts.
    pub fn tick<R: rand::RngCore>(
        &mut self,
        group: &Group,
        key: Option<&KeyShare>,
        public_key: &BigUint,
        rng: &mut R,
    ) -> Vec<AlsMsg> {
        self.tick_with(group, key, public_key, None, rng)
    }

    /// Like [`SignSession::tick`], but reads Lagrange coefficients from
    /// `lagrange` (falling back to inline computation): with the cache
    /// warmed at the end of the refresh, the online tick is mostly
    /// multi-exponentiation.
    pub fn tick_with<R: rand::RngCore>(
        &mut self,
        group: &Group,
        key: Option<&KeyShare>,
        public_key: &BigUint,
        lagrange: Option<&mut SignerPrecomp>,
        rng: &mut R,
    ) -> Vec<AlsMsg> {
        match std::mem::replace(&mut self.state, State::Failed) {
            State::AwaitInits => self.fix_signer_set(group, key, lagrange),
            State::AwaitPartials {
                attempt,
                active,
                nonces,
            } => self.evaluate_partials(
                group, key, public_key, attempt, active, nonces, lagrange, rng,
            ),
            State::AwaitRetryNonces { attempt, active } => {
                self.emit_retry_partials(group, key, public_key, attempt, active, lagrange)
            }
            done_or_failed => {
                self.state = done_or_failed;
                Vec::new()
            }
        }
    }

    /// Tick T+1: the signer set is whatever inits arrived.
    fn fix_signer_set(
        &mut self,
        group: &Group,
        key: Option<&KeyShare>,
        lagrange: Option<&mut SignerPrecomp>,
    ) -> Vec<AlsMsg> {
        let signers: Vec<u32> = self.inits.keys().copied().collect();
        if signers.len() < self.t + 1 {
            self.state = State::Failed;
            return Vec::new();
        }
        let active: Vec<u32> = signers.iter().take(self.t + 1).copied().collect();
        let nonces: BTreeMap<u32, BigUint> = active
            .iter()
            .map(|i| (*i, self.inits[i].clone()))
            .collect();
        self.partials.clear();
        let out = self.my_partial(group, key, 0, &active, &nonces, lagrange);
        self.state = State::AwaitPartials {
            attempt: 0,
            active,
            nonces,
        };
        out
    }

    /// Computes and stores my partial for `attempt` if I am active.
    fn my_partial(
        &mut self,
        group: &Group,
        key: Option<&KeyShare>,
        attempt: u32,
        active: &[u32],
        nonces: &BTreeMap<u32, BigUint>,
        lagrange: Option<&mut SignerPrecomp>,
    ) -> Vec<AlsMsg> {
        let (Some(key), Some(nonce)) = (key, self.my_nonce.as_ref()) else {
            return Vec::new();
        };
        if !active.contains(&self.me) || nonces.len() != active.len() {
            return Vec::new();
        }
        let commitments: Vec<BigUint> = active.iter().map(|i| nonces[i].clone()).collect();
        let r = thresh::combine_nonces(group, &commitments);
        let e = thresh::challenge(
            group,
            &r,
            &key.public_key,
            &signing_payload(&self.msg, self.unit),
        );
        let z = match lagrange
            .and_then(|p| p.coeffs(group, active).get(&self.me).cloned())
        {
            Some(lambda) => thresh::partial_sign_with_coeff(group, key, &lambda, nonce, &e),
            None => thresh::partial_sign(group, key, active, nonce, &e),
        };
        self.partials.insert(self.me, z.clone());
        vec![AlsMsg::SignPartial {
            sid: self.sid,
            attempt,
            z,
        }]
    }

    /// Tick T+2 / T+4: combine or retry.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_partials<R: rand::RngCore>(
        &mut self,
        group: &Group,
        key: Option<&KeyShare>,
        public_key: &BigUint,
        attempt: u32,
        active: Vec<u32>,
        nonces: BTreeMap<u32, BigUint>,
        mut lagrange: Option<&mut SignerPrecomp>,
        rng: &mut R,
    ) -> Vec<AlsMsg> {
        // Verify partials against public data; identify cheaters/missing.
        let mut good: Vec<BigUint> = Vec::new();
        let mut bad: Vec<u32> = Vec::new();
        let share_keys = key.map(|k| k.share_keys.clone());
        if nonces.len() == active.len() {
            let commitments: Vec<BigUint> = active.iter().map(|i| nonces[i].clone()).collect();
            let r = thresh::combine_nonces(group, &commitments);
            let e = thresh::challenge(group, &r, public_key, &signing_payload(&self.msg, self.unit));
            let mut optimistic = false;
            if let Some(keys) = share_keys.as_ref() {
                let mut checks: Vec<thresh::PartialCheck<'_>> = Vec::new();
                for &i in &active {
                    match self.partials.get(&i) {
                        Some(z) => checks.push(thresh::PartialCheck {
                            signer: i,
                            share_key: &keys[(i - 1) as usize],
                            nonce_commitment: &nonces[&i],
                            z_i: z,
                        }),
                        None => bad.push(i),
                    }
                }
                if self.batch_partials && bad.is_empty() {
                    // Optimistic combine: with every partial present, the
                    // full verification of the combined signature below is
                    // itself the batched partial check — one two-term
                    // multi-exp covers all t+1 partials, so the per-signer
                    // checks (and even a random-linear-combination batch
                    // over them, which still pays a fresh Straus chain per
                    // transient `R_i`) would be pure overhead on the honest
                    // path. On mismatch the exact per-signer fallback below
                    // pinpoints whom to exclude, so robustness is unchanged
                    // — a cheater merely costs this one extra pass.
                    good.extend(checks.iter().map(|c| c.z_i.clone()));
                    optimistic = true;
                } else {
                    // A partial is missing, or batching is off: per-signer
                    // checks pinpoint whom to exclude.
                    let coeffs = lagrange
                        .as_deref_mut()
                        .map(|p| p.coeffs(group, &active).clone());
                    for c in &checks {
                        let lambda = match coeffs.as_ref().and_then(|m| m.get(&c.signer)) {
                            Some(l) => l.clone(),
                            None => proauth_crypto::shamir::lagrange_coeff_at_zero(
                                group, &active, c.signer,
                            ),
                        };
                        if thresh::verify_partial_preverified(
                            group,
                            c.share_key,
                            c.nonce_commitment,
                            &lambda,
                            &e,
                            c.z_i,
                        ) {
                            good.push(c.z_i.clone());
                        } else {
                            bad.push(c.signer);
                        }
                    }
                }
            } else {
                bad = active.clone();
            }
            if bad.is_empty() && good.len() == active.len() {
                let sig = thresh::combine_partials(group, &e, &good);
                // Final check before declaring success. The public key is
                // the adopted DKG output, a subgroup member by construction,
                // so the trusted constructor skips the membership modpow
                // this path used to pay once per evaluation.
                let vk = VerifyKey::from_element_trusted(group, public_key.clone());
                if vk.verify(&signing_payload(&self.msg, self.unit), &sig) {
                    let done = AlsMsg::SignDone {
                        sid: self.sid,
                        e: sig.e.clone(),
                        s: sig.s.clone(),
                    };
                    self.result = Some(sig);
                    self.state = State::Done;
                    return vec![done];
                }
                // The optimistic path combined unverified partials and the
                // signature does not check out: someone cheated. Exact
                // per-signer checks pinpoint whom to exclude — their
                // equation implies subgroup membership of the commitment
                // (see the `SignInit` handler), so whoever passes is
                // genuinely good.
                if optimistic {
                    if let Some(keys) = share_keys.as_ref() {
                        good.clear();
                        let coeffs = lagrange
                            .as_mut()
                            .map(|p| p.coeffs(group, &active).clone());
                        for &i in &active {
                            let Some(z) = self.partials.get(&i) else {
                                bad.push(i);
                                continue;
                            };
                            let lambda = match coeffs.as_ref().and_then(|m| m.get(&i)) {
                                Some(l) => l.clone(),
                                None => proauth_crypto::shamir::lagrange_coeff_at_zero(
                                    group, &active, i,
                                ),
                            };
                            if thresh::verify_partial_preverified(
                                group,
                                &keys[(i - 1) as usize],
                                &nonces[&i],
                                &lambda,
                                &e,
                                z,
                            ) {
                                good.push(z.clone());
                            } else {
                                bad.push(i);
                            }
                        }
                    }
                }
                if bad.is_empty() {
                    bad = active.clone(); // truly inconsistent: restart fully
                }
            }
        } else {
            bad = active.clone();
        }

        // Retry with cheaters excluded and fresh nonces.
        self.excluded.extend(bad);
        let next_attempt = attempt + 1;
        if next_attempt >= MAX_ATTEMPTS {
            self.state = State::Failed;
            return Vec::new();
        }
        let candidates: Vec<u32> = self
            .inits
            .keys()
            .copied()
            .filter(|i| !self.excluded.contains(i))
            .collect();
        if candidates.len() < self.t + 1 {
            self.state = State::Failed;
            return Vec::new();
        }
        let active: Vec<u32> = candidates.into_iter().take(self.t + 1).collect();
        self.retry_nonces.clear();
        self.partials.clear();
        let mut out = Vec::new();
        if active.contains(&self.me) && key.is_some() {
            let nonce = thresh::generate_nonce(group, rng);
            self.retry_nonces.insert(self.me, nonce.commitment.clone());
            self.note_commitment(self.me, &nonce.commitment);
            out.push(AlsMsg::SignRetryNonce {
                sid: self.sid,
                attempt: next_attempt,
                nonce: nonce.commitment.clone(),
            });
            self.my_nonce = Some(nonce);
        }
        self.state = State::AwaitRetryNonces {
            attempt: next_attempt,
            active,
        };
        out
    }

    /// Tick T+3: all retry nonces should be in; broadcast retry partials.
    fn emit_retry_partials(
        &mut self,
        group: &Group,
        key: Option<&KeyShare>,
        _public_key: &BigUint,
        attempt: u32,
        active: Vec<u32>,
        lagrange: Option<&mut SignerPrecomp>,
    ) -> Vec<AlsMsg> {
        let nonces = std::mem::take(&mut self.retry_nonces);
        if !active.iter().all(|i| nonces.contains_key(i)) {
            // A retry signer went silent; no further attempts would have
            // consistent nonce sets, so give up.
            self.state = State::Failed;
            return Vec::new();
        }
        self.partials.clear();
        let out = self.my_partial(group, key, attempt, &active, &nonces, lagrange);
        self.state = State::AwaitPartials {
            attempt,
            active,
            nonces,
        };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::sid_for;
    use proauth_crypto::dkg::{self, ReceivedDealing};
    use proauth_crypto::group::GroupId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dkg_keys(n: usize, t: usize, seed: u64) -> (Group, Vec<KeyShare>) {
        let group = Group::new(GroupId::Toy64);
        let mut rng = StdRng::seed_from_u64(seed);
        let dealings: Vec<(u32, proauth_crypto::feldman::Dealing)> = (1..=n as u32)
            .map(|i| (i, dkg::deal(&group, t, n, &mut rng)))
            .collect();
        let keys = (1..=n as u32)
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
        (group, keys)
    }

    /// Drives `n` sessions in lockstep with faithful broadcast delivery.
    /// `drop_partial_from` simulates a signer whose partials never arrive.
    fn drive(
        group: &Group,
        keys: &[KeyShare],
        t: usize,
        participants: &[u32],
        drop_partial_from: Option<u32>,
        ticks: u32,
    ) -> Vec<SignSession> {
        let mut rng = StdRng::seed_from_u64(1000);
        let sid = sid_for(b"msg", 1);
        let pk = keys[0].public_key.clone();
        let mut sessions: BTreeMap<u32, SignSession> = BTreeMap::new();
        let mut in_flight: Vec<(u32, AlsMsg)> = Vec::new();
        for &p in participants {
            let (s, init) = SignSession::start(
                group,
                p,
                t,
                sid,
                b"msg".to_vec(),
                1,
                true,
                &mut rng,
            );
            sessions.insert(p, s);
            if let Some(init) = init {
                in_flight.push((p, init));
            }
        }
        for _ in 0..ticks {
            // Deliver.
            let delivered = std::mem::take(&mut in_flight);
            for (from, msg) in &delivered {
                // A "silenced" signer's partials AND completed-signature
                // gossip are suppressed (it went dark mid-protocol).
                let drop = matches!(
                    msg,
                    AlsMsg::SignPartial { .. } | AlsMsg::SignDone { .. }
                ) && Some(*from) == drop_partial_from;
                if drop {
                    continue;
                }
                for (&p, s) in sessions.iter_mut() {
                    if p != *from {
                        s.handle(group, &pk, *from, msg);
                    }
                }
            }
            // Tick.
            for (&p, s) in sessions.iter_mut() {
                let key = &keys[(p - 1) as usize];
                for m in s.tick(group, Some(key), &pk, &mut rng) {
                    in_flight.push((p, m));
                }
            }
        }
        sessions.into_values().collect()
    }

    #[test]
    fn happy_path_signs_in_three_ticks() {
        let (group, keys) = dkg_keys(5, 2, 101);
        let sessions = drive(&group, &keys, 2, &[1, 2, 3, 4, 5], None, 3);
        for s in &sessions {
            assert!(s.is_done(), "session at {} done", s.me);
            let vk = VerifyKey::from_element(&group, keys[0].public_key.clone()).unwrap();
            assert!(vk.verify(&signing_payload(b"msg", 1), s.result().unwrap()));
        }
    }

    #[test]
    fn exactly_t_plus_one_signers_suffice() {
        let (group, keys) = dkg_keys(5, 2, 102);
        let sessions = drive(&group, &keys, 2, &[2, 4, 5], None, 3);
        assert!(sessions.iter().all(SignSession::is_done));
    }

    #[test]
    fn too_few_signers_fail() {
        let (group, keys) = dkg_keys(5, 2, 103);
        let sessions = drive(&group, &keys, 2, &[1, 2], None, 5);
        assert!(sessions.iter().all(SignSession::is_failed));
    }

    #[test]
    fn retry_recovers_from_silent_signer() {
        // 4 participants, t=2: active = {1,2,3}; node 1's partials are
        // dropped; retry with {2,3,4} succeeds by tick 5.
        let (group, keys) = dkg_keys(5, 2, 104);
        let sessions = drive(&group, &keys, 2, &[1, 2, 3, 4], Some(1), 5);
        for s in sessions.iter().filter(|s| s.me != 1) {
            assert!(s.is_done(), "session at {} done after retry", s.me);
        }
    }

    #[test]
    fn silent_signer_with_no_spare_fails() {
        // Exactly t+1 participants and one goes silent: no quorum remains.
        let (group, keys) = dkg_keys(5, 2, 105);
        let sessions = drive(&group, &keys, 2, &[1, 2, 3], Some(1), 6);
        for s in sessions.iter().filter(|s| s.me != 1) {
            assert!(s.is_failed(), "node {} should fail", s.me);
        }
    }

    #[test]
    fn share_less_node_learns_result_from_done() {
        let (group, keys) = dkg_keys(5, 2, 106);
        let mut rng = StdRng::seed_from_u64(2000);
        let sid = sid_for(b"m2", 3);
        let pk = keys[0].public_key.clone();
        // Node 5 has no share; it only listens.
        let (mut listener, init) =
            SignSession::start(&group, 5, 2, sid, b"m2".to_vec(), 3, false, &mut rng);
        assert!(init.is_none());
        // Make a real signature out-of-band and feed SignDone.
        let sessions = {
            let mut s = BTreeMap::new();
            for p in [1u32, 2, 3] {
                let (sess, i) = SignSession::start(
                    &group,
                    p,
                    2,
                    sid,
                    b"m2".to_vec(),
                    3,
                    true,
                    &mut rng,
                );
                s.insert(p, (sess, i.unwrap()));
            }
            s
        };
        let mut live: BTreeMap<u32, SignSession> = BTreeMap::new();
        let mut msgs: Vec<(u32, AlsMsg)> = Vec::new();
        for (p, (sess, init)) in sessions {
            live.insert(p, sess);
            msgs.push((p, init));
        }
        for _ in 0..3 {
            let delivered = std::mem::take(&mut msgs);
            for (from, m) in &delivered {
                for (&p, s) in live.iter_mut() {
                    if p != *from {
                        s.handle(&group, &pk, *from, m);
                    }
                }
                listener.handle(&group, &pk, *from, m);
            }
            for (&p, s) in live.iter_mut() {
                for m in s.tick(&group, Some(&keys[(p - 1) as usize]), &pk, &mut rng) {
                    msgs.push((p, m));
                }
            }
        }
        // Deliver the final SignDone round to the listener.
        for (from, m) in &msgs {
            listener.handle(&group, &pk, *from, m);
        }
        assert!(listener.is_done());
    }

    #[test]
    fn chaotic_delivery_garbles_partial_then_retry_excludes_and_signs_fresh() {
        // The network tampers with everything node 1 sends (its partials
        // arrive garbled, its SignDone never arrives) and delivers the rest
        // chaotically: every message duplicated, each tick's batch reversed.
        // Public verifiability must pin the blame on signer 1 exactly, and
        // the retry must run with FRESH nonces — reusing attempt-0 nonces
        // would leak shares.
        let (group, keys) = dkg_keys(5, 2, 108);
        let t = 2;
        let mut rng = StdRng::seed_from_u64(4000);
        let sid = sid_for(b"chaos", 1);
        let pk = keys[0].public_key.clone();
        let mut sessions: BTreeMap<u32, SignSession> = BTreeMap::new();
        let mut in_flight: Vec<(u32, AlsMsg)> = Vec::new();
        for p in [1u32, 2, 3, 4] {
            let (s, init) =
                SignSession::start(&group, p, t, sid, b"chaos".to_vec(), 1, true, &mut rng);
            sessions.insert(p, s);
            in_flight.push((p, init.unwrap()));
        }
        let mut transcript: Vec<(u32, AlsMsg)> = Vec::new();
        for _ in 0..6 {
            let mut chaotic: Vec<(u32, AlsMsg)> = Vec::new();
            for (i, (from, msg)) in std::mem::take(&mut in_flight).into_iter().enumerate() {
                let msg = match (from, msg) {
                    (1, AlsMsg::SignPartial { sid, attempt, .. }) => AlsMsg::SignPartial {
                        sid,
                        attempt,
                        z: BigUint::from_u64(0xBAD),
                    },
                    (1, AlsMsg::SignDone { .. }) => continue,
                    (_, msg) => msg,
                };
                if i % 2 == 0 {
                    chaotic.push((from, msg.clone()));
                }
                chaotic.push((from, msg));
            }
            chaotic.reverse();
            for (from, msg) in &chaotic {
                for (&p, s) in sessions.iter_mut() {
                    if p != *from {
                        s.handle(&group, &pk, *from, msg);
                    }
                }
            }
            transcript.extend(chaotic);
            for (&p, s) in sessions.iter_mut() {
                for m in s.tick(&group, Some(&keys[(p - 1) as usize]), &pk, &mut rng) {
                    in_flight.push((p, m));
                }
            }
        }

        // Everyone except the tampered node completes with a valid signature.
        let vk = VerifyKey::from_element(&group, pk.clone()).unwrap();
        for s in sessions.values().filter(|s| s.me != 1) {
            assert!(s.is_done(), "session at {} done after retry", s.me);
            assert!(vk.verify(&signing_payload(b"chaos", 1), s.result().unwrap()));
        }

        // The retry ran, and exactly the tampered signer was excluded from
        // the attempt-1 signer set.
        let attempt1_partials: BTreeSet<u32> = transcript
            .iter()
            .filter(|(_, m)| matches!(m, AlsMsg::SignPartial { attempt: 1, .. }))
            .map(|(from, _)| *from)
            .collect();
        assert_eq!(attempt1_partials, BTreeSet::from([2, 3, 4]));

        // Fresh nonces: each retry commitment differs from the same signer's
        // attempt-0 commitment.
        for signer in [2u32, 3, 4] {
            let init_nonce = transcript
                .iter()
                .find_map(|(from, m)| match m {
                    AlsMsg::SignInit { nonce, .. } if *from == signer => Some(nonce.clone()),
                    _ => None,
                })
                .unwrap();
            let retry_nonce = transcript
                .iter()
                .find_map(|(from, m)| match m {
                    AlsMsg::SignRetryNonce { nonce, .. } if *from == signer => Some(nonce.clone()),
                    _ => None,
                })
                .expect("retry nonce broadcast");
            assert_ne!(init_nonce, retry_nonce, "signer {signer} reused a nonce");
        }
    }

    /// Drives 4 sessions with node 2's partials garbled (forcing a retry
    /// with active = {1, 3, 4}) and `tamper` applied to every message in
    /// flight. Returns the final sessions.
    fn drive_retry_with(
        tamper: impl Fn(u32, AlsMsg, &[(u32, AlsMsg)]) -> AlsMsg,
    ) -> (Group, BTreeMap<u32, SignSession>) {
        let (group, keys) = dkg_keys(5, 2, 109);
        let mut rng = StdRng::seed_from_u64(5000);
        let sid = sid_for(b"reuse", 1);
        let pk = keys[0].public_key.clone();
        let mut sessions: BTreeMap<u32, SignSession> = BTreeMap::new();
        let mut in_flight: Vec<(u32, AlsMsg)> = Vec::new();
        let mut transcript: Vec<(u32, AlsMsg)> = Vec::new();
        for p in [1u32, 2, 3, 4] {
            let (s, init) =
                SignSession::start(&group, p, 2, sid, b"reuse".to_vec(), 1, true, &mut rng);
            sessions.insert(p, s);
            in_flight.push((p, init.unwrap()));
        }
        for _ in 0..6 {
            let batch: Vec<(u32, AlsMsg)> = std::mem::take(&mut in_flight)
                .into_iter()
                .filter_map(|(from, msg)| {
                    let msg = match (from, msg) {
                        // Node 2 "cheats" on attempt 0 (its outbound partial
                        // is garbled) → excluded on retry. Its local session
                        // still completes honestly, so its SignDone gossip is
                        // suppressed too — the point is to observe the retry.
                        (2, AlsMsg::SignPartial { sid, attempt: 0, .. }) => AlsMsg::SignPartial {
                            sid,
                            attempt: 0,
                            z: BigUint::from_u64(0xBAD),
                        },
                        (2, AlsMsg::SignDone { .. }) => return None,
                        (from, msg) => tamper(from, msg, &transcript),
                    };
                    Some((from, msg))
                })
                .collect();
            // Deliver every message twice: duplication is the network's
            // prerogative and must never read as cheating.
            for (from, msg) in batch.iter().chain(batch.iter()) {
                for (&p, s) in sessions.iter_mut() {
                    if p != *from {
                        s.handle(&group, &pk, *from, msg);
                    }
                }
            }
            transcript.extend(batch);
            for (&p, s) in sessions.iter_mut() {
                for m in s.tick(&group, Some(&keys[(p - 1) as usize]), &pk, &mut rng) {
                    in_flight.push((p, m));
                }
            }
        }
        (group, sessions)
    }

    #[test]
    fn reused_retry_nonce_is_cheating_not_accepted() {
        // Node 1's retry nonce is replaced with its own attempt-0 init
        // commitment: a reused nonce. Honest nodes must exclude node 1 (the
        // session fails for lack of a consistent retry set) rather than
        // silently accept the reuse and complete.
        let (_, sessions) = drive_retry_with(|from, msg, transcript| match (from, &msg) {
            (1, AlsMsg::SignRetryNonce { sid, attempt, .. }) => {
                let init_nonce = transcript
                    .iter()
                    .find_map(|(f, m)| match m {
                        AlsMsg::SignInit { nonce, .. } if *f == 1 => Some(nonce.clone()),
                        _ => None,
                    })
                    .expect("node 1's init in transcript");
                AlsMsg::SignRetryNonce {
                    sid: *sid,
                    attempt: *attempt,
                    nonce: init_nonce,
                }
            }
            _ => msg,
        });
        for s in sessions.values().filter(|s| s.me != 1 && s.me != 2) {
            assert!(s.is_failed(), "node {} must not complete on reuse", s.me);
            assert!(
                s.excluded().contains(&1),
                "node {} must flag the reuser",
                s.me
            );
        }
    }

    #[test]
    fn honest_retry_after_cheater_succeeds_and_dup_nonces_are_idempotent() {
        // Same scenario without the substitution — and every retry nonce
        // delivered twice. Duplicate delivery of the SAME commitment is the
        // network's doing, not reuse; the retry must complete.
        let (group, sessions) = drive_retry_with(|_, msg, _| msg);
        let (_, keys) = dkg_keys(5, 2, 109);
        let vk = VerifyKey::from_element(&group, keys[0].public_key.clone()).unwrap();
        for s in sessions.values().filter(|s| s.me != 2) {
            assert!(s.is_done(), "node {} done after honest retry", s.me);
            assert!(vk.verify(&signing_payload(b"reuse", 1), s.result().unwrap()));
            assert_eq!(s.excluded(), &BTreeSet::from([2]));
        }
    }

    #[test]
    fn forged_done_rejected() {
        let (group, keys) = dkg_keys(4, 1, 107);
        let mut rng = StdRng::seed_from_u64(3000);
        let sid = sid_for(b"m", 1);
        let (mut s, _) =
            SignSession::start(&group, 1, 1, sid, b"m".to_vec(), 1, true, &mut rng);
        s.handle(
            &group,
            &keys[0].public_key,
            2,
            &AlsMsg::SignDone {
                sid,
                e: BigUint::from_u64(1),
                s: BigUint::from_u64(2),
            },
        );
        assert!(!s.is_done());
    }
}

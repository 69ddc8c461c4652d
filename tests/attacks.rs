//! Cross-crate attack integration tests — the paper's headline claims under
//! real adversaries:
//!
//! * emulation/no-forgery while the adversary is `(t,t)`-limited
//!   (Theorem 14 / Theorem 30);
//! * awareness: an impersonated node alerts in the same time unit
//!   (Proposition 31), including under the certification-hijack attack the
//!   introduction motivates;
//! * replay resistance and injection tolerance (§5.1);
//! * PARTIAL-AGREEMENT under certified equivocation (Lemma 16);
//! * proactive refresh makes a break-in's read useless: signing nonces read
//!   before a refresh never solve a later share.

use proauth_adversary::{Hijacker, KeyThief, LimitObserver, Replayer};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::awareness;
use proauth_core::certify::{certify, LocalKeys};
use proauth_core::uls::{uls_schedule, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_core::wire::{Blob, DisperseMsg, Inner, UlsWire};
use proauth_crypto::group::{Group, GroupId};
use proauth_crypto::schnorr::SigningKey;
use proauth_crypto::{shamir, thresh};
use proauth_pds::als::{AlsConfig, AlsPds};
use proauth_pds::als_node::AlsProcess;
use proauth_pds::msg::{signing_payload, AlsMsg, Sid};
use proauth_primitives::bigint::BigUint;
use proauth_primitives::wire::{Decode, Encode};
use proauth_sim::adversary::{AlAdversary, BreakPlan, NetView, UlAdversary};
use proauth_sim::clock::{Schedule, TimeView};
use proauth_sim::message::{Envelope, NodeId, OutputEvent};
use proauth_sim::process::{Process, RoundCtx, SetupCtx};
use proauth_sim::runner::{run_al_with_inputs, run_ul, SimConfig, SimResult};
use proauth_sim::workload::{ClientBatch, ClientOp};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const N: usize = 5;
const T: usize = 2;
const NORMAL: u64 = 12;

fn unit_rounds() -> u64 {
    uls_schedule(NORMAL).unit_rounds
}

fn cfg(total_units: u64, seed: u64) -> SimConfig {
    let mut c = SimConfig::new(N, T, uls_schedule(NORMAL));
    c.setup_rounds = SETUP_ROUNDS;
    c.total_rounds = unit_rounds() * total_units;
    c.seed = seed;
    c
}

fn make_node(id: NodeId) -> UlsNode<HeartbeatApp> {
    let group = Group::new(GroupId::Toy64);
    UlsNode::new(UlsConfig::new(group, N, T), id, HeartbeatApp::default())
}

fn forged_accepts(result: &SimResult, marker: &[u8]) -> usize {
    result
        .outputs
        .iter()
        .flat_map(|log| log.iter())
        .filter(|(_, ev)| matches!(ev, OutputEvent::Accepted { msg, .. } if msg == marker))
        .count()
}

#[test]
fn keythief_cross_unit_forgery_rejected() {
    // Steal keys in unit 0, forge only in unit 1 (after the refresh): the
    // stolen certificate is bound to unit 0, so nothing is accepted.
    let forge_rounds: Vec<u64> = (0..6)
        .map(|k| unit_rounds() + proauth_core::PART1_ROUNDS + proauth_core::PART2_ROUNDS + 2 * k)
        .collect();
    let mut adv = KeyThief::<HeartbeatApp>::new(NodeId(3), 4, 6, forge_rounds);
    let result = run_ul(cfg(2, 1), make_node, &mut adv);
    assert!(adv.forgeries_sent > 0, "attack actually ran");
    assert_eq!(
        forged_accepts(&result, b"FORGED-BY-KEYTHIEF"),
        0,
        "stale keys are useless after the refresh"
    );
}

#[test]
fn keythief_same_unit_forgery_accepted_but_victim_counted_compromised() {
    // Forgeries inside the break-in unit *are* accepted — the emulation
    // treats the victim as compromised for that unit, so this is within the
    // ideal model's allowance.
    let forge_rounds: Vec<u64> = (5..10).map(|k| 2 * k).collect();
    let mut adv = KeyThief::<HeartbeatApp>::new(NodeId(3), 4, 6, forge_rounds);
    let result = run_ul(cfg(1, 2), make_node, &mut adv);
    assert!(adv.forgeries_sent > 0);
    assert!(
        forged_accepts(&result, b"FORGED-BY-KEYTHIEF") > 0,
        "same-unit impersonation of a broken node is possible (and allowed)"
    );
    // The victim logged the compromise.
    assert!(result.outputs[NodeId(3).idx()]
        .iter()
        .any(|(_, e)| *e == OutputEvent::Compromised));
}

/// Runs the certification hijack against `victim` in unit 1 and asserts
/// Proposition 31's whole story for it.
fn assert_hijack_is_alerted(victim: NodeId, seed: u64) {
    let group = Group::new(GroupId::Toy64);
    let inner = Hijacker::new(group, victim, 1, unit_rounds());
    let mut adv = LimitObserver::new(inner);
    let result = run_ul(cfg(2, seed), make_node, &mut adv);

    // The attack succeeded mechanically: a certificate for the fake key was
    // harvested and forgeries were accepted by honest nodes.
    assert!(
        adv.inner.harvested_cert.is_some(),
        "{victim}: fake key got certified"
    );
    assert!(adv.inner.forgeries_sent > 0);
    assert!(
        forged_accepts(&result, b"FORGED-BY-HIJACKER") > 0,
        "{victim}: honest nodes accept messages from the hijacked identity"
    );

    // The victim was NEVER broken into...
    assert_eq!(result.stats.broken_rounds[victim.idx()], 0);

    // ...the adversary stayed (t,t)-limited (only the victim impaired)...
    assert!(
        adv.max_impaired() <= T,
        "impaired {} > t = {}",
        adv.max_impaired(),
        T
    );

    // ...and Proposition 31 holds: the victim alerted in the attack unit.
    let sched = uls_schedule(NORMAL);
    assert!(
        result.alerted_in_unit(victim, 1, &sched),
        "{victim} must alert in the unit it is impersonated"
    );

    // Definition 10/11 accounting: every impersonation incident of a
    // non-broken victim is covered by a same-unit alert.
    let uncovered = awareness::unalerted_impersonations(
        &result.outputs,
        &sched,
        |_, _| false, // nobody was ever broken in this run
        |node, unit| result.alerted_in_unit(node, unit, &sched),
    );
    assert!(uncovered.is_empty(), "{uncovered:?}");
}

#[test]
fn hijacker_certifies_fake_key_but_victim_alerts_same_unit() {
    for victim in NodeId::all(N) {
        assert_hijack_is_alerted(victim, 3);
    }
}

/// Every victim under five seeds each (25 attacks; release, `--ignored`).
#[test]
#[ignore]
fn hijack_grid_every_victim_alerts_under_five_seeds() {
    for victim in NodeId::all(N) {
        for seed in 0..5 {
            assert_hijack_is_alerted(victim, 40 + seed * 31 + victim.idx() as u64);
        }
    }
}

#[test]
fn replayed_traffic_causes_no_impersonation() {
    let mut adv = Replayer::new(6);
    let result = run_ul(cfg(2, 4), make_node, &mut adv);
    let sched = uls_schedule(NORMAL);
    let imps = awareness::find_impersonations(&result.outputs, &sched, |_, _| false);
    assert!(imps.is_empty(), "replays rejected by round binding: {imps:?}");
    // Replay does not even cost certificates: no alerts.
    assert_eq!(result.stats.alerts.iter().sum::<u64>(), 0);
}

#[test]
fn heartbeats_survive_replay_interference() {
    let mut adv = Replayer::new(3);
    let result = run_ul(cfg(2, 5), make_node, &mut adv);
    let accepted = result
        .outputs
        .iter()
        .flat_map(|log| log.iter())
        .filter(|(_, ev)| matches!(ev, OutputEvent::Accepted { .. }))
        .count();
    assert!(accepted > 4 * N, "legit traffic still flows");
}

/// PARTIAL-AGREEMENT under certified equivocation (Fig. 5, Lemma 16): the
/// adversary holds the stolen keys of two nodes and shows a third node's key
/// announcement to the two halves of the network in two versions. In the
/// stolen names it certifies, at `OFF_PA_SEND`, whichever version each half
/// saw — so both halves fix a majority, for different values, with the two
/// thieves in both. Only the step-3 relays can tell, and they must.
struct PaEquivocator {
    unit_rounds: u64,
    /// Keys stolen from nodes 4 and 5 (broken for the attack; they stay silent).
    stolen: Vec<(NodeId, LocalKeys)>,
    /// The subject's true announcement, and the version shown to node 2.
    real_vk: Vec<u8>,
    fake_vk: Vec<u8>,
    equivocations_sent: u64,
    rng: rand::rngs::StdRng,
}

impl PaEquivocator {
    const SUBJECT: NodeId = NodeId(3);
    const THIEVES: [NodeId; 2] = [NodeId(4), NodeId(5)];

    fn new(group: &Group, unit_rounds: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xE901);
        PaEquivocator {
            unit_rounds,
            stolen: Vec::new(),
            real_vk: Vec::new(),
            fake_vk: LocalKeys::generate(group, 1, &mut rng).vk_bytes(),
            equivocations_sent: 0,
            rng,
        }
    }

    /// The version of the subject's key shown to (and certified towards) `to`.
    fn version_for(&self, to: NodeId) -> &[u8] {
        if to == NodeId(2) {
            &self.fake_vk
        } else {
            &self.real_vk
        }
    }
}

impl UlAdversary for PaEquivocator {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        // Sit on the thieves from the end of unit 0 through PA of unit 1.
        if view.time.round == self.unit_rounds - 2 {
            BreakPlan::break_into(Self::THIEVES)
        } else if view.time.round == self.unit_rounds + 6 {
            BreakPlan::leave(Self::THIEVES)
        } else {
            BreakPlan::none()
        }
    }

    fn corrupt(&mut self, id: NodeId, state: &mut dyn std::any::Any, _time: &TimeView) {
        if self.stolen.iter().all(|(thief, _)| *thief != id) {
            let node = state
                .downcast_mut::<UlsNode<HeartbeatApp>>()
                .expect("ULS node");
            self.stolen
                .push((id, node.steal_local_keys().expect("unit-0 keys")));
        }
    }

    fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        let unit1 = self.unit_rounds;
        let mut out = sent.to_vec();
        if view.time.round == unit1 {
            // The announcement travels in the clear: node 2 gets another key.
            for env in &mut out {
                if env.from != Self::SUBJECT {
                    continue;
                }
                let Ok(UlsWire::KeyAnnounce { unit, vk }) = UlsWire::from_bytes(&env.payload)
                else {
                    continue;
                };
                self.real_vk = vk;
                if env.to == NodeId(2) {
                    let vk = self.fake_vk.clone();
                    env.payload = UlsWire::KeyAnnounce { unit, vk }.to_payload();
                }
            }
        }
        if view.time.round == unit1 + 2 {
            // Arrives at unit1 + 3 as a step-1 message certified at
            // unit1 + 1 (OFF_PA_SEND), like the honest ones.
            for (thief, keys) in &self.stolen {
                for to in [NodeId(1), NodeId(2), Self::SUBJECT] {
                    let inner = Inner::PaValue {
                        subject: Self::SUBJECT.0,
                        value: self.version_for(to).to_vec(),
                    };
                    let cmsg = certify(
                        keys,
                        &inner.to_bytes(),
                        *thief,
                        to,
                        unit1 + 1,
                        &mut self.rng,
                    )
                    .expect("stolen keys are certified");
                    let wire = UlsWire::Disperse(DisperseMsg::Forwarding {
                        origin: thief.0,
                        blob: Blob::Certified(cmsg).intern(),
                    });
                    out.push(Envelope::new(*thief, to, wire.to_payload()));
                    self.equivocations_sent += 1;
                }
            }
        }
        out
    }
}

#[test]
fn pa_equivocation_with_stolen_keys_is_exposed_by_relayed_evidence() {
    let group = Group::new(GroupId::Toy64);
    let sched = uls_schedule(NORMAL);
    let mut adv = PaEquivocator::new(&group, unit_rounds());
    let mut c = cfg(2, 6);
    c.record_transcript = true;
    let telemetry = proauth_sim::Telemetry::enabled();
    c.telemetry = telemetry.clone();
    let result = run_ul(c, make_node, &mut adv);
    assert_eq!(adv.equivocations_sent, 6, "attack actually ran");
    assert_ne!(adv.real_vk, adv.fake_vk);

    // Both halves had a majority containing the thieves; what broke it was
    // the relayed evidence, and it went through VER-CERT before it counted.
    assert!(
        telemetry.counter("pa/evidence") >= 1,
        "exposing evidence was verified and fed to PARTIAL-AGREEMENT"
    );

    // Lemma 16: the honest nodes certify at most one value for the subject.
    let mut certified: Vec<Vec<u8>> = Vec::new();
    for env in result.transcript.iter().flatten().flat_map(|rec| &rec.sent) {
        let Ok(UlsWire::Disperse(DisperseMsg::Forward { blob, .. })) =
            UlsWire::from_bytes(&env.payload)
        else {
            continue;
        };
        if let Ok(Blob::CertDeliver {
            subject,
            unit: 1,
            vk,
            ..
        }) = Blob::from_bytes(&blob)
        {
            if subject == PaEquivocator::SUBJECT.0 && !certified.contains(&vk) {
                certified.push(vk);
            }
        }
    }
    assert!(certified.len() <= 1, "two values certified: {certified:?}");
    assert!(
        !certified.contains(&adv.fake_vk),
        "the minority version won"
    );

    // Awareness: the subject ends the refresh with that certificate, or
    // knows it has none — never with a key the others did not certify.
    assert!(
        certified.contains(&adv.real_vk)
            || result.alerted_in_unit(PaEquivocator::SUBJECT, 1, &sched),
        "subject neither certified nor alerted"
    );

    // Nothing was accepted in the name of a node the adversary never held.
    let imps = awareness::find_impersonations(&result.outputs, &sched, |node, _| {
        PaEquivocator::THIEVES.contains(&node)
    });
    assert!(imps.is_empty(), "{imps:?}");
}

/// Breaks into `targets` for two rounds of unit 0 and reads their PDS shares.
struct ShareHarvester {
    targets: Vec<NodeId>,
    shares: Vec<(u32, BigUint)>,
    public_key: Option<BigUint>,
}

impl UlAdversary for ShareHarvester {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        match view.time.round {
            4 => BreakPlan::break_into(self.targets.clone()),
            6 => BreakPlan::leave(self.targets.clone()),
            _ => BreakPlan::none(),
        }
    }

    fn corrupt(&mut self, id: NodeId, state: &mut dyn std::any::Any, _time: &TimeView) {
        if self.shares.iter().any(|(i, _)| *i == id.0) {
            return;
        }
        let node = state
            .downcast_mut::<UlsNode<HeartbeatApp>>()
            .expect("ULS node");
        let key = node.pds.key_share().expect("unit-0 share");
        self.shares.push((id.0, key.share.clone()));
        self.public_key = Some(key.public_key.clone());
    }

    fn deliver(&mut self, sent: &[Envelope], _view: &NetView<'_>) -> Vec<Envelope> {
        sent.to_vec()
    }
}

/// Theorem 14's threshold is tight: `t + 1` break-ins in one unit hand the
/// adversary the signing key itself — signatures under it verify against
/// the ROM public key — while the shares of `t` nodes interpolate to a
/// different key.
#[test]
fn t_plus_one_breakins_in_one_unit_reconstruct_the_signing_key() {
    let group = Group::new(GroupId::Toy64);
    let mut adv = ShareHarvester {
        targets: (1..=(T + 1) as u32).map(NodeId).collect(),
        shares: Vec::new(),
        public_key: None,
    };
    let result = run_ul(cfg(1, 35), make_node, &mut adv);
    assert_eq!(adv.shares.len(), T + 1);
    let pk = adv.public_key.clone().expect("a share was read");
    // The key the adversary reconstructs is the network's: the one burned
    // into every node's ROM at setup.
    for rom in &result.roms {
        let v_cert = rom.read("v_cert").expect("v_cert burned at setup");
        assert_eq!(BigUint::from_bytes_be(v_cert), pk);
    }

    let key_from = |shares: &[(u32, BigUint)]| {
        SigningKey::from_scalar(&group, shamir::interpolate_at_zero(&group, shares))
    };
    let sk = key_from(&adv.shares);
    assert_eq!(sk.verify_key().element(), &pk);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let sig = sk.sign(&signing_payload(b"total forgery", 0), &mut rng);
    assert!(AlsPds::verify(&group, &pk, b"total forgery", 0, &sig));

    assert_ne!(key_from(&adv.shares[..T]).verify_key().element(), &pk);
}

/// Node 1's share at the end of each unit, logged by the node itself: the
/// ground truth the adversary's solutions are held against. The adversary
/// never sees it.
type ShareLog = Arc<Mutex<BTreeMap<u64, BigUint>>>;

struct LoggedAls {
    inner: AlsProcess,
    log: Option<ShareLog>,
}

impl Process for LoggedAls {
    fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
        self.inner.on_setup_round(ctx);
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        let unit = ctx.time.unit;
        self.inner.on_round(ctx);
        if let (Some(log), Some(key)) = (&self.log, self.inner.pds.key_share()) {
            log.lock().unwrap().insert(unit, key.share.clone());
        }
    }

    fn state_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.state_mut()
    }
}

/// Reads node 1 once, at `read_round`, taking every secret nonce it holds,
/// and records the public sign traffic of the whole run.
struct NonceReader {
    read_round: u64,
    nonces: Vec<BigUint>,
    /// What each session signs: `(msg, unit)`, from its `SignInit`s.
    requests: BTreeMap<Sid, (Vec<u8>, u64)>,
    /// Nonce commitments per session and sender, from the `SignInit`s.
    commitments: BTreeMap<Sid, BTreeMap<u32, BigUint>>,
    /// Node 1's partials per `(session, attempt)`: `(unit sent, z)`.
    partials: BTreeMap<(Sid, u32), (u64, BigUint)>,
}

impl AlAdversary for NonceReader {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        match view.time.round {
            r if r == self.read_round => BreakPlan::break_into([NodeId(1)]),
            r if r == self.read_round + 1 => BreakPlan::leave([NodeId(1)]),
            _ => BreakPlan::none(),
        }
    }

    fn corrupt(&mut self, _node: NodeId, state: &mut dyn std::any::Any, _time: &TimeView) {
        let node = state.downcast_mut::<AlsProcess>().expect("ALS node");
        self.nonces
            .extend(node.pds.session_nonces().map(|nonce| nonce.k.clone()));
    }

    fn broken_sends(&mut self, honest_sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        for env in honest_sent {
            match AlsMsg::from_bytes(&env.payload) {
                Ok(AlsMsg::SignInit { sid, msg, unit, nonce }) => {
                    self.requests.insert(sid, (msg, unit));
                    self.commitments.entry(sid).or_default().insert(env.from.0, nonce);
                }
                Ok(AlsMsg::SignPartial { sid, attempt, z }) if env.from == NodeId(1) => {
                    self.partials.insert((sid, attempt), (view.time.unit, z));
                }
                _ => {}
            }
        }
        Vec::new()
    }
}

impl NonceReader {
    /// Every share candidate `x = (z − k)·(e·λ₁)⁻¹` that node 1's unit-`unit`
    /// partials give under the nonces read, from public data alone: the
    /// attempt-0 signer set is the lowest `t + 1` inits, which fix `R`, `e`
    /// and `λ₁`.
    fn solve(&self, group: &Group, pk: &BigUint, unit: u64) -> Vec<Vec<BigUint>> {
        self.partials
            .iter()
            .filter(|(_, (sent, _))| *sent == unit)
            .map(|((sid, attempt), (_, z))| {
                assert_eq!(*attempt, 0, "node 1 never retries in this run");
                let inits = &self.commitments[sid];
                let active: Vec<u32> = inits.keys().copied().take(T + 1).collect();
                let commitments: Vec<BigUint> = active.iter().map(|i| inits[i].clone()).collect();
                let (msg, msg_unit) = &self.requests[sid];
                let r = thresh::combine_nonces(group, &commitments);
                let e = thresh::challenge(group, &r, pk, &signing_payload(msg, *msg_unit));
                let lambda = shamir::lagrange_coeff_at_zero(group, &active, 1);
                let inv = group
                    .scalar_inv(&group.scalar_mul(&e, &lambda))
                    .expect("e·λ₁ is a unit");
                self.nonces
                    .iter()
                    .map(|k| group.scalar_mul(&group.scalar_sub(z, k), &inv))
                    .collect()
            })
            .collect()
    }
}

/// Proactive refresh makes a break-in's read useless once the shares change.
/// A nonce meets one share only: it is drawn when its sign session starts or
/// retries, and the refresh drops every live session. The adversary reads
/// node 1 once in unit 0, a round after it sent its partials for four
/// sessions, so it holds their nonces. Those solve node 1's unit-0 share —
/// the executability half, after Tamarin's `exists-trace` lemma, which shows
/// the solver works and the check is not vacuous. No nonce read solves any
/// partial node 1 sends in unit 1 for its unit-1 share.
#[test]
fn nonces_read_before_a_refresh_never_solve_the_next_share() {
    let schedule = Schedule::new(20, 1, 8);
    let mut c = SimConfig::new(N, T, schedule);
    c.setup_rounds = 2;
    c.total_rounds = schedule.unit_rounds * 2;
    c.seed = 3;
    let group = Group::new(GroupId::Toy64);
    let log = ShareLog::default();
    let batch = |tag: &str| {
        ClientBatch {
            ops: (0..4)
                .map(|i| ClientOp::Sign {
                    msg: format!("{tag}-{i}").into_bytes(),
                })
                .collect(),
        }
        .to_bytes()
    };
    let (unit0, unit1) = (batch("unit0"), batch("unit1"));
    // Unit 1's normal phase starts after Part I and Part II.
    let unit1_round = schedule.unit_rounds + schedule.refresh_rounds() + 1;
    let mut adv = NonceReader {
        read_round: 4,
        nonces: Vec::new(),
        requests: BTreeMap::new(),
        commitments: BTreeMap::new(),
        partials: BTreeMap::new(),
    };
    let result = run_al_with_inputs(
        c,
        |id| LoggedAls {
            inner: AlsProcess::new(AlsPds::new(AlsConfig::new(group.clone(), N, T), id)),
            log: (id == NodeId(1)).then(|| log.clone()),
        },
        &mut adv,
        |_, round| match round {
            2 => Some(unit0.clone()),
            r if r == unit1_round => Some(unit1.clone()),
            _ => None,
        },
    );
    let pk = BigUint::from_bytes_be(result.roms[0].read("v_cert").expect("v_cert"));
    let shares = log.lock().unwrap().clone();
    assert_ne!(shares[&0], shares[&1], "the refresh changed node 1's share");
    assert!(!adv.nonces.is_empty(), "the read found live sessions");

    // Executability: within unit 0, every partial of a session read solves.
    let solved0 = adv.solve(&group, &pk, 0);
    assert_eq!(solved0.len(), 4, "node 1 signed all four unit-0 sessions");
    for candidates in &solved0 {
        assert!(candidates.contains(&shares[&0]), "a unit-0 partial resists its own nonce");
    }

    // Secrecy across the refresh: no nonce read solves a unit-1 partial.
    let solved1 = adv.solve(&group, &pk, 1);
    assert_eq!(solved1.len(), 4, "node 1 signed all four unit-1 sessions");
    for candidates in &solved1 {
        assert!(
            !candidates.contains(&shares[&1]),
            "a nonce read in unit 0 gave node 1's unit-1 share"
        );
    }
}

//! Cross-crate attack integration tests — the paper's headline claims under
//! real adversaries:
//!
//! * emulation/no-forgery while the adversary is `(t,t)`-limited
//!   (Theorem 14 / Theorem 30);
//! * awareness: an impersonated node alerts in the same time unit
//!   (Proposition 31), including under the certification-hijack attack the
//!   introduction motivates;
//! * replay resistance and injection tolerance (§5.1);
//! * PARTIAL-AGREEMENT under certified equivocation (Lemma 16).

use proauth_adversary::{Hijacker, KeyThief, LimitObserver, Replayer};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::awareness;
use proauth_core::certify::{certify, LocalKeys};
use proauth_core::uls::{uls_schedule, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_core::wire::{Blob, DisperseMsg, Inner, UlsWire};
use proauth_crypto::group::{Group, GroupId};
use proauth_primitives::wire::{Decode, Encode};
use proauth_sim::adversary::{BreakPlan, NetView, UlAdversary};
use proauth_sim::clock::TimeView;
use proauth_sim::message::{Envelope, NodeId, OutputEvent};
use proauth_sim::runner::{run_ul, SimConfig, SimResult};

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

#[test]
fn hijacker_certifies_fake_key_but_victim_alerts_same_unit() {
    let group = Group::new(GroupId::Toy64);
    let victim = NodeId(4);
    let inner = Hijacker::new(group, victim, 1, unit_rounds());
    let mut adv = LimitObserver::new(inner);
    let result = run_ul(cfg(2, 3), make_node, &mut adv);

    // The attack succeeded mechanically: a certificate for the fake key was
    // harvested and forgeries were accepted by honest nodes.
    assert!(adv.inner.harvested_cert.is_some(), "fake key got certified");
    assert!(adv.inner.forgeries_sent > 0);
    assert!(
        forged_accepts(&result, b"FORGED-BY-HIJACKER") > 0,
        "honest nodes accept messages from the hijacked identity"
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
    assert!(
        result.alerted_in_unit(victim, 1, &uls_schedule(NORMAL)),
        "victim must alert in the unit it is impersonated"
    );

    // Definition 10/11 accounting: every impersonation incident of a
    // non-broken victim is covered by a same-unit alert.
    let sched = uls_schedule(NORMAL);
    let uncovered = awareness::unalerted_impersonations(
        &result.outputs,
        &sched,
        |_, _| false, // nobody was ever broken in this run
        |node, unit| result.alerted_in_unit(node, unit, &sched),
    );
    assert!(uncovered.is_empty(), "{uncovered:?}");
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
        use rand::SeedableRng;
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

//! End-to-end tests of the session-MAC authentication mode (§1.3's
//! shared-key alternative): same guarantees as signature mode, two hashes
//! per message instead of three exponentiations.

use proauth_core::authenticator::HeartbeatApp;
use proauth_core::uls::{sign_input, uls_schedule, AuthMode, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_crypto::group::{Group, GroupId};
use proauth_sim::adversary::FaithfulUl;
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_sim::runner::{run_ul, run_ul_with_inputs, SimConfig, SimResult};

const N: usize = 5;
const T: usize = 2;
const NORMAL: u64 = 12;

fn cfg(total_units: u64, seed: u64) -> SimConfig {
    let schedule = uls_schedule(NORMAL);
    let mut c = SimConfig::new(N, T, schedule);
    c.setup_rounds = SETUP_ROUNDS;
    c.total_rounds = schedule.unit_rounds * total_units;
    c.seed = seed;
    c
}

fn make_node(mode: AuthMode) -> impl Fn(NodeId) -> UlsNode<HeartbeatApp> {
    move |id| {
        let group = Group::new(GroupId::Toy64);
        let mut c = UlsConfig::new(group, N, T);
        c.auth_mode = mode;
        UlsNode::new(c, id, HeartbeatApp::default())
    }
}

fn accepted(result: &SimResult) -> usize {
    result
        .outputs
        .iter()
        .flat_map(|l| l.iter())
        .filter(|(_, e)| matches!(e, OutputEvent::Accepted { .. }))
        .count()
}

#[test]
fn mac_mode_matches_sign_mode_functionality() {
    let sign = run_ul(cfg(3, 9), make_node(AuthMode::Sign), &mut FaithfulUl);
    let mac = run_ul(cfg(3, 9), make_node(AuthMode::SessionMac), &mut FaithfulUl);
    // Identical heartbeat acceptance, zero alerts, all operational.
    assert_eq!(accepted(&sign), accepted(&mac));
    assert_eq!(mac.stats.alerts.iter().sum::<u64>(), 0);
    assert!(mac.final_operational.iter().all(|&b| b));
    // (Byte counts are similar — a 32-byte tag replaces a signature whose
    // size depends on the group; the saving is CPU: `primitives.hmac.tag_us`
    // against `crypto.schnorr.{sign,verify}_us` in the benchmark's layer table.)
}

#[test]
fn mac_mode_actually_uses_the_fast_path() {
    // Count path usage via a single-node probe run: after the first unit,
    // the overwhelming majority of steady-state traffic should be MACs.
    let counters = std::sync::Arc::new(std::sync::Mutex::new((0u64, 0u64)));

    // Read the node's path counters through the break-in API at the very
    // last round.
    struct Reader {
        mac: std::sync::Arc<std::sync::Mutex<(u64, u64)>>,
        last_round: u64,
    }
    impl proauth_sim::adversary::UlAdversary for Reader {
        fn plan(
            &mut self,
            view: &proauth_sim::adversary::NetView<'_>,
        ) -> proauth_sim::adversary::BreakPlan {
            if view.time.round == self.last_round {
                proauth_sim::adversary::BreakPlan::break_into([NodeId(1)])
            } else {
                proauth_sim::adversary::BreakPlan::none()
            }
        }
        fn corrupt(
            &mut self,
            _n: NodeId,
            state: &mut dyn std::any::Any,
            _t: &proauth_sim::clock::TimeView,
        ) {
            if let Some(node) = state.downcast_mut::<UlsNode<HeartbeatApp>>() {
                let mut c = self.mac.lock().unwrap();
                c.0 = node.mac_sent;
                c.1 = node.sig_sent;
            }
        }
        fn deliver(
            &mut self,
            sent: &[proauth_sim::message::Envelope],
            _v: &proauth_sim::adversary::NetView<'_>,
        ) -> Vec<proauth_sim::message::Envelope> {
            sent.to_vec()
        }
    }
    let c = cfg(2, 13);
    let last_round = c.total_rounds - 1;
    let mut reader = Reader {
        mac: counters.clone(),
        last_round,
    };
    let _result = run_ul(c, make_node(AuthMode::SessionMac), &mut reader);
    let (mac, sig) = *counters.lock().unwrap();
    assert!(mac > 0, "MAC fast path used");
    assert!(
        mac > sig,
        "steady-state traffic is mostly MACs: mac={mac} sig={sig}"
    );
}

#[test]
fn mac_mode_signs_through_refresh_and_usign_works() {
    let sched = uls_schedule(NORMAL);
    let sign_round = sched.unit_rounds + sched.refresh_rounds() + 2;
    let result = run_ul_with_inputs(
        cfg(2, 10),
        make_node(AuthMode::SessionMac),
        &mut FaithfulUl,
        move |_, round| (round == sign_round).then(|| sign_input(b"mac-mode doc")),
    );
    let signed = result
        .outputs
        .iter()
        .flat_map(|l| l.iter())
        .filter(|(_, e)| matches!(e, OutputEvent::Signed { msg, .. } if msg == b"mac-mode doc"))
        .count();
    assert_eq!(signed, N, "threshold signing works over MAC transport");
}

#[test]
fn mac_mode_survives_break_in_and_recovery() {
    use proauth_sim::adversary::{BreakPlan, NetView, UlAdversary};
    use proauth_sim::clock::TimeView;
    use proauth_sim::message::Envelope;

    struct Wiper;
    impl UlAdversary for Wiper {
        fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
            match view.time.round {
                4 => BreakPlan::break_into([NodeId(2)]),
                8 => BreakPlan::leave([NodeId(2)]),
                _ => BreakPlan::none(),
            }
        }
        fn corrupt(&mut self, _n: NodeId, state: &mut dyn std::any::Any, _t: &TimeView) {
            if let Some(node) = state.downcast_mut::<UlsNode<HeartbeatApp>>() {
                node.corrupt_wipe();
            }
        }
        fn deliver(&mut self, sent: &[Envelope], _v: &NetView<'_>) -> Vec<Envelope> {
            sent.to_vec()
        }
    }

    let result = run_ul(cfg(3, 11), make_node(AuthMode::SessionMac), &mut Wiper);
    assert!(result.final_operational[NodeId(2).idx()]);
    // Node 2 is heard from again after recovery.
    let sched = uls_schedule(NORMAL);
    let after = sched.unit_rounds + sched.refresh_rounds();
    let heard = result
        .outputs
        .iter()
        .enumerate()
        .filter(|(idx, _)| *idx != NodeId(2).idx())
        .flat_map(|(_, l)| l.iter())
        .filter(|(round, e)| {
            *round > after && matches!(e, OutputEvent::Accepted { from, .. } if *from == NodeId(2))
        })
        .count();
    assert!(heard > 0);
}

#[test]
fn forged_mac_rejected() {
    use proauth_adversary_shim::*;
    // A bare injector that crafts MacMsgs with a random key: receivers must
    // reject every one (wrong session key ⇒ wrong tag).
    mod proauth_adversary_shim {
        pub use proauth_sim::adversary::{NetView, UlAdversary};
        pub use proauth_sim::message::Envelope;
    }
    struct MacForger;
    impl UlAdversary for MacForger {
        fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
            let mut out = sent.to_vec();
            if view.time.round.is_multiple_of(2) {
                let mmsg = proauth_core::wire::MacMsg {
                    m: proauth_core::wire::Inner::App(b"MAC-FORGERY".to_vec())
                        .to_bytes_shim(),
                    i: 1,
                    j: 2,
                    u: view.time.auth_unit,
                    w: view.time.round.saturating_sub(1),
                    tag: [7; 32],
                    vk: vec![1, 2, 3],
                    cert: proauth_crypto::schnorr::Signature {
                        e: proauth_primitives::bigint::BigUint::from_u64(1),
                        s: proauth_primitives::bigint::BigUint::from_u64(2),
                    },
                };
                let wire = proauth_core::wire::UlsWire::Disperse(
                    proauth_core::wire::DisperseMsg::Forwarding {
                        origin: 1,
                        blob: proauth_core::wire::Blob::MacCertified(mmsg).to_bytes_shim().into(),
                    },
                );
                out.push(Envelope::new(NodeId(1), NodeId(2), wire.to_bytes_shim()));
            }
            out
        }
    }
    trait ToBytesShim {
        fn to_bytes_shim(&self) -> Vec<u8>;
    }
    impl<T: proauth_primitives::wire::Encode> ToBytesShim for T {
        fn to_bytes_shim(&self) -> Vec<u8> {
            self.to_bytes()
        }
    }

    let result = run_ul(cfg(2, 12), make_node(AuthMode::SessionMac), &mut MacForger);
    let forged = result
        .outputs
        .iter()
        .flat_map(|l| l.iter())
        .filter(|(_, e)| matches!(e, OutputEvent::Accepted { msg, .. } if msg == b"MAC-FORGERY"))
        .count();
    assert_eq!(forged, 0, "forged MACs never accepted");
}

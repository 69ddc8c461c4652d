//! Composed and environment-stress attacks: multiple simultaneous adversary
//! capabilities, the Definition-5 rule ablation, and the relaxed DISPERSE
//! fan-out under attack — the corners a single-capability test suite misses.

use proauth_adversary::{Composed, Hijacker, LimitObserver, RandomDropper, Replayer};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::awareness;
use proauth_core::disperse::DisperseMode;
use proauth_core::uls::{uls_schedule, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_crypto::group::{Group, GroupId};
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_sim::reliability::OperationalRule;
use proauth_sim::runner::{run_ul, SimConfig};

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

fn make_node(mode: DisperseMode) -> impl Fn(NodeId) -> UlsNode<HeartbeatApp> {
    move |id| {
        let group = Group::new(GroupId::Toy64);
        let mut c = UlsConfig::new(group, N, T);
        c.disperse = mode;
        UlsNode::new(c, id, HeartbeatApp::default())
    }
}

#[test]
fn hijack_composed_with_light_dropping_still_covered_by_alerts() {
    // The hijacker rides on top of a 2% random dropper: forgery accounting
    // and awareness must still hold.
    let sched = uls_schedule(NORMAL);
    let group = Group::new(GroupId::Toy64);
    let inner = Composed {
        first: RandomDropper::new(0.02, 404),
        second: Hijacker::new(group, NodeId(3), 1, sched.unit_rounds),
    };
    let mut adv = LimitObserver::new(inner);
    let result = run_ul(cfg(2, 41), make_node(DisperseMode::Full), &mut adv);
    // The victim alerts in the attack unit, regardless of the extra noise.
    assert!(result.alerted_in_unit(NodeId(3), 1, &sched));
    // No impersonation of a never-broken node goes unalerted.
    let uncovered = awareness::unalerted_impersonations(
        &result.outputs,
        &sched,
        |_, _| false,
        |node, unit| result.alerted_in_unit(node, unit, &sched),
    );
    assert!(uncovered.is_empty(), "{uncovered:?}");
}

#[test]
fn replay_composed_with_dropping_never_forges() {
    let inner = Composed {
        first: RandomDropper::new(0.05, 405),
        second: Replayer::new(4),
    };
    let mut adv = LimitObserver::new(inner);
    let result = run_ul(cfg(2, 42), make_node(DisperseMode::Full), &mut adv);
    let sched = uls_schedule(NORMAL);
    let imps = awareness::find_impersonations(&result.outputs, &sched, |_, _| false);
    assert!(imps.is_empty(), "{imps:?}");
}

#[test]
fn relaxed_disperse_mode_survives_a_full_lifecycle() {
    // The §6 O(nt) fan-out must preserve all guarantees on the happy path:
    // refreshes succeed, heartbeats flow, no alerts.
    let mut adv = proauth_sim::adversary::FaithfulUl;
    let result = run_ul(
        cfg(3, 43),
        make_node(DisperseMode::Relaxed { fanout: 2 * T + 1 }),
        &mut adv,
    );
    assert_eq!(result.stats.alerts.iter().sum::<u64>(), 0);
    assert!(result.final_operational.iter().all(|&b| b));
    let accepted = result
        .outputs
        .iter()
        .flat_map(|l| l.iter())
        .filter(|(_, e)| matches!(e, OutputEvent::Accepted { .. }))
        .count();
    assert!(accepted > 4 * N);
}

#[test]
fn relaxed_disperse_still_recovers_wiped_nodes() {
    use proauth_sim::adversary::{BreakPlan, NetView, UlAdversary};
    use proauth_sim::clock::TimeView;
    use proauth_sim::message::Envelope;
    struct Wiper;
    impl UlAdversary for Wiper {
        fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
            match view.time.round {
                4 => BreakPlan::break_into([NodeId(5)]),
                8 => BreakPlan::leave([NodeId(5)]),
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
    let result = run_ul(
        cfg(3, 44),
        make_node(DisperseMode::Relaxed { fanout: 2 * T + 1 }),
        &mut Wiper,
    );
    assert!(result.final_operational[NodeId(5).idx()]);
}

#[test]
fn main_text_rule_ablation_reports_more_compromised_nodes() {
    // Run the same wipe scenario under both Definition-5 readings: the
    // main-text rule classifies strictly more node-rounds as non-operational
    // (the collateral effect DESIGN.md documents).
    use proauth_sim::adversary::{BreakPlan, NetView, UlAdversary};
    use proauth_sim::clock::TimeView;
    use proauth_sim::message::Envelope;
    struct DoubleWipe;
    impl UlAdversary for DoubleWipe {
        fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
            match view.time.round {
                4 => BreakPlan::break_into([NodeId(1), NodeId(2)]),
                8 => BreakPlan::leave([NodeId(1), NodeId(2)]),
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
    let run_with = |rule: OperationalRule| {
        let mut c = cfg(2, 45);
        c.rule = rule;
        run_ul(c, make_node(DisperseMode::Full), &mut DoubleWipe)
    };
    let lax = run_with(OperationalRule::Parenthetical);
    let strict = run_with(OperationalRule::MainText);
    let non_op = |r: &proauth_sim::runner::SimResult| {
        r.stats.non_operational_rounds.iter().sum::<u64>()
    };
    assert!(
        non_op(&strict) >= non_op(&lax),
        "main-text reading is never more permissive: {} vs {}",
        non_op(&strict),
        non_op(&lax)
    );
    // Under the parenthetical rule the network fully heals.
    assert!(lax.final_operational.iter().all(|&b| b));
}

#[test]
fn honest_outputs_do_not_depend_on_arrival_order() {
    // A round's deliveries are a *set*: an adversary that permutes every
    // round's delivered set (seeded per round) must leave every ROM and
    // every round's output events exactly as under faithful delivery. The
    // log lists a round's events in the order their messages arrived (node
    // 1's first difference: round 2, `Accepted` from node 5 where faithful
    // delivery lists node 3 first), so the events are compared per round as
    // multisets.
    use proauth_sim::adversary::{FaithfulUl, NetView, UlAdversary};
    use proauth_sim::message::{Envelope, OutputLog};
    use proauth_sim::runner::SimResult;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    struct Shuffler;
    impl UlAdversary for Shuffler {
        fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
            let mut out = sent.to_vec();
            out.shuffle(&mut StdRng::seed_from_u64(0x5A1F ^ view.time.round));
            out
        }
    }
    fn run(adv: &mut impl UlAdversary) -> SimResult {
        let (n, t) = (7, 3);
        let schedule = uls_schedule(NORMAL);
        let mut c = SimConfig::new(n, t, schedule);
        c.setup_rounds = SETUP_ROUNDS;
        c.total_rounds = schedule.unit_rounds * 2;
        c.seed = 45;
        let group = Group::new(GroupId::Toy64);
        run_ul(
            c,
            |id| UlsNode::new(UlsConfig::new(group.clone(), n, t), id, HeartbeatApp::default()),
            adv,
        )
    }
    let per_round = |log: &OutputLog| {
        let mut events: Vec<(u64, String)> = log.iter().map(|(r, e)| (*r, format!("{e:?}"))).collect();
        events.sort();
        events
    };
    let faithful = run(&mut FaithfulUl);
    let shuffled = run(&mut Shuffler);
    assert_eq!(faithful.roms, shuffled.roms);
    for (i, (a, b)) in faithful.outputs.iter().zip(&shuffled.outputs).enumerate() {
        assert_eq!(per_round(a), per_round(b), "node {} outputs depend on arrival order", i + 1);
    }
    assert!(faithful.stats.messages_sent > 0 && faithful.final_operational.iter().all(|&b| b));
}

//! Long-horizon churn tests: mobile break-ins sweeping the whole network
//! over many time units, recovery denial by link cutting, and conformance
//! under sustained attack — the "repeated and transient" break-in story of
//! the paper's title.

use proauth_adversary::{Composed, CorruptMode, LimitObserver, LinkCutter, MobileBreakins, Visit};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::uls::{uls_schedule, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_crypto::group::{Group, GroupId};
use proauth_pds::ideal::IdealChecker;
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_sim::runner::{run_ul, SimConfig, SimResult};

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

fn make_node(id: NodeId) -> UlsNode<HeartbeatApp> {
    let group = Group::new(GroupId::Toy64);
    UlsNode::new(UlsConfig::new(group, N, T), id, HeartbeatApp::default())
}

#[test]
fn every_node_gets_broken_eventually_and_the_network_survives() {
    // 1 wipe per unit, rotating: after 5 units every node has been broken
    // into at least once. The paper's point: the adversary may break into
    // ALL nodes over time, just not too many at once.
    let sched = uls_schedule(NORMAL);
    let units = 6u64;
    let inner = MobileBreakins::<HeartbeatApp>::rotating(
        N,
        1,
        units - 1,
        sched.unit_rounds,
        sched.refresh_rounds() + 2,
        4,
        CorruptMode::Wipe,
    );
    let mut adv = LimitObserver::new(inner);
    let result = run_ul(cfg(units, 201), make_node, &mut adv);

    // Every node was visited.
    for id in NodeId::all(N) {
        assert!(
            result.stats.broken_rounds[id.idx()] > 0,
            "{id} was never broken"
        );
    }
    // Everyone is operational at the end.
    assert!(result.final_operational.iter().all(|&b| b));
    // The adversary stayed within limits throughout. (Note: a wiped node is
    // impaired for the rest of its unit and through the next refresh, so the
    // per-unit impairment can reach 2 — still ≤ t.)
    assert!(adv.max_impaired() <= T, "max impaired {}", adv.max_impaired());
    // Authenticated traffic flowed in the last unit.
    let last_unit_start = (units - 1) * sched.unit_rounds;
    let accepted_late = result
        .outputs
        .iter()
        .flat_map(|l| l.iter())
        .filter(|(round, ev)| {
            *round > last_unit_start && matches!(ev, OutputEvent::Accepted { .. })
        })
        .count();
    assert!(accepted_late > 0);
    assert_eq!(
        assert_recovered_within_one_refresh(&adv.inner.visits, &result),
        vec![sched.unit_rounds; 5]
    );
}

/// §4.2 recovery: every wiped victim is heard from again (a message of its
/// accepted by another node) within `unit_rounds + refresh_rounds + 2`
/// rounds of the break-in — the wait for the next refresh, the refresh, and
/// one logical round — and nobody ever alerts. Returns the latencies.
fn assert_recovered_within_one_refresh(visits: &[Visit], result: &SimResult) -> Vec<u64> {
    let sched = uls_schedule(NORMAL);
    let bound = sched.unit_rounds + sched.refresh_rounds() + 2;
    let mut latencies = Vec::new();
    for v in visits {
        let first_heard = result
            .outputs
            .iter()
            .enumerate()
            .filter(|(idx, _)| *idx != v.node.idx())
            .flat_map(|(_, log)| log.iter())
            .filter_map(|(round, ev)| match ev {
                OutputEvent::Accepted { from, .. } if *from == v.node && *round > v.leave_at => {
                    Some(*round)
                }
                _ => None,
            })
            .min();
        let latency = first_heard.map(|r| r - v.break_at);
        assert!(
            latency.is_some_and(|l| l <= bound),
            "{v:?}: re-accepted after {latency:?} rounds, bound {bound}"
        );
        latencies.extend(latency);
    }
    assert_eq!(result.stats.alerts.iter().sum::<u64>(), 0);
    latencies
}

#[test]
fn two_wipes_per_unit_recover_within_one_refresh() {
    // E5's k = 2: two full-state wipes per unit, rotating, the last unit
    // quiet so the last victims recover. A wiped node stays impaired
    // through the next unit's refresh, so this adversary impairs up to 2k =
    // 4 nodes per unit — past the (t,t) budget, and recovery holds anyway.
    let sched = uls_schedule(NORMAL);
    let units = 4u64;
    let mut adv = MobileBreakins::<HeartbeatApp>::rotating(
        N,
        2,
        units - 1,
        sched.unit_rounds,
        sched.refresh_rounds() + 2,
        4,
        CorruptMode::Wipe,
    );
    let result = run_ul(cfg(units, 52), make_node, &mut adv);
    // Each victim is heard from at the first normal round after the next
    // refresh: exactly one unit after its break-in.
    assert_eq!(
        assert_recovered_within_one_refresh(&adv.visits, &result),
        vec![sched.unit_rounds; 6]
    );
}

#[test]
fn spy_breakins_expose_keys_but_never_break_authenticity() {
    // Read-only espionage on 2 nodes per unit: no state corruption, but key
    // exposure. The refresh makes the stolen material worthless.
    let sched = uls_schedule(NORMAL);
    let inner = MobileBreakins::<HeartbeatApp>::rotating(
        N,
        2,
        3,
        sched.unit_rounds,
        sched.refresh_rounds() + 2,
        2,
        CorruptMode::Spy,
    );
    let mut adv = LimitObserver::new(inner);
    let result = run_ul(cfg(4, 202), make_node, &mut adv);
    // Spied-on nodes keep operating (their state was read, not modified) —
    // no alerts anywhere.
    assert_eq!(result.stats.alerts.iter().sum::<u64>(), 0);
    assert!(result.final_operational.iter().all(|&b| b));
    let checker = IdealChecker::new(T);
    assert!(checker.check_no_forgery(&result.outputs, &[]).is_empty());
}

#[test]
fn garbled_share_is_detected_and_recovered_transparently() {
    let sched = uls_schedule(NORMAL);
    let inner = MobileBreakins::<HeartbeatApp>::rotating(
        N,
        1,
        2,
        sched.unit_rounds,
        sched.refresh_rounds() + 2,
        2,
        CorruptMode::GarbleShare(0xBAD),
    );
    let mut adv = LimitObserver::new(inner);
    let result = run_ul(cfg(4, 203), make_node, &mut adv);
    // Self-consistency checks catch the garbage; recovery restores the
    // share; the network ends fully operational.
    assert!(result.final_operational.iter().all(|&b| b));
}

#[test]
fn recovery_denied_by_isolation_then_granted_when_attack_stops() {
    // Wipe node 2 in unit 0 AND isolate it through the unit-1 refresh: it
    // cannot recover (alert). When the cutter stops, the unit-2 refresh
    // rescues it.
    let sched = uls_schedule(NORMAL);
    let unit1 = sched.unit_rounds;
    let unit2 = 2 * sched.unit_rounds;
    let breakin = MobileBreakins::<HeartbeatApp>::new(
        vec![Visit {
            node: NodeId(2),
            break_at: 4,
            leave_at: 8,
        }],
        CorruptMode::Wipe,
    );
    let cutter = LinkCutter::isolate(NodeId(2), N).during(unit1, unit1 + sched.refresh_rounds());
    let mut adv = LimitObserver::new(Composed {
        first: breakin,
        second: cutter,
    });
    let result = run_ul(cfg(3, 204), make_node, &mut adv);

    // Unit 1: recovery denied → alert from node 2.
    assert!(
        result.alerted_in_unit(NodeId(2), 1, &sched),
        "isolated node alerts when it cannot re-certify"
    );
    // Unit 2: recovered and heard from again.
    let accepted_from_2_late = result
        .outputs
        .iter()
        .enumerate()
        .filter(|(idx, _)| *idx != NodeId(2).idx())
        .flat_map(|(_, l)| l.iter())
        .filter(|(round, ev)| {
            *round > unit2 + sched.refresh_rounds()
                && matches!(ev, OutputEvent::Accepted { from, .. } if *from == NodeId(2))
        })
        .count();
    assert!(accepted_from_2_late > 0, "node 2 back after the attack ends");
    assert!(result.final_operational[NodeId(2).idx()]);
    // Throughout, the adversary impaired at most t nodes per unit.
    assert!(adv.max_impaired() <= T);
}

#[test]
fn isolation_without_breakin_costs_only_the_victim() {
    // Cut node 5 off for a whole unit, never break in anywhere: the other
    // four keep full service; node 5 alerts and rejoins afterwards.
    let sched = uls_schedule(NORMAL);
    let unit1 = sched.unit_rounds;
    let mut adv = LinkCutter::isolate(NodeId(5), N).during(unit1, 2 * unit1);
    let result = run_ul(cfg(3, 205), make_node, &mut adv);
    assert!(result.alerted_in_unit(NodeId(5), 1, &sched));
    assert!(result.final_operational.iter().all(|&b| b));
    // The other nodes exchanged heartbeats during the isolation unit.
    let accepted_mid = result
        .outputs
        .iter()
        .enumerate()
        .filter(|(idx, _)| *idx != NodeId(5).idx())
        .flat_map(|(_, l)| l.iter())
        .filter(|(round, ev)| {
            *round > unit1 + sched.refresh_rounds()
                && *round < 2 * unit1
                && matches!(ev, OutputEvent::Accepted { from, .. } if *from != NodeId(5))
        })
        .count();
    assert!(accepted_mid > 0);
}

/// Crash-stop `target` at `crash_at` (volatile state lost) and restart it as
/// a blank instance at `restart_at`.
struct CrashRestart {
    target: NodeId,
    crash_at: u64,
    restart_at: u64,
}

impl proauth_sim::adversary::UlAdversary for CrashRestart {
    fn plan(&mut self, view: &proauth_sim::adversary::NetView<'_>) -> proauth_sim::adversary::BreakPlan {
        use proauth_sim::adversary::BreakPlan;
        if view.time.round == self.crash_at {
            BreakPlan::crash([self.target])
        } else if view.time.round == self.restart_at {
            BreakPlan::restart([self.target])
        } else {
            BreakPlan::none()
        }
    }
    fn deliver(
        &mut self,
        sent: &[proauth_sim::message::Envelope],
        _view: &proauth_sim::adversary::NetView<'_>,
    ) -> Vec<proauth_sim::message::Envelope> {
        sent.to_vec()
    }
}

#[test]
fn crash_during_refresh_recovers_share_without_corrupting_joint_key() {
    // Node 3 crash-stops in the middle of refresh Part II of unit 1 — mid
    // zero-sharing share update — and loses all volatile state, including
    // whatever partial update it held. It restarts a few rounds later as a
    // blank instance and takes the §4.2 recovery path at the next refresh.
    let sched = uls_schedule(NORMAL);
    let part2_mid = sched.unit_rounds + sched.part1_rounds + sched.part2_rounds / 2;
    let mut adv = LimitObserver::new(CrashRestart {
        target: NodeId(3),
        crash_at: part2_mid,
        restart_at: part2_mid + 4,
    });
    let result = run_ul(cfg(3, 206), make_node, &mut adv);
    assert_eq!(result.stats.crashes, 1);
    assert_eq!(result.stats.restarts, 1);
    assert!(result.stats.crashed_rounds[NodeId(3).idx()] > 0);
    // One crash victim stays within the (s,t) budget throughout.
    assert!(adv.max_impaired() <= T, "max impaired {}", adv.max_impaired());

    // Losing one mid-update share must not corrupt the joint key: the other
    // nodes finish the refresh and authenticated traffic flows among them
    // for the rest of unit 1...
    let unit2 = 2 * sched.unit_rounds;
    let accepted_among_others = result
        .outputs
        .iter()
        .enumerate()
        .filter(|(idx, _)| *idx != NodeId(3).idx())
        .flat_map(|(_, l)| l.iter())
        .filter(|(round, ev)| {
            *round > part2_mid
                && *round < unit2
                && matches!(ev, OutputEvent::Accepted { from, .. } if *from != NodeId(3))
        })
        .count();
    assert!(accepted_among_others > 0, "survivors keep serving in unit 1");
    // ...and no forgery ever becomes possible.
    assert!(IdealChecker::new(T)
        .check_no_forgery(&result.outputs, &[])
        .is_empty());

    // The restarted node recovers its share at the unit-2 refresh: it ends
    // operational and its messages are accepted again afterwards.
    assert!(result.final_operational.iter().all(|&b| b));
    let recovered_at = unit2 + sched.refresh_rounds();
    let accepted_from_3_late = result
        .outputs
        .iter()
        .enumerate()
        .filter(|(idx, _)| *idx != NodeId(3).idx())
        .flat_map(|(_, l)| l.iter())
        .filter(|(round, ev)| {
            *round > recovered_at
                && matches!(ev, OutputEvent::Accepted { from, .. } if *from == NodeId(3))
        })
        .count();
    assert!(accepted_from_3_late > 0, "node 3 re-certified and heard from");
}

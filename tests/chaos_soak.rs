//! Degradation sweep across the (s,t) boundary, end to end.
//!
//! `chaos_smoke_sweep` is the tier-1 guard: a small fixed-seed ramp that
//! must show the boundary — the sub-budget point upholds every guarantee,
//! the over-budget point completes but degrades loudly. The `#[ignore]`d
//! soak runs the same contract over a longer horizon with latency bounds;
//! ci.sh runs it in release.

use proauth_adversary::sweep::{run_sweep, SweepConfig};

const N: usize = 5;
const T: usize = 2;
const NORMAL: u64 = 8;

fn check_boundary(points: &[proauth_adversary::SweepPoint], t: usize) {
    for p in points {
        println!("{p}");
    }
    let calm = &points[0];
    assert!(calm.healthy(), "calm control point must be clean: {calm}");
    assert_eq!(calm.crashes, 0);

    let sub = points
        .iter()
        .find(|p| p.label == "sub-budget")
        .expect("ramp has a sub-budget point");
    // Below the budget the paper's guarantees hold outright: the compiled
    // schedule kept impairment ≤ t, nobody forged, and every crash victim
    // re-certified (all nodes operational at the end).
    assert!(sub.crashes > 0, "sub-budget point must actually inject faults");
    assert!(sub.restarts > 0, "crash victims must restart");
    assert!(
        sub.max_impaired <= t,
        "sub-budget schedule exceeded the budget: {sub}"
    );
    assert!(sub.healthy(), "sub-budget guarantees violated: {sub}");
    assert!(
        sub.recoveries > 0,
        "sub-budget crash victims must complete recovery spells"
    );

    let over = points
        .iter()
        .find(|p| p.label == "over-budget")
        .expect("ramp has an over-budget point");
    // Past the boundary the run must still complete (reaching this line is
    // the no-panic/no-hang check) and must NOT silently claim health.
    assert!(over.crashes > 0);
    assert!(
        over.max_impaired > t,
        "over-budget point failed to cross the boundary: {over}"
    );
    assert!(over.alarm(), "over-budget degradation must raise an alarm: {over}");
}

#[test]
fn chaos_smoke_sweep() {
    let cfg = SweepConfig::boundary_ramp(N, T, 3, NORMAL, 42);
    let points = run_sweep(&cfg);
    assert_eq!(points.len(), 3);
    check_boundary(&points, T);
}

/// Long soak: same boundary contract over twice the horizon, several seeds,
/// plus a hard bound on re-certification latency. Run with
/// `cargo test --release -p proauth-tests --test chaos_soak -- --ignored`.
#[test]
#[ignore]
fn chaos_soak_sweep() {
    for seed in [7u64, 42, 1997] {
        let cfg = SweepConfig::boundary_ramp(N, T, 6, NORMAL, seed);
        let points = run_sweep(&cfg);
        check_boundary(&points, T);
        let sub = points.iter().find(|p| p.label == "sub-budget").unwrap();
        // A crash victim is re-certified at the next refresh end after its
        // restart: worst case just over two units. The histogram quantile
        // reports a power-of-two bucket bound, so assert against the bucket
        // that contains two units.
        let two_units = 2 * (NORMAL + 36); // uls_schedule: part1 20 + part2 16
        let bound = two_units.next_power_of_two();
        assert!(
            sub.recovery_p99_rounds <= bound,
            "seed {seed}: recovery latency unbounded: {sub}"
        );
    }
}

/// ci.sh's over-budget daemon leg (`daemon --n 5 --t 1 --units 2
/// --partition 4:12:<split>`, seed 0) replayed on the engine, whose
/// `ChaosNet` executes the same `LinkChaos` the chaos proxy does, with
/// disconnection threshold `s` (the daemon uses `s = t`).
fn partition_run(split: u32, s: usize) -> proauth_sim::SimResult {
    use proauth_core::authenticator::HeartbeatApp;
    use proauth_core::uls::{uls_schedule, UlsConfig, UlsNode, SETUP_ROUNDS};
    use proauth_crypto::group::{Group, GroupId};
    use proauth_sim::adversary::FaithfulUl;
    use proauth_sim::chaos::{ChaosConfig, ChaosNet, FaultSchedule, LinkChaos, Partition};
    use proauth_sim::runner::{run_ul, SimConfig};
    let (n, t) = (5, 1);
    let schedule = uls_schedule(NORMAL);
    let mut cfg = SimConfig::new(n, s, schedule);
    cfg.setup_rounds = SETUP_ROUNDS;
    cfg.total_rounds = schedule.unit_rounds * 2;
    let link = LinkChaos {
        partition: Some(Partition {
            start: 4,
            end: 12,
            split,
        }),
        ..LinkChaos::default()
    };
    let chaos = ChaosConfig {
        link,
        ..ChaosConfig::default()
    };
    let mut adv = ChaosNet::new(FaithfulUl, chaos, FaultSchedule::default(), n);
    let group = Group::new(GroupId::Toy64);
    run_ul(
        cfg,
        |id| UlsNode::new(UlsConfig::new(group.clone(), n, t), id, HeartbeatApp::default()),
        &mut adv,
    )
}

#[test]
fn partition_verdicts_on_the_engine() {
    // Definition 7 with t = 1: a unit is over budget once more than one
    // node is broken or not s-operational. No node is broken here, so the
    // partition alone decides.
    let over = |r: &proauth_sim::SimResult| r.stats.unit_scores[0].non_operational > 1;
    // ci.sh's scenario (s = t = 1, nodes {1,2} vs {3,4,5}) is over budget:
    // its `budget_exceeded` expectation is right.
    assert!(over(&partition_run(2, 1)));
    // At s = 1 even cutting off node 1 alone is: every other node then has
    // an unreliable link to an operational peer, which s = 1 does not allow
    // (Definition 5), and with nobody operational throughout the next
    // refresh no node can ever rejoin.
    let lone = partition_run(1, 1);
    assert!(over(&lone));
    assert!(lone.final_operational.iter().all(|&op| !op));
    // At s = 2, the largest s Lemma 15 allows at n = 5, the one-node
    // partition stays within budget and heals; the 2:3 split does not.
    let lone = partition_run(1, 2);
    assert!(lone.stats.unit_scores.iter().all(|u| u.non_operational <= 1));
    assert!(lone.final_operational.iter().all(|&op| op));
    assert!(over(&partition_run(2, 2)));
}

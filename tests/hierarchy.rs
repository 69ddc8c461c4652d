//! End-to-end tests of the §6 two-level hierarchy: cluster-local ULS stacks
//! under a top-level PDS over cluster representatives.
//!
//! Covered here:
//! * the full network completes setup, reaches steady state, and the
//!   representatives jointly sign the per-unit liveness heartbeat;
//! * cross-cluster transit traffic is authenticated end to end;
//! * crashing a representative mid-refresh triggers the deterministic
//!   re-election, the promoted node recovers a top-level share through the
//!   Herzberg path, and the joint public key never changes;
//! * runs are bit-identical across worker-pool sizes 1/2/8;
//! * (release-only, `--ignored`) the headline complexity claim: the
//!   hierarchy at n = 64 sends ≥ 3× fewer envelopes than the flat scheme
//!   over the same refresh-bearing horizon.

use proauth_core::authenticator::NullApp;
use proauth_core::hier::{heartbeat_msg, transit_input, HierConfig, HierNode, HIER_SETUP_ROUNDS};
use proauth_core::uls::uls_schedule;
use proauth_crypto::group::{Group, GroupId};
use proauth_sim::adversary::{BreakPlan, FaithfulUl, NetView, UlAdversary};
use proauth_sim::clock::TimeView;
use proauth_sim::message::{Envelope, NodeId, OutputEvent};
use proauth_sim::runner::{run_ul, run_ul_with_inputs, SimConfig, SimResult};

const NORMAL: u64 = 12;

fn group() -> Group {
    Group::new(GroupId::Toy64)
}

fn hier_cfg(n: usize, units: u64, seed: u64) -> (HierConfig, SimConfig) {
    let hcfg = HierConfig::new(group(), n);
    let mut cfg = SimConfig::new(n, 1, uls_schedule(NORMAL));
    cfg.setup_rounds = HIER_SETUP_ROUNDS;
    cfg.total_rounds = cfg.schedule.unit_rounds * units;
    cfg.seed = seed;
    cfg.clusters = Some(hcfg.partition.clusters.clone());
    (hcfg, cfg)
}

fn make_node(hcfg: &HierConfig) -> impl Fn(NodeId) -> HierNode<NullApp> + '_ {
    move |id| HierNode::new(hcfg.clone(), id, NullApp)
}

fn signed_heartbeats(result: &SimResult, node: NodeId) -> Vec<u64> {
    result
        .events_of(node)
        .iter()
        .filter_map(|(_, ev)| match ev {
            OutputEvent::Signed { msg, unit } if *msg == heartbeat_msg(*unit) => Some(*unit),
            _ => None,
        })
        .collect()
}

#[test]
fn hier_network_reaches_steady_state_and_signs_heartbeats() {
    let (hcfg, cfg) = hier_cfg(16, 3, 7);
    let result = run_ul(cfg, make_node(&hcfg), &mut FaithfulUl);

    // Setup burned the same top-level key and cluster-cert table into every
    // node's ROM.
    let v_top = result.roms[0].read("hier/v_top").expect("v_top").to_vec();
    let table = result.roms[0]
        .read("hier/cluster_certs")
        .expect("cert table")
        .to_vec();
    assert!(!v_top.is_empty());
    for rom in &result.roms {
        assert_eq!(rom.read("hier/v_top"), Some(&v_top[..]));
        assert_eq!(rom.read("hier/cluster_certs"), Some(&table[..]));
    }

    // The initial representatives (lowest member id of each cluster) jointly
    // signed the liveness heartbeat, verified against the ROM key, in every
    // unit including post-refresh ones.
    for c in 0..hcfg.partition.cluster_count() {
        let rep = NodeId(hcfg.partition.representative(c, 0));
        let units = signed_heartbeats(&result, rep);
        assert!(
            units.contains(&0) && units.contains(&2),
            "representative {rep:?} signed units {units:?}, expected 0 and 2"
        );
    }

    // No alerts, nobody non-operational, under faithful delivery.
    assert!(result.final_operational.iter().all(|&b| b));
    assert_eq!(result.stats.alerts.iter().sum::<u64>(), 0);
}

#[test]
fn cross_cluster_transit_is_authenticated_end_to_end() {
    let (hcfg, cfg) = hier_cfg(16, 1, 11);
    let src = NodeId(3); // cluster 0, not the representative
    let dst = NodeId(16); // cluster 3
    assert_ne!(
        hcfg.partition.cluster_of(src.0),
        hcfg.partition.cluster_of(dst.0)
    );
    let result = run_ul_with_inputs(
        cfg,
        make_node(&hcfg),
        &mut FaithfulUl,
        move |id, round| {
            (id == src && round == 4).then(|| transit_input(dst, b"cross-cluster hello"))
        },
    );
    assert!(result
        .events_of(src)
        .iter()
        .any(|(r, ev)| *r == 4
            && *ev
                == OutputEvent::Sent {
                    to: dst,
                    msg: b"cross-cluster hello".to_vec()
                }));
    assert!(result
        .events_of(dst)
        .iter()
        .any(|(r, ev)| *r == 5
            && *ev
                == OutputEvent::Accepted {
                    from: src,
                    msg: b"cross-cluster hello".to_vec()
                }));
}

#[test]
fn transit_replayed_into_other_lanes_is_rejected() {
    // A man-in-the-middle that re-addresses every transit envelope to a
    // different node and also replays it one round late to the real
    // destination: both must be rejected (destination binding, round
    // freshness), so nothing beyond the one honest delivery is accepted.
    struct Replayer {
        stash: Vec<Envelope>,
    }
    impl UlAdversary for Replayer {
        fn plan(&mut self, _v: &NetView<'_>) -> BreakPlan {
            BreakPlan::none()
        }
        fn corrupt(&mut self, _n: NodeId, _s: &mut dyn std::any::Any, _t: &TimeView) {}
        fn deliver(&mut self, sent: &[Envelope], _v: &NetView<'_>) -> Vec<Envelope> {
            let mut out = sent.to_vec();
            // Replay last round's transit traffic verbatim (now one round
            // stale) and misdirected copies of this round's.
            out.append(&mut self.stash);
            for env in sent {
                // Transit frames are tag 4 (see HierWire): re-address to a
                // bystander and stash a late replay.
                if env.payload.first() == Some(&4) {
                    let bystander = NodeId(env.to.0 % 16 + 1);
                    if bystander != env.from {
                        out.push(Envelope::new(env.from, bystander, env.payload.clone()));
                    }
                    self.stash.push(env.clone());
                }
            }
            out
        }
    }
    let (hcfg, cfg) = hier_cfg(16, 1, 13);
    let src = NodeId(3);
    let dst = NodeId(16);
    let result = run_ul_with_inputs(
        cfg,
        make_node(&hcfg),
        &mut Replayer { stash: Vec::new() },
        move |id, round| {
            (id == src && round == 4).then(|| transit_input(dst, b"once only"))
        },
    );
    let accepts: usize = (1..=16)
        .map(|i| {
            result
                .events_of(NodeId(i))
                .iter()
                .filter(|(_, ev)| {
                    matches!(ev, OutputEvent::Accepted { msg, .. } if msg == b"once only")
                })
                .count()
        })
        .sum();
    assert_eq!(accepts, 1, "exactly the one honest delivery is accepted");
}

/// Crashes cluster 0's representative in the middle of the unit-1 refresh,
/// restarts it two units later.
struct RepCrash {
    crash_round: u64,
    restart_round: u64,
}

impl UlAdversary for RepCrash {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        if view.time.round == self.crash_round {
            BreakPlan::crash([NodeId(1)])
        } else if view.time.round == self.restart_round {
            BreakPlan::restart([NodeId(1)])
        } else {
            BreakPlan::none()
        }
    }
    fn corrupt(&mut self, _n: NodeId, _s: &mut dyn std::any::Any, _t: &TimeView) {}
    fn deliver(&mut self, sent: &[Envelope], _v: &NetView<'_>) -> Vec<Envelope> {
        sent.to_vec()
    }
}

#[test]
fn representative_crash_mid_refresh_reelects_and_preserves_top_key() {
    let (hcfg, cfg) = hier_cfg(16, 4, 21);
    let unit_rounds = cfg.schedule.unit_rounds;
    // Node 1 is cluster 0's initial representative; crash it in the middle
    // of unit 1's refresh Part II and bring it back early in unit 2.
    assert_eq!(hcfg.partition.representative(0, 0), 1);
    let mut adv = RepCrash {
        crash_round: unit_rounds + 26,
        restart_round: 2 * unit_rounds + 4,
    };
    let result = run_ul(cfg, make_node(&hcfg), &mut adv);
    assert_eq!(result.stats.crashes, 1);
    assert_eq!(result.stats.restarts, 1);

    // The deterministic successor (next member in the cycle) took over and
    // co-signed a later unit's heartbeat. `Signed` is emitted only after the
    // aggregate verified against the ROM's `hier/v_top`, so this asserts in
    // one stroke: re-election happened, the promoted node obtained a share
    // through Herzberg recovery, and the joint public key is unchanged.
    assert_eq!(hcfg.partition.representative(0, 1), 2);
    let successor_units = signed_heartbeats(&result, NodeId(2));
    assert!(
        successor_units.iter().any(|&u| u >= 2),
        "successor must co-sign a post-recovery heartbeat, got {successor_units:?}"
    );

    // The other clusters' representatives kept signing throughout.
    for c in 1..hcfg.partition.cluster_count() {
        let rep = NodeId(hcfg.partition.representative(c, 0));
        assert!(
            signed_heartbeats(&result, rep).iter().any(|&u| u >= 2),
            "cluster {c} representative must keep signing"
        );
    }

    // The top-level key in ROM is the same on every node (it was burned at
    // setup and ROM is immutable post-setup — the assertion documents that
    // recovery never needed to change it).
    let v_top = result.roms[0].read("hier/v_top").unwrap().to_vec();
    for rom in &result.roms {
        assert_eq!(rom.read("hier/v_top"), Some(&v_top[..]));
    }
}

#[test]
fn hier_runs_bit_identical_across_pool_sizes() {
    // Faithful delivery AND the crash/restart path (a representative dies
    // mid-refresh, re-election fires): the engine must be invisible in
    // both. This is `prop_engine_determinism` for the hierarchical runner.
    let run = |threads: usize, adversarial: bool| {
        let (hcfg, mut cfg) = hier_cfg(16, if adversarial { 3 } else { 2 }, 33);
        cfg.parallel = threads > 0;
        cfg.threads = threads;
        if adversarial {
            let unit_rounds = cfg.schedule.unit_rounds;
            let mut adv = RepCrash {
                crash_round: unit_rounds + 26,
                restart_round: 2 * unit_rounds + 4,
            };
            run_ul(cfg, make_node(&hcfg), &mut adv)
        } else {
            run_ul(cfg, make_node(&hcfg), &mut FaithfulUl)
        }
    };
    for adversarial in [false, true] {
        let serial = run(0, adversarial);
        assert_eq!(serial, run(1, adversarial));
        assert_eq!(serial, run(2, adversarial));
        assert_eq!(serial, run(8, adversarial));
    }
}

/// The headline complexity claim, asserted end to end: over an identical
/// refresh-bearing horizon at n = 64, the hierarchy sends at least 3× fewer
/// envelopes than the flat scheme. The flat comparator deliberately runs
/// the *cheapest feasible* flat configuration (t = 3 with the §6 relaxed
/// 2t+1 fan-out — the E11 champion config; a max-threshold t = 31 flat
/// refresh is the very Θ(n²·t) blow-up the hierarchy exists to avoid, and
/// is not runnable here), so the ≥3× bound is conservative. Run in release
/// (ci.sh does): `cargo test --release -p proauth-tests --test hierarchy
/// -- --ignored`.
#[test]
#[ignore]
fn hier_beats_flat_by_3x_on_envelopes_at_n64() {
    use proauth_core::disperse::DisperseMode;
    use proauth_core::uls::{UlsConfig, UlsNode, SETUP_ROUNDS};
    const N: usize = 64;
    let units = 2; // unit 1 carries a full refresh
    let (hcfg, cfg) = hier_cfg(N, units, 55);
    let hier = run_ul(cfg, make_node(&hcfg), &mut FaithfulUl);
    // Eight clusters of eight, every representative co-signing both units'
    // heartbeats, over a fixed number of envelopes.
    assert_eq!(hcfg.partition.cluster_count(), 8);
    for c in 0..8 {
        let rep = NodeId(hcfg.partition.representative(c, 0));
        assert_eq!(signed_heartbeats(&hier, rep), [0, 1], "cluster {c}");
    }
    assert_eq!(hier.stats.messages_sent, 277_312);

    let mut flat_cfg = SimConfig::new(N, 1, uls_schedule(NORMAL));
    flat_cfg.setup_rounds = SETUP_ROUNDS;
    flat_cfg.total_rounds = flat_cfg.schedule.unit_rounds * units;
    flat_cfg.seed = 55;
    let flat = run_ul(
        flat_cfg,
        |id| {
            let mut c = UlsConfig::new(group(), N, 3);
            c.disperse = DisperseMode::Relaxed { fanout: 7 };
            UlsNode::new(c, id, NullApp)
        },
        &mut FaithfulUl,
    );

    let (h, f) = (hier.stats.messages_sent, flat.stats.messages_sent);
    assert!(
        h * 3 <= f,
        "hierarchy must send ≥3× fewer envelopes: hier {h} vs flat {f}"
    );
}

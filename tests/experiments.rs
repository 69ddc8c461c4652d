//! The EXPERIMENTS.md verdicts that no other suite asserts, as tests.
//!
//! Each section is one experiment: a small instance runs in tier-1 (debug
//! `cargo test`), and the full grid sits behind `#[ignore]`, run in release:
//! `cargo test -q -p proauth-tests --release --test experiments --test attacks -- --ignored`.
//! Every run is deterministic, so the asserted counts are exact.
//!
//! * E1 — Lemma 15: DISPERSE delivers between `s`-operational nodes, and
//!   worst-case link cutting breaks it exactly at `k = n/2`.
//! * E6 — §6: the relaxed `2t+1` fan-out takes per-node traffic from
//!   `O(n²)` to `O(nt)`.
//! * E7 — §6: the √n partition halves the optimal adversary's budget
//!   (n/2 → n/4) but barely helps a random one.
//! * E8 — §5.1: unlimited injection never forges; denied key
//!   announcements make their nodes alert.
//! * E10 — Definition 12: randomized runs against the ideal process.
//!
//! E2–E5 live with the suites they extend: `prop_core` (Lemma 16),
//! `attacks` (Thm 14, Prop 31) and `churn` (recovery).

use proauth_adversary::{Injector, LinkCutter, RandomDropper};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::awareness;
use proauth_core::disperse::{DisperseLayer, DisperseMode};
use proauth_core::partition::{flat_min_breakins, Partition};
use proauth_core::uls::{sign_input, uls_schedule, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_core::wire::{Blob, DisperseMsg, UlsWire};
use proauth_crypto::group::{Group, GroupId};
use proauth_crypto::schnorr::Signature;
use proauth_pds::ideal::IdealChecker;
use proauth_primitives::bigint::BigUint;
use proauth_primitives::wire::Encode;
use proauth_sim::adversary::{FaithfulUl, UlAdversary};
use proauth_sim::clock::{Phase, Schedule};
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_sim::process::{Process, RoundCtx, SetupCtx};
use proauth_sim::runner::{run_ul, run_ul_with_inputs, SimConfig, SimResult};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The network of E8 and E10, and E6's threshold.
const N: usize = 5;
const T: usize = 2;

/// A ULS run at threshold `T` of `units` time units with `normal` normal
/// rounds each.
fn uls_cfg(n: usize, normal: u64, units: u64, seed: u64) -> SimConfig {
    let schedule = uls_schedule(normal);
    let mut c = SimConfig::new(n, T, schedule);
    c.setup_rounds = SETUP_ROUNDS;
    c.total_rounds = schedule.unit_rounds * units;
    c.seed = seed;
    c
}

fn uls_node(n: usize, disperse: DisperseMode) -> impl Fn(NodeId) -> UlsNode<HeartbeatApp> {
    move |id| {
        let mut c = UlsConfig::new(Group::new(GroupId::Toy64), n, T);
        c.disperse = disperse;
        UlsNode::new(c, id, HeartbeatApp::default())
    }
}

// ---------------------------------------------------------------------------
// E1 — Lemma 15.

/// Node 1 DISPERSEs a probe to node 2 every round; node 2 logs deliveries.
struct Probe {
    layer: DisperseLayer,
    me: NodeId,
}

impl Process for Probe {
    fn on_setup_round(&mut self, _ctx: &mut SetupCtx<'_>) {}

    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        let delivered = self
            .layer
            .receive(ctx.inbox.iter().map(|env| &env.payload[..]));
        if self.me == NodeId(2) {
            for (origin, blob) in delivered {
                if origin == 1 {
                    ctx.emit(OutputEvent::Custom(
                        String::from_utf8_lossy(&blob).into_owned(),
                    ));
                }
            }
        }
        if self.me == NodeId(1) {
            self.layer
                .send(NodeId(2), ctx.time.round.to_string().into_bytes().into());
        }
        for entry in self.layer.drain_outgoing() {
            ctx.send_many(entry.to, entry.payload);
        }
    }

    fn state_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

const PROBE_ROUNDS: u64 = 40;
/// Probes whose delivery round falls inside the run (the last two are still
/// in flight at the end).
const PROBES: usize = PROBE_ROUNDS as usize - 2;

/// Probes delivered from node 1 to node 2 with `cuts` severed all run.
fn probes_delivered(n: usize, cuts: Vec<(NodeId, NodeId)>, mode: DisperseMode) -> usize {
    let mut cfg = SimConfig::new(n, (n - 1) / 2, Schedule::new(PROBE_ROUNDS, 1, 1));
    cfg.total_rounds = PROBE_ROUNDS;
    cfg.setup_rounds = 0;
    let result = run_ul(
        cfg,
        |me| Probe {
            layer: DisperseLayer::new(me, n, mode),
            me,
        },
        &mut LinkCutter::new(cuts),
    );
    result.outputs[NodeId(2).idx()]
        .iter()
        .filter(|(_, e)| matches!(e, OutputEvent::Custom(_)))
        .count()
}

/// Worst-case placement of `k` cuts per endpoint: the direct link, then
/// relay sets disjoint between the two endpoints.
fn worst_case_cuts(n: usize, k: usize) -> Vec<(NodeId, NodeId)> {
    if k == 0 {
        return Vec::new();
    }
    let relays: Vec<u32> = (3..=n as u32).collect();
    let mut cuts = vec![(NodeId(1), NodeId(2))];
    cuts.extend(relays.iter().take(k - 1).map(|&r| (NodeId(1), NodeId(r))));
    cuts.extend(
        relays
            .iter()
            .rev()
            .take(k - 1)
            .map(|&r| (NodeId(2), NodeId(r))),
    );
    cuts
}

/// Random placement: `k` random links incident to each endpoint.
fn random_cuts(n: usize, k: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cuts = Vec::new();
    for endpoint in [1u32, 2] {
        let mut others: Vec<u32> = (1..=n as u32).filter(|&x| x != endpoint).collect();
        others.shuffle(&mut rng);
        cuts.extend(
            others
                .iter()
                .take(k)
                .map(|&o| (NodeId(endpoint), NodeId(o))),
        );
    }
    cuts
}

/// Lemma 15 under worst-case cuts, full and §6-relaxed fan-out: every probe
/// arrives while `k < n/2` (both endpoints stay `s`-operational for
/// `s = ⌊(n−1)/2⌋`), none from `k = n/2` on.
fn assert_worst_case_cliff(n: usize) {
    let t = (n - 1) / 2;
    for k in 0..n {
        let expected = if k < n / 2 { PROBES } else { 0 };
        let full = probes_delivered(n, worst_case_cuts(n, k), DisperseMode::Full);
        assert_eq!(full, expected, "n = {n}, k = {k}: full fan-out");
        let relaxed = probes_delivered(
            n,
            worst_case_cuts(n, k),
            DisperseMode::Relaxed { fanout: 2 * t + 1 },
        );
        assert_eq!(
            relaxed, full,
            "n = {n}, k = {k}: the 2t+1 fan-out delivers the same"
        );
    }
}

#[test]
fn e1_disperse_delivers_exactly_while_fewer_than_half_the_links_are_cut() {
    assert_worst_case_cliff(8);
}

#[test]
#[ignore]
fn e1_disperse_cliff_at_n16() {
    assert_worst_case_cliff(16);
}

/// Random placement: probes delivered over five placements per `k`, for
/// `k = 0..n`. Perfect as long as Lemma 15 covers the placement, and well
/// past `n/2` at n = 16: the adversary must *place* its cuts.
#[test]
#[ignore]
fn e1_random_cuts_degrade_gracefully() {
    const N8: [usize; 8] = [190, 190, 190, 190, 152, 114, 38, 0];
    const N16: [usize; 16] = [
        190, 190, 190, 190, 190, 190, 190, 190, 190, 190, 190, 152, 152, 76, 0, 0,
    ];
    for (n, expected) in [(8usize, &N8[..]), (16, &N16[..])] {
        let delivered: Vec<usize> = (0..n)
            .map(|k| {
                (0..5u64)
                    .map(|s| {
                        probes_delivered(n, random_cuts(n, k, 7 * s + k as u64), DisperseMode::Full)
                    })
                    .sum()
            })
            .collect();
        assert_eq!(delivered, expected, "n = {n}");
    }
}

// ---------------------------------------------------------------------------
// E6 — §6 relaxed fan-out.

/// `(n, full, relaxed)`: envelopes sent over two units (one full refresh)
/// at `t = 2`, under full DISPERSE and under the `2t+1` fan-out.
const E6_COUNTS: [(usize, u64, u64); 6] = [
    (5, 7_300, 7_300),
    (9, 77_832, 50_616),
    (13, 330_252, 146_068),
    (17, 944_656, 316_336),
    (21, 2_162_580, 582_540),
    (25, 4_287_000, 965_800),
];

fn e6_messages(n: usize, disperse: DisperseMode) -> u64 {
    let result = run_ul(uls_cfg(n, 4, 2, 61), uls_node(n, disperse), &mut FaithfulUl);
    assert_eq!(
        result.stats.alerts.iter().sum::<u64>(),
        0,
        "n = {n}: clean run"
    );
    result.stats.messages_sent
}

fn assert_e6_row(n: usize, full: u64, relaxed: u64) {
    assert_eq!(
        e6_messages(n, DisperseMode::Full),
        full,
        "n = {n}: full fan-out"
    );
    let fanout = 2 * T + 1;
    assert_eq!(
        e6_messages(n, DisperseMode::Relaxed { fanout }),
        relaxed,
        "n = {n}: 2t+1 fan-out"
    );
}

#[test]
fn e6_relaxed_fanout_message_counts_at_n5_and_n9() {
    for &(n, full, relaxed) in &E6_COUNTS[..2] {
        assert_e6_row(n, full, relaxed);
    }
}

/// Per node, full DISPERSE costs `O(n²)` and the relaxed fan-out `O(nt)`:
/// their ratio stays within 10 % of `n/(2t+2)`.
#[test]
#[ignore]
fn e6_full_over_relaxed_tracks_n_over_2t_plus_2() {
    for &(n, full, relaxed) in &E6_COUNTS[1..] {
        assert_e6_row(n, full, relaxed);
        let ratio = full as f64 / relaxed as f64;
        let predicted = n as f64 / (2 * T + 2) as f64;
        assert!(
            (ratio / predicted - 1.0).abs() <= 0.10,
            "n = {n}: ratio {ratio:.2} vs predicted {predicted:.2}"
        );
    }
}

// ---------------------------------------------------------------------------
// E7 — §6 partition.

/// The optimal adversary's budget: a majority of the network flat, a
/// majority of a majority of √n clusters partitioned — n/2 falls to n/4.
#[test]
fn e7_optimal_adversary_needs_half_flat_but_a_quarter_partitioned() {
    // (n, clusters, flat, two-level)
    let rows = [
        (16usize, 4usize, 9usize, 9usize),
        (36, 6, 19, 16),
        (64, 8, 33, 25),
        (100, 10, 51, 36),
        (144, 12, 73, 49),
    ];
    for (n, clusters, flat, two_level) in rows {
        let p = Partition::sqrt(n);
        assert_eq!(p.cluster_count(), clusters, "n = {n}");
        assert_eq!(flat_min_breakins(n), flat, "n = {n}");
        assert_eq!(p.min_breakins_to_compromise(), two_level, "n = {n}");
    }
}

/// Against random break-ins (n = 64, 8×8, 2 000 trials per row) the
/// partition is only marginally weaker: nothing lost up to 45 %, first
/// losses at 50 %, where the flat scheme still holds; flat falls at 55 %.
#[test]
fn e7_random_adversary_barely_notices_the_partition() {
    const N: usize = 64;
    const TRIALS: usize = 2000;
    // (percent broken, flat systems lost, two-level systems lost)
    let rows = [
        (10usize, 0usize, 0usize),
        (20, 0, 0),
        (25, 0, 0),
        (30, 0, 0),
        (35, 0, 0),
        (40, 0, 0),
        (45, 0, 0),
        (50, 0, 31),
        (55, TRIALS, 341),
        (60, TRIALS, 1164),
    ];
    let p = Partition::sqrt(N);
    for (pct, flat_lost, part_lost) in rows {
        let k = N * pct / 100;
        let mut rng = StdRng::seed_from_u64(pct as u64);
        let mut lost = 0;
        for _ in 0..TRIALS {
            let mut nodes: Vec<usize> = (0..N).collect();
            nodes.shuffle(&mut rng);
            let mut broken = vec![false; N];
            for &i in &nodes[..k] {
                broken[i] = true;
            }
            lost += usize::from(p.system_compromised(&broken));
        }
        let flat = if k > N / 2 { TRIALS } else { 0 };
        assert_eq!((flat, lost), (flat_lost, part_lost), "{pct} % broken");
    }
}

// ---------------------------------------------------------------------------
// E8 — §5.1 injection, n = 5, t = 2, two units (one refresh).

const E8_NORMAL: u64 = 12;

fn e8_run(adv: &mut impl UlAdversary, seed: u64) -> SimResult {
    run_ul(
        uls_cfg(N, E8_NORMAL, 2, seed),
        uls_node(N, DisperseMode::Full),
        adv,
    )
}

fn assert_no_impersonation(result: &SimResult) {
    let imps =
        awareness::find_impersonations(&result.outputs, &uls_schedule(E8_NORMAL), |_, _| false);
    assert!(imps.is_empty(), "{imps:?}");
}

/// Every `Accepted` event of a run, per node, in order.
fn accepted(result: &SimResult) -> Vec<Vec<(u64, OutputEvent)>> {
    result
        .outputs
        .iter()
        .map(|log| {
            log.iter()
                .filter(|(_, ev)| matches!(ev, OutputEvent::Accepted { .. }))
                .cloned()
                .collect()
        })
        .collect()
}

/// Campaign 1: garbage on every link, every round — silently dropped; the
/// honest traffic is accepted exactly as without it.
#[test]
fn e8_garbage_on_every_link_is_dropped_silently() {
    let mut adv = Injector::new(|view| {
        let mut out = Vec::new();
        for from in NodeId::all(N) {
            for to in NodeId::all(N).filter(|&to| to != from) {
                out.push((from, to, vec![0xDE, 0xAD, view.time.round as u8]));
            }
        }
        out
    });
    let result = e8_run(&mut adv, 71);
    assert_no_impersonation(&result);
    assert_eq!(result.stats.alerts.iter().sum::<u64>(), 0);
    assert_eq!(accepted(&result), accepted(&e8_run(&mut FaithfulUl, 71)));
}

/// Campaign 2: well-formed certificate deliveries carrying no valid
/// certificate, in node 1's name to everyone else.
#[test]
fn e8_forged_certificate_deliveries_are_dropped_silently() {
    let mut adv = Injector::new(|view| {
        let blob = Blob::CertDeliver {
            subject: (view.time.round % N as u64 + 1) as u32,
            unit: view.time.unit,
            vk: vec![7; 8],
            cert: Signature {
                e: BigUint::from_u64(1),
                s: BigUint::from_u64(2),
            },
        };
        let wire = UlsWire::Disperse(DisperseMsg::Forwarding {
            origin: 1,
            blob: blob.to_bytes().into(),
        })
        .to_bytes();
        NodeId::all(N)
            .filter(|&to| to != NodeId(1))
            .map(|to| (NodeId(1), to, wire.clone()))
            .collect()
    });
    let result = e8_run(&mut adv, 72);
    assert_no_impersonation(&result);
    assert_eq!(result.stats.alerts.iter().sum::<u64>(), 0);
    assert_eq!(accepted(&result), accepted(&e8_run(&mut FaithfulUl, 72)));
}

/// Campaign 3, the §5.1 scenario: a bogus key announced in every node's
/// name, delivered ahead of the real one, in every refresh's clear-text
/// announce round. Certificates are denied, nothing is forged, and every
/// denied node alerts.
#[test]
fn e8_bogus_key_announcements_deny_certificates_and_every_victim_alerts() {
    let mut adv = Injector::rushing(|view| {
        if !matches!(view.time.phase, Phase::RefreshPart1 { step: 0 }) {
            return Vec::new();
        }
        let announce = UlsWire::KeyAnnounce {
            unit: view.time.unit,
            vk: vec![0xBB; 8],
        }
        .to_bytes();
        let mut out = Vec::new();
        for victim in NodeId::all(N) {
            for to in NodeId::all(N).filter(|&to| to != victim) {
                out.push((victim, to, announce.clone()));
            }
        }
        out
    });
    let result = e8_run(&mut adv, 73);
    assert_no_impersonation(&result);
    let sched = uls_schedule(E8_NORMAL);
    for node in NodeId::all(N) {
        assert!(
            result.alerted_in_unit(node, 1, &sched),
            "{node} denied but silent"
        );
    }
    assert_eq!(result.stats.alerts, vec![2; N]);
}

// ---------------------------------------------------------------------------
// E10 — Definition 12, n = 5, t = 2, two units.

const E10_NORMAL: u64 = 20;

struct Conformance {
    forgeries: usize,
    /// Liveness violations, `None` where the obligation does not apply.
    liveness: Option<usize>,
    signatures: usize,
}

/// One run under a random dropper at `drop_pct` with a random sign-request
/// pattern: 1–3 documents per unit, each requested by a random quorum of
/// `t+1..=n` nodes in a random normal round.
fn e10_run(drop_pct: u32, run: u64) -> Conformance {
    let sched = uls_schedule(E10_NORMAL);
    let seed = 900 + drop_pct as u64 * 100 + run;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut requests: Vec<(u64, Vec<u32>, Vec<u8>)> = Vec::new();
    for unit in 0..2u64 {
        for c in 0..rng.gen_range(1..=3) {
            let normal_start = if unit == 0 { 0 } else { sched.refresh_rounds() };
            let round = unit * sched.unit_rounds
                + normal_start
                + 2 * rng.gen_range(1..=(E10_NORMAL / 2 - 6));
            let quorum = rng.gen_range((T + 1)..=N);
            let mut nodes: Vec<u32> = (1..=N as u32).collect();
            for k in (1..nodes.len()).rev() {
                nodes.swap(k, rng.gen_range(0..=k));
            }
            nodes.truncate(quorum);
            requests.push((round, nodes, format!("doc-{unit}-{c}-{seed}").into_bytes()));
        }
    }
    let result = run_ul_with_inputs(
        uls_cfg(N, E10_NORMAL, 2, seed),
        uls_node(N, DisperseMode::Full),
        &mut RandomDropper::new(drop_pct as f64 / 100.0, seed),
        move |id, round| {
            requests
                .iter()
                .find(|(r, nodes, _)| *r == round && nodes.contains(&id.0))
                .map(|(_, _, msg)| sign_input(msg))
        },
    );
    let checker = IdealChecker::new(T);
    // Liveness is owed on a clean network where every node stayed
    // operational (ground truth). Any drop rate makes some node
    // s-disconnected in some round: that regime claims no-forgery only.
    let liveness = (drop_pct == 0 && result.final_operational.iter().all(|&b| b)).then(|| {
        let all: Vec<NodeId> = NodeId::all(N).collect();
        checker.check_liveness(&result.outputs, &all, &[]).len()
    });
    Conformance {
        forgeries: checker.check_no_forgery(&result.outputs, &[]).len(),
        liveness,
        signatures: result
            .outputs
            .iter()
            .flatten()
            .filter(|(_, ev)| matches!(ev, OutputEvent::Signed { .. }))
            .count(),
    }
}

/// Dropped messages can deny signatures, never mint them; a clean network
/// owes and delivers liveness.
fn assert_conforms(drop_pct: u32, runs: u64) -> usize {
    let mut signatures = 0;
    for run in 0..runs {
        let c = e10_run(drop_pct, run);
        assert_eq!(c.forgeries, 0, "{drop_pct} % drops, run {run}");
        if drop_pct == 0 {
            assert_eq!(c.liveness, Some(0), "clean run {run}");
        }
        signatures += c.signatures;
    }
    signatures
}

#[test]
fn e10_ideal_process_conformance_under_random_drops() {
    for drop_pct in [0, 10] {
        assert_conforms(drop_pct, 2);
    }
}

/// The 40-run sweep: eight runs per drop rate. Signature throughput does
/// not fall monotonically with the drop rate; it depends on the request
/// pattern each seed draws as much as on the drops.
#[test]
#[ignore]
fn e10_conformance_sweep() {
    let signatures: Vec<usize> = [0, 2, 5, 10, 20]
        .into_iter()
        .map(|drop_pct| assert_conforms(drop_pct, 8))
        .collect();
    assert_eq!(signatures, [90, 97, 130, 102, 88]);
}

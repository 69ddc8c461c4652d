//! Engine-side runs: the full ULS stack (or the bare AL-model PDS) under the
//! in-process round engine, wrapped in [`Stamp`] and [`Probe`], and the
//! uncontended profile computed from their readings.

use crate::calib::{floor_ns, slowdown};
use crate::estimate::{median, profile_median, profile_min};
use crate::workload::{Scenario, REFRESH_ROUNDS};
use crate::wrap::{Probe, RoundStamps, Stamp, StampAl, StepLog, StepRec};
use proauth_adversary::{LimitObserver, MobileBreakins};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::uls::{UlsConfig, UlsNode};
use proauth_crypto::group::Group;
use proauth_pds::als::{AlsConfig, AlsPds};
use proauth_pds::als_node::AlsProcess;
use proauth_sim::adversary::{BreakPlan, FaithfulUl, NetView, UlAdversary};
use proauth_sim::clock::TimeView;
use proauth_sim::message::{Envelope, NodeId};
use proauth_sim::runner::{run_al_with_inputs, run_ul_with_inputs, SimConfig, SimResult};
use proauth_sim::Telemetry;
use std::any::Any;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Set-up rounds of the bare AL-model PDS (the DKG).
const ALS_SETUP_ROUNDS: u64 = 2;

/// How an engine run is configured beyond its scenario.
#[derive(Debug, Clone, Default)]
pub struct EngineOpts {
    /// Telemetry handle for the run (off on the untraced path).
    pub telemetry: Telemetry,
    /// Worker threads; 0 runs the nodes serially on the engine thread.
    pub threads: usize,
}

/// What an engine run leaves behind.
pub struct EngineRun {
    /// The engine's result.
    pub result: SimResult,
    /// Per-round readings.
    pub stamps: RoundStamps,
    /// Per-node step records, each in round order.
    pub node_steps: Vec<Vec<StepRec>>,
    /// Most nodes impaired in any one unit, as `LimitObserver` saw it
    /// (workloads with an active adversary only).
    pub max_impaired: Option<usize>,
}

/// The per-node step logs of a run and the wrapping that feeds them.
struct Probes {
    epoch: Instant,
    logs: Vec<StepLog>,
}

impl Probes {
    fn new(n: usize, epoch: Instant) -> Self {
        Probes {
            epoch,
            logs: (0..n).map(|_| Arc::new(Mutex::new(Vec::new()))).collect(),
        }
    }

    fn wrap<P>(&self, id: NodeId, node: P) -> Probe<P> {
        Probe::new(node, self.epoch, self.logs[id.idx()].clone())
    }

    fn take(self) -> Vec<Vec<StepRec>> {
        self.logs
            .iter()
            .map(|l| std::mem::take(&mut *l.lock().unwrap_or_else(PoisonError::into_inner)))
            .collect()
    }
}

fn apply(opts: &EngineOpts, cfg: &mut SimConfig) {
    cfg.telemetry = opts.telemetry.clone();
    cfg.parallel = opts.threads > 0;
    cfg.threads = opts.threads;
}

/// The two adversaries the workloads use, behind one type so that
/// [`run_uls`] has one code path.
enum Adversary {
    Faithful(FaithfulUl),
    Mobile(Box<LimitObserver<MobileBreakins<HeartbeatApp>>>),
}

impl UlAdversary for Adversary {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        match self {
            Adversary::Faithful(a) => a.plan(view),
            Adversary::Mobile(a) => a.plan(view),
        }
    }

    fn corrupt(&mut self, node: NodeId, state: &mut dyn Any, time: &TimeView) {
        match self {
            Adversary::Faithful(a) => a.corrupt(node, state, time),
            Adversary::Mobile(a) => a.corrupt(node, state, time),
        }
    }

    fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        match self {
            Adversary::Faithful(a) => a.deliver(sent, view),
            Adversary::Mobile(a) => a.deliver(sent, view),
        }
    }

    fn output(&mut self) -> Vec<String> {
        match self {
            Adversary::Faithful(a) => a.output(),
            Adversary::Mobile(a) => a.output(),
        }
    }
}

/// Runs the workload's full stack: `UlsNode<HeartbeatApp>` under
/// `run_ul_with_inputs`, the workload's adversary inside [`Stamp`], every
/// node inside [`Probe`].
pub fn run_uls(sc: &Scenario, opts: &EngineOpts) -> EngineRun {
    let epoch = Instant::now();
    let spec = sc.spec;
    let mut cfg = sc.uls_config();
    apply(opts, &mut cfg);
    let uls = UlsConfig::new(Group::new(spec.group), spec.n, spec.t);
    let probes = Probes::new(spec.n, epoch);
    let inner = match spec.rotation {
        None => Adversary::Faithful(FaithfulUl),
        Some(rot) => Adversary::Mobile(Box::new(LimitObserver::new(sc.mobile_adversary(rot)))),
    };
    let mut adv = Stamp::new(
        inner,
        epoch,
        Some(REFRESH_ROUNDS),
        cfg.telemetry.clone(),
        sc.timed_start(),
    );
    let result = run_ul_with_inputs(
        cfg,
        |id| probes.wrap(id, UlsNode::new(uls.clone(), id, HeartbeatApp::default())),
        &mut adv,
        |_, round| sc.uls_input(round),
    );
    let (inner, stamps) = adv.finish();
    EngineRun {
        result,
        stamps,
        node_steps: probes.take(),
        max_impaired: match inner {
            Adversary::Faithful(_) => None,
            Adversary::Mobile(observer) => Some(observer.max_impaired()),
        },
    }
}

/// Stack peeling: the AL-model PDS alone (`AlsProcess` under
/// `run_al_with_inputs`) with the workload's n, t, group, schedule and sign
/// requests — no CERTIFY, no DISPERSE, no PARTIAL-AGREEMENT, no top layer.
pub fn run_als(sc: &Scenario, opts: &EngineOpts) -> EngineRun {
    let epoch = Instant::now();
    let spec = sc.spec;
    let mut cfg = sc.sim_config(ALS_SETUP_ROUNDS);
    apply(opts, &mut cfg);
    let als = AlsConfig::new(Group::new(spec.group), spec.n, spec.t);
    let probes = Probes::new(spec.n, epoch);
    let mut adv = StampAl::new(epoch, cfg.telemetry.clone(), sc.timed_start());
    let result = run_al_with_inputs(
        cfg,
        |id| probes.wrap(id, AlsProcess::new(AlsPds::new(als.clone(), id))),
        &mut adv,
        |_, round| sc.als_input(round),
    );
    EngineRun {
        result,
        stamps: adv.finish(),
        node_steps: probes.take(),
        max_impaired: None,
    }
}

/// One fresh engine set-up, in seconds: group and comb tables, node
/// construction, the adversary-free set-up rounds (DKG, unit-0 certificates,
/// `v_cert` into ROM, nonce prefill) — everything before round 0.
pub fn fresh_setup_s(sc: &Scenario) -> f64 {
    let start = Instant::now();
    let spec = sc.spec;
    let mut cfg = sc.uls_config();
    cfg.total_rounds = 0;
    let uls = UlsConfig::new(Group::new(spec.group), spec.n, spec.t);
    let result = run_ul_with_inputs(
        cfg,
        |id| UlsNode::new(uls.clone(), id, HeartbeatApp::default()),
        &mut FaithfulUl,
        |_, _| None,
    );
    let took = start.elapsed().as_secs_f64();
    assert!(
        result.roms[0].read("v_cert").is_some(),
        "set-up must end with v_cert in ROM"
    );
    took
}

/// One round's times, kernel samples taken out; seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundTimes {
    /// Round start to the next boundary, as it went.
    pub raw_s: f64,
    /// The same with the host's local slowdown divided out: each node step
    /// by the slowdown its own two bracketing kernel samples show, the rest
    /// of the round by the round's mean.
    pub norm_s: f64,
    /// Normalised time from round start to "all node steps done".
    pub step_s: f64,
    /// Normalised time of the engine's merge.
    pub merge_s: f64,
    /// Sum of the node steps, as they went.
    pub nodes_raw_s: f64,
    /// Sum of the node steps, normalised.
    pub nodes_s: f64,
    /// The slowest node step, normalised.
    pub slowest_node_s: f64,
    /// Nodes that ran.
    pub nodes: usize,
}

/// Every round of a run from the wrappers' readings, normalised against the
/// floor of the run's kernel samples.
pub fn round_times(st: &RoundStamps, node_steps: &[Vec<StepRec>]) -> Vec<RoundTimes> {
    let rounds = st.rounds();
    let floor = floor_ns(
        st.boundary_calib_ns
            .iter()
            .chain(&st.deliver_calib_ns)
            .copied()
            .chain(node_steps.iter().flatten().map(|s| s.calib_ns))
            .collect(),
    );
    // The steps of each round in execution order (NodeId order: the serial
    // engine runs them so; with a worker pool they overlap and only the
    // raw times mean anything).
    let mut by_round: Vec<Vec<StepRec>> = vec![Vec::new(); rounds];
    for steps in node_steps {
        for step in steps {
            if let Some(slot) = by_round.get_mut(step.round as usize) {
                slot.push(*step);
            }
        }
    }
    let s = |ns: u64| ns as f64 * 1e-9;
    (0..rounds)
        .map(|r| {
            let steps = &by_round[r];
            let node_kernels: u64 = steps.iter().map(|x| x.calib_ns).sum();
            let step_raw = (st.deliver_ns[r] - st.plan_ns[r]).saturating_sub(node_kernels);
            let merge_raw =
                (st.boundary(r + 1) - st.deliver_ns[r]).saturating_sub(st.deliver_calib_ns[r]);
            let after_merge = st.boundary_calib_ns[r + 1];
            let mut t = RoundTimes {
                raw_s: s(step_raw + merge_raw),
                nodes: steps.len(),
                ..RoundTimes::default()
            };
            // Round-wide slowdown: every sample in or around the round.
            let samples: Vec<u64> = std::iter::once(st.boundary_calib_ns[r])
                .chain(steps.iter().map(|x| x.calib_ns))
                .chain([st.deliver_calib_ns[r], after_merge])
                .collect();
            let overall = samples
                .windows(2)
                .map(|w| slowdown(w[0], w[1], floor))
                .sum::<f64>()
                / (samples.len() - 1) as f64;
            for (i, step) in steps.iter().enumerate() {
                let next = steps
                    .get(i + 1)
                    .map_or(st.deliver_calib_ns[r], |n| n.calib_ns);
                let raw = s(step.end_ns - step.start_ns);
                let norm = raw / slowdown(step.calib_ns, next, floor);
                t.nodes_raw_s += raw;
                t.nodes_s += norm;
                t.slowest_node_s = t.slowest_node_s.max(norm);
            }
            t.step_s = t.nodes_s + (s(step_raw) - t.nodes_raw_s).max(0.0) / overall;
            t.merge_s = s(merge_raw) / slowdown(st.deliver_calib_ns[r], after_merge, floor);
            t.norm_s = t.step_s + t.merge_s;
            t
        })
        .collect()
}

/// The uncontended unit profile of a run, in seconds per round index.
///
/// Every round's reading is first divided by the local slowdown the
/// reference kernel saw ([`round_times`]), then the median per round index
/// over the timed units is kept.
#[derive(Debug, Clone)]
pub struct Profile {
    /// `t̂[k]`: median normalised time of round index `k`.
    pub round_s: Vec<f64>,
    /// Median normalised time from round start to "all node steps done".
    pub step_s: Vec<f64>,
    /// Median normalised time of the engine's merge.
    pub merge_s: Vec<f64>,
    /// Median normalised sum of the node steps.
    pub nodes_s: Vec<f64>,
    /// Time of each timed unit as it really went (not normalised).
    pub unit_walls_s: Vec<f64>,
    /// `Σ_k min_u` of the round times as they really went: the plain
    /// per-round minimum, with no reference kernel — for showing what the
    /// kernel buys, and for comparisons in which the benchmark's own threads
    /// are the contention (the worker-pool row).
    pub raw_unit_s: f64,
    /// Share of the timed units' wall time the process spent on a CPU.
    pub cpu_share: f64,
    /// Every round of the run, for rows that need more than the profile.
    pub rounds: Vec<RoundTimes>,
}

impl Profile {
    /// Builds the profile over units `1..=units` of a run.
    pub fn of(run: &EngineRun, unit_rounds: u64, units: u64) -> Self {
        let r = unit_rounds as usize;
        let rounds = round_times(&run.stamps, &run.node_steps);
        let per_unit = |f: &dyn Fn(&RoundTimes) -> f64| -> Vec<Vec<f64>> {
            (1..=units as usize)
                .map(|u| rounds[u * r..(u + 1) * r].iter().map(f).collect())
                .collect()
        };
        let raw = per_unit(&|t| t.raw_s);
        Profile {
            round_s: profile_median(&per_unit(&|t| t.norm_s)),
            step_s: profile_median(&per_unit(&|t| t.step_s)),
            merge_s: profile_median(&per_unit(&|t| t.merge_s)),
            nodes_s: profile_median(&per_unit(&|t| t.nodes_s)),
            unit_walls_s: raw.iter().map(|u| u.iter().sum()).collect(),
            raw_unit_s: profile_min(&raw).iter().sum(),
            cpu_share: run.stamps.cpu_share_since(r),
            rounds,
        }
    }

    /// `Σ t̂`: the uncontended time of one unit.
    pub fn unit_s(&self) -> f64 {
        self.round_s.iter().sum()
    }

    /// `Σ t̂` over the refresh rounds.
    pub fn refresh_s(&self) -> f64 {
        self.round_s[..REFRESH_ROUNDS as usize].iter().sum()
    }

    /// Mean `t̂` over the normal rounds, in ms.
    pub fn normal_round_ms(&self) -> f64 {
        let normal = &self.round_s[REFRESH_ROUNDS as usize..];
        normal.iter().sum::<f64>() / normal.len() as f64 * 1e3
    }

    /// `Σ t̂` over round indices `from..=to`.
    pub fn span_s(&self, from: usize, to: usize) -> f64 {
        self.round_s[from..=to].iter().sum()
    }

    /// Median unit time as it went ÷ `Σ t̂`: how much the host added on top
    /// of the uncontended profile. Informational.
    pub fn contention_ratio(&self) -> f64 {
        median(&self.unit_walls_s) / self.unit_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLOOR_NS: u64 = 52_000;
    const DISPATCH_NS: u64 = 1_000;
    const MERGE_NS: u64 = 10_000;

    /// The readings a serial run of `units + 1` units would leave behind if
    /// node `i` took `cost(k, i)` ns at round index `k` and everything —
    /// steps, engine, kernel samples — ran 1.5× slower wherever `slow(unit,
    /// k)` says so.
    fn synthetic(
        units: usize,
        unit_rounds: usize,
        nodes: usize,
        cost: impl Fn(usize, usize) -> u64,
        slow: impl Fn(usize, usize) -> bool,
    ) -> (RoundStamps, Vec<Vec<StepRec>>) {
        let rounds = (units + 1) * unit_rounds;
        let mut st = RoundStamps {
            epoch: Instant::now(),
            boundary_calib_ns: Vec::new(),
            plan_ns: Vec::new(),
            deliver_ns: Vec::new(),
            deliver_calib_ns: Vec::new(),
            timed_cpu_ns: 0,
            msgs: vec![0; rounds],
            bytes: vec![0; rounds],
            break_ins: Vec::new(),
            samples: Vec::new(),
            warmup_metrics: None,
            end_ns: 0,
            end_cpu_ns: 0,
        };
        let mut steps: Vec<Vec<StepRec>> = vec![Vec::new(); nodes];
        let mut now = 0u64;
        for round in 0..rounds {
            let (unit, k) = (round / unit_rounds, round % unit_rounds);
            let scaled = |ns: u64| if slow(unit, k) { ns * 3 / 2 } else { ns };
            let kernel = scaled(FLOOR_NS);
            st.boundary_calib_ns.push(kernel);
            now += kernel;
            st.plan_ns.push(now);
            for (i, log) in steps.iter_mut().enumerate() {
                now += kernel;
                let start_ns = now;
                now += scaled(cost(k, i));
                log.push(StepRec {
                    round: round as u64,
                    calib_ns: kernel,
                    start_ns,
                    end_ns: now,
                });
            }
            now += scaled(DISPATCH_NS);
            st.deliver_ns.push(now);
            st.deliver_calib_ns.push(kernel);
            now += kernel + scaled(MERGE_NS);
        }
        st.end_ns = now;
        st.boundary_calib_ns.push(FLOOR_NS);
        (st, steps)
    }

    /// Five timed units of nine rounds; the host is in its 1.5× state during
    /// the same third of every unit (sustained: no unit ever runs those
    /// rounds undisturbed) and during a further, different round of each
    /// unit. The normalised median recovers the true profile; the plain
    /// minimum of the readings as they went cannot.
    #[test]
    fn profile_recovers_truth_under_sustained_contention() {
        let (units, unit_rounds, nodes) = (5, 9, 3);
        let cost = |k: usize, i: usize| 1_000_000 + 250_000 * ((k + 2 * i) % 5) as u64;
        let slow = |unit: usize, k: usize| (3..6).contains(&k) || k == (unit + 6) % 9;
        let (st, steps) = synthetic(units, unit_rounds, nodes, cost, slow);
        let rounds = round_times(&st, &steps);
        let per_unit = |f: &dyn Fn(&RoundTimes) -> f64| -> Vec<Vec<f64>> {
            (1..=units)
                .map(|u| {
                    rounds[u * unit_rounds..(u + 1) * unit_rounds]
                        .iter()
                        .map(f)
                        .collect()
                })
                .collect()
        };
        let profile = profile_median(&per_unit(&|t| t.norm_s));
        let plain = profile_min(&per_unit(&|t| t.raw_s));
        for k in 0..unit_rounds {
            let truth = ((0..nodes).map(|i| cost(k, i)).sum::<u64>() + DISPATCH_NS + MERGE_NS)
                as f64
                * 1e-9;
            assert!(
                (profile[k] / truth - 1.0).abs() < 0.01,
                "round index {k}: {} vs {truth}",
                profile[k]
            );
            let sustained = (3..6).contains(&k);
            assert_eq!(plain[k] > truth * 1.4, sustained, "round index {k}");
        }
    }
}

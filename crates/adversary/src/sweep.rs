//! Degradation sweep across the Definition-7 `(s,t)` boundary.
//!
//! The chaos engine ([`proauth_sim::chaos`]) makes faults a dial; this module
//! turns the dial. [`run_sweep`] runs the full ULS stack once per
//! [`Intensity`] step — same protocol, same seed discipline, increasing
//! fault pressure — and reports, per step, whether the paper's guarantees
//! held:
//!
//! * **sub-budget** (impairment stayed ≤ `t` per unit): no forgeries, every
//!   node operational at the end, and crash victims re-certified with
//!   bounded latency (the `engine/recovery_rounds` histogram);
//! * **over-budget** (impairment exceeded `t`): the run still completes —
//!   no panic, no hang — but degrades *loudly*: [`SweepPoint::alarm`] is
//!   raised and the report says which guarantee gave way.
//!
//! The sweep is deterministic: every crash comes from the compiled
//! [`proauth_sim::chaos::FaultSchedule`] and every link fault from
//! [`LinkChaos::fate`], a hash of the frame's identity, so a `(config,
//! seed)` pair yields the same `Vec<SweepPoint>` on every run and every
//! engine thread count.

use std::fmt;

use proauth_core::authenticator::HeartbeatApp;
use proauth_core::uls::{uls_schedule, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_crypto::group::{Group, GroupId};
use proauth_pds::ideal::IdealChecker;
use proauth_sim::adversary::FaithfulUl;
use proauth_sim::chaos::{ChaosConfig, ChaosNet, LinkChaos};
use proauth_sim::message::NodeId;
use proauth_sim::runner::{run_ul, SimConfig};
use proauth_sim::Telemetry;
use proauth_telemetry::HIST_BOUNDS_VALUE;

use crate::limits::LimitObserver;

/// One step of a degradation sweep: a crash budget plus link-fault
/// pressure. Steps with `max_down <= t` are intended to stay inside the
/// Definition-7 budget; steps with `max_down > t` deliberately cross it.
#[derive(Debug, Clone)]
pub struct Intensity {
    /// Human-readable step name for reports.
    pub label: &'static str,
    /// Cap on simultaneously crashed nodes (`ChaosConfig::max_down`).
    pub max_down: usize,
    /// Per-node per-round background crash probability.
    pub crash_p: f64,
    /// Crash probability at each refreshment phase boundary.
    pub boundary_crash_p: f64,
    /// Link faults (`ChaosConfig::link`).
    pub link: LinkChaos,
}

impl Intensity {
    /// No faults at all — the sweep's control point.
    pub fn calm() -> Self {
        Intensity {
            label: "calm",
            max_down: 0,
            crash_p: 0.0,
            boundary_crash_p: 0.0,
            link: LinkChaos::default(),
        }
    }
}

/// A degradation sweep: one ULS network configuration run at each intensity.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of nodes.
    pub n: usize,
    /// Break-in / crash tolerance `t` (the budget boundary under test).
    pub t: usize,
    /// Time units to simulate per point.
    pub units: u64,
    /// Normal-phase rounds per unit (Fig. 1).
    pub normal_rounds: u64,
    /// Master seed; each point derives its schedule from this.
    pub seed: u64,
    /// Intensity steps, run in order.
    pub intensities: Vec<Intensity>,
}

impl SweepConfig {
    /// The standard ramp: calm control, a sub-budget point whose schedule is
    /// provably capped below `t` (crash victims' re-certification tails
    /// included), and an over-budget point that crosses the boundary.
    ///
    /// The sub-budget point uses crashes only. Delay and duplication are
    /// *link* attacks — a delayed message is a drop-this-round, a duplicate
    /// is a replay (Definition 4) — and spraying them across all links
    /// impairs arbitrary nodes, which is exactly the over-budget behavior,
    /// so link faults only turn on past the boundary.
    pub fn boundary_ramp(n: usize, t: usize, units: u64, normal_rounds: u64, seed: u64) -> Self {
        SweepConfig {
            n,
            t,
            units,
            normal_rounds,
            seed,
            intensities: vec![
                Intensity::calm(),
                Intensity {
                    label: "sub-budget",
                    max_down: 1,
                    crash_p: 0.01,
                    boundary_crash_p: 0.35,
                    link: LinkChaos::default(),
                },
                Intensity {
                    label: "over-budget",
                    max_down: t + 1,
                    crash_p: 0.04,
                    boundary_crash_p: 1.0,
                    link: LinkChaos {
                        seed: seed ^ 0xC4A0_5EED,
                        delay_pct: 3,
                        dup_pct: 3,
                        ..LinkChaos::default()
                    },
                },
            ],
        }
    }
}

/// Observed outcome of one intensity step. The run *completing* at all is
/// part of the contract — a panicking node becomes a crash, never a crashed
/// sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// Step name.
    pub label: &'static str,
    /// Crash budget the schedule was compiled with.
    pub max_down: usize,
    /// Whether this step was intended to stay inside the budget.
    pub intended_sub_budget: bool,
    /// Crash-stop events (scheduled + panics).
    pub crashes: u64,
    /// Panicking node steps converted to crashes.
    pub panics: u64,
    /// Restart events.
    pub restarts: u64,
    /// Total alerts raised across all nodes.
    pub alerts: u64,
    /// Forgery violations found by the ideal-signature checker.
    pub forgeries: usize,
    /// Peak per-unit impairment (Definition-7 ground truth).
    pub max_impaired: usize,
    /// `max_impaired <= t` — did the run actually stay inside the budget?
    pub within_budget: bool,
    /// Nodes operational at the end of the run.
    pub operational_nodes: usize,
    /// Total nodes.
    pub n: usize,
    /// Completed impairment spells (impaired → operational again).
    pub recoveries: u64,
    /// Median recovery latency in rounds (histogram bucket upper bound).
    pub recovery_p50_rounds: u64,
    /// p99 recovery latency in rounds (histogram bucket upper bound).
    pub recovery_p99_rounds: u64,
    /// Honest messages sent.
    pub messages_sent: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
}

impl SweepPoint {
    /// True when the run degraded: the impairment budget was exceeded, some
    /// node ended non-operational, or a forgery slipped through. Over-budget
    /// steps are *expected* to raise this — silence past the boundary would
    /// mean the accounting is lying.
    pub fn alarm(&self) -> bool {
        !self.within_budget || self.operational_nodes < self.n || self.forgeries > 0
    }

    /// True when the step upheld the sub-budget contract: stayed within the
    /// budget, no forgeries, everyone operational at the end.
    pub fn healthy(&self) -> bool {
        self.within_budget && self.forgeries == 0 && self.operational_nodes == self.n
    }
}

impl fmt::Display for SweepPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12}: max_down {} | {} crashes ({} panics), {} restarts | \
             impaired peak {}/{} | {}/{} operational | {} alerts | {} forgeries",
            self.label,
            self.max_down,
            self.crashes,
            self.panics,
            self.restarts,
            self.max_impaired,
            self.n,
            self.operational_nodes,
            self.n,
            self.alerts,
            self.forgeries,
        )?;
        if self.recoveries > 0 {
            write!(
                f,
                " | recovery p50 ≤{} p99 ≤{} rounds ({} spells)",
                self.recovery_p50_rounds, self.recovery_p99_rounds, self.recoveries
            )?;
        }
        let verdict = if self.alarm() {
            "ALARM: degraded"
        } else {
            "ok: guarantees held"
        };
        write!(f, " | {verdict}")
    }
}

/// Run the full sweep. Each point runs the ULS stack (`UlsNode` over the
/// toy group with a heartbeat application) under a compiled chaos schedule,
/// wrapped in a [`LimitObserver`] for Definition-7 ground truth.
pub fn run_sweep(cfg: &SweepConfig) -> Vec<SweepPoint> {
    cfg.intensities
        .iter()
        .map(|intensity| run_point(cfg, intensity))
        .collect()
}

fn run_point(cfg: &SweepConfig, intensity: &Intensity) -> SweepPoint {
    let schedule = uls_schedule(cfg.normal_rounds);
    let mut sim = SimConfig::new(cfg.n, cfg.t, schedule);
    sim.setup_rounds = SETUP_ROUNDS;
    sim.total_rounds = schedule.unit_rounds * cfg.units;
    sim.seed = cfg.seed;
    let tele = Telemetry::enabled();
    sim.telemetry = tele.clone();

    // Restart a few rounds after the crash; a restarted node still waits for
    // the next refresh end to re-certify. Sub-budget points widen the
    // compiler's impairment presumption to cover that whole tail, so the
    // compiled schedule provably never impairs more than `max_down` nodes in
    // any unit.
    let restart_after = schedule.refresh_rounds() + 2;
    let chaos = ChaosConfig {
        crash_p: intensity.crash_p,
        boundary_crash_p: intensity.boundary_crash_p,
        restart_after: Some(restart_after),
        max_down: intensity.max_down,
        presumed_down: if intensity.max_down <= cfg.t {
            Some(restart_after + 2 * schedule.unit_rounds)
        } else {
            None
        },
        target: None,
        link: intensity.link,
    };
    let mut adv = LimitObserver::new(ChaosNet::compile(
        FaithfulUl,
        chaos,
        cfg.n,
        sim.total_rounds,
        &schedule,
        cfg.seed ^ 0xC4A0_5EED,
    ));

    let (n, t) = (cfg.n, cfg.t);
    let group = Group::new(GroupId::Toy64);
    let make_node =
        move |id: NodeId| UlsNode::new(UlsConfig::new(group.clone(), n, t), id, HeartbeatApp::default());
    let result = run_ul(sim, make_node, &mut adv);

    let forgeries = IdealChecker::new(cfg.t)
        .check_no_forgery(&result.outputs, &[])
        .len();
    let (recoveries, p50, p99) = tele
        .snapshot()
        .as_ref()
        .and_then(|snap| snap.value_hists.get("engine/recovery_rounds").cloned())
        .map_or((0, 0, 0), |h| {
            (
                h.total,
                h.quantile_bounded(&HIST_BOUNDS_VALUE, 0.50),
                h.quantile_bounded(&HIST_BOUNDS_VALUE, 0.99),
            )
        });
    let max_impaired = adv.max_impaired();

    SweepPoint {
        label: intensity.label,
        max_down: intensity.max_down,
        intended_sub_budget: intensity.max_down <= cfg.t,
        crashes: result.stats.crashes,
        panics: result.stats.panics,
        restarts: result.stats.restarts,
        alerts: result.stats.alerts.iter().sum(),
        forgeries,
        max_impaired,
        within_budget: max_impaired <= cfg.t,
        operational_nodes: result.final_operational.iter().filter(|&&b| b).count(),
        n: cfg.n,
        recoveries,
        recovery_p50_rounds: p50,
        recovery_p99_rounds: p99,
        messages_sent: result.stats.messages_sent,
        messages_delivered: result.stats.messages_delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_point_is_clean() {
        let cfg = SweepConfig {
            n: 5,
            t: 2,
            units: 2,
            normal_rounds: 8,
            seed: 7,
            intensities: vec![Intensity::calm()],
        };
        let points = run_sweep(&cfg);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!(p.crashes, 0);
        assert_eq!(p.restarts, 0);
        assert_eq!(p.max_impaired, 0);
        assert!(p.healthy());
        assert!(!p.alarm());
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = SweepConfig::boundary_ramp(5, 2, 3, 8, 42);
        let a = run_sweep(&cfg);
        let b = run_sweep(&cfg);
        assert_eq!(a, b);
    }
}

//! Deterministic chaos engine: compiled fault schedules, crash–restart
//! orchestration, and chaotic delivery.
//!
//! The paper's protocols are built to survive transient faults — break-ins,
//! lost state, `s`-disconnection — so the harness must be able to *produce*
//! those faults on demand. This module compiles a seed into a
//! [`FaultSchedule`] (node crash-stops, including crashes aimed at the Fig-1
//! refreshment-phase boundaries where mid-refresh state loss hurts most) and
//! wraps any adversary in a [`ChaosNet`] that executes the schedule, restarts
//! crashed nodes after a configurable outage, and — in the UL model, whose
//! adversary owns delivery — delays, duplicates, and reorders traffic.
//!
//! Everything is a pure function of the configuration and the seed:
//! schedules are precompiled, per-round randomness is derived by hashing
//! `(seed, round)` rather than streamed, and all decisions run on the engine
//! thread. Same seed ⇒ bit-identical [`crate::runner::SimResult`] and trace
//! across serial and parallel execution, like every other adversary.
//!
//! Crash semantics (vs break-ins, Definitions 4–7): a crashed node does not
//! execute and its pending traffic is *discarded*, not diverted — the
//! adversary gains nothing from a crash except the outage. A restarted node
//! comes back as a freshly constructed instance: volatile state (key shares,
//! sessions, counters) is gone, the ROM survives. It then recovers via the
//! §4.2 path — share recovery inside the next refreshment phase and
//! re-certification at its end. Crashed rounds are charged against the
//! `(s,t)` budget exactly like broken rounds, so Definition 7 stays the
//! ground truth for "did the adversary stay within its allowance".

use crate::adversary::{AlAdversary, BreakPlan, NetView, UlAdversary};
use crate::clock::{Phase, Schedule, TimeView};
use crate::message::{Envelope, NodeId};
use crate::process::{Process, RoundCtx, SetupCtx};
use proauth_primitives::sha256;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Fault-intensity knobs for the chaos engine. The default is calm (no
/// faults); a sweep driver scales these across the `(s,t)` boundary.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Per-node per-round crash probability (background crashes).
    pub crash_p: f64,
    /// Probability of crashing one extra node at each refreshment-phase
    /// boundary (the first round of Part I and of Part II) — the rounds
    /// where losing volatile state interacts worst with the Fig-1 schedule.
    pub boundary_crash_p: f64,
    /// Rounds a crashed node stays down before [`ChaosNet`] restarts it
    /// (`None` = crashed nodes never come back).
    pub restart_after: Option<u64>,
    /// Cap on simultaneously crashed nodes when compiling the schedule.
    /// Keeping this ≤ the run's `t` keeps the schedule inside the
    /// Definition-7 budget; raising it past `t` drives the run over the
    /// boundary on purpose.
    pub max_down: usize,
    /// Rounds the schedule compiler presumes a crash victim stays *impaired*
    /// (counted against `max_down`); defaults to the restart outage. A
    /// restarted node is still non-operational until it re-certifies at the
    /// next refresh end, so a schedule that must provably respect a
    /// Definition-7 budget should cover that tail (outage + up to two
    /// units).
    pub presumed_down: Option<u64>,
    /// Restrict compiled crashes to these nodes (`None` = whole network).
    /// The §6 hierarchy uses this to aim chaos at a single cluster — e.g.
    /// its representative and members — while the rest of the system stays
    /// calm, so per-cluster Definition-7 budgets can be exercised in
    /// isolation.
    pub target: Option<Vec<NodeId>>,
    /// Per-message one-round delay probability (UL only).
    pub delay_p: f64,
    /// Per-message duplication probability (UL only).
    pub dup_p: f64,
    /// Shuffle each round's delivered set (UL only).
    pub reorder: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            crash_p: 0.0,
            boundary_crash_p: 0.0,
            restart_after: None,
            max_down: usize::MAX,
            presumed_down: None,
            target: None,
            delay_p: 0.0,
            dup_p: 0.0,
            reorder: false,
        }
    }
}

/// Derives the deterministic per-round chaos RNG. Keyed, not streamed: the
/// behaviour at round `w` is a pure function of `(seed, w)`.
fn chaos_rng(seed: u64, round: u64, tag: &str) -> StdRng {
    let digest = sha256::hash_parts(
        "proauth/sim/chaos-rng",
        &[tag.as_bytes(), &seed.to_be_bytes(), &round.to_be_bytes()],
    );
    StdRng::from_seed(digest)
}

/// A precompiled crash schedule: which nodes crash-stop at which round.
///
/// Restarts are *not* part of the schedule — [`ChaosNet`] issues them
/// reactively from the observed crashed set, so panic-induced crashes (a
/// node step that died on its own) get the same restart treatment as
/// scheduled ones.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    crashes: BTreeMap<u64, Vec<NodeId>>,
}

impl FaultSchedule {
    /// Compiles `cfg` + `seed` into a deterministic crash schedule for a run
    /// of `total_rounds` rounds over `n` nodes under `schedule`.
    ///
    /// The compiler tracks a presumed outage window per node
    /// (`restart_after` rounds, or forever) and never exceeds
    /// `cfg.max_down` simultaneous crashes, so the schedule's pressure on
    /// the `(s,t)` budget is controlled by configuration, not luck.
    pub fn compile(
        cfg: &ChaosConfig,
        n: usize,
        total_rounds: u64,
        schedule: &Schedule,
        seed: u64,
    ) -> Self {
        let mut crashes: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        // Presumed first round each node is back up (schedule-local view;
        // the +1 mirrors ChaosNet observing the crash one round later).
        let down_span = cfg.presumed_down.or(cfg.restart_after).map(|d| d + 1);
        let mut up_at = vec![0u64; n];
        for round in 0..total_rounds {
            let mut rng = chaos_rng(seed, round, "schedule");
            let mut down_now = up_at.iter().filter(|&&u| u > round).count();
            // In budget-proof mode (`presumed_down` set) every victim must
            // have time to restart *and* re-certify before the run ends, so
            // stop scheduling crashes whose presumed impairment would spill
            // past the final round.
            let in_horizon = cfg.presumed_down.is_none()
                || down_span.is_some_and(|s| round + s <= total_rounds);
            let mut crash = |id: NodeId,
                             up_at: &mut Vec<u64>,
                             down_now: &mut usize| {
                up_at[id.idx()] = down_span.map_or(u64::MAX, |s| round + s);
                *down_now += 1;
                crashes.entry(round).or_default().push(id);
            };
            // Phase-boundary crash: one victim at the start of refresh
            // Part I / Part II, chosen among currently-up nodes.
            let boundary = matches!(
                schedule.phase_of(round),
                Phase::RefreshPart1 { step: 0 } | Phase::RefreshPart2 { step: 0 }
            );
            let eligible =
                |id: NodeId| cfg.target.as_ref().is_none_or(|t| t.contains(&id));
            if boundary
                && in_horizon
                && down_now < cfg.max_down
                && cfg.boundary_crash_p > 0.0
                && rng.gen::<f64>() < cfg.boundary_crash_p
            {
                let up: Vec<NodeId> = NodeId::all(n)
                    .filter(|&id| up_at[id.idx()] <= round && eligible(id))
                    .collect();
                if let Some(&id) = up.choose(&mut rng) {
                    crash(id, &mut up_at, &mut down_now);
                }
            }
            // Background crashes: independent per node, budget-capped.
            if cfg.crash_p > 0.0 && in_horizon {
                for id in NodeId::all(n) {
                    if up_at[id.idx()] > round || down_now >= cfg.max_down || !eligible(id) {
                        continue;
                    }
                    if rng.gen::<f64>() < cfg.crash_p {
                        crash(id, &mut up_at, &mut down_now);
                    }
                }
            }
        }
        FaultSchedule { crashes }
    }

    /// Adds an explicit crash event — scenario scripting on top of (or
    /// instead of) the compiled schedule, e.g. "crash the representative of
    /// cluster 2 at the first round of refresh Part II".
    pub fn push(&mut self, round: u64, node: NodeId) {
        self.crashes.entry(round).or_default().push(node);
    }

    /// Nodes scheduled to crash at `round`.
    pub fn crashes_at(&self, round: u64) -> &[NodeId] {
        self.crashes.get(&round).map_or(&[], Vec::as_slice)
    }

    /// Total scheduled crash events.
    pub fn total_crashes(&self) -> usize {
        self.crashes.values().map(Vec::len).sum()
    }
}

/// Wraps an adversary with the chaos engine: executes a [`FaultSchedule`],
/// restarts crashed nodes (scheduled *or* panic-induced) after
/// `restart_after` rounds, and — under the UL model — delays, duplicates,
/// and reorders the inner adversary's deliveries.
///
/// Under the AL model only the crash/restart plan applies: the AL adversary
/// has no power over honest delivery, so the delivery knobs are ignored.
pub struct ChaosNet<A> {
    /// The wrapped adversary (its plan and delivery run first).
    pub inner: A,
    cfg: ChaosConfig,
    schedule: FaultSchedule,
    seed: u64,
    /// Messages held back by the delay knob, delivered next round.
    held: Vec<Envelope>,
    /// Round each node was first *observed* crashed; drives restarts.
    crashed_since: Vec<Option<u64>>,
}

impl<A> ChaosNet<A> {
    /// Wraps `inner` with a precompiled schedule.
    pub fn new(inner: A, cfg: ChaosConfig, schedule: FaultSchedule, n: usize, seed: u64) -> Self {
        ChaosNet {
            inner,
            cfg,
            schedule,
            seed,
            held: Vec::new(),
            crashed_since: vec![None; n],
        }
    }

    /// Compiles the schedule from `cfg` and wraps `inner` in one step.
    pub fn compile(
        inner: A,
        cfg: ChaosConfig,
        n: usize,
        total_rounds: u64,
        schedule: &Schedule,
        seed: u64,
    ) -> Self {
        let compiled = FaultSchedule::compile(&cfg, n, total_rounds, schedule, seed);
        Self::new(inner, cfg, compiled, n, seed)
    }

    /// The chaos engine's own plan for this round: scheduled crashes plus
    /// reactive restarts for any node observed crashed long enough —
    /// including nodes the engine crashed because their step panicked.
    fn chaos_plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        let round = view.time.round;
        let mut plan = BreakPlan::none();
        plan.crash.extend_from_slice(self.schedule.crashes_at(round));
        for id in NodeId::all(view.n) {
            let idx = id.idx();
            if view.crashed[idx] {
                let since = *self.crashed_since[idx].get_or_insert(round);
                if let Some(delay) = self.cfg.restart_after {
                    if round >= since + delay {
                        plan.restart.push(id);
                    }
                }
            } else {
                self.crashed_since[idx] = None;
            }
        }
        plan
    }

    /// Applies the UL delivery knobs (delay, duplicate, reorder) to the
    /// round's delivered set.
    fn chaos_deliver(&mut self, delivered: Vec<Envelope>, round: u64) -> Vec<Envelope> {
        let calm = self.cfg.delay_p == 0.0 && self.cfg.dup_p == 0.0 && !self.cfg.reorder;
        if calm && self.held.is_empty() {
            return delivered;
        }
        let mut rng = chaos_rng(self.seed, round, "deliver");
        let mut out = std::mem::take(&mut self.held);
        for e in delivered {
            if self.cfg.delay_p > 0.0 && rng.gen::<f64>() < self.cfg.delay_p {
                self.held.push(e);
                continue;
            }
            let dup = self.cfg.dup_p > 0.0 && rng.gen::<f64>() < self.cfg.dup_p;
            out.push(e.clone());
            if dup {
                out.push(e);
            }
        }
        if self.cfg.reorder {
            out.shuffle(&mut rng);
        }
        out
    }
}

impl<A: UlAdversary> UlAdversary for ChaosNet<A> {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        let mut p = self.inner.plan(view);
        p.merge(self.chaos_plan(view));
        p
    }

    fn corrupt(&mut self, node: NodeId, state: &mut dyn std::any::Any, time: &TimeView) {
        self.inner.corrupt(node, state, time);
    }

    fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        let mid = self.inner.deliver(sent, view);
        self.chaos_deliver(mid, view.time.round)
    }

    fn output(&mut self) -> Vec<String> {
        self.inner.output()
    }
}

impl<A: AlAdversary> AlAdversary for ChaosNet<A> {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        let mut p = self.inner.plan(view);
        p.merge(self.chaos_plan(view));
        p
    }

    fn corrupt(&mut self, node: NodeId, state: &mut dyn std::any::Any, time: &TimeView) {
        self.inner.corrupt(node, state, time);
    }

    fn broken_sends(&mut self, honest_sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        self.inner.broken_sends(honest_sent, view)
    }

    fn output(&mut self) -> Vec<String> {
        self.inner.output()
    }
}

/// A process-level fault plan for daemon mode: real SIGKILLs delivered by
/// the supervisor at round boundaries, plus optional state-file truncation
/// before the respawn. Compiled deterministically from the run seed like
/// every other chaos schedule, and charged to the Definition-7 budget
/// exactly like engine crash-stops — a killed OS process and a crash-stopped
/// simulated node are the same fault at different layers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessFaultPlan {
    /// `(round, node)` kill events, sorted by round then node. The
    /// supervisor fires each once the collector's observed round reaches it.
    pub kills: Vec<(u64, u32)>,
    /// Nodes whose `state.bin` is truncated before their respawn — the
    /// digest check fails, the watermark is lost, and the node must rejoin
    /// from round 0 (full catch-up plus share recovery).
    pub truncate: Vec<u32>,
}

impl ProcessFaultPlan {
    /// One kill per node, spread deterministically from `seed` across the
    /// run's *recovery windows*. A killed process loses its volatile state —
    /// key shares included — and regains it only through share recovery in
    /// the next refreshment phase, which itself needs `t+1` intact shares.
    /// The plan therefore respects three placement rules:
    ///
    /// * **at most `n - (t+1)` victims per time unit** — more would drop the
    ///   surviving share count below the signing threshold and destroy the
    ///   joint key irrecoverably (the paper's corruption bound, Def. 7);
    /// * **normal-phase rounds only, with a margin before the next unit
    ///   boundary** — the victim must respawn, catch up, and announce fresh
    ///   keys at the next refresh's first round (URfr I.1); a kill too close
    ///   to the boundary slips its recovery a whole extra unit. The margin
    ///   also absorbs kill-delivery lag (the supervisor fires on
    ///   beacon-observed rounds, which trail the cluster by a few);
    /// * **a complete unit after every kill's unit** — so the refresh that
    ///   heals the victim actually runs; setup is likewise excluded (the
    ///   setup barrier is hard and the phase adversary-free by model §2.1).
    ///
    /// Errors when `total_rounds` holds too few units to spread `n` kills
    /// under the threshold cap — the fix is more units, not fewer kills.
    pub fn kill_all_once(
        n: usize,
        t: usize,
        schedule: &Schedule,
        total_rounds: u64,
        seed: u64,
    ) -> Result<Self, String> {
        let unit_rounds = schedule.unit_rounds;
        let normal = unit_rounds - schedule.refresh_rounds();
        let margin = (normal / 2).clamp(2, 8);
        let cap = n.saturating_sub(t + 1).max(1);
        // Units eligible to host kills: a full unit must follow.
        let units: Vec<u64> = (0..)
            .take_while(|u| (u + 2) * unit_rounds <= total_rounds)
            .collect();
        let needed = n.div_ceil(cap);
        if units.len() < needed {
            return Err(format!(
                "cannot kill all {n} nodes: at most {cap} per unit (t={t} needs t+1 \
                 surviving shares per refresh) requires {needed} kill-eligible units \
                 plus a final clean one, but {total_rounds} rounds hold only {} — \
                 raise --units to at least {}",
                units.len(),
                needed + 1
            ));
        }
        // Deterministic victim order, then round-robin across eligible units
        // so concurrent share loss stays maximally below the cap.
        let mut victims: Vec<u32> = (1..=n as u32).collect();
        victims.sort_by_key(|node| {
            sha256::hash_parts(
                "proauth/net/killplan",
                &[&seed.to_be_bytes(), &node.to_be_bytes()],
            )
        });
        let spread = units.len().min(needed.max(1));
        let mut kills: Vec<(u64, u32)> = Vec::with_capacity(n);
        for (i, &node) in victims.iter().enumerate() {
            let unit = units[i % spread];
            // Normal-phase window of this unit (unit 0 is all normal; later
            // units open with their refresh), minus the boundary margin.
            let win_lo = if unit == 0 {
                2
            } else {
                unit * unit_rounds + schedule.refresh_rounds()
            };
            let win_hi = ((unit + 1) * unit_rounds - margin).max(win_lo + 1);
            let h = sha256::hash_parts(
                "proauth/net/killround",
                &[&seed.to_be_bytes(), &node.to_be_bytes()],
            );
            let r = win_lo
                + u64::from_be_bytes(h[..8].try_into().expect("8 bytes")) % (win_hi - win_lo);
            kills.push((r, node));
        }
        kills.sort_unstable();
        Ok(ProcessFaultPlan {
            kills,
            truncate: Vec::new(),
        })
    }

    /// Parses an explicit `node:round,node:round,...` schedule.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut kills = Vec::new();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let (node, round) = part
                .trim()
                .split_once(':')
                .ok_or_else(|| format!("bad kill spec '{part}' (want node:round)"))?;
            let node: u32 = node
                .trim()
                .parse()
                .map_err(|_| format!("bad node in kill spec '{part}'"))?;
            let round: u64 = round
                .trim()
                .parse()
                .map_err(|_| format!("bad round in kill spec '{part}'"))?;
            kills.push((round, node));
        }
        kills.sort_unstable();
        Ok(ProcessFaultPlan {
            kills,
            truncate: Vec::new(),
        })
    }

    /// Total kill events.
    pub fn total_kills(&self) -> usize {
        self.kills.len()
    }
}

/// Test hook: a process wrapper that panics on one configured `(node,
/// round)` step, for exercising the engine's panic→crash conversion. The
/// inner process is fully transparent otherwise (including `state_mut`, so
/// adversary downcasts still reach the real node state).
pub struct PanicOn<P> {
    inner: P,
    node: NodeId,
    round: u64,
}

impl<P> PanicOn<P> {
    /// Wraps `inner`; the wrapper panics when `node` executes `round`.
    pub fn at(inner: P, node: NodeId, round: u64) -> Self {
        PanicOn { inner, node, round }
    }
}

impl<P: Process> Process for PanicOn<P> {
    fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
        self.inner.on_setup_round(ctx);
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        assert!(
            !(ctx.me == self.node && ctx.time.round == self.round),
            "chaos: injected panic ({} at round {})",
            self.node,
            self.round
        );
        self.inner.on_round(ctx);
    }

    fn state_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.state_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::FaithfulUl;
    use crate::runner::{run_ul, SimConfig};
    use std::any::Any;

    /// Counts what it hears; crashes lose the count (volatile state).
    struct Counter {
        heard: u64,
    }

    impl Process for Counter {
        fn on_setup_round(&mut self, _ctx: &mut SetupCtx<'_>) {}
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            self.heard += ctx.inbox.len() as u64;
            ctx.send_all(vec![0x01]);
        }
        fn state_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn cfg(n: usize, rounds: u64) -> SimConfig {
        let mut c = SimConfig::new(n, 1, Schedule::new(10, 2, 2));
        c.total_rounds = rounds;
        c.setup_rounds = 1;
        c
    }

    #[test]
    fn schedule_is_deterministic_and_budget_capped() {
        let chaos = ChaosConfig {
            crash_p: 0.08,
            boundary_crash_p: 0.5,
            restart_after: Some(4),
            max_down: 2,
            ..ChaosConfig::default()
        };
        let sched = Schedule::new(10, 2, 2);
        let a = FaultSchedule::compile(&chaos, 6, 40, &sched, 77);
        let b = FaultSchedule::compile(&chaos, 6, 40, &sched, 77);
        assert_eq!(a.crashes, b.crashes);
        assert!(a.total_crashes() > 0, "intensity this high must crash");
        // The compiler's own outage presumption never exceeds max_down.
        let mut up_at = [0u64; 6];
        for round in 0..40 {
            for id in a.crashes_at(round) {
                up_at[id.idx()] = round + 5;
            }
            let down = up_at.iter().filter(|&&u| u > round).count();
            assert!(down <= 2, "round {round}: {down} down");
        }
        // A different seed produces a different schedule.
        let c = FaultSchedule::compile(&chaos, 6, 40, &sched, 78);
        assert_ne!(a.crashes, c.crashes);
    }

    #[test]
    fn crash_discards_state_and_restart_rejoins() {
        // One scheduled crash of node 2 at round 3, restart after 2 rounds.
        let mut schedule = FaultSchedule::default();
        schedule.crashes.insert(3, vec![NodeId(2)]);
        let chaos = ChaosConfig {
            restart_after: Some(2),
            ..ChaosConfig::default()
        };
        let mut adv = ChaosNet::new(FaithfulUl, chaos, schedule, 3, 0);
        let result = run_ul(cfg(3, 20), |_| Counter { heard: 0 }, &mut adv);
        // Crashed rounds are charged: node 2 down from round 3 until the
        // restart lands (observed crashed at 4, restarted at plan of 6).
        assert_eq!(result.stats.crashes, 1);
        assert_eq!(result.stats.restarts, 1);
        assert_eq!(result.stats.panics, 0);
        let down = result.stats.crashed_rounds[NodeId(2).idx()];
        assert_eq!(down, 3, "rounds 3,4,5 spent crashed");
        // While down it sent nothing: 2 peers × 3 rounds missing.
        assert_eq!(result.stats.messages_sent, 3 * 2 * 20 - 6);
        // The crash is charged to ground truth: node 2 lost s-operational
        // status (UL impairment lines fired) and rejoined at a refresh end.
        let evs: Vec<_> = result.outputs[NodeId(2).idx()]
            .iter()
            .map(|(_, e)| e.clone())
            .collect();
        assert!(evs.contains(&crate::message::OutputEvent::Compromised));
        assert!(evs.contains(&crate::message::OutputEvent::Recovered));
    }

    #[test]
    fn chaotic_delivery_preserves_multiset_per_link() {
        // Delay + dup + reorder never forge or modify: every delivered
        // envelope matches something sent on the same link.
        let chaos = ChaosConfig {
            delay_p: 0.3,
            dup_p: 0.3,
            reorder: true,
            ..ChaosConfig::default()
        };
        let mut adv = ChaosNet::new(FaithfulUl, chaos, FaultSchedule::default(), 4, 9);
        let mut c = cfg(4, 15);
        c.record_transcript = true;
        let result = run_ul(c, |_| Counter { heard: 0 }, &mut adv);
        assert_eq!(result.stats.messages_modified, 0);
        let t = result.transcript.expect("transcript");
        for rec in &t {
            for env in &rec.delivered {
                assert!(
                    t.iter().any(|r| r
                        .sent
                        .iter()
                        .any(|s| s.from == env.from && s.to == env.to && s.payload == env.payload)),
                    "delivered envelope was never sent"
                );
            }
        }
        // Duplication actually fired.
        assert!(result.stats.messages_injected > 0, "duplicates count as injected");
    }

    #[test]
    fn process_fault_plan_is_deterministic_and_post_setup() {
        // 13 nodes, t=6 → at most 6 victims per unit, so 3 kill units plus a
        // final clean one: uls-style units of 26 rounds (refresh 18).
        let sched = Schedule::new(26, 10, 8);
        let a = ProcessFaultPlan::kill_all_once(13, 6, &sched, 26 * 4, 42).expect("fits");
        let b = ProcessFaultPlan::kill_all_once(13, 6, &sched, 26 * 4, 42).expect("fits");
        assert_eq!(a, b);
        assert_eq!(a.total_kills(), 13);
        // Every node killed exactly once.
        let mut nodes: Vec<u32> = a.kills.iter().map(|&(_, id)| id).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, (1..=13).collect::<Vec<u32>>());
        // Placement rules: normal-phase rounds only (unit 0 all-normal, later
        // units after their refresh), margin before each boundary, never the
        // final unit, and at most n-(t+1)=6 victims per unit.
        let margin = 4; // (normal=8)/2
        let mut per_unit = [0usize; 4];
        for &(round, _) in &a.kills {
            let unit = (round / 26) as usize;
            assert!(unit < 3, "kill at round {round} leaves no clean unit");
            per_unit[unit] += 1;
            let in_unit = round % 26;
            if unit > 0 {
                assert!(in_unit >= 18, "kill at round {round} lands mid-refresh");
            } else {
                assert!(round >= 2, "kill at round {round} lands in setup");
            }
            assert!(in_unit < 26 - margin, "kill at round {round} ignores margin");
        }
        assert!(per_unit.iter().all(|&k| k <= 6), "threshold cap: {per_unit:?}");
        // Sorted by round for the supervisor's cursor.
        assert!(a.kills.windows(2).all(|w| w[0] <= w[1]));
        let c = ProcessFaultPlan::kill_all_once(13, 6, &sched, 26 * 4, 43).expect("fits");
        assert_ne!(a, c, "different seed, different spread");
        // Too few units to spread the kills → explicit error, not a bad plan.
        let err = ProcessFaultPlan::kill_all_once(13, 6, &sched, 26 * 2, 42);
        assert!(err.is_err(), "2 units cannot host 13 kills under the cap");
    }

    #[test]
    fn process_fault_plan_parses_explicit_schedules() {
        let p = ProcessFaultPlan::parse("3:10, 1:4,2:10").expect("parses");
        assert_eq!(p.kills, vec![(4, 1), (10, 2), (10, 3)]);
        assert!(ProcessFaultPlan::parse("3-10").is_err());
        assert!(ProcessFaultPlan::parse("x:10").is_err());
        assert!(ProcessFaultPlan::parse("").expect("empty ok").kills.is_empty());
    }

    #[test]
    fn panicking_step_becomes_crash_and_run_continues() {
        let run = |parallel: bool| {
            let mut c = cfg(3, 12);
            c.parallel = parallel;
            run_ul(
                c,
                |_| PanicOn::at(Counter { heard: 0 }, NodeId(2), 4),
                &mut FaithfulUl,
            )
        };
        let serial = run(false);
        assert_eq!(serial.stats.panics, 1);
        assert_eq!(serial.stats.crashes, 1);
        assert_eq!(serial.stats.restarts, 0);
        // Crashed from its panicking round 4 to the end of the run.
        assert_eq!(serial.stats.crashed_rounds[NodeId(2).idx()], 8);
        // The run completed: the other nodes kept sending every round.
        assert_eq!(serial.stats.messages_sent, 3 * 2 * 12 - 2 * 8);
        // The parallel engine converts the panic identically.
        let parallel = run(true);
        assert_eq!(serial, parallel);
    }
}

//! The benchmark's measuring wrappers. Each forwards faithfully to what it
//! wraps — a wrapped run produces the same `SimResult` as the bare one —
//! and records clock readings on the side:
//!
//! * [`Stamp`] around the workload's `UlAdversary` ([`StampAl`] for the
//!   AL-model peel): a sample of the reference kernel ([`crate::calib`])
//!   and the clock at the round boundary (`plan`) and when all node steps
//!   are done (`deliver`);
//! * [`Probe`] around each node program: a kernel sample, then the span of
//!   the node's `on_round` — rounds last up to a second, and the host's
//!   speed moves faster than that, so it has to be sampled inside them;
//! * [`Timed`] around each socket node's `NodeDriver`: enter/exit of every
//!   `round_step`, so what lies between two steps is transport + barrier.
//!   No reference kernel there: six threads on two vCPUs would mostly
//!   measure each other.

use crate::calib::{self, Reference};
use crate::host::{process_cpu, CpuTime};
use proauth_sim::adversary::{AlAdversary, BreakPlan, NetView, UlAdversary};
use proauth_sim::clock::TimeView;
use proauth_sim::driver::{NodeDriver, StepReport};
use proauth_sim::message::{Envelope, NodeId, OutboxEntry, OutputEvent, OutputLog};
use proauth_sim::process::{Process, Rom, RoundCtx, SetupCtx};
use proauth_telemetry::{MetricsSnapshot, Telemetry};
use std::any::Any;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Nanoseconds from `epoch` to `at`.
fn ns_between(epoch: Instant, at: Instant) -> u64 {
    (at - epoch).as_nanos() as u64
}

/// Per-round readings of one engine run, all in ns since `epoch`.
///
/// A round's timeline: kernel sample `boundary_calib_ns[r]`, round start
/// `plan_ns[r]`, the node steps (each behind its own kernel sample, see
/// [`Probe`]), `deliver_ns[r]`, kernel sample `deliver_calib_ns[r]`, the
/// engine's merge, then the next round's boundary sample.
#[derive(Debug, Clone)]
pub struct RoundStamps {
    /// The zero point (taken before the group is built, so the first
    /// boundary is the set-up time).
    pub epoch: Instant,
    /// Kernel sample at each round boundary: `[r]` ends when round `r`
    /// starts; a last one follows the final round (`rounds + 1` samples
    /// once the log is finished).
    pub boundary_calib_ns: Vec<u64>,
    /// Round start, one per round.
    pub plan_ns: Vec<u64>,
    /// All node steps of the round done (`deliver` entered).
    pub deliver_ns: Vec<u64>,
    /// Kernel sample taken right after `deliver_ns[r]`.
    pub deliver_calib_ns: Vec<u64>,
    /// Process CPU time (user + system) when the first timed round began.
    pub timed_cpu_ns: u64,
    /// Envelopes sent in the round.
    pub msgs: Vec<u64>,
    /// Payload bytes sent in the round.
    pub bytes: Vec<u64>,
    /// Every break-in the wrapped adversary planned: `(round, node)`.
    pub break_ins: Vec<(u64, NodeId)>,
    /// Traffic captured at the sampled round of each unit, for the
    /// certificate check: `(round, envelopes)`.
    pub samples: Vec<(u64, Vec<Envelope>)>,
    /// The run's metrics registry as it stood when the first timed round
    /// began (`None` with telemetry off): what the warm-up unit recorded.
    pub warmup_metrics: Option<MetricsSnapshot>,
    /// End of the engine call.
    pub end_ns: u64,
    /// Process CPU at the end of the engine call.
    pub end_cpu_ns: u64,
}

impl RoundStamps {
    fn new(epoch: Instant) -> Self {
        RoundStamps {
            epoch,
            boundary_calib_ns: Vec::new(),
            plan_ns: Vec::new(),
            deliver_ns: Vec::new(),
            deliver_calib_ns: Vec::new(),
            timed_cpu_ns: 0,
            msgs: Vec::new(),
            bytes: Vec::new(),
            break_ins: Vec::new(),
            samples: Vec::new(),
            warmup_metrics: None,
            end_ns: 0,
            end_cpu_ns: 0,
        }
    }

    /// Rounds executed.
    pub fn rounds(&self) -> usize {
        self.plan_ns.len()
    }

    /// The boundary before `round` (where its kernel sample began): the end
    /// of the previous round, or of the set-up for round 0; the end of the
    /// run for `round == rounds`.
    pub fn boundary(&self, round: usize) -> u64 {
        match self.plan_ns.get(round) {
            Some(start) => start - self.boundary_calib_ns[round],
            None => self.end_ns,
        }
    }

    /// Share of the wall time from round `from` to the end of the run that
    /// the process spent on a CPU (1 for a busy single thread; kernel
    /// samples are in both terms).
    pub fn cpu_share_since(&self, from: usize) -> f64 {
        let wall = self.end_ns.saturating_sub(self.boundary(from));
        (self.end_cpu_ns.saturating_sub(self.timed_cpu_ns)) as f64 / wall.max(1) as f64
    }
}

/// What [`Stamp`] and [`StampAl`] share: the log, the kernel, the registry
/// handle.
struct Recorder {
    log: RoundStamps,
    reference: Reference,
    tele: Telemetry,
    timed_start: u64,
    /// Round-in-unit index whose traffic is captured (cheap `Arc` clones).
    sample_at: Option<u64>,
}

impl Recorder {
    fn new(epoch: Instant, sample_at: Option<u64>, tele: Telemetry, timed_start: u64) -> Self {
        Recorder {
            log: RoundStamps::new(epoch),
            reference: Reference::new(calib::ENGINE_ITERS),
            tele,
            timed_start,
            sample_at,
        }
    }

    /// Round boundary: a kernel sample, then the round starts — the clock
    /// and, once, when the timed units begin, the CPU clock and a copy of
    /// the registry.
    fn round_start(&mut self, view: &NetView<'_>) {
        if view.time.round == self.timed_start {
            self.log.timed_cpu_ns = process_cpu().total_ns();
            self.log.warmup_metrics = self.tele.snapshot();
        }
        let (calib, started) = self.reference.sample();
        self.log.boundary_calib_ns.push(calib);
        self.log.plan_ns.push(ns_between(self.log.epoch, started));
    }

    /// All node steps done: the clock, a kernel sample, then the counting
    /// (which therefore lands in the round's merge segment: one length and
    /// one add per envelope).
    fn steps_done(&mut self, sent: &[Envelope], view: &NetView<'_>) {
        self.log
            .deliver_ns
            .push(ns_between(self.log.epoch, Instant::now()));
        self.log.deliver_calib_ns.push(self.reference.sample().0);
        self.log.msgs.push(sent.len() as u64);
        self.log
            .bytes
            .push(sent.iter().map(|e| e.payload.len() as u64).sum());
        if self.sample_at == Some(view.time.round_in_unit) {
            self.log.samples.push((view.time.round, sent.to_vec()));
        }
    }

    /// The engine call has returned: the end readings, then the kernel
    /// sample that brackets the last round.
    fn finish(mut self) -> RoundStamps {
        self.log.end_ns = ns_between(self.log.epoch, Instant::now());
        self.log.end_cpu_ns = process_cpu().total_ns();
        self.log.boundary_calib_ns.push(self.reference.sample().0);
        self.log
    }
}

/// Faithful-forwarding wrapper around a UL adversary.
pub struct Stamp<A> {
    inner: A,
    rec: Recorder,
}

impl<A> Stamp<A> {
    /// Wraps `inner`; readings count from `epoch`, traffic of round-in-unit
    /// `sample_at` is captured, the registry of `tele` is copied when round
    /// `timed_start` begins.
    pub fn new(
        inner: A,
        epoch: Instant,
        sample_at: Option<u64>,
        tele: Telemetry,
        timed_start: u64,
    ) -> Self {
        Stamp {
            inner,
            rec: Recorder::new(epoch, sample_at, tele, timed_start),
        }
    }

    /// Closes the log once the engine call has returned; hands back the
    /// workload's adversary and the readings.
    pub fn finish(self) -> (A, RoundStamps) {
        (self.inner, self.rec.finish())
    }
}

impl<A: UlAdversary> UlAdversary for Stamp<A> {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        self.rec.round_start(view);
        let plan = self.inner.plan(view);
        self.rec
            .log
            .break_ins
            .extend(plan.break_into.iter().map(|&id| (view.time.round, id)));
        plan
    }

    fn corrupt(&mut self, node: NodeId, state: &mut dyn Any, time: &TimeView) {
        self.inner.corrupt(node, state, time);
    }

    fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        self.rec.steps_done(sent, view);
        self.inner.deliver(sent, view)
    }

    fn output(&mut self) -> Vec<String> {
        self.inner.output()
    }
}

/// [`Stamp`] for the AL model: a passive adversary with the same readings
/// (`broken_sends` is the AL engine's "node steps done" callback).
pub struct StampAl {
    rec: Recorder,
}

impl StampAl {
    /// A passive AL adversary; see [`Stamp::new`].
    pub fn new(epoch: Instant, tele: Telemetry, timed_start: u64) -> Self {
        StampAl {
            rec: Recorder::new(epoch, None, tele, timed_start),
        }
    }

    /// Closes the log once the engine call has returned.
    pub fn finish(self) -> RoundStamps {
        self.rec.finish()
    }
}

impl AlAdversary for StampAl {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        self.rec.round_start(view);
        BreakPlan::none()
    }

    fn broken_sends(&mut self, honest_sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        self.rec.steps_done(honest_sent, view);
        Vec::new()
    }
}

/// One node step: the kernel sample before it, then the `on_round` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepRec {
    /// The round.
    pub round: u64,
    /// Duration of the kernel sample that ended at `start_ns`.
    pub calib_ns: u64,
    /// `on_round` entered, ns since the run's epoch.
    pub start_ns: u64,
    /// `on_round` returned.
    pub end_ns: u64,
}

/// A shared per-node step log (the engine owns and drops the nodes, so the
/// log must outlive them).
pub type StepLog = Arc<Mutex<Vec<StepRec>>>;

/// Wraps a node program: before every `on_round` one kernel sample, around
/// it one span. Forwards `state_mut`, so break-in strategies still downcast
/// to the real node.
pub struct Probe<P> {
    inner: P,
    epoch: Instant,
    reference: Reference,
    log: StepLog,
}

impl<P> Probe<P> {
    /// Wraps `inner`, recording into `log` relative to `epoch`.
    pub fn new(inner: P, epoch: Instant, log: StepLog) -> Self {
        Probe {
            inner,
            epoch,
            reference: Reference::new(calib::ENGINE_ITERS),
            log,
        }
    }
}

impl<P: Process> Process for Probe<P> {
    fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
        self.inner.on_setup_round(ctx);
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        let (calib_ns, started) = self.reference.sample();
        self.inner.on_round(ctx);
        let ended = Instant::now();
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(StepRec {
                round: ctx.time.round,
                calib_ns,
                start_ns: ns_between(self.epoch, started),
                end_ns: ns_between(self.epoch, ended),
            });
    }

    fn state_mut(&mut self) -> &mut dyn Any {
        self.inner.state_mut()
    }
}

/// Wraps a socket node's driver: the clock at enter and exit of every
/// `round_step` (what lies between two steps is transport + barrier), what
/// the step sent, and the process CPU time at each unit boundary.
pub struct Timed<D> {
    inner: D,
    epoch: Instant,
    unit_rounds: u64,
    sample_at: Option<u64>,
    /// `round_step` entered, ns since the epoch, one per round.
    pub enter_ns: Vec<u64>,
    /// `round_step` returned.
    pub exit_ns: Vec<u64>,
    /// Envelopes and payload bytes this node sent, per round.
    pub sent: Vec<(u64, u64)>,
    /// Process CPU (all threads) when this node entered the first round of
    /// each unit.
    pub cpu_at_unit: Vec<CpuTime>,
    /// This node's sends at the sampled round of each unit.
    pub samples: Vec<(u64, Vec<Envelope>)>,
}

impl<D> Timed<D> {
    /// Wraps `inner`; traffic of round-in-unit `sample_at` is captured.
    pub fn new(inner: D, epoch: Instant, unit_rounds: u64, sample_at: Option<u64>) -> Self {
        Timed {
            inner,
            epoch,
            unit_rounds,
            sample_at,
            enter_ns: Vec::new(),
            exit_ns: Vec::new(),
            sent: Vec::new(),
            cpu_at_unit: Vec::new(),
            samples: Vec::new(),
        }
    }
}

impl<D: NodeDriver> NodeDriver for Timed<D> {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn setup_step(&mut self, setup_round: u64, inbox: &[Envelope]) -> Vec<OutboxEntry> {
        self.inner.setup_step(setup_round, inbox)
    }

    fn round_step(
        &mut self,
        time: TimeView,
        inbox: &[Envelope],
        input: Option<&[u8]>,
    ) -> (Vec<OutboxEntry>, StepReport) {
        self.enter_ns.push(ns_between(self.epoch, Instant::now()));
        if time.round.is_multiple_of(self.unit_rounds) {
            self.cpu_at_unit.push(process_cpu());
        }
        let out = self.inner.round_step(time, inbox, input);
        self.exit_ns.push(ns_between(self.epoch, Instant::now()));
        let msgs: u64 = out.0.iter().map(|e| e.fanout() as u64).sum();
        let bytes: u64 = out
            .0
            .iter()
            .map(|e| (e.payload.len() * e.fanout()) as u64)
            .sum();
        self.sent.push((msgs, bytes));
        if self.sample_at == Some(time.round_in_unit) {
            let envelopes = out.0.iter().flat_map(OutboxEntry::envelopes).collect();
            self.samples.push((time.round, envelopes));
        }
        out
    }

    fn rom(&self) -> &Rom {
        self.inner.rom()
    }

    fn output(&self) -> &OutputLog {
        self.inner.output()
    }

    fn drain_new_events(&mut self) -> Vec<(u64, OutputEvent)> {
        self.inner.drain_new_events()
    }
}

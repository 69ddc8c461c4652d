//! The synchronous execution engines for the AL and UL models.
//!
//! Both runners implement the paper's execution semantics precisely:
//!
//! * an adversary-free **set-up phase** with faithful delivery and writable
//!   ROM (§2.1: "we assume an initial set-up phase where the parties
//!   communicate without the intervention of the adversary");
//! * synchronous **rounds**: messages sent in round `w` are delivered at the
//!   start of round `w+1`;
//! * **rushing**: the adversary acts on each round's honest messages before
//!   deciding deliveries / broken-node messages;
//! * **break-ins**: while broken, a node's program does not run, its inbox is
//!   diverted to the adversary, and its memory (but never its ROM) is
//!   mutable by the adversary;
//! * fresh per-round randomness seeded outside corruptible node state;
//! * ground-truth tracking of link reliability and the `s`-operational set,
//!   which also drives the "compromised"/"recovered" lines of the global
//!   output (UL semantics per §2.2; AL uses broken status per §2.1).
//!
//! # Examples
//!
//! ```
//! use proauth_sim::adversary::FaithfulUl;
//! use proauth_sim::clock::Schedule;
//! use proauth_sim::message::NodeId;
//! use proauth_sim::process::{Process, RoundCtx, SetupCtx};
//! use proauth_sim::runner::{run_ul, SimConfig};
//!
//! struct Echo;
//! impl Process for Echo {
//!     fn on_setup_round(&mut self, _ctx: &mut SetupCtx<'_>) {}
//!     fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
//!         ctx.send_all(vec![ctx.time.round as u8]);
//!     }
//!     fn state_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut cfg = SimConfig::new(3, 1, Schedule::new(10, 2, 2));
//! cfg.total_rounds = 10;
//! let result = run_ul(cfg, |_| Echo, &mut FaithfulUl);
//! assert_eq!(result.stats.messages_sent, 3 * 2 * 10);
//! ```

use crate::adversary::{AlAdversary, BreakPlan, NetView, UlAdversary};
use crate::clock::{Phase, Schedule, TimeView};
use crate::driver;
use crate::message::{Envelope, NodeId, OutboxEntry, OutputEvent, OutputLog};
use crate::process::{Process, Rom};
use crate::reliability::{
    link_reliability, ClusterTrackers, OperationalRule, OperationalTracker, PairMatrix,
};
use proauth_telemetry::{self as telemetry, PhaseTimer, Shard, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Simulation parameters shared by both models.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of nodes.
    pub n: usize,
    /// Disconnection threshold `s` used for operational tracking and the
    /// global-output semantics.
    pub s: usize,
    /// Round/unit layout.
    pub schedule: Schedule,
    /// Master seed for all node and protocol randomness.
    pub seed: u64,
    /// Length of the adversary-free set-up phase, in rounds.
    pub setup_rounds: u64,
    /// Number of post-setup rounds to execute.
    pub total_rounds: u64,
    /// Which reading of Definition 5 to apply.
    pub rule: OperationalRule,
    /// Record the full per-round transcript (memory-heavy).
    pub record_transcript: bool,
    /// Step each round's honest nodes on scoped helper threads beside the
    /// engine thread instead of one after another. Results are bit-identical
    /// to sequential execution for any thread count (per-node state is
    /// disjoint, randomness is derived per (node, round), and per-node
    /// results are merged in `NodeId` order); useful when node computation
    /// (big-group crypto) dominates. Off by default.
    pub parallel: bool,
    /// Helper threads beside the engine thread when `parallel` is set (so
    /// `threads + 1` executors). `0` = auto: available parallelism.
    pub threads: usize,
    /// Telemetry handle for the run: metrics registry plus optional JSONL
    /// flight recorder. Off by default (near-zero cost — instrumented call
    /// sites reduce to a branch on a process-global flag); defaults to a
    /// file sink when the `PROAUTH_TRACE` environment variable names a path.
    ///
    /// Enabling telemetry never changes a [`SimResult`]: recording is
    /// one-way, wall-clock values stay out of deterministic state, and
    /// per-node shards are merged in `NodeId` order, so results *and* traces
    /// (minus `wall_*` fields) are bit-identical across worker counts.
    pub telemetry: Telemetry,
    /// Optional §6 cluster topology (1-based global node ids per cluster;
    /// must cover `1..=n` exactly once). When set, Definition-4/5 ground
    /// truth runs *per cluster* ([`ClusterTrackers`]): a node's operational
    /// status is judged against its cluster-local links only, matching the
    /// hierarchical construction where protocol obligations are cluster-
    /// scoped. `None` (the default) keeps the flat tracker.
    pub clusters: Option<Vec<Vec<u32>>>,
}

impl SimConfig {
    /// A reasonable default configuration for `n` nodes with threshold `s`.
    pub fn new(n: usize, s: usize, schedule: Schedule) -> Self {
        SimConfig {
            n,
            s,
            schedule,
            seed: 0,
            setup_rounds: 8,
            total_rounds: schedule.unit_rounds * 3,
            rule: OperationalRule::default(),
            record_transcript: false,
            parallel: false,
            threads: 0,
            telemetry: Telemetry::from_env(),
            clusters: None,
        }
    }
}

/// The engine's Definition-4/5 ground truth: the flat tracker, or the
/// per-cluster trackers of the §6 two-level topology. Either way the engine
/// only ever asks for the (global) operational view and feeds one round of
/// impairment + link reliability at a time.
enum GroundTruth {
    Flat(OperationalTracker),
    Clustered(ClusterTrackers),
}

impl GroundTruth {
    fn operational(&self) -> &[bool] {
        match self {
            GroundTruth::Flat(t) => t.operational(),
            GroundTruth::Clustered(t) => t.operational(),
        }
    }

    fn is_operational(&self, id: NodeId) -> bool {
        match self {
            GroundTruth::Flat(t) => t.is_operational(id),
            GroundTruth::Clustered(t) => t.is_operational(id),
        }
    }

    fn on_round(
        &mut self,
        broken: &[bool],
        reliable: &PairMatrix,
        in_refresh: bool,
        refresh_end: bool,
    ) {
        match self {
            GroundTruth::Flat(t) => t.on_round(broken, reliable, in_refresh, refresh_end),
            GroundTruth::Clustered(t) => t.on_round(broken, reliable, in_refresh, refresh_end),
        }
    }
}

/// Per-round transcript record (ground truth; used by analyses and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// The round's time view.
    pub time: TimeView,
    /// Messages sent by honest nodes.
    pub sent: Vec<Envelope>,
    /// Messages actually delivered.
    pub delivered: Vec<Envelope>,
    /// Broken set during the round.
    pub broken: Vec<bool>,
    /// Crash-stopped set during the round.
    pub crashed: Vec<bool>,
    /// Operational set after the round.
    pub operational: Vec<bool>,
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total messages sent by honest nodes.
    pub messages_sent: u64,
    /// Total messages delivered.
    pub messages_delivered: u64,
    /// Honest messages the adversary failed to deliver (per-round multiset
    /// diff of sent vs delivered; a modified message counts as modified, not
    /// dropped).
    pub messages_dropped: u64,
    /// Messages delivered that no honest node sent this round (adversary
    /// injections, including AL broken-node sends and replays).
    pub messages_injected: u64,
    /// Messages whose (from, to) link carried a different payload than the
    /// honest sender handed over (min of unmatched sent/delivered per link).
    pub messages_modified: u64,
    /// Total payload bytes sent by honest nodes.
    pub bytes_sent: u64,
    /// Crash-stop events (scheduled crashes plus panics converted to
    /// crashes).
    pub crashes: u64,
    /// Node steps that panicked and were converted into crashes.
    pub panics: u64,
    /// Restart events (crashed nodes brought back as fresh instances).
    pub restarts: u64,
    /// Alerts emitted, per node.
    pub alerts: Vec<u64>,
    /// Rounds each node spent broken.
    pub broken_rounds: Vec<u64>,
    /// Rounds each node spent crash-stopped.
    pub crashed_rounds: Vec<u64>,
    /// Rounds each node spent non-operational (post-start).
    pub non_operational_rounds: Vec<u64>,
    /// Per-unit Definition-7 scoreboard, one entry per (possibly partial)
    /// time unit in round order. Flat runs carry only the global counts;
    /// hierarchy runs add the per-cluster breakdown and the two-level
    /// budget verdict.
    pub unit_scores: Vec<UnitScore>,
}

/// Definition-7 accounting for one time unit: how many *distinct* nodes the
/// adversary impaired (broke or crashed) during the unit, and how many lost
/// s-operational status. In hierarchy runs the same counts are also scored
/// per cluster, because the budget that matters there is two-level: each
/// cluster's PDS tolerates `⌊(m_c−1)/2⌋` corrupt members, and the top-level
/// PDS over representatives tolerates `⌊(k−1)/2⌋` majority-compromised
/// clusters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitScore {
    /// The unit index.
    pub unit: u64,
    /// Distinct nodes broken or crashed at any round of the unit.
    pub impaired: u64,
    /// Distinct nodes non-operational at any round of the unit.
    pub non_operational: u64,
    /// Per-cluster breakdown (empty in flat runs).
    pub clusters: Vec<ClusterUnitScore>,
}

/// One cluster's share of a [`UnitScore`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterUnitScore {
    /// Cluster size `m_c`.
    pub size: u64,
    /// Distinct members broken or crashed at any round of the unit.
    pub impaired: u64,
    /// Distinct members non-operational at any round of the unit.
    pub non_operational: u64,
}

impl ClusterUnitScore {
    /// Whether the impairment exceeded the cluster PDS's threshold
    /// `⌊(m_c−1)/2⌋` — past it, the cluster's shares (and so its
    /// representative) must be presumed adversarial for the unit.
    pub fn majority_compromised(&self) -> bool {
        self.impaired > self.size.saturating_sub(1) / 2
    }
}

impl UnitScore {
    /// Flat Definition-7 verdict: at most `t` distinct break-ins this unit.
    pub fn within_flat_budget(&self, t: usize) -> bool {
        self.impaired <= t as u64
    }

    /// Number of clusters whose local PDS threshold was exceeded.
    pub fn majority_compromised_clusters(&self) -> u64 {
        self.clusters
            .iter()
            .filter(|c| c.majority_compromised())
            .count() as u64
    }

    /// Two-level Definition-7 verdict for hierarchy runs: a unit is within
    /// budget when the clusters that blew their local threshold are few
    /// enough for the top-level PDS over representatives to outvote them —
    /// at most `⌊(k−1)/2⌋` of `k` clusters. (With no clusters configured
    /// this degenerates to `true`; use [`UnitScore::within_flat_budget`]
    /// for flat runs.)
    pub fn within_two_level_budget(&self) -> bool {
        let k = self.clusters.len() as u64;
        self.majority_compromised_clusters() <= k.saturating_sub(1) / 2
    }
}

/// The result of a simulation run: the paper's "global output" plus ground
/// truth for analysis. `PartialEq` compares every component, so determinism
/// tests can assert two runs are bit-identical with one `assert_eq!`.
#[derive(Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Per-node output logs (component `i` of the global output).
    pub outputs: Vec<OutputLog>,
    /// The adversary's output (component 0 of the global output).
    pub adversary_output: Vec<String>,
    /// Aggregate statistics.
    pub stats: SimStats,
    /// Operational set at the end of the run.
    pub final_operational: Vec<bool>,
    /// Each node's ROM as frozen at the end of setup (e.g. the PDS
    /// verification key `v_cert`).
    pub roms: Vec<Rom>,
    /// Full transcript if requested.
    pub transcript: Option<Vec<RoundRecord>>,
}

impl SimResult {
    /// All events of a given node.
    pub fn events_of(&self, node: NodeId) -> &[(u64, OutputEvent)] {
        &self.outputs[node.idx()]
    }

    /// Whether `node` emitted [`OutputEvent::Alert`] during time unit `unit`.
    pub fn alerted_in_unit(&self, node: NodeId, unit: u64, schedule: &Schedule) -> bool {
        self.outputs[node.idx()]
            .iter()
            .any(|(round, ev)| *ev == OutputEvent::Alert && schedule.unit_of(*round) == unit)
    }
}

/// Per-round adversary interference, reconstructed by diffing the honest
/// sent set against the delivered set: `(dropped, injected, modified)`.
///
/// The fast path covers faithful delivery (same length, same links, shared
/// payloads — one pointer comparison per envelope), so the accounting is
/// effectively free on benign runs and `SimStats` can carry these fields
/// unconditionally. The slow path is a per-link multiset diff: an unmatched
/// sent and an unmatched delivery on the *same* link pair up as one
/// modification; the leftovers are drops and injections respectively.
fn delivery_diff(sent: &[Envelope], delivered: &[Envelope]) -> (u64, u64, u64) {
    if sent.len() == delivered.len() {
        let faithful = sent.iter().zip(delivered).all(|(a, b)| {
            a.from == b.from
                && a.to == b.to
                && (std::sync::Arc::ptr_eq(&a.payload, &b.payload) || a.payload == b.payload)
        });
        if faithful {
            return (0, 0, 0);
        }
    }
    use std::collections::HashMap;
    // Signed multiset per (link, payload): sends count up, deliveries down.
    let mut multiset: HashMap<(NodeId, NodeId, &[u8]), i64> = HashMap::new();
    for env in sent {
        *multiset.entry((env.from, env.to, &env.payload)).or_insert(0) += 1;
    }
    for env in delivered {
        *multiset.entry((env.from, env.to, &env.payload)).or_insert(0) -= 1;
    }
    // Net unmatched counts per link, ignoring payloads.
    let mut links: HashMap<(NodeId, NodeId), (u64, u64)> = HashMap::new();
    for ((from, to, _), count) in multiset {
        let slot = links.entry((from, to)).or_insert((0, 0));
        if count > 0 {
            slot.0 += count as u64; // sent but not delivered as-is
        } else {
            slot.1 += (-count) as u64; // delivered but never sent as-is
        }
    }
    let (mut dropped, mut injected, mut modified) = (0, 0, 0);
    for (_, (unmatched_sent, unmatched_delivered)) in links {
        let m = unmatched_sent.min(unmatched_delivered);
        modified += m;
        dropped += unmatched_sent - m;
        injected += unmatched_delivered - m;
    }
    (dropped, injected, modified)
}

/// Which model a run executes under (affects delivery and output semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    Al,
    Ul,
}

/// One honest node's work for a round: disjoint `&mut` access to its state
/// plus the round's inputs and reusable outbox buffer. Slots are what
/// [`step_parallel`] hands to its threads; every result a step produces lands
/// back in its slot and is merged by the engine in `NodeId` order, which is
/// what keeps the parallel path bit-identical to the serial one.
struct NodeSlot<'a, P> {
    id: NodeId,
    node: &'a mut P,
    output: &'a mut OutputLog,
    rom: &'a Rom,
    inbox: Vec<Envelope>,
    input: Option<Vec<u8>>,
    outbox: Vec<OutboxEntry>,
    alerts: u64,
    /// Set when the node's step panicked; the engine converts this into a
    /// crash-stop during the merge.
    panicked: bool,
    /// Telemetry shard (present iff telemetry is on): installed as the
    /// thread-local recording scope while the node executes, merged by the
    /// engine in `NodeId` order afterwards.
    shard: Option<Shard>,
}

/// Executes one node's round into its slot. The protocol step itself —
/// randomness derivation, context construction, panic→crash conversion,
/// incremental alert accounting — is [`driver::step_round`], shared verbatim
/// with the socket daemon; this wrapper only adds the engine's telemetry
/// shard plumbing. Free function so the serial path and the helper threads
/// share the exact same code.
fn exec_slot<P: Process>(seed: u64, time: TimeView, n: usize, slot: &mut NodeSlot<'_, P>) {
    // Install the slot's telemetry shard as this thread's recording scope,
    // saving whatever was there: the engine thread steps slots too while
    // holding the engine-side shard, so scopes must nest.
    let scoped = slot.shard.is_some();
    let prev = if scoped {
        let mut shard = slot.shard.take().expect("shard present");
        shard.set_ctx(slot.id.0, time.round);
        telemetry::install(Some(shard))
    } else {
        None
    };
    let report = driver::step_round(
        seed,
        time,
        slot.id,
        n,
        slot.node,
        slot.rom,
        slot.output,
        &slot.inbox,
        slot.input.as_deref(),
        &mut slot.outbox,
    );
    slot.alerts = report.alerts;
    slot.panicked = report.panicked;
    if scoped {
        slot.shard = telemetry::install(prev);
    }
}

/// The parallel arm of [`Engine::round`]: steps `slots` on `threads` scoped
/// helper threads (`0` = available parallelism) plus the calling thread.
/// Executors claim slot indices from one shared counter — node steps are
/// uneven (wiped nodes do less, recovering ones more), so static chunks would
/// wait for their slowest member. Each slot sits behind its own `Mutex`,
/// never contended because an index is claimed once; its only job is to turn
/// a claimed index into a `&mut` in safe code. A spawn that fails is
/// ignored: the calling thread runs the same loop and drains whatever the
/// helpers did not take. Step panics never get here (`driver::step_round`
/// converts them into crash-stops); any other panic propagates out of the
/// scope.
fn step_parallel<P: Process + Send>(
    threads: usize,
    seed: u64,
    time: TimeView,
    n: usize,
    slots: &mut [NodeSlot<'_, P>],
) {
    let helpers = match threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        t => t,
    };
    let cells: Vec<Mutex<&mut NodeSlot<'_, P>>> = slots.iter_mut().map(Mutex::new).collect();
    // Relaxed: the counter publishes nothing but the index itself; a slot's
    // data is ordered by its `Mutex` and by the scope's join.
    let next = AtomicUsize::new(0);
    let drain = || {
        while let Some(cell) = cells.get(next.fetch_add(1, Ordering::Relaxed)) {
            exec_slot(seed, time, n, &mut cell.lock().expect("slot index claimed once"));
        }
    };
    std::thread::scope(|scope| {
        // A helper per slot beyond the first is the most that can find work.
        for _ in 0..helpers.min(cells.len().saturating_sub(1)) {
            let _ = std::thread::Builder::new().spawn_scoped(scope, drain);
        }
        drain();
    });
}

/// Internal engine shared by [`run_al`] and [`run_ul`].
struct Engine<'f, P> {
    cfg: SimConfig,
    model: Model,
    nodes: Vec<P>,
    /// Node factory, retained so restarted nodes come back as *fresh*
    /// instances — all volatile state lost, ROM intact (§4.2 recovery).
    make_node: Box<dyn FnMut(NodeId) -> P + 'f>,
    roms: Vec<Rom>,
    broken: Vec<bool>,
    /// Crash-stopped set: these nodes do not execute and their pending
    /// traffic is discarded (not diverted — a crash is not a break-in).
    crashed: Vec<bool>,
    /// Scratch: `broken ∨ crashed`, the impairment fed to the ground-truth
    /// computations so crashed rounds are charged to the (s,t) budget
    /// (`link_reliability` treats silent links as trivially reliable, so a
    /// crashed node must be marked explicitly).
    impaired_buf: Vec<bool>,
    /// Round each node's current `broken ∨ crashed` spell began; cleared on
    /// the first round the node is both released and s-operational again.
    /// Drives the recovery-latency histogram.
    impaired_since: Vec<Option<u64>>,
    /// Distinct nodes impaired so far in the current unit (reset at unit
    /// boundaries; feeds [`SimStats::unit_scores`]).
    unit_impaired: Vec<bool>,
    /// Distinct nodes non-operational so far in the current unit.
    unit_non_op: Vec<bool>,
    tracker: GroundTruth,
    /// Precomputed per-cluster telemetry keys (empty unless clustered and
    /// telemetry is on — avoids per-round formatting).
    cluster_tele_keys: Vec<&'static str>,
    /// Deliveries pending for the next round, per node. The per-node `Vec`s
    /// are recycled every round (taken as a slot's inbox, cleared, returned)
    /// so steady state allocates no inbox buffers at all.
    pending: Vec<Vec<Envelope>>,
    /// Reusable per-node outbox buffers, recycled the same way. Entries may
    /// carry many destinations; they stay unexpanded until the adversary
    /// boundary.
    outboxes: Vec<Vec<OutboxEntry>>,
    /// Reusable buffer for the round's merged sent set.
    sent_buf: Vec<Envelope>,
    /// All deliveries of the previous round (adversary view).
    last_delivered: Vec<Envelope>,
    outputs: Vec<OutputLog>,
    stats: SimStats,
    transcript: Option<Vec<RoundRecord>>,
    /// Previous "impaired" status used for output lines.
    prev_impaired: Vec<bool>,
    /// Per-node telemetry shards (present iff telemetry is on), recycled
    /// like the outbox buffers and merged in `NodeId` order each round.
    shards: Vec<Option<Shard>>,
    /// Engine-side shard for adversary callbacks (plan/corrupt/deliver run
    /// on the engine thread, outside any node scope).
    engine_shard: Option<Shard>,
    /// Span timer over the schedule's phases (Fig. 1).
    phase_timer: PhaseTimer,
}

impl<'f, P: Process + Send> Engine<'f, P> {
    fn new(cfg: SimConfig, model: Model, make_node: impl FnMut(NodeId) -> P + 'f) -> Self {
        let n = cfg.n;
        let mut make_node: Box<dyn FnMut(NodeId) -> P + 'f> = Box::new(make_node);
        let nodes: Vec<P> = NodeId::all(n).map(&mut *make_node).collect();
        let tracker = match &cfg.clusters {
            Some(clusters) => GroundTruth::Clustered(ClusterTrackers::new(
                clusters.clone(),
                n,
                cfg.s,
                cfg.rule,
            )),
            None => GroundTruth::Flat(OperationalTracker::with_rule(n, cfg.s, cfg.rule)),
        };
        let cluster_tele_keys = match (&cfg.clusters, cfg.telemetry.is_on()) {
            (Some(clusters), true) => (0..clusters.len())
                .map(|c| telemetry::intern_name(&format!("engine/cluster{c}/non_op_rounds")))
                .collect(),
            _ => Vec::new(),
        };
        Engine {
            tracker,
            cluster_tele_keys,
            model,
            nodes,
            make_node,
            roms: vec![Rom::new(); n],
            broken: vec![false; n],
            crashed: vec![false; n],
            impaired_buf: Vec::with_capacity(n),
            impaired_since: vec![None; n],
            unit_impaired: vec![false; n],
            unit_non_op: vec![false; n],
            pending: vec![Vec::new(); n],
            outboxes: vec![Vec::new(); n],
            sent_buf: Vec::new(),
            last_delivered: Vec::new(),
            outputs: vec![Vec::new(); n],
            stats: SimStats {
                alerts: vec![0; n],
                broken_rounds: vec![0; n],
                crashed_rounds: vec![0; n],
                non_operational_rounds: vec![0; n],
                ..SimStats::default()
            },
            transcript: if cfg.record_transcript {
                Some(Vec::new())
            } else {
                None
            },
            prev_impaired: vec![false; n],
            shards: (0..n).map(|_| cfg.telemetry.new_shard()).collect(),
            engine_shard: cfg.telemetry.new_shard(),
            phase_timer: PhaseTimer::new(),
            cfg,
        }
    }

    /// Takes the engine-side shard for an adversary callback outside
    /// [`Engine::round`] (the `plan` call), with its round context set.
    /// Install it via [`telemetry::install`] and hand the result back to
    /// [`Engine::put_adv_shard`].
    fn take_adv_shard(&mut self, round: u64) -> Option<Shard> {
        let mut shard = self.engine_shard.take();
        if let Some(sh) = shard.as_mut() {
            sh.set_ctx(0, round);
        }
        shard
    }

    fn put_adv_shard(&mut self, shard: Option<Shard>) {
        self.engine_shard = shard;
    }

    /// Runs the adversary-free set-up phase.
    fn setup(&mut self) {
        let n = self.cfg.n;
        for sr in 0..self.cfg.setup_rounds {
            let mut sent: Vec<Envelope> = Vec::new();
            for id in NodeId::all(n) {
                let inbox = std::mem::take(&mut self.pending[id.idx()]);
                let mut outbox: Vec<OutboxEntry> = Vec::new();
                driver::step_setup(
                    self.cfg.seed,
                    sr,
                    id,
                    n,
                    &mut self.nodes[id.idx()],
                    &mut self.roms[id.idx()],
                    &inbox,
                    &mut outbox,
                );
                for entry in &outbox {
                    sent.extend(entry.envelopes());
                }
            }
            for env in sent {
                self.pending[env.to.idx()].push(env);
            }
        }
        // The flight recorder starts at the adversary boundary: one
        // `run_start` header after the adversary-free set-up phase. Worker
        // count and wall-clock deliberately stay out of it — the trace
        // (minus `wall_*` fields) must be identical across engines.
        self.cfg.telemetry.emit_event("run_start", |ev| {
            ev.u64("n", self.cfg.n as u64)
                .u64("s", self.cfg.s as u64)
                .u64("seed", self.cfg.seed)
                .u64("setup_rounds", self.cfg.setup_rounds)
                .u64("total_rounds", self.cfg.total_rounds)
                .u64("unit_rounds", self.cfg.schedule.unit_rounds)
                .u64("part1_rounds", self.cfg.schedule.part1_rounds)
                .u64("part2_rounds", self.cfg.schedule.part2_rounds);
        });
    }

    /// Executes one post-setup round; `deliver` maps (sent, view) to the
    /// delivered set under the model's rules; `input_fn` supplies the
    /// per-round external inputs `x_{i,w}`.
    #[allow(clippy::too_many_lines)]
    fn round(
        &mut self,
        round: u64,
        plan: BreakPlan,
        corrupt: &mut dyn FnMut(NodeId, &mut dyn std::any::Any, &TimeView),
        deliver: &mut dyn FnMut(&[Envelope], &NetView<'_>) -> Vec<Envelope>,
        input_fn: &mut dyn FnMut(NodeId, u64) -> Option<Vec<u8>>,
    ) {
        let n = self.cfg.n;
        let time = TimeView::at(&self.cfg.schedule, round);
        let tele_on = self.cfg.telemetry.is_on();
        let round_start = tele_on.then(Instant::now);
        if tele_on {
            let label = match time.phase {
                Phase::RefreshPart1 { .. } => telemetry::PHASE_REFRESH1,
                Phase::RefreshPart2 { .. } => telemetry::PHASE_REFRESH2,
                Phase::Normal => telemetry::PHASE_NORMAL,
            };
            self.phase_timer
                .on_round(&self.cfg.telemetry, round, time.unit, label);
            self.cfg.telemetry.emit_event("round_start", |ev| {
                ev.u64("round", round)
                    .u64("unit", time.unit)
                    .u64("auth_unit", time.auth_unit)
                    .str("phase", label)
                    .u64("round_in_unit", time.round_in_unit);
            });
            self.cfg
                .telemetry
                .add("adversary/break_ins", plan.break_into.len() as u64);
            self.cfg
                .telemetry
                .add("adversary/leaves", plan.leave.len() as u64);
        }
        // Apply crash / restart plan. A crash-stop halts the node without
        // giving the adversary anything; a restart replaces the instance with
        // a freshly constructed one (volatile state lost, ROM preserved), so
        // the node re-certifies via the share-recovery / refresh path.
        for id in &plan.crash {
            if !self.crashed[id.idx()] {
                self.crashed[id.idx()] = true;
                self.stats.crashes += 1;
                if tele_on {
                    self.cfg.telemetry.add("adversary/crashes", 1);
                    self.cfg.telemetry.emit_event("node_crash", |ev| {
                        ev.u64("round", round)
                            .u64("node", u64::from(id.0))
                            .str("cause", "scheduled");
                    });
                }
            }
        }
        for id in &plan.restart {
            if self.crashed[id.idx()] {
                self.crashed[id.idx()] = false;
                self.stats.restarts += 1;
                self.nodes[id.idx()] = (self.make_node)(*id);
                self.pending[id.idx()].clear();
                if tele_on {
                    self.cfg.telemetry.add("adversary/restarts", 1);
                    self.cfg.telemetry.emit_event("node_restart", |ev| {
                        ev.u64("round", round).u64("node", u64::from(id.0));
                    });
                }
            }
        }
        // Engine-side recording scope: adversary callbacks (corrupt, the
        // deliver boundary) run on this thread outside any node scope.
        // Node steps save/restore it (see `exec_slot`), so this thread
        // stepping slots in the parallel section cannot clobber it.
        let adv_prev = tele_on.then(|| {
            let shard = self.take_adv_shard(round);
            telemetry::install(shard)
        });

        // Apply break-in plan.
        for id in plan.break_into {
            self.broken[id.idx()] = true;
        }
        for id in plan.leave {
            self.broken[id.idx()] = false;
        }

        // Memory corruption of broken nodes.
        for id in NodeId::all(n) {
            if self.broken[id.idx()] {
                corrupt(id, self.nodes[id.idx()].state_mut(), &time);
                self.stats.broken_rounds[id.idx()] += 1;
            }
            if self.crashed[id.idx()] {
                self.stats.crashed_rounds[id.idx()] += 1;
            }
        }

        // Honest nodes execute; broken nodes' inboxes divert to the adversary.
        // Inputs are sampled serially in NodeId order (the provider may be
        // stateful), then nodes run either sequentially or on scoped threads
        // — the result is identical: per-node state is disjoint, randomness is
        // derived per (node, round), and slot results are merged in NodeId
        // order, so execution order cannot matter.
        let mut broken_inboxes: Vec<Envelope> = Vec::new();
        let seed = self.cfg.seed;
        let sent_before = self.stats.messages_sent;
        let mut round_alerts = 0u64;
        {
            let mut slots: Vec<NodeSlot<'_, P>> = Vec::with_capacity(n);
            for (((idx, node), output), rom) in self
                .nodes
                .iter_mut()
                .enumerate()
                .zip(self.outputs.iter_mut())
                .zip(self.roms.iter())
            {
                let id = NodeId::from_idx(idx);
                let mut inbox = std::mem::take(&mut self.pending[idx]);
                if self.broken[idx] {
                    broken_inboxes.append(&mut inbox);
                    self.pending[idx] = inbox; // keep the (now empty) buffer
                    continue;
                }
                if self.crashed[idx] {
                    // Crash ≠ break-in: pending traffic is lost, not
                    // diverted to the adversary.
                    inbox.clear();
                    self.pending[idx] = inbox;
                    continue;
                }
                let input = input_fn(id, round);
                slots.push(NodeSlot {
                    id,
                    node,
                    output,
                    rom,
                    inbox,
                    input,
                    outbox: std::mem::take(&mut self.outboxes[idx]),
                    alerts: 0,
                    panicked: false,
                    shard: self.shards[idx].take(),
                });
            }
            if self.cfg.parallel {
                step_parallel(self.cfg.threads, seed, time, n, &mut slots);
            } else {
                for slot in &mut slots {
                    exec_slot(seed, time, n, slot);
                }
            }
            // Merge in slot (= NodeId) order and recycle the buffers. This
            // is where multi-destination entries expand into per-destination
            // envelopes: the adversary boundary below must see (and may drop
            // or inject) individual links, but nothing before this point
            // needed more than the shared payload plus a destination list.
            self.sent_buf.clear();
            for mut slot in slots {
                let idx = slot.id.idx();
                if slot.panicked {
                    // The step panicked: record the node as crash-stopped
                    // (its partial round was already discarded in
                    // `exec_slot`). It rejoins only if the adversary
                    // restarts it, and its rounds are charged to the (s,t)
                    // budget from this round on.
                    self.crashed[idx] = true;
                    self.stats.panics += 1;
                    self.stats.crashes += 1;
                    self.stats.crashed_rounds[idx] += 1;
                    if tele_on {
                        self.cfg.telemetry.add("engine/panics", 1);
                        self.cfg.telemetry.emit_event("node_crash", |ev| {
                            ev.u64("round", round)
                                .u64("node", u64::from(slot.id.0))
                                .str("cause", "panic");
                        });
                    }
                }
                self.stats.alerts[idx] += slot.alerts;
                round_alerts += slot.alerts;
                if let Some(shard) = slot.shard.as_mut() {
                    self.cfg.telemetry.merge_shard(shard);
                }
                self.shards[idx] = slot.shard.take();
                for entry in &slot.outbox {
                    let fanout = entry.fanout() as u64;
                    self.stats.messages_sent += fanout;
                    self.stats.bytes_sent += entry.payload.len() as u64 * fanout;
                    self.sent_buf.extend(entry.envelopes());
                }
                slot.inbox.clear();
                self.pending[idx] = slot.inbox;
                slot.outbox.clear();
                self.outboxes[idx] = slot.outbox;
            }
        }

        // Delivery under the model's rules (rushing: adversary sees `sent`).
        let delivered = {
            let view = NetView {
                time,
                n,
                broken: &self.broken,
                crashed: &self.crashed,
                operational: self.tracker.operational(),
                last_delivered: &self.last_delivered,
                broken_inboxes: &broken_inboxes,
            };
            deliver(&self.sent_buf, &view)
        };
        self.stats.messages_delivered += delivered.len() as u64;

        // Adversary interference accounting. Computed unconditionally so the
        // new `SimStats` fields never depend on telemetry being on (the fast
        // path makes faithful rounds nearly free); mirrored into the
        // registry when it is.
        let (dropped, injected, modified) = delivery_diff(&self.sent_buf, &delivered);
        self.stats.messages_dropped += dropped;
        self.stats.messages_injected += injected;
        self.stats.messages_modified += modified;
        if tele_on {
            self.cfg.telemetry.add("adversary/dropped", dropped);
            self.cfg.telemetry.add("adversary/injected", injected);
            self.cfg.telemetry.add("adversary/modified", modified);
        }

        // Ground truth: reliability + operational set. Crashed nodes are
        // merged into the impairment the ground truth sees: a silent node's
        // links would otherwise count as trivially reliable, and Definition-7
        // accounting must charge crashed rounds like broken ones.
        self.impaired_buf.clear();
        self.impaired_buf
            .extend(self.broken.iter().zip(&self.crashed).map(|(b, c)| *b || *c));
        let reliability = link_reliability(n, &self.sent_buf, &delivered, &self.impaired_buf);
        self.tracker.on_round(
            &self.impaired_buf,
            &reliability,
            self.cfg.schedule.in_refresh(round),
            self.cfg.schedule.is_refresh_end(round),
        );
        if tele_on && !self.cluster_tele_keys.is_empty() {
            if let GroundTruth::Clustered(ct) = &self.tracker {
                for (c, key) in self.cluster_tele_keys.iter().enumerate() {
                    let non_op = ct.cluster_size(c) - ct.cluster_operational_count(c);
                    self.cfg.telemetry.add(key, non_op as u64);
                }
            }
        }

        // "Compromised"/"recovered" output lines. In the UL model these track
        // loss of s-operational status (§2.2); in the AL model, break-ins
        // (and crash-stops, which equally halt the program).
        for id in NodeId::all(n) {
            let impaired = match self.model {
                Model::Al => self.impaired_buf[id.idx()],
                Model::Ul => !self.tracker.is_operational(id),
            };
            if impaired && !self.prev_impaired[id.idx()] {
                self.outputs[id.idx()].push((round, OutputEvent::Compromised));
            } else if !impaired && self.prev_impaired[id.idx()] {
                self.outputs[id.idx()].push((round, OutputEvent::Recovered));
            }
            if !self.tracker.is_operational(id) {
                self.stats.non_operational_rounds[id.idx()] += 1;
                self.unit_non_op[id.idx()] = true;
            }
            if self.impaired_buf[id.idx()] {
                self.unit_impaired[id.idx()] = true;
            }
            self.prev_impaired[id.idx()] = impaired;
            // Recovery latency: rounds from the start of a broken/crashed
            // spell until the node is released *and* s-operational again
            // (re-certified at a refresh end). Engine-thread registry write,
            // so the histogram is identical across worker counts.
            if self.impaired_buf[id.idx()] {
                if self.impaired_since[id.idx()].is_none() {
                    self.impaired_since[id.idx()] = Some(round);
                }
            } else if self.tracker.is_operational(id) {
                if let Some(start) = self.impaired_since[id.idx()].take() {
                    self.cfg
                        .telemetry
                        .observe_value("engine/recovery_rounds", round - start);
                }
            }
        }

        if let Some(t) = &mut self.transcript {
            t.push(RoundRecord {
                time,
                sent: self.sent_buf.clone(),
                delivered: delivered.clone(),
                broken: self.broken.clone(),
                crashed: self.crashed.clone(),
                operational: self.tracker.operational().to_vec(),
            });
        }

        // Queue deliveries for the next round.
        let delivered_count = delivered.len() as u64;
        for env in &delivered {
            self.pending[env.to.idx()].push(env.clone());
        }
        self.last_delivered = delivered;

        // Close the engine-side scope, merge its shard (adversary events land
        // before `round_end` in the trace), and emit the round footer.
        if let Some(prev) = adv_prev {
            let mut shard = telemetry::install(prev);
            if let Some(sh) = shard.as_mut() {
                self.cfg.telemetry.merge_shard(sh);
            }
            self.put_adv_shard(shard);
        }
        if tele_on {
            let wall_ns = round_start.map_or(0, |s| s.elapsed().as_nanos() as u64);
            self.cfg.telemetry.observe_ns("engine/round_ns", wall_ns);
            let broken_count = self.broken.iter().filter(|b| **b).count() as u64;
            let crashed_count = self.crashed.iter().filter(|c| **c).count() as u64;
            let sent_count = self.stats.messages_sent - sent_before;
            self.cfg.telemetry.emit_event("round_end", |ev| {
                ev.u64("round", round)
                    .u64("sent", sent_count)
                    .u64("delivered", delivered_count)
                    .u64("dropped", dropped)
                    .u64("injected", injected)
                    .u64("modified", modified)
                    .u64("alerts", round_alerts)
                    .u64("broken", broken_count)
                    .u64("crashed", crashed_count)
                    .u64("wall_ns", wall_ns);
            });
            // Unit boundary: every shard has merged at the barrier, so the
            // registry deltas are deterministic — close the unit's metrics
            // row (also at run end, for a final partial unit).
            if time.round_in_unit + 1 == self.cfg.schedule.unit_rounds
                || round + 1 == self.cfg.total_rounds
            {
                self.cfg.telemetry.unit_mark(time.unit);
            }
        }
        if time.round_in_unit + 1 == self.cfg.schedule.unit_rounds
            || round + 1 == self.cfg.total_rounds
        {
            self.close_unit_score(time.unit);
        }
    }

    /// Closes the Definition-7 scoreboard for a finished (or final partial)
    /// unit: distinct-node impairment counts, the per-cluster breakdown in
    /// hierarchy runs, and the matching telemetry counters.
    fn close_unit_score(&mut self, unit: u64) {
        let mut score = UnitScore {
            unit,
            impaired: self.unit_impaired.iter().filter(|b| **b).count() as u64,
            non_operational: self.unit_non_op.iter().filter(|b| **b).count() as u64,
            clusters: Vec::new(),
        };
        if let Some(clusters) = &self.cfg.clusters {
            score.clusters = clusters
                .iter()
                .map(|members| ClusterUnitScore {
                    size: members.len() as u64,
                    impaired: members
                        .iter()
                        .filter(|&&m| self.unit_impaired[(m - 1) as usize])
                        .count() as u64,
                    non_operational: members
                        .iter()
                        .filter(|&&m| self.unit_non_op[(m - 1) as usize])
                        .count() as u64,
                })
                .collect();
            if self.cfg.telemetry.is_on() {
                self.cfg.telemetry.add(
                    "engine/majority_compromised_cluster_units",
                    score.majority_compromised_clusters(),
                );
                if !score.within_two_level_budget() {
                    self.cfg.telemetry.add("engine/units_over_two_level_budget", 1);
                }
            }
        }
        if self.cfg.telemetry.is_on() {
            self.cfg.telemetry.add("engine/unit_impaired_nodes", score.impaired);
        }
        self.stats.unit_scores.push(score);
        self.unit_impaired.iter_mut().for_each(|b| *b = false);
        self.unit_non_op.iter_mut().for_each(|b| *b = false);
    }

    fn finish(mut self, adversary_output: Vec<String>) -> SimResult {
        let tele = self.cfg.telemetry.clone();
        self.phase_timer.finish(&tele, self.cfg.total_rounds);
        tele.emit_event("run_end", |ev| {
            ev.u64("rounds", self.cfg.total_rounds)
                .u64("sent", self.stats.messages_sent)
                .u64("delivered", self.stats.messages_delivered)
                .u64("dropped", self.stats.messages_dropped)
                .u64("injected", self.stats.messages_injected)
                .u64("modified", self.stats.messages_modified)
                .u64("alerts", self.stats.alerts.iter().sum::<u64>());
        });
        tele.flush();
        SimResult {
            outputs: self.outputs,
            adversary_output,
            stats: self.stats,
            final_operational: self.tracker.operational().to_vec(),
            roms: self.roms,
            transcript: self.transcript,
        }
    }
}

/// Runs a protocol in the **AL model** against an [`AlAdversary`].
pub fn run_al<P: Process + Send, A: AlAdversary>(
    cfg: SimConfig,
    make_node: impl FnMut(NodeId) -> P,
    adversary: &mut A,
) -> SimResult {
    run_al_with_inputs(cfg, make_node, adversary, |_, _| None)
}

/// Like [`run_al`], with per-round external inputs (`x_{i,w}` in §2.1).
pub fn run_al_with_inputs<P: Process + Send, A: AlAdversary>(
    cfg: SimConfig,
    make_node: impl FnMut(NodeId) -> P,
    adversary: &mut A,
    mut input_fn: impl FnMut(NodeId, u64) -> Option<Vec<u8>>,
) -> SimResult {
    let mut engine = Engine::new(cfg, Model::Al, make_node);
    engine.setup();
    for round in 0..engine.cfg.total_rounds {
        let time = TimeView::at(&engine.cfg.schedule, round);
        let plan = {
            // The plan callback runs before `Engine::round`, so it gets the
            // engine-side recording scope installed around it explicitly.
            let prev = telemetry::install(engine.take_adv_shard(round));
            let view = NetView {
                time,
                n: engine.cfg.n,
                broken: &engine.broken,
                crashed: &engine.crashed,
                operational: engine.tracker.operational(),
                last_delivered: &engine.last_delivered,
                broken_inboxes: &[],
            };
            let plan = adversary.plan(&view);
            engine.put_adv_shard(telemetry::install(prev));
            plan
        };
        let adv = std::cell::RefCell::new(&mut *adversary);
        engine.round(
            round,
            plan,
            &mut |id, state, tv| adv.borrow_mut().corrupt(id, state, tv),
            &mut |sent, view| {
                // AL semantics: all honest messages delivered faithfully; the
                // adversary may add messages in the name of broken nodes.
                let mut delivered = sent.to_vec();
                let extra = adv.borrow_mut().broken_sends(sent, view);
                delivered.extend(
                    extra
                        .into_iter()
                        .filter(|e| view.broken[e.from.idx()] && e.to != e.from),
                );
                delivered
            },
            &mut input_fn,
        );
    }
    let out = adversary.output();
    engine.finish(out)
}

/// Runs a protocol in the **UL model** against a [`UlAdversary`].
pub fn run_ul<P: Process + Send, A: UlAdversary>(
    cfg: SimConfig,
    make_node: impl FnMut(NodeId) -> P,
    adversary: &mut A,
) -> SimResult {
    run_ul_with_inputs(cfg, make_node, adversary, |_, _| None)
}

/// Like [`run_ul`], with per-round external inputs (`x_{i,w}` in §2.1).
pub fn run_ul_with_inputs<P: Process + Send, A: UlAdversary>(
    cfg: SimConfig,
    make_node: impl FnMut(NodeId) -> P,
    adversary: &mut A,
    mut input_fn: impl FnMut(NodeId, u64) -> Option<Vec<u8>>,
) -> SimResult {
    let mut engine = Engine::new(cfg, Model::Ul, make_node);
    engine.setup();
    for round in 0..engine.cfg.total_rounds {
        let time = TimeView::at(&engine.cfg.schedule, round);
        let plan = {
            // The plan callback runs before `Engine::round`, so it gets the
            // engine-side recording scope installed around it explicitly.
            let prev = telemetry::install(engine.take_adv_shard(round));
            let view = NetView {
                time,
                n: engine.cfg.n,
                broken: &engine.broken,
                crashed: &engine.crashed,
                operational: engine.tracker.operational(),
                last_delivered: &engine.last_delivered,
                broken_inboxes: &[],
            };
            let plan = adversary.plan(&view);
            engine.put_adv_shard(telemetry::install(prev));
            plan
        };
        let adv = std::cell::RefCell::new(&mut *adversary);
        engine.round(
            round,
            plan,
            &mut |id, state, tv| adv.borrow_mut().corrupt(id, state, tv),
            &mut |sent, view| adv.borrow_mut().deliver(sent, view),
            &mut input_fn,
        );
    }
    let out = adversary.output();
    engine.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{RoundCtx, SetupCtx};
    use crate::adversary::{FaithfulUl, PassiveAl};
    use std::any::Any;

    /// A node that pings every peer each round and counts pongs.
    struct Pinger {
        received: u64,
        rom_check: Option<Vec<u8>>,
    }

    impl Process for Pinger {
        fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
            if ctx.setup_round == 0 {
                ctx.rom.write("tag", vec![ctx.me.0 as u8]);
            }
        }

        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            self.received += ctx.inbox.len() as u64;
            self.rom_check = ctx.rom.read("tag").map(|v| v.to_vec());
            ctx.send_all(vec![0xAB]);
            if ctx.time.round == 0 {
                ctx.emit(OutputEvent::Custom("started".into()));
            }
        }

        fn state_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn cfg(n: usize) -> SimConfig {
        let mut c = SimConfig::new(n, 1, Schedule::new(10, 2, 2));
        c.total_rounds = 10;
        c.setup_rounds = 1;
        c
    }

    #[test]
    fn faithful_ul_run_delivers_everything() {
        let result = run_ul(
            cfg(4),
            |_| Pinger {
                received: 0,
                rom_check: None,
            },
            &mut FaithfulUl,
        );
        // 4 nodes × 3 peers × 10 rounds sent; all but the last round's are
        // delivered within the run.
        assert_eq!(result.stats.messages_sent, 120);
        assert_eq!(result.stats.messages_delivered, 120);
        assert!(result.final_operational.iter().all(|&b| b));
        // Everyone logged the start event.
        for id in NodeId::all(4) {
            assert!(result
                .events_of(id)
                .contains(&(0, OutputEvent::Custom("started".into()))));
        }
    }

    #[test]
    fn al_run_matches_ul_faithful() {
        let r1 = run_al(
            cfg(3),
            |_| Pinger {
                received: 0,
                rom_check: None,
            },
            &mut PassiveAl,
        );
        let r2 = run_ul(
            cfg(3),
            |_| Pinger {
                received: 0,
                rom_check: None,
            },
            &mut FaithfulUl,
        );
        assert_eq!(r1.stats.messages_sent, r2.stats.messages_sent);
        assert_eq!(r1.outputs, r2.outputs);
    }

    #[test]
    fn rom_survives_into_rounds() {
        struct RomReader {
            seen: Option<Vec<u8>>,
        }
        impl Process for RomReader {
            fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
                ctx.rom.write("k", vec![42]);
            }
            fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
                self.seen = ctx.rom.read("k").map(|v| v.to_vec());
                if ctx.time.round == 5 && self.seen == Some(vec![42]) {
                    ctx.emit(OutputEvent::Custom("rom-ok".into()));
                }
            }
            fn state_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let result = run_ul(cfg(2), |_| RomReader { seen: None }, &mut FaithfulUl);
        assert!(result
            .events_of(NodeId(1))
            .contains(&(5, OutputEvent::Custom("rom-ok".into()))));
    }

    /// Adversary that breaks node 1 for rounds 2..5 and wipes its state.
    struct Wiper;
    impl UlAdversary for Wiper {
        fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
            match view.time.round {
                2 => BreakPlan::break_into([NodeId(1)]),
                5 => BreakPlan::leave([NodeId(1)]),
                _ => BreakPlan::none(),
            }
        }
        fn corrupt(&mut self, _node: NodeId, state: &mut dyn Any, _time: &TimeView) {
            if let Some(p) = state.downcast_mut::<Pinger>() {
                p.received = 0; // memory corruption
            }
        }
        fn deliver(&mut self, sent: &[Envelope], _view: &NetView<'_>) -> Vec<Envelope> {
            sent.to_vec()
        }
    }

    #[test]
    fn break_in_diverts_execution_and_corrupts_memory() {
        // Run across the unit-1 refresh phase so node 1 can rejoin (the UL
        // "recovered" line fires when it becomes s-operational again, which
        // only happens at a refresh-phase end — Definition 5.3).
        let mut c = cfg(3);
        c.total_rounds = 20;
        let result = run_ul(
            c,
            |_| Pinger {
                received: 0,
                rom_check: None,
            },
            &mut Wiper,
        );
        // Node 1 was broken rounds 2,3,4 → did not send 2 msgs × 3 rounds.
        assert_eq!(result.stats.messages_sent, 3 * 2 * 20 - 6);
        assert_eq!(result.stats.broken_rounds[0], 3);
        // Compromised at break-in; recovered at the unit-1 refresh end.
        let evs: Vec<&OutputEvent> = result.outputs[0].iter().map(|(_, e)| e).collect();
        assert!(evs.contains(&&OutputEvent::Compromised));
        assert!(evs.contains(&&OutputEvent::Recovered));
        let recovered_round = result.outputs[0]
            .iter()
            .find(|(_, e)| *e == OutputEvent::Recovered)
            .map(|(r, _)| *r)
            .unwrap();
        assert_eq!(recovered_round, 13, "rejoin at end of unit-1 refresh");
    }

    /// Breaks a majority of cluster 0 (nodes 1,2 of [1,2,3]) for unit 0
    /// only, then stays quiet.
    struct ClusterBreaker;

    impl UlAdversary for ClusterBreaker {
        fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
            match view.time.round {
                2 => BreakPlan::break_into([NodeId(1), NodeId(2)]),
                5 => BreakPlan::leave([NodeId(1), NodeId(2)]),
                _ => BreakPlan::none(),
            }
        }
        fn corrupt(&mut self, _node: NodeId, _state: &mut dyn Any, _time: &TimeView) {}
        fn deliver(&mut self, sent: &[Envelope], _view: &NetView<'_>) -> Vec<Envelope> {
            sent.to_vec()
        }
    }

    #[test]
    fn unit_scores_track_two_level_definition7_budget() {
        let mut c = cfg(9);
        c.total_rounds = 20; // two units of 10 rounds
        c.clusters = Some(vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]);
        let result = run_ul(
            c,
            |_| Pinger {
                received: 0,
                rom_check: None,
            },
            &mut ClusterBreaker,
        );
        let scores = &result.stats.unit_scores;
        assert_eq!(scores.len(), 2, "one score per unit");

        // Unit 0: two distinct break-ins, both inside cluster 0 — that
        // cluster's ⌊(3−1)/2⌋ = 1 threshold is exceeded, so it counts as
        // majority-compromised; with k=3 clusters the top-level PDS
        // tolerates 1, so the two-level budget still holds even though the
        // flat t=1 budget is blown.
        let u0 = &scores[0];
        assert_eq!(u0.unit, 0);
        assert_eq!(u0.impaired, 2);
        assert_eq!(u0.clusters.len(), 3);
        assert_eq!(u0.clusters[0].impaired, 2);
        assert!(u0.clusters[0].majority_compromised());
        assert_eq!(u0.clusters[1].impaired, 0);
        assert_eq!(u0.clusters[2].impaired, 0);
        assert_eq!(u0.majority_compromised_clusters(), 1);
        assert!(u0.within_two_level_budget());
        assert!(!u0.within_flat_budget(1));
        // The broken pair also lost cluster-local operational status.
        assert!(u0.clusters[0].non_operational >= 2);

        // Unit 1: the adversary is quiet, so no impairment accrues.
        let u1 = &scores[1];
        assert_eq!(u1.unit, 1);
        assert_eq!(u1.impaired, 0);
        assert_eq!(u1.majority_compromised_clusters(), 0);
        assert!(u1.within_two_level_budget());
        assert!(u1.within_flat_budget(0));
    }

    #[test]
    fn flat_unit_scores_stay_clean_on_faithful_runs() {
        let mut c = cfg(4);
        c.total_rounds = 25; // two full units plus a partial third
        let result = run_ul(
            c,
            |_| Pinger {
                received: 0,
                rom_check: None,
            },
            &mut FaithfulUl,
        );
        let scores = &result.stats.unit_scores;
        assert_eq!(scores.len(), 3, "partial final unit gets a score too");
        for (i, s) in scores.iter().enumerate() {
            assert_eq!(s.unit, i as u64);
            assert_eq!(s.impaired, 0);
            assert_eq!(s.non_operational, 0);
            assert!(s.clusters.is_empty(), "flat run has no cluster rows");
            assert!(s.within_flat_budget(0));
        }
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let mk = || {
            run_ul(
                cfg(4),
                |_| Pinger {
                    received: 0,
                    rom_check: None,
                },
                &mut FaithfulUl,
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats.messages_sent, b.stats.messages_sent);
    }

    #[test]
    fn delivery_diff_classifies_interference() {
        let payload: crate::message::Payload = vec![1u8, 2, 3].into();
        let env = |from: u32, to: u32, p: &crate::message::Payload| {
            Envelope::new(NodeId(from), NodeId(to), p.clone())
        };
        let other: crate::message::Payload = vec![9u8].into();

        // Faithful (shared Arcs, same order): all zero via the fast path.
        let sent = vec![env(1, 2, &payload), env(2, 3, &payload)];
        assert_eq!(delivery_diff(&sent, &sent.clone()), (0, 0, 0));
        // Reordering alone is still faithful, via the multiset slow path.
        let reordered = vec![sent[1].clone(), sent[0].clone()];
        assert_eq!(delivery_diff(&sent, &reordered), (0, 0, 0));
        // A pure drop.
        assert_eq!(delivery_diff(&sent, &sent[..1]), (1, 0, 0));
        // A pure injection (new link).
        let mut plus = sent.clone();
        plus.push(env(3, 1, &other));
        assert_eq!(delivery_diff(&sent, &plus), (0, 1, 0));
        // Same link, different payload: a modification, not drop+inject.
        let modified = vec![env(1, 2, &other), env(2, 3, &payload)];
        assert_eq!(delivery_diff(&sent, &modified), (0, 0, 1));
        // Mixed: drop 1→2, inject 4→1, modify 2→3.
        let mixed = vec![env(2, 3, &other), env(4, 1, &other)];
        assert_eq!(delivery_diff(&sent, &mixed), (1, 1, 1));
    }

    #[test]
    fn stats_count_drops_and_injections() {
        /// Drops every message to node 2 and injects one forgery per round.
        struct DropInject;
        impl UlAdversary for DropInject {
            fn plan(&mut self, _view: &NetView<'_>) -> BreakPlan {
                BreakPlan::none()
            }
            fn corrupt(&mut self, _n: NodeId, _s: &mut dyn Any, _t: &TimeView) {}
            fn deliver(&mut self, sent: &[Envelope], _v: &NetView<'_>) -> Vec<Envelope> {
                let mut out: Vec<Envelope> = sent
                    .iter()
                    .filter(|e| e.to != NodeId(2))
                    .cloned()
                    .collect();
                out.push(Envelope::new(NodeId(3), NodeId(1), vec![0xEE]));
                out
            }
        }
        let result = run_ul(
            cfg(3),
            |_| Pinger {
                received: 0,
                rom_check: None,
            },
            &mut DropInject,
        );
        // Each round: 2 messages to node 2 dropped, 1 forgery injected.
        assert_eq!(result.stats.messages_dropped, 2 * 10);
        assert_eq!(result.stats.messages_injected, 10);
        assert_eq!(result.stats.messages_modified, 0);
    }

    #[test]
    fn telemetry_enabled_run_matches_disabled_and_traces() {
        use proauth_telemetry::{memory_contents, strip_wall_fields};
        let off = run_ul(
            cfg(4),
            |_| Pinger {
                received: 0,
                rom_check: None,
            },
            &mut FaithfulUl,
        );
        let mut c = cfg(4);
        let (tele, buf) = Telemetry::with_memory_sink();
        c.telemetry = tele.clone();
        let on = run_ul(
            c,
            |_| Pinger {
                received: 0,
                rom_check: None,
            },
            &mut FaithfulUl,
        );
        // Recording is one-way: the result is unchanged.
        assert_eq!(off.outputs, on.outputs);
        assert_eq!(off.stats, on.stats);
        // The trace has the run framing and a round_end per round.
        let text = strip_wall_fields(&memory_contents(&buf));
        assert!(text.starts_with("{\"ev\":\"run_start\",\"n\":4"));
        assert!(text.ends_with("{\"ev\":\"run_end\",\"rounds\":10,\"sent\":120,\"delivered\":120,\"dropped\":0,\"injected\":0,\"modified\":0,\"alerts\":0}\n"));
        assert_eq!(text.matches("\"ev\":\"round_end\"").count(), 10);
        // Per-unit counter rows closed at each unit boundary (10 rounds of a
        // 10-round unit → exactly one mark).
        assert_eq!(tele.units().len(), 1);
        assert_eq!(tele.counter("adversary/dropped"), 0);
    }

    #[test]
    fn transcript_recorded_when_requested() {
        let mut c = cfg(2);
        c.record_transcript = true;
        let result = run_ul(
            c,
            |_| Pinger {
                received: 0,
                rom_check: None,
            },
            &mut FaithfulUl,
        );
        let t = result.transcript.expect("transcript");
        assert_eq!(t.len(), 10);
        assert_eq!(t[3].time.round, 3);
        assert!(!t[0].sent.is_empty());
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::process::{RoundCtx, SetupCtx};
    use crate::adversary::FaithfulUl;
    use std::any::Any;

    /// A compute-heavy node to make parallel execution meaningful.
    struct Worker;

    impl Process for Worker {
        fn on_setup_round(&mut self, _ctx: &mut SetupCtx<'_>) {}
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            use rand::RngCore;
            // Derived randomness feeds the payload: any divergence between
            // parallel and sequential scheduling would change the bytes.
            let tag = (ctx.rng.next_u64() % 251) as u8;
            ctx.send_all(vec![tag]);
            if !ctx.inbox.is_empty() {
                ctx.emit(OutputEvent::Custom(format!(
                    "got {} msgs, first byte {}",
                    ctx.inbox.len(),
                    ctx.inbox[0].payload[0]
                )));
            }
        }
        fn state_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_sequential() {
        let mk_cfg = |parallel: bool| {
            let mut c = SimConfig::new(6, 2, Schedule::new(10, 2, 2));
            c.total_rounds = 25;
            c.setup_rounds = 1;
            c.seed = 99;
            c.parallel = parallel;
            c
        };
        let seq = run_ul(mk_cfg(false), |_| Worker, &mut FaithfulUl);
        let par = run_ul(mk_cfg(true), |_| Worker, &mut FaithfulUl);
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats.messages_sent, par.stats.messages_sent);
        assert_eq!(seq.stats.bytes_sent, par.stats.bytes_sent);
        assert_eq!(seq.final_operational, par.final_operational);
    }

    /// Counts its own steps, in its state and in the ambient telemetry scope.
    struct Counter {
        steps: u64,
    }

    impl Process for Counter {
        fn on_setup_round(&mut self, _ctx: &mut SetupCtx<'_>) {}
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            self.steps += 1;
            telemetry::count("test/step", 1);
            ctx.send_all(vec![self.steps as u8]);
        }
        fn state_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// The engine state `k` slots borrow from, for driving
    /// [`step_parallel`] directly.
    struct Fixture {
        nodes: Vec<Counter>,
        outputs: Vec<OutputLog>,
        roms: Vec<Rom>,
    }

    impl Fixture {
        fn new(k: usize) -> Self {
            Fixture {
                nodes: (0..k).map(|_| Counter { steps: 0 }).collect(),
                outputs: vec![Vec::new(); k],
                roms: vec![Rom::new(); k],
            }
        }

        fn slots(&mut self, tele: &Telemetry) -> Vec<NodeSlot<'_, Counter>> {
            self.nodes
                .iter_mut()
                .zip(&mut self.outputs)
                .zip(&self.roms)
                .enumerate()
                .map(|(idx, ((node, output), rom))| NodeSlot {
                    id: NodeId::from_idx(idx),
                    node,
                    output,
                    rom,
                    inbox: Vec::new(),
                    input: None,
                    outbox: Vec::new(),
                    alerts: 0,
                    panicked: false,
                    shard: tele.new_shard(),
                })
                .collect()
        }
    }

    fn time_at(round: u64) -> TimeView {
        TimeView::at(&Schedule::new(10, 2, 2), round)
    }

    #[test]
    fn every_slot_is_stepped_exactly_once() {
        // More helpers than slots, fewer, one slot, none; 0 = auto.
        for threads in [0usize, 1, 2, 8] {
            for k in [0usize, 1, 3, 20] {
                let mut fx = Fixture::new(k);
                let mut slots = fx.slots(&Telemetry::off());
                step_parallel(threads, 5, time_at(0), k, &mut slots);
                for slot in &slots {
                    assert!(!slot.panicked);
                    assert_eq!(slot.outbox.len(), usize::from(k > 1));
                }
                drop(slots);
                assert!(
                    fx.nodes.iter().all(|node| node.steps == 1),
                    "threads {threads}, {k} slots"
                );
            }
        }
    }

    /// Breaks every node for rounds 2–3, releases node 1 alone for rounds
    /// 4–5 and the rest from round 6: rounds with no slot and with one.
    struct BreakAll;

    impl UlAdversary for BreakAll {
        fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
            match view.time.round {
                2 => BreakPlan::break_into(NodeId::all(view.n)),
                4 => BreakPlan::leave([NodeId(1)]),
                6 => BreakPlan::leave(NodeId::all(view.n).skip(1)),
                _ => BreakPlan::none(),
            }
        }
        fn corrupt(&mut self, _node: NodeId, _state: &mut dyn Any, _time: &TimeView) {}
        fn deliver(&mut self, sent: &[Envelope], _view: &NetView<'_>) -> Vec<Envelope> {
            sent.to_vec()
        }
    }

    fn cfg(n: usize, threads: Option<usize>) -> SimConfig {
        let mut c = SimConfig::new(n, 2, Schedule::new(10, 2, 2));
        c.total_rounds = 10;
        c.setup_rounds = 1;
        c.seed = 17;
        c.parallel = threads.is_some();
        c.threads = threads.unwrap_or(0);
        c
    }

    #[test]
    fn rounds_with_one_slot_and_with_none_match_serial() {
        let n = 5;
        let serial = run_ul(cfg(n, None), |_| Worker, &mut BreakAll);
        // 4 sends per stepped node: all five in rounds 0–1 and 6–9, none in
        // rounds 2–3, node 1 alone in rounds 4–5.
        assert_eq!(serial.stats.messages_sent, 4 * (5 * 2 + 2 + 5 * 4));
        for threads in [1usize, 2, 8] {
            let par = run_ul(cfg(n, Some(threads)), |_| Worker, &mut BreakAll);
            assert_eq!(serial, par, "threads {threads}");
        }
    }

    #[test]
    fn panicking_step_is_a_crash_stop_and_the_round_is_intact() {
        use crate::chaos::PanicOn;
        let n = 6;
        let run = |threads: Option<usize>| {
            let mut c = cfg(n, threads);
            c.record_transcript = true;
            run_ul(c, |_| PanicOn::at(Worker, NodeId(3), 4), &mut FaithfulUl)
        };
        let par = run(Some(2));
        assert_eq!((par.stats.panics, par.stats.crashes), (1, 1));
        // Crash-stopped from the panicking round to the end of the run.
        assert_eq!(par.stats.crashed_rounds[NodeId(3).idx()], 10 - 4);
        // The other five nodes' round 4 went out whole.
        let sent = &par.transcript.as_ref().expect("transcript")[4].sent;
        assert_eq!(sent.len(), 5 * 5);
        assert!(sent.iter().all(|env| env.from != NodeId(3)));
        assert_eq!(run(None), par);
    }

    #[test]
    fn engine_scope_is_restored_after_the_parallel_section() {
        let tele = Telemetry::enabled();
        for threads in [1usize, 8] {
            let k = 6;
            let mut fx = Fixture::new(k);
            let mut slots = fx.slots(&tele);
            let mut engine_shard = tele.new_shard().expect("telemetry on");
            engine_shard.count("test/engine_marker", 1);
            let prev = telemetry::install(Some(engine_shard));
            step_parallel(threads, 5, time_at(3), k, &mut slots);
            // What is installed now is the engine's shard, with the engine's
            // recordings and none of the nodes'.
            let mut back = telemetry::install(prev).expect("engine scope still installed");
            let steps_before = tele.counter("test/step");
            let markers_before = tele.counter("test/engine_marker");
            tele.merge_shard(&mut back);
            assert_eq!(tele.counter("test/engine_marker"), markers_before + 1);
            assert_eq!(tele.counter("test/step"), steps_before);
            // Every slot got its own shard back, holding its own step.
            for slot in &mut slots {
                tele.merge_shard(slot.shard.as_mut().expect("shard returned to its slot"));
            }
            assert_eq!(tele.counter("test/step"), steps_before + k as u64);
        }
    }
}

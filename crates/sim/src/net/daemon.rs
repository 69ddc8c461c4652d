//! The multi-process engine backend: one OS process per node, speaking
//! [`NetMsg`] frames over TCP or Unix sockets.
//!
//! Execution mirrors the in-process engine's semantics exactly:
//!
//! * **setup** uses hard barriers (every peer's [`NetMsg::SetupMark`] must
//!   arrive) — the set-up phase is adversary-free and faithful by model, and
//!   stream FIFO ordering guarantees a mark implies its round's messages;
//! * **rounds** use barriers with wall-clock pacing on the Fig-1
//!   schedule: a node advances when every live peer's [`NetMsg::RoundMark`]
//!   has arrived (but not before `min_round_ms`). The pacing deadline
//!   (`round_ms`) sets tempo only — a live, connected peer that is merely
//!   slow is waited out, because round alignment is a correctness property
//!   (AUTH-SEND binds the send round into its authentication). Only the
//!   failure-detector deadline (`mark_timeout_ms` past the pacing deadline)
//!   abandons a hung-but-connected peer; crashed peers close their
//!   connections and leave the barrier immediately;
//! * **inbox order** reproduces the simulator's merge: deliveries sorted by
//!   `(round, sender, seq)` equal "senders in `NodeId` order, each sender's
//!   outbox in send order", which is why a faithful daemon run is
//!   bit-identical to `run_ul` under the same seed;
//! * frames that miss their nominal round (adversary delay, pacing slip)
//!   deliver in a later round — exactly the UL adversary's prerogative.

use super::msg::{Alarm, HealthBeacon, NetMsg, NodeReport, Severity};
use super::peer::{AddrPlan, Conn, NetListener, NetStream, PendingQueue};
use super::poll;
use super::state::{StateDir, Watermark};
use crate::clock::{Schedule, TimeView};
use crate::driver::NodeDriver;
use crate::message::{Envelope, NodeId};
use proauth_telemetry::{self as telemetry, MetricsSnapshot, Shard, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::os::fd::RawFd;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Counter deltas promoted into the typed alarm stream when they rise in a
/// round: `(counter name, alarm kind, severity)`.
const ALARM_COUNTERS: &[(&str, &str, Severity)] = &[
    ("uls/rejected", "forgery_reject", Severity::Warning),
    ("uls/alerts", "uls_alert", Severity::Warning),
    ("adversary/break_ins", "break_in", Severity::Warning),
    ("adversary/wipes", "wipe", Severity::Warning),
];

/// Cap on frames parked for a peer whose connection is down; beyond this the
/// oldest are discarded — matching engine crash semantics, where pending
/// traffic to a crashed node is dropped.
const PENDING_CAP: usize = 4096;

/// How many barrier marks a peer replays to a rejoiner at most (a rejoin
/// after a short supervisor respawn needs a handful; anything older than
/// this window the rejoiner waits out at its accelerated catch-up pace).
const REJOIN_REPLAY_WINDOW: u64 = 256;

/// Accelerated pacing deadline (ms) for catch-up rounds — rounds the cluster
/// is known (via marks/acks) to have already left behind. Keeps a rejoiner's
/// resynchronization bounded by `missed_rounds × 50ms` even when marks for a
/// missed round were lost with the dead connection.
const CATCHUP_ROUND_MS: u64 = 50;

/// Deployment parameters of one node process.
#[derive(Debug, Clone)]
pub struct NodeNetConfig {
    /// This node.
    pub me: NodeId,
    /// Network size.
    pub n: usize,
    /// Master seed (must match every peer's).
    pub seed: u64,
    /// Address plan shared by the whole deployment.
    pub plan: AddrPlan,
    /// Route all protocol traffic through the chaos proxy instead of a full
    /// mesh.
    pub via_proxy: bool,
    /// Dial the collector and stream events/report to it.
    pub report: bool,
    /// Round/unit layout (Fig. 1).
    pub schedule: Schedule,
    /// Adversary-free setup rounds.
    pub setup_rounds: u64,
    /// Post-setup rounds to execute.
    pub total_rounds: u64,
    /// Pacing deadline per round, ms: the tempo target. A round whose live
    /// peers' marks are all in never outlasts it, but slow live peers are
    /// waited out past it (see `mark_timeout_ms`).
    pub round_ms: u64,
    /// Pacing floor per round, ms (0 = advance as soon as marks allow).
    pub min_round_ms: u64,
    /// Failure-detector allowance past the pacing deadline, ms: how long a
    /// live, connected peer may stall the barrier before the round gives up
    /// on its mark. Crashed peers are excluded as soon as their connection
    /// dies; this bound only catches hung-but-connected processes.
    pub mark_timeout_ms: u64,
    /// Budget for connection establishment and setup barriers, ms.
    pub connect_timeout_ms: u64,
    /// Scenario digest; every process of a deployment must agree.
    pub run_id: u64,
    /// Record node-layer telemetry and stream per-round metrics deltas,
    /// health beacons, and alarms to the collector (needs `report`).
    pub telemetry: bool,
    /// Also stream per-round flight-recorder trace events for cluster-trace
    /// assembly on the collector (needs `telemetry`).
    pub stream_trace: bool,
    /// Adaptive pacing: bounded AIMD on the per-round deadline, between
    /// `adapt_floor_ms` and `round_ms`, driven by observed late frames and
    /// mark timeouts.
    pub adaptive: bool,
    /// Floor for the adaptive controller, ms.
    pub adapt_floor_ms: u64,
    /// Root of the durable state tree (`<root>/node-<id>/...`). When set,
    /// the node persists its ROM image after setup and its round watermark
    /// after every barrier; `None` leaves the self-healing layer inert.
    pub state_dir: Option<PathBuf>,
    /// Rejoin mode: skip setup (the ROM was loaded from durable state) and
    /// resume executing at this round — the durable watermark of rounds
    /// already completed. `None` runs setup and starts at round 0.
    pub resume: Option<u64>,
}

impl NodeNetConfig {
    /// A default deployment config for node `me` of `n` under `plan`.
    pub fn new(me: NodeId, n: usize, plan: AddrPlan, schedule: Schedule) -> Self {
        NodeNetConfig {
            me,
            n,
            seed: 0,
            plan,
            via_proxy: false,
            report: false,
            schedule,
            setup_rounds: 8,
            total_rounds: schedule.unit_rounds * 2,
            round_ms: 250,
            min_round_ms: 0,
            mark_timeout_ms: 5_000,
            connect_timeout_ms: 30_000,
            run_id: 0,
            telemetry: false,
            stream_trace: false,
            adaptive: false,
            adapt_floor_ms: 20,
            state_dir: None,
            resume: None,
        }
    }
}

/// Arrival-order bookkeeping for one `(round, from)` stream, for duplicate
/// and reordering observation (delivery itself is unchanged — duplication
/// and reordering are the UL adversary's prerogative).
#[derive(Default)]
struct SeqTrack {
    /// Last seq observed, in arrival order.
    last: Option<u32>,
    /// Every seq observed so far.
    seen: BTreeSet<u32>,
}

/// Protocol traffic buffered by the round it was sent in.
#[derive(Default)]
struct RoundBuffer {
    /// `(round, from, seq, payload)` entries not yet delivered.
    msgs: BTreeMap<u64, Vec<(NodeId, u32, Vec<u8>)>>,
    /// Received marks per round.
    marks: BTreeMap<u64, Vec<bool>>,
}

/// The peer fabric: a full mesh of per-peer connections, or one connection
/// to the routing (chaos) proxy.
enum Fabric {
    Mesh {
        /// Connection per node index; `me`'s slot stays `None`.
        conns: Vec<Option<Conn>>,
        listener: NetListener,
        /// Accepted but not yet identified (no Hello read) connections.
        limbo: Vec<Conn>,
        /// Per-peer store-and-forward backlog: frames addressed to a peer
        /// whose connection is down, flushed when it re-handshakes. This is
        /// slot retention — a crashed peer keeps its place in the table.
        pending: Vec<PendingQueue>,
    },
    Proxy {
        conn: Conn,
        /// Frames parked while the proxy link is down (socket reset chaos),
        /// flushed after the redial.
        pending: PendingQueue,
    },
}

/// One node process's engine loop. Drives a [`NodeDriver`] from sockets.
pub struct NodeLoop<'d> {
    cfg: NodeNetConfig,
    driver: &'d mut dyn NodeDriver,
    fabric: Fabric,
    collector: Option<Conn>,
    buf: RoundBuffer,
    setup_msgs: BTreeMap<u64, Vec<(NodeId, u32, Vec<u8>)>>,
    setup_marks: BTreeMap<u64, Vec<bool>>,
    /// Peers that sent Bye or whose connection died and could not be
    /// re-established; their marks are considered satisfied.
    departed: Vec<bool>,
    /// Last reconnect attempt per peer (rate-limits redials).
    last_redial: Vec<Option<Instant>>,
    report: NodeReport,
    /// The node's local flight recorder (off unless `cfg.telemetry`).
    tele: Telemetry,
    /// Shared buffer of the memory sink behind `tele`, drained once per
    /// round into [`NetMsg::Trace`] frames (`None` without `stream_trace`).
    tele_buf: Option<Arc<Mutex<Vec<u8>>>>,
    /// The recording shard reused across rounds (engine parity: same scope
    /// discipline as `exec_slot`).
    shard: Option<Shard>,
    /// Registry snapshot at the previous metrics ship, for delta folding.
    last_snap: MetricsSnapshot,
    /// The pacing deadline currently in force (== `cfg.round_ms` unless
    /// adaptive).
    cur_round_ms: u64,
    /// Wall-clock start of round 0, the zero point for schedule lag.
    rounds_started: Option<Instant>,
    /// Per-`(round, sender)` seq tracking for dup/reorder observation.
    seq_tracks: BTreeMap<(u64, u32), SeqTrack>,
    /// The round currently executing (== the resume watermark before the
    /// first round). Marks for rounds already completed are stale and
    /// ignored — a rejoining peer's replayed marks would otherwise leak
    /// rows into `buf.marks` forever.
    cur_round: u64,
    /// Latest round each peer marked or acked (this node's own slot stays
    /// at the start round). Their quorum is [`NodeLoop::live_round_hint`].
    peer_rounds: Vec<u64>,
    /// Durable state handle (`None` leaves the self-healing layer inert).
    state: Option<StateDir>,
}

impl<'d> NodeLoop<'d> {
    /// Establishes the fabric (dial low peers, accept high peers — or dial
    /// the proxy) and the collector connection.
    pub fn connect(cfg: NodeNetConfig, driver: &'d mut dyn NodeDriver) -> io::Result<Self> {
        let deadline = Instant::now() + Duration::from_millis(cfg.connect_timeout_ms);
        let hello = NetMsg::Hello {
            node: cfg.me.0,
            run_id: cfg.run_id,
        };
        let fabric = if cfg.via_proxy {
            let mut conn = Conn::new(NetStream::dial(&cfg.plan.proxy(), deadline)?);
            conn.send(&hello);
            Fabric::Proxy {
                conn,
                pending: PendingQueue::new(PENDING_CAP),
            }
        } else {
            let listener = NetListener::bind(&cfg.plan.node(cfg.me.0))?;
            let mut conns: Vec<Option<Conn>> = (0..cfg.n).map(|_| None).collect();
            // Dial every lower-numbered peer (their listeners bind before any
            // dial can matter; retry covers start-order races).
            for j in 1..cfg.me.0 {
                let mut conn = Conn::new(NetStream::dial(&cfg.plan.node(j), deadline)?);
                conn.send(&hello);
                conns[NodeId(j).idx()] = Some(conn);
            }
            Fabric::Mesh {
                conns,
                listener,
                limbo: Vec::new(),
                pending: (0..cfg.n).map(|_| PendingQueue::new(PENDING_CAP)).collect(),
            }
        };
        let collector = if cfg.report {
            let mut conn = Conn::new(NetStream::dial(&cfg.plan.collector(), deadline)?);
            conn.send(&hello);
            Some(conn)
        } else {
            None
        };
        let n = cfg.n;
        let me = cfg.me.0;
        let (tele, tele_buf) = if cfg.telemetry {
            if cfg.stream_trace {
                let (t, buf) = Telemetry::with_memory_sink();
                (t, Some(buf))
            } else {
                (Telemetry::enabled(), None)
            }
        } else {
            (Telemetry::off(), None)
        };
        let cur_round_ms = cfg.round_ms;
        let state = match &cfg.state_dir {
            Some(root) => Some(StateDir::open(root, cfg.me.0)?),
            None => None,
        };
        let start_round = cfg.resume.unwrap_or(0);
        let mut this = NodeLoop {
            cfg,
            driver,
            fabric,
            collector,
            buf: RoundBuffer::default(),
            setup_msgs: BTreeMap::new(),
            setup_marks: BTreeMap::new(),
            departed: vec![false; n],
            last_redial: vec![None; n],
            report: NodeReport {
                node: me,
                ..NodeReport::default()
            },
            tele,
            tele_buf,
            shard: None,
            last_snap: MetricsSnapshot::default(),
            cur_round_ms,
            rounds_started: None,
            seq_tracks: BTreeMap::new(),
            cur_round: start_round,
            peer_rounds: vec![start_round; n],
            state,
        };
        // Mesh: wait for every higher-numbered peer to dial in and identify.
        if !this.cfg.via_proxy {
            while !this.mesh_complete() {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("node {}: peers did not all connect", this.cfg.me),
                    ));
                }
                this.pump(Some(50))?;
            }
        }
        Ok(this)
    }

    fn mesh_complete(&self) -> bool {
        match &self.fabric {
            Fabric::Mesh { conns, .. } => {
                NodeId::all(self.cfg.n)
                    .filter(|&j| j != self.cfg.me)
                    .all(|j| conns[j.idx()].is_some())
            }
            Fabric::Proxy { .. } => true,
        }
    }

    /// Sends `msg` toward node `to` (directly or via the proxy). A peer
    /// whose connection is down keeps its slot: traffic parks in its
    /// pending queue and is flushed when the peer re-handshakes.
    fn send_to(&mut self, to: NodeId, msg: &NetMsg) {
        let idx = to.idx();
        match &mut self.fabric {
            Fabric::Mesh { conns, pending, .. } => match conns[idx].as_mut() {
                Some(conn) if !conn.closed => conn.send(msg),
                _ => {
                    if !self.departed[idx] {
                        pending[idx].push(msg.clone());
                    }
                }
            },
            Fabric::Proxy { conn, pending } => {
                if conn.closed {
                    pending.push(msg.clone());
                } else {
                    conn.send(msg);
                }
            }
        }
    }

    /// Sends a barrier mark to every peer. Through the proxy one frame
    /// suffices (the proxy fans marks out); a mesh sends one per connection,
    /// parking frames for peers whose connection is currently down.
    fn broadcast(&mut self, msg: &NetMsg) {
        let me_idx = self.cfg.me.idx();
        match &mut self.fabric {
            Fabric::Mesh { conns, pending, .. } => {
                for (idx, slot) in conns.iter_mut().enumerate() {
                    if idx == me_idx || self.departed[idx] {
                        continue;
                    }
                    match slot.as_mut() {
                        Some(conn) if !conn.closed => conn.send(msg),
                        _ => pending[idx].push(msg.clone()),
                    }
                }
            }
            Fabric::Proxy { conn, pending } => {
                if conn.closed {
                    pending.push(msg.clone());
                } else {
                    conn.send(msg);
                }
            }
        }
    }

    /// One poll iteration: flush pending writes, accept/identify inbound
    /// connections, read and dispatch every available message.
    fn pump(&mut self, timeout_ms: Option<u64>) -> io::Result<()> {
        // Build the poll set: (fd, want_write) for every live descriptor.
        let mut fds: Vec<(RawFd, bool)> = Vec::new();
        enum Slot {
            Peer(usize),
            Limbo,
            Listener,
            Collector,
            ProxyConn,
        }
        let mut slots: Vec<Slot> = Vec::new();
        match &self.fabric {
            Fabric::Mesh {
                conns,
                listener,
                limbo,
                ..
            } => {
                for (idx, conn) in conns.iter().enumerate() {
                    if let Some(c) = conn {
                        if !c.closed {
                            fds.push((c.raw_fd(), c.wants_write()));
                            slots.push(Slot::Peer(idx));
                        }
                    }
                }
                for c in limbo.iter() {
                    if !c.closed {
                        fds.push((c.raw_fd(), false));
                        slots.push(Slot::Limbo);
                    }
                }
                fds.push((listener.raw_fd(), false));
                slots.push(Slot::Listener);
            }
            Fabric::Proxy { conn, .. } => {
                if !conn.closed {
                    fds.push((conn.raw_fd(), conn.wants_write()));
                    slots.push(Slot::ProxyConn);
                }
            }
        }
        if let Some(c) = &self.collector {
            if !c.closed && c.wants_write() {
                fds.push((c.raw_fd(), true));
                slots.push(Slot::Collector);
            }
        }
        let ready = poll::poll(&fds, timeout_ms)?;

        let mut inbound: Vec<NetMsg> = Vec::new();
        let mut accepted: Vec<Conn> = Vec::new();
        match &mut self.fabric {
            Fabric::Mesh {
                conns,
                listener,
                limbo,
                ..
            } => {
                for (slot, r) in slots.iter().zip(&ready) {
                    match slot {
                        Slot::Peer(idx) => {
                            let conn = conns[*idx].as_mut().expect("slot maps live conn");
                            if r.writable {
                                let _ = conn.flush();
                            }
                            if r.readable || r.hangup {
                                inbound.extend(conn.recv());
                            }
                        }
                        Slot::Limbo => {
                            // Identification reads happen in
                            // `adopt_identified` so the Hello is not consumed
                            // here; the poll wake-up is all that's needed.
                        }
                        Slot::Listener => {
                            if r.readable {
                                while let Some(stream) = listener.accept()? {
                                    accepted.push(Conn::new(stream));
                                }
                            }
                        }
                        Slot::Collector | Slot::ProxyConn => {}
                    }
                }
                limbo.extend(accepted);
            }
            Fabric::Proxy { conn, .. } => {
                for (slot, r) in slots.iter().zip(&ready) {
                    if matches!(slot, Slot::ProxyConn) {
                        if r.writable {
                            let _ = conn.flush();
                        }
                        if r.readable || r.hangup {
                            inbound.extend(conn.recv());
                        }
                    }
                }
            }
        }
        if let Some(c) = self.collector.as_mut() {
            if !c.closed && c.wants_write() {
                let _ = c.flush();
            }
        }
        for msg in inbound {
            self.dispatch(msg);
        }
        self.adopt_identified();
        Ok(())
    }

    /// Moves limbo connections that have sent their Hello into their peer
    /// slot (the Hello was consumed by `dispatch`, which records the claimed
    /// id in `pending_adoptions` via the limbo scan below).
    fn adopt_identified(&mut self) {
        let mut to_dispatch: Vec<NetMsg> = Vec::new();
        let mut adopted: Vec<usize> = Vec::new();
        if let Fabric::Mesh {
            conns,
            limbo,
            pending,
            ..
        } = &mut self.fabric
        {
            // A limbo conn is adopted once its decoder yielded a Hello; since
            // dispatch() cannot know which conn a message came from, Hello
            // handling happens here: drain each limbo conn's already-decoded
            // messages looking for the Hello, then re-queue the rest.
            let mut k = 0;
            while k < limbo.len() {
                let msgs = limbo[k].recv();
                let mut hello_from: Option<u32> = None;
                let mut rest: Vec<NetMsg> = Vec::new();
                for m in msgs {
                    match m {
                        NetMsg::Hello { node, run_id } => {
                            if run_id == self.cfg.run_id && node >= 1 && node as usize <= self.cfg.n
                            {
                                hello_from = Some(node);
                            }
                        }
                        other => rest.push(other),
                    }
                }
                if let Some(node) = hello_from {
                    let mut conn = limbo.remove(k);
                    let idx = NodeId(node).idx();
                    // Slot retention: flush the backlog parked while the
                    // peer's connection was down before installing the new
                    // one, so a rejoiner sees the frames it missed.
                    pending[idx].drain_into(&mut conn);
                    conns[idx] = Some(conn);
                    adopted.push(idx);
                    to_dispatch.extend(rest);
                } else {
                    if limbo[k].closed {
                        limbo.remove(k);
                        continue;
                    }
                    // No Hello yet; leave it in limbo (any pre-Hello traffic
                    // from a conforming peer is impossible, drop `rest`).
                    k += 1;
                }
            }
        }
        for idx in adopted {
            self.departed[idx] = false;
        }
        for m in to_dispatch {
            self.dispatch(m);
        }
    }

    /// Routes one received message into the right buffer.
    fn dispatch(&mut self, msg: NetMsg) {
        let n = self.cfg.n;
        match msg {
            NetMsg::Hello { .. } => {} // mesh adoption handles these in limbo
            // Setup frames and marks name a setup round; past the schedule's
            // last one they can never be consumed.
            NetMsg::Setup { setup_round, .. } | NetMsg::SetupMark { setup_round, .. }
                if setup_round >= self.cfg.setup_rounds =>
            {
                self.tele.add("net/horizon_drops", 1);
            }
            NetMsg::Setup {
                setup_round,
                seq,
                from,
                to,
                payload,
            } => {
                if to == self.cfg.me && from.idx() < n {
                    self.setup_msgs
                        .entry(setup_round)
                        .or_default()
                        .push((from, seq, payload));
                }
            }
            NetMsg::SetupMark { setup_round, from } => {
                if from.idx() < n {
                    self.setup_marks
                        .entry(setup_round)
                        .or_insert_with(|| vec![false; n])[from.idx()] = true;
                }
            }
            NetMsg::Round { from, to, .. } if to != self.cfg.me || from.idx() >= n => {}
            // The marks' horizon bounds frames too: no majority has reached a
            // later round, so no honest peer sent one. Earlier rounds stay — a
            // frame delayed past its round is the UL adversary's prerogative
            // and still delivers.
            NetMsg::Round { round, .. } if round > self.live_round_hint().saturating_add(2) => {
                self.tele.add("net/horizon_drops", 1);
            }
            NetMsg::Round {
                round,
                seq,
                from,
                payload,
                ..
            } => {
                // Observation only: duplicates and reordering are the UL
                // adversary's prerogative, so both still deliver — but they
                // are counted, reported, and exposed as metrics.
                let track = self.seq_tracks.entry((round, from.0)).or_default();
                if !track.seen.insert(seq) {
                    self.report.dup_frames += 1;
                    self.tele.add("net/dup_frames", 1);
                } else if track.last.is_some_and(|last| seq < last) {
                    self.report.reorder_frames += 1;
                    self.tele.add("net/reorder_frames", 1);
                }
                track.last = Some(seq);
                self.buf
                    .msgs
                    .entry(round)
                    .or_default()
                    .push((from, seq, payload));
            }
            NetMsg::RoundMark { round, from } => {
                if from.idx() < n {
                    self.note_peer_round(from.0, round);
                    // Marks for rounds already completed here are stale
                    // (replayed to a rejoiner); marks past the quorum's
                    // horizon are claims no majority backs. Recording either
                    // would leak rows into `buf.marks`.
                    if round > self.live_round_hint().saturating_add(2) {
                        self.tele.add("net/horizon_drops", 1);
                    } else if round >= self.cur_round {
                        self.buf.marks.entry(round).or_insert_with(|| vec![false; n])[from.idx()] =
                            true;
                    }
                }
            }
            NetMsg::Bye { node } => {
                if node >= 1 && node as usize <= n {
                    self.departed[NodeId(node).idx()] = true;
                }
            }
            NetMsg::Rejoin {
                node,
                run_id,
                watermark,
            } => {
                // A restarted peer is back: clear its departure, replay the
                // barrier marks it may have lost with its dead connection
                // (bounded window), and tell it how far the cluster is so it
                // can pace its catch-up.
                if run_id == self.cfg.run_id
                    && node >= 1
                    && node as usize <= n
                    && NodeId(node) != self.cfg.me
                {
                    let idx = NodeId(node).idx();
                    self.departed[idx] = false;
                    if self.rounds_started.is_some() {
                        let cur = self.cur_round;
                        let lo = watermark
                            .saturating_sub(1)
                            .max(cur.saturating_sub(REJOIN_REPLAY_WINDOW));
                        let me = self.cfg.me;
                        for r in lo..=cur {
                            self.send_to(NodeId(node), &NetMsg::RoundMark { round: r, from: me });
                        }
                        self.send_to(
                            NodeId(node),
                            &NetMsg::RejoinAck {
                                node: me.0,
                                round: cur,
                            },
                        );
                    }
                }
            }
            NetMsg::RejoinAck { node, round } => self.note_peer_round(node, round),
            // Collector-bound traffic never reaches a node.
            NetMsg::Event { .. }
            | NetMsg::Report(_)
            | NetMsg::Metrics { .. }
            | NetMsg::Beacon(_)
            | NetMsg::Alarm(_)
            | NetMsg::Trace { .. } => {}
        }
    }

    /// Records that peer `node` reached `round` (ids outside the network,
    /// and this node's own, are ignored).
    fn note_peer_round(&mut self, node: u32, round: u64) {
        if node >= 1 && node as usize <= self.cfg.n && node != self.cfg.me.0 {
            let slot = &mut self.peer_rounds[NodeId(node).idx()];
            *slot = (*slot).max(round);
        }
    }

    /// The round the cluster is known to have reached: the peers'
    /// [`quorum_round`], never below this node's own round (so peers that
    /// crashed long ago cannot hold it back). Ahead of `cur_round + 1` it
    /// means this node is behind and paces catch-up rounds at
    /// [`CATCHUP_ROUND_MS`]; in a healthy run it never is.
    fn live_round_hint(&self) -> u64 {
        quorum_round(&self.peer_rounds, self.cfg.me).max(self.cur_round)
    }

    /// Whether every live peer's mark for `marks[round]` is present.
    fn marks_complete(&self, marks: &BTreeMap<u64, Vec<bool>>, round: u64) -> bool {
        let row = marks.get(&round);
        NodeId::all(self.cfg.n)
            .filter(|&j| j != self.cfg.me)
            .all(|j| {
                self.departed[j.idx()]
                    || self.conn_dead(j)
                    || row.map(|r| r[j.idx()]).unwrap_or(false)
            })
    }

    /// A peer with no live connection cannot deliver a mark; treating it as
    /// departed keeps a crashed peer from stalling every round to the
    /// deadline.
    fn conn_dead(&self, j: NodeId) -> bool {
        match &self.fabric {
            Fabric::Mesh { conns, .. } => {
                conns[j.idx()].as_ref().map(|c| c.closed).unwrap_or(true)
            }
            Fabric::Proxy { conn, .. } => conn.closed,
        }
    }

    /// Attempts to re-establish closed dial-side connections (rate-limited;
    /// the accept side heals via the listener instead).
    fn maybe_reconnect(&mut self) {
        let now = Instant::now();
        let hello = NetMsg::Hello {
            node: self.cfg.me.0,
            run_id: self.cfg.run_id,
        };
        let redial_after = Duration::from_millis(500);
        match &mut self.fabric {
            Fabric::Mesh { conns, pending, .. } => {
                for j in 1..self.cfg.me.0 {
                    let idx = NodeId(j).idx();
                    let dead = conns[idx].as_ref().map(|c| c.closed).unwrap_or(true);
                    if !dead || self.departed[idx] {
                        continue;
                    }
                    let due = self.last_redial[idx]
                        .map(|t| now.duration_since(t) >= redial_after)
                        .unwrap_or(true);
                    if !due {
                        continue;
                    }
                    self.last_redial[idx] = Some(now);
                    if let Ok(stream) = NetStream::dial(&self.cfg.plan.node(j), now) {
                        let mut conn = Conn::new(stream);
                        conn.send(&hello);
                        pending[idx].drain_into(&mut conn);
                        conns[idx] = Some(conn);
                    }
                }
            }
            Fabric::Proxy { conn, pending } => {
                if conn.closed {
                    let due = self.last_redial[0]
                        .map(|t| now.duration_since(t) >= redial_after)
                        .unwrap_or(true);
                    if due {
                        self.last_redial[0] = Some(now);
                        if let Ok(stream) = NetStream::dial(&self.cfg.plan.proxy(), now) {
                            let mut c = Conn::new(stream);
                            c.send(&hello);
                            pending.drain_into(&mut c);
                            *conn = c;
                        }
                    }
                }
            }
        }
    }

    /// Runs the full deployment: setup barriers, paced rounds, final report.
    /// Returns this node's report (also sent to the collector when one is
    /// connected).
    pub fn run(mut self, mut input_fn: impl FnMut(NodeId, u64) -> Option<Vec<u8>>) -> io::Result<NodeReport> {
        let total = self.cfg.total_rounds;
        let start = match self.cfg.resume {
            None => {
                self.run_setup()?;
                // The ROM freezes at the end of setup (write-once by model);
                // persist its image now so a later restart can rejoin
                // without re-running setup.
                if let Some(sd) = &self.state {
                    sd.save_rom(self.driver.rom())?;
                }
                0
            }
            Some(watermark) => {
                // Rejoin: the ROM was restored from durable state, setup is
                // skipped. Announce the return so peers clear our departure,
                // replay lost marks, and ack with the live round; then
                // re-execute from the watermark to resynchronize.
                let rejoin = NetMsg::Rejoin {
                    node: self.cfg.me.0,
                    run_id: self.cfg.run_id,
                    watermark,
                };
                self.broadcast(&rejoin);
                if let Some(c) = self.collector.as_mut() {
                    c.send(&rejoin);
                }
                watermark.min(total)
            }
        };
        self.cur_round = start;
        for round in start..total {
            self.run_round(round, &mut input_fn)?;
        }
        self.report.rounds = total - start;
        let rom = self.driver.rom();
        self.report.rom_keys = rom.entries().map(|(k, _)| k.to_owned()).collect();
        self.report.rom_values = rom.entries().map(|(_, v)| v.to_vec()).collect();
        // Flush-and-drain: ship the final metrics delta (counters that moved
        // after the last per-round ship, e.g. the closing barrier's transport
        // counters), then the report, then Bye — FIFO order guarantees the
        // collector sees everything before the departure marker, and the
        // blocking flush drains the queue before the process exits.
        if let Some(c) = self.collector.as_mut() {
            if let Some(snap) = self.tele.snapshot() {
                let delta = snap.delta_since(&self.last_snap);
                self.last_snap = snap;
                if !delta.is_empty() {
                    c.send(&NetMsg::Metrics {
                        node: self.cfg.me.0,
                        round: total,
                        delta,
                    });
                }
            }
            c.send(&NetMsg::Report(self.report.clone()));
            c.send(&NetMsg::Bye {
                node: self.cfg.me.0,
            });
            c.flush_blocking(Duration::from_secs(5));
            if c.wants_write() && !c.closed {
                eprintln!(
                    "node {}: collector stream not fully drained at exit",
                    self.cfg.me
                );
            }
        }
        let bye = NetMsg::Bye {
            node: self.cfg.me.0,
        };
        self.broadcast(&bye);
        match &mut self.fabric {
            Fabric::Mesh { conns, .. } => {
                for conn in conns.iter_mut().flatten() {
                    conn.flush_blocking(Duration::from_millis(500));
                }
            }
            Fabric::Proxy { conn, .. } => conn.flush_blocking(Duration::from_millis(500)),
        }
        Ok(self.report)
    }

    fn run_setup(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_millis(self.cfg.connect_timeout_ms);
        let me = self.cfg.me;
        for sr in 0..self.cfg.setup_rounds {
            // Inbox: everything sent in the previous setup round, in the
            // engine's merge order.
            let mut entries = if sr == 0 {
                Vec::new()
            } else {
                self.setup_msgs.remove(&(sr - 1)).unwrap_or_default()
            };
            entries.sort_by_key(|a| (a.0, a.1));
            let inbox: Vec<Envelope> = entries
                .into_iter()
                .map(|(from, _, payload)| Envelope::new(from, me, payload))
                .collect();
            self.report.received += inbox.len() as u64;
            let outbox = self.driver.setup_step(sr, &inbox);
            let mut seq = 0u32;
            for entry in &outbox {
                for env in entry.envelopes() {
                    self.report.sent += 1;
                    self.report.bytes_sent += env.payload.len() as u64;
                    let msg = NetMsg::Setup {
                        setup_round: sr,
                        seq,
                        from: env.from,
                        to: env.to,
                        payload: env.payload.to_vec(),
                    };
                    self.send_to(env.to, &msg);
                    seq += 1;
                }
            }
            self.broadcast(&NetMsg::SetupMark {
                setup_round: sr,
                from: me,
            });
            // Hard barrier: setup is faithful, every peer must mark.
            while !self.marks_complete_setup(sr) {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("node {me}: setup round {sr} barrier timed out"),
                    ));
                }
                self.pump(Some(50))?;
            }
            self.setup_marks.remove(&sr);
        }
        Ok(())
    }

    fn marks_complete_setup(&self, sr: u64) -> bool {
        let row = self.setup_marks.get(&sr);
        NodeId::all(self.cfg.n)
            .filter(|&j| j != self.cfg.me)
            .all(|j| row.map(|r| r[j.idx()]).unwrap_or(false))
    }

    fn run_round(
        &mut self,
        round: u64,
        input_fn: &mut impl FnMut(NodeId, u64) -> Option<Vec<u8>>,
    ) -> io::Result<()> {
        let me = self.cfg.me;
        self.cur_round = round;
        let round_start = Instant::now();
        if self.rounds_started.is_none() {
            self.rounds_started = Some(round_start);
        }
        let late_before = self.report.late_frames;
        // Deliveries: everything sent in an earlier round and not yet
        // delivered. Frames older than the immediately preceding round were
        // delayed past their nominal delivery — count them.
        let eligible: Vec<u64> = self
            .buf
            .msgs
            .range(..round)
            .map(|(k, _)| *k)
            .collect();
        let mut entries: Vec<(u64, NodeId, u32, Vec<u8>)> = Vec::new();
        for k in eligible {
            if round > 0 && k < round - 1 {
                let late = self.buf.msgs.get(&k).map(|v| v.len() as u64).unwrap_or(0);
                self.report.late_frames += late;
                self.tele.add("net/late_frames", late);
            }
            for (from, seq, payload) in self.buf.msgs.remove(&k).unwrap_or_default() {
                entries.push((k, from, seq, payload));
            }
        }
        entries.sort_by_key(|a| (a.0, a.1, a.2));
        let inbox: Vec<Envelope> = entries
            .into_iter()
            .map(|(_, from, _, payload)| Envelope::new(from, me, payload))
            .collect();
        self.report.received += inbox.len() as u64;

        let input = input_fn(me, round);
        let time = TimeView::at(&self.cfg.schedule, round);
        // Install the recording shard around the step with the same scope
        // discipline as the engine's `exec_slot`, so node-layer counters and
        // trace events are identical to an in-process run.
        let scoped = self.tele.is_on();
        let prev = if scoped {
            let mut shard = self
                .shard
                .take()
                .or_else(|| self.tele.new_shard())
                .expect("telemetry on");
            shard.set_ctx(me.0, round);
            telemetry::install(Some(shard))
        } else {
            None
        };
        let (outbox, step) = self.driver.round_step(time, &inbox, input.as_deref());
        if scoped {
            let mut shard = telemetry::install(prev);
            if let Some(sh) = shard.as_mut() {
                self.tele.merge_shard(sh);
            }
            self.shard = shard;
        }
        if step.panicked {
            return Err(io::Error::other(format!(
                "node {me}: step panicked at round {round}"
            )));
        }
        self.report.alerts += step.alerts;
        let mut seq = 0u32;
        for entry in &outbox {
            for env in entry.envelopes() {
                self.report.sent += 1;
                self.report.bytes_sent += env.payload.len() as u64;
                let msg = NetMsg::Round {
                    round,
                    seq,
                    from: env.from,
                    to: env.to,
                    payload: env.payload.to_vec(),
                };
                self.send_to(env.to, &msg);
                seq += 1;
            }
        }
        self.broadcast(&NetMsg::RoundMark { round, from: me });

        // Stream freshly emitted events to the collector.
        if self.collector.is_some() {
            let events = self.driver.drain_new_events();
            if let Some(c) = self.collector.as_mut() {
                for (r, event) in events {
                    c.send(&NetMsg::Event {
                        node: me,
                        round: r,
                        event,
                    });
                }
            }
        }

        // Observability streaming: this round's trace events, metrics delta,
        // alarms, and the health beacon. The beacon goes last — stream FIFO
        // order makes it the collector's "round r complete from this node"
        // signal, guaranteeing the trace and metrics frames precede it.
        if scoped {
            self.tele.observe_value("net/round_ms", self.cur_round_ms);
            self.stream_observability(round, seq as u64, step.alerts);
        }

        // Catch-up detection: peers are known (marks, rejoin acks) to be ≥2
        // rounds ahead — impossible in a healthy run, where no peer can get
        // two barriers past us. Pace such rounds at the accelerated deadline
        // so a rejoiner resynchronizes instead of replaying at full pace.
        let catchup = self.live_round_hint() > round + 1;
        let pace_ms = if catchup {
            CATCHUP_ROUND_MS.min(self.cur_round_ms)
        } else {
            self.cur_round_ms
        };
        // Barrier: marks from every live peer, floored by the pacing
        // minimum. The pacing deadline is tempo, not correctness — a live,
        // connected peer that is merely slow (a crypto-heavy refresh round,
        // scheduler pressure) is waited out well past it, because the
        // AUTH-SEND layer binds the send round into message authentication:
        // letting a live peer's frames slip one round gets them rejected as
        // forgeries and collapses the refresh. Only the failure-detector
        // deadline abandons a peer that is connected but hung; a crashed
        // peer's connection dies and `marks_complete` excludes it at once.
        // Catch-up rounds keep the accelerated hard deadline and skip the
        // floor: the cluster has already left them behind (their marks were
        // replayed at rejoin or stream in live), and pacing them at
        // `min_round_ms` would hold the gap open forever when the cluster
        // itself advances at the floor — the rejoiner must replay strictly
        // faster than live rounds tick to resynchronize before the next
        // refresh phase begins.
        let hard_deadline = round_start + Duration::from_millis(pace_ms);
        let barrier_deadline = if catchup {
            hard_deadline
        } else {
            hard_deadline + Duration::from_millis(self.cfg.mark_timeout_ms)
        };
        let floor = if catchup {
            round_start
        } else {
            round_start + Duration::from_millis(self.cfg.min_round_ms)
        };
        let mut timed_out = false;
        loop {
            let now = Instant::now();
            let complete = self.marks_complete(&self.buf.marks, round);
            if complete && now >= floor {
                break;
            }
            if !complete && now >= barrier_deadline {
                self.report.mark_timeouts += 1;
                self.tele.add("net/mark_timeouts", 1);
                timed_out = true;
                break;
            }
            self.maybe_reconnect();
            let wait_until = if complete { floor } else { barrier_deadline };
            let ms = wait_until
                .saturating_duration_since(now)
                .as_millis()
                .clamp(1, 50) as u64;
            self.pump(Some(ms))?;
        }
        self.buf.marks.remove(&round);
        // Durable watermark: this round is complete; a restart resumes at
        // `round + 1`. Persist failure degrades durability (a later restart
        // replays more rounds), never the run itself.
        if let Some(sd) = &self.state {
            if let Err(e) = sd.save_watermark(Watermark {
                completed_rounds: round + 1,
                epoch: time.unit,
            }) {
                eprintln!("node {me}: watermark persist failed: {e}");
            }
        }
        // Drop seq bookkeeping old enough that even chaos-delayed frames are
        // past; anything later is observation loss, not a correctness issue.
        self.seq_tracks = self.seq_tracks.split_off(&(round.saturating_sub(8), 0));

        // Bounded AIMD on the pacing deadline: congestion (a mark timeout or
        // freshly late frames) doubles it back toward the configured ceiling;
        // a comfortable round — marks complete within half the deadline —
        // shaves off an additive step toward the floor.
        if self.cfg.adaptive && !catchup {
            let ceiling = self.cfg.round_ms.max(1);
            let floor_ms = self
                .cfg
                .adapt_floor_ms
                .max(self.cfg.min_round_ms)
                .min(ceiling);
            let used_ms = round_start.elapsed().as_millis() as u64;
            let congested = timed_out
                || self.report.late_frames > late_before
                || used_ms > self.cur_round_ms;
            if congested {
                self.cur_round_ms = (self.cur_round_ms.saturating_mul(2)).min(ceiling);
            } else if used_ms.saturating_mul(2) <= self.cur_round_ms {
                let step_ms = (ceiling / 20).max(1);
                self.cur_round_ms = self.cur_round_ms.saturating_sub(step_ms).max(floor_ms);
            }
        }
        Ok(())
    }

    /// Ships the round's observability frames to the collector: trace blob,
    /// metrics delta, promoted alarms, health beacon (in that order).
    fn stream_observability(&mut self, round: u64, sent_round: u64, alerts_round: u64) {
        if self.collector.is_none() {
            return;
        }
        let me = self.cfg.me.0;
        // Trace blob: everything the memory sink accumulated this round.
        let trace_events = self
            .tele_buf
            .as_ref()
            .map(|buf| {
                let mut guard = buf.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                std::mem::take(&mut *guard)
            })
            .unwrap_or_default();
        let snap = self.tele.snapshot().unwrap_or_default();
        let delta = snap.delta_since(&self.last_snap);
        let alarms: Vec<Alarm> = ALARM_COUNTERS
            .iter()
            .filter_map(|(counter, kind, severity)| {
                delta.counters.get(*counter).map(|&d| Alarm {
                    node: me,
                    round,
                    severity: *severity,
                    kind: (*kind).to_owned(),
                    detail: format!("{counter} +{d}"),
                })
            })
            .collect();
        self.last_snap = snap;
        let lag_ms = self.rounds_started.map_or(0, |t0| {
            let nominal_ms = (round + 1).saturating_mul(self.cfg.round_ms);
            (t0.elapsed().as_millis() as u64).saturating_sub(nominal_ms)
        });
        let beacon = HealthBeacon {
            node: me,
            round,
            round_ms: self.cur_round_ms,
            lag_ms,
            inbox_depth: self.buf.msgs.values().map(|v| v.len() as u64).sum(),
            late_frames: self.report.late_frames,
            mark_timeouts: self.report.mark_timeouts,
            peers_live: self.peers_live(),
            sent_round,
            alerts_round,
        };
        let stream_trace = self.cfg.stream_trace;
        if let Some(c) = self.collector.as_mut() {
            if stream_trace {
                c.send(&NetMsg::Trace {
                    node: me,
                    round,
                    events: trace_events,
                });
            }
            if !delta.is_empty() {
                c.send(&NetMsg::Metrics {
                    node: me,
                    round,
                    delta,
                });
            }
            for alarm in alarms {
                c.send(&NetMsg::Alarm(alarm));
            }
            c.send(&NetMsg::Beacon(beacon));
        }
    }

    /// Open peer connections right now (mesh) or whether the proxy link is
    /// up (proxy fabric).
    fn peers_live(&self) -> u32 {
        match &self.fabric {
            Fabric::Mesh { conns, .. } => conns
                .iter()
                .flatten()
                .filter(|c| !c.closed)
                .count() as u32,
            Fabric::Proxy { conn, .. } => u32::from(!conn.closed),
        }
    }
}

/// The highest round a majority of the `n − 1` peers has reached or passed:
/// the `⌊(n−1)/2⌋`-th entry, 0-based, of their rounds sorted descending
/// (`peer_rounds` is indexed by node, `me`'s own slot skipped). With
/// `n ≥ 2t + 1` that majority includes an honest peer, so no single peer's
/// claim moves it.
fn quorum_round(peer_rounds: &[u64], me: NodeId) -> u64 {
    let mut rounds = peer_rounds.to_vec();
    rounds.remove(me.idx());
    rounds.sort_unstable_by(|a, b| b.cmp(a));
    rounds.get(rounds.len() / 2).copied().unwrap_or(0)
}

/// Convenience: connect and run in one call.
pub fn run_node(
    cfg: NodeNetConfig,
    driver: &mut dyn NodeDriver,
    input_fn: impl FnMut(NodeId, u64) -> Option<Vec<u8>>,
) -> io::Result<NodeReport> {
    NodeLoop::connect(cfg, driver)?.run(input_fn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_peer_cannot_set_the_cluster_tempo() {
        // n = 5, node 1 looking at peers 2..=5.
        let me = NodeId(1);
        // One peer claims the end of time; the majority is at round 7.
        assert_eq!(quorum_round(&[0, u64::MAX, 7, 7, 6], me), 7);
        // Two liars of four peers are still not a majority.
        assert_eq!(quorum_round(&[0, u64::MAX, u64::MAX, 3, 3], me), 3);
        // Three of four peers ahead: a real catch-up signal.
        assert_eq!(quorum_round(&[0, 40, 41, 42, 2], me), 40);
        // The node's own slot never votes.
        assert_eq!(quorum_round(&[u64::MAX, 5, 5, 5, 5], me), 5);
        // n = 4: three peers, two of which must agree.
        assert_eq!(quorum_round(&[9, 9, 0, u64::MAX], NodeId(3)), 9);
    }

    struct Idle;

    impl crate::process::Process for Idle {
        fn on_setup_round(&mut self, _ctx: &mut crate::process::SetupCtx<'_>) {}
        fn on_round(&mut self, _ctx: &mut crate::process::RoundCtx<'_>) {}
        fn state_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn one_peer_cannot_grow_the_round_buffers() {
        let dir = std::env::temp_dir().join(format!("proauth-horizon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = AddrPlan::Unix { dir: dir.clone() };
        // A listener in the proxy's place is all `connect` needs.
        let _proxy = NetListener::bind(&plan.proxy()).unwrap();
        let n = 5;
        let mut cfg = NodeNetConfig::new(NodeId(1), n, plan, Schedule::new(12, 1, 1));
        cfg.via_proxy = true;
        cfg.telemetry = true;
        let mut driver = crate::driver::ProcessDriver::new(Idle, NodeId(1), n, 0);
        let mut node = NodeLoop::connect(cfg, &mut driver).unwrap();
        let liar = NodeId(2);

        // Every future round the liar can name, and one frame per round
        // that is in reach, many times over.
        let flood = 10_000u64;
        for i in 0..flood {
            for round in [3 + i, u64::MAX - i, i % 3] {
                node.dispatch(NetMsg::Round {
                    round,
                    seq: i as u32,
                    from: liar,
                    to: NodeId(1),
                    payload: Vec::new(),
                });
            }
            node.dispatch(NetMsg::Setup {
                setup_round: 8 + i,
                seq: 0,
                from: liar,
                to: NodeId(1),
                payload: Vec::new(),
            });
            node.dispatch(NetMsg::SetupMark {
                setup_round: u64::MAX - i,
                from: liar,
            });
        }
        // Rounds 0..=2 are within the horizon of a node at round 0: they
        // are kept (and counted per seq); nothing past them is.
        assert_eq!(node.buf.msgs.keys().copied().collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(node.buf.msgs.values().map(Vec::len).sum::<usize>(), flood as usize);
        assert_eq!(node.seq_tracks.len(), 3);
        assert!(node.setup_msgs.is_empty() && node.setup_marks.is_empty());
        assert_eq!(node.tele.counter("net/horizon_drops"), 4 * flood);
        // A replayed seq is a duplicate, found in the set.
        node.dispatch(NetMsg::Round {
            round: 1,
            seq: 1,
            from: liar,
            to: NodeId(1),
            payload: Vec::new(),
        });
        assert_eq!(node.report.dup_frames, 1);
        let _ = std::fs::remove_dir_all(dir);
    }
}

//! The chaos proxy: an adversarial *process* on the wire.
//!
//! In hub topology every node holds one connection to the proxy, which
//! routes protocol frames by destination. Because all traffic crosses it,
//! the proxy is exactly the paper's UL adversary boundary made physical: it
//! can delay a frame by whole rounds, duplicate it, scramble arrival order,
//! or partition the network for a window of rounds — all *deterministically*,
//! keyed by a seed and the frame's `(round, from, to, seq)` identity, so a
//! chaos run is reproducible bit for bit.
//!
//! Model discipline is kept:
//!
//! * **setup traffic is faithful** — the set-up phase is adversary-free by
//!   assumption (§2.1), so `Setup`/`SetupMark` frames are forwarded verbatim
//!   and immediately;
//! * **marks are faithful** — barriers are engine pacing, not protocol
//!   messages; tampering with them would simulate a *slow engine*, not an
//!   adversarial network;
//! * **round frames** are fair game, and every manipulation maps to a legal
//!   UL adversary action (delayed/duplicated/reordered delivery).

use super::msg::NetMsg;
use super::peer::{AddrPlan, Conn, NetListener};
use super::poll;
use crate::message::NodeId;
use proauth_primitives::sha256;
use std::collections::BTreeMap;
use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Cap on frames parked for a node whose link is down; beyond this new
/// frames are dropped — matching engine crash semantics.
const PENDING_CAP: usize = 4096;

/// A partition window: during rounds `[start, end)`, frames between the two
/// groups (`id <= split` vs `id > split`) are held and released when the
/// partition heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// First partitioned round.
    pub start: u64,
    /// First healed round.
    pub end: u64,
    /// Largest node id of the first group.
    pub split: u32,
}

/// Deterministic chaos parameters. All percentages are per *frame*, decided
/// by hashing `(seed, round, from, to, seq)` — same seed, same scenario, same
/// chaos, every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosNetSpec {
    /// Chaos decision seed (independent of the protocol seed).
    pub seed: u64,
    /// Percent of round frames delayed by extra rounds.
    pub delay_pct: u8,
    /// Maximum extra rounds a delayed frame is held (≥ 1 when delaying).
    pub delay_max: u64,
    /// Percent of round frames duplicated.
    pub dup_pct: u8,
    /// Percent of round frames whose arrival order is scrambled (swapped with
    /// the next frame to the same destination).
    pub reorder_pct: u8,
    /// Percent of `(round, node)` pairs whose proxy link is reset mid-frame
    /// right after the node's barrier mark: the node sees a torn frame and a
    /// dead socket, and must redial and re-handshake.
    pub reset_pct: u8,
    /// Optional partition window.
    pub partition: Option<Partition>,
}

impl ChaosNetSpec {
    /// A faithful proxy: routes everything verbatim.
    pub fn faithful() -> Self {
        ChaosNetSpec {
            seed: 0,
            delay_pct: 0,
            delay_max: 0,
            dup_pct: 0,
            reorder_pct: 0,
            reset_pct: 0,
            partition: None,
        }
    }

    /// Whether any manipulation is enabled.
    pub fn is_faithful(&self) -> bool {
        self.delay_pct == 0
            && self.dup_pct == 0
            && self.reorder_pct == 0
            && self.reset_pct == 0
            && self.partition.is_none()
    }

    /// Deterministic socket-reset decision for `(round, node)`.
    pub fn reset_due(&self, round: u64, node: NodeId) -> bool {
        if self.reset_pct == 0 {
            return false;
        }
        let h = sha256::hash_parts(
            "proauth/net/chaos",
            &[
                b"reset",
                &self.seed.to_be_bytes(),
                &round.to_be_bytes(),
                &node.0.to_be_bytes(),
            ],
        );
        (h[0] % 100) < self.reset_pct
    }

    /// The deterministic decision for one frame.
    fn decide(&self, round: u64, from: NodeId, to: NodeId, seq: u32) -> ChaosDecision {
        if self.is_faithful() {
            return ChaosDecision::default();
        }
        let h = sha256::hash_parts(
            "proauth/net/chaos",
            &[
                &self.seed.to_be_bytes(),
                &round.to_be_bytes(),
                &from.0.to_be_bytes(),
                &to.0.to_be_bytes(),
                &seq.to_be_bytes(),
            ],
        );
        let mut d = ChaosDecision::default();
        if self.partition_blocks(round, from, to) {
            // Held until the partition heals; other manipulations are moot.
            d.delay_rounds = self
                .partition
                .map(|p| p.end.saturating_sub(round))
                .unwrap_or(0);
            return d;
        }
        if self.delay_pct > 0 && (h[0] % 100) < self.delay_pct {
            d.delay_rounds = 1 + (h[3] as u64) % self.delay_max.max(1);
        }
        if self.dup_pct > 0 && (h[1] % 100) < self.dup_pct {
            d.duplicate = true;
        }
        if self.reorder_pct > 0 && (h[2] % 100) < self.reorder_pct {
            d.reorder = true;
        }
        d
    }

    /// Whether the partition separates `from` and `to` at `round`.
    fn partition_blocks(&self, round: u64, from: NodeId, to: NodeId) -> bool {
        match self.partition {
            Some(p) if round >= p.start && round < p.end => {
                (from.0 <= p.split) != (to.0 <= p.split)
            }
            _ => false,
        }
    }
}

/// What happens to one frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ChaosDecision {
    /// Extra rounds to hold the frame (0 = forward now).
    delay_rounds: u64,
    /// Forward a second copy.
    duplicate: bool,
    /// Swap with the next frame to the same destination.
    reorder: bool,
}

/// Proxy accounting, printed by the CLI at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Round frames forwarded (including released and duplicated copies).
    pub forwarded: u64,
    /// Frames held for extra rounds (delay or partition).
    pub delayed: u64,
    /// Duplicate copies injected.
    pub duplicated: u64,
    /// Frames swapped out of arrival order.
    pub reordered: u64,
    /// Setup frames forwarded verbatim.
    pub setup_forwarded: u64,
    /// Marks fanned out.
    pub marks: u64,
    /// Node links reset mid-frame (socket-reset chaos).
    pub resets: u64,
    /// Setup/round frames dropped because their destination — bytes chosen
    /// by the sender, who may be broken — names no other node of the network.
    pub rejected: u64,
}

/// Chaos proxy deployment parameters.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Network size (number of node connections to expect).
    pub n: usize,
    /// Address plan (the proxy listens at `plan.proxy()`).
    pub plan: AddrPlan,
    /// Manipulation parameters.
    pub spec: ChaosNetSpec,
    /// Scenario digest; Hellos with a different `run_id` are rejected.
    pub run_id: u64,
    /// Exit with an error if no traffic arrives for this long.
    pub idle_timeout_ms: u64,
}

/// The proxy process body: accept `n` nodes, route until all say Bye.
pub struct Proxy {
    cfg: ProxyConfig,
    listener: NetListener,
    conns: Vec<Option<Conn>>,
    limbo: Vec<Conn>,
    /// Highest round any node has marked complete (drives held-frame release).
    observed_round: u64,
    /// Held frames keyed by release round.
    held: BTreeMap<u64, Vec<(NodeId, NetMsg)>>,
    /// One stashed frame per destination, waiting to be swapped behind the
    /// next frame to that destination.
    stash: Vec<Option<NetMsg>>,
    /// Frames for destinations that have not connected yet (nodes start in
    /// arbitrary order; early setup traffic must not be lost).
    pending: Vec<Vec<NetMsg>>,
    departed: Vec<bool>,
    stats: ProxyStats,
}

impl Proxy {
    /// Binds the proxy endpoint.
    pub fn bind(cfg: ProxyConfig) -> io::Result<Self> {
        let listener = NetListener::bind(&cfg.plan.proxy())?;
        let n = cfg.n;
        Ok(Proxy {
            cfg,
            listener,
            conns: (0..n).map(|_| None).collect(),
            limbo: Vec::new(),
            observed_round: 0,
            held: BTreeMap::new(),
            stash: (0..n).map(|_| None).collect(),
            pending: (0..n).map(|_| Vec::new()).collect(),
            departed: vec![false; n],
            stats: ProxyStats::default(),
        })
    }

    /// Runs the routing loop until every node departed (or went silent past
    /// the idle timeout). Returns the accounting.
    pub fn run(mut self) -> io::Result<ProxyStats> {
        let idle = Duration::from_millis(self.cfg.idle_timeout_ms);
        let mut last_traffic = Instant::now();
        loop {
            if self.departed.iter().all(|&d| d) || self.all_conns_dead() {
                break;
            }
            if last_traffic.elapsed() > idle {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "proxy idle for {}ms with {} nodes still connected",
                        self.cfg.idle_timeout_ms,
                        self.departed.iter().filter(|&&d| !d).count()
                    ),
                ));
            }
            if self.pump()? {
                last_traffic = Instant::now();
            }
        }
        // Release everything still held so no frame is silently dropped.
        self.release_held(u64::MAX);
        self.flush_stashes();
        for conn in self.conns.iter_mut().flatten() {
            conn.flush_blocking(Duration::from_millis(500));
        }
        Ok(self.stats)
    }

    fn all_conns_dead(&self) -> bool {
        // Only meaningful once every slot has been claimed at least once.
        self.conns
            .iter()
            .all(|c| matches!(c, Some(conn) if conn.closed))
    }

    /// One poll iteration; returns whether any traffic moved.
    fn pump(&mut self) -> io::Result<bool> {
        let mut fds: Vec<(RawFd, bool)> = Vec::new();
        enum Slot {
            Node(usize),
            Limbo,
            Listener,
        }
        let mut slots: Vec<Slot> = Vec::new();
        for (idx, conn) in self.conns.iter().enumerate() {
            if let Some(c) = conn {
                if !c.closed {
                    fds.push((c.raw_fd(), c.wants_write()));
                    slots.push(Slot::Node(idx));
                }
            }
        }
        for (k, c) in self.limbo.iter().enumerate() {
            if !c.closed {
                fds.push((c.raw_fd(), false));
                slots.push(Slot::Limbo);
                let _ = k;
            }
        }
        fds.push((self.listener.raw_fd(), false));
        slots.push(Slot::Listener);

        let ready = poll::poll(&fds, Some(50))?;
        let mut moved = false;
        let mut inbound: Vec<(NodeId, NetMsg)> = Vec::new();
        for (slot, r) in slots.iter().zip(&ready) {
            match slot {
                Slot::Node(idx) => {
                    let conn = self.conns[*idx].as_mut().expect("slot maps live conn");
                    if r.writable {
                        let _ = conn.flush();
                    }
                    if r.readable || r.hangup {
                        let from = NodeId::from_idx(*idx);
                        for m in conn.recv() {
                            inbound.push((from, m));
                        }
                    }
                }
                Slot::Limbo => {} // adoption below reads these
                Slot::Listener => {
                    if r.readable {
                        while let Some(stream) = self.listener.accept()? {
                            self.limbo.push(Conn::new(stream));
                            moved = true;
                        }
                    }
                }
            }
        }
        self.adopt_identified();
        for (from, msg) in inbound {
            moved = true;
            self.route(from, msg);
        }
        Ok(moved)
    }

    /// Claims limbo connections whose Hello arrived.
    fn adopt_identified(&mut self) {
        let mut k = 0;
        while k < self.limbo.len() {
            let msgs = self.limbo[k].recv();
            let mut hello_from: Option<u32> = None;
            let mut rest: Vec<NetMsg> = Vec::new();
            for m in msgs {
                match m {
                    NetMsg::Hello { node, run_id } => {
                        if run_id == self.cfg.run_id && node >= 1 && node as usize <= self.cfg.n {
                            hello_from = Some(node);
                        }
                    }
                    other => rest.push(other),
                }
            }
            if let Some(node) = hello_from {
                let conn = self.limbo.remove(k);
                let idx = NodeId(node).idx();
                self.conns[idx] = Some(conn);
                self.departed[idx] = false;
                // Frames that arrived for this node before it connected.
                let queued = std::mem::take(&mut self.pending[idx]);
                if let Some(c) = self.conns[idx].as_mut() {
                    for m in &queued {
                        c.send(m);
                    }
                }
                for m in rest {
                    self.route(NodeId(node), m);
                }
            } else {
                if self.limbo[k].closed {
                    self.limbo.remove(k);
                    continue;
                }
                k += 1;
            }
        }
    }

    fn send_to(&mut self, to: NodeId, msg: &NetMsg) {
        let idx = to.idx();
        match self.conns[idx].as_mut() {
            Some(conn) if !conn.closed => conn.send(msg),
            // Not connected (yet, or its link died): hold until the node's
            // Hello (re-)arrives — slot retention across a restart. Departed
            // nodes get nothing; the backlog is bounded.
            _ => {
                if !self.departed[idx] && self.pending[idx].len() < PENDING_CAP {
                    self.pending[idx].push(msg.clone());
                }
            }
        }
    }

    fn fan_out(&mut self, from: NodeId, msg: &NetMsg) {
        self.stats.marks += 1;
        for id in NodeId::all(self.cfg.n) {
            if id != from {
                self.send_to(id, msg);
            }
        }
    }

    /// Routes one frame received from `from`, applying chaos to round
    /// traffic.
    fn route(&mut self, from: NodeId, msg: NetMsg) {
        // `NodeId::decode` rejects 0; whether `to` is one of the *other* n
        // nodes only the hub can tell, and it indexes per-node tables by it.
        if let NetMsg::Setup { to, .. } | NetMsg::Round { to, .. } = &msg {
            if to.0 == 0 || to.0 as usize > self.cfg.n || *to == from {
                self.stats.rejected += 1;
                return;
            }
        }
        match msg {
            NetMsg::Hello { .. } => {}
            // Setup traffic: faithful, immediate.
            NetMsg::Setup { to, .. } => {
                self.stats.setup_forwarded += 1;
                self.send_to(to, &msg);
            }
            NetMsg::SetupMark { .. } => self.fan_out(from, &msg),
            NetMsg::Round {
                round, seq, to, ..
            } => {
                let decision = self.cfg.spec.decide(round, from, to, seq);
                if decision.delay_rounds > 0 {
                    self.stats.delayed += 1;
                    self.held
                        .entry(round.saturating_add(decision.delay_rounds))
                        .or_default()
                        .push((to, msg));
                    return;
                }
                if decision.duplicate {
                    self.stats.duplicated += 1;
                    self.stats.forwarded += 1;
                    self.send_to(to, &msg);
                }
                if decision.reorder {
                    match self.stash[to.idx()].take() {
                        // A frame is already waiting: forward the new one
                        // first, then the stashed one — a visible swap.
                        Some(stashed) => {
                            self.stats.reordered += 1;
                            self.stats.forwarded += 2;
                            self.send_to(to, &msg);
                            self.send_to(to, &stashed);
                        }
                        None => {
                            self.stash[to.idx()] = Some(msg);
                        }
                    }
                    return;
                }
                // A stashed frame rides out behind any later frame to the
                // same destination.
                if let Some(stashed) = self.stash[to.idx()].take() {
                    self.stats.reordered += 1;
                    self.stats.forwarded += 2;
                    self.send_to(to, &msg);
                    self.send_to(to, &stashed);
                } else {
                    self.stats.forwarded += 1;
                    self.send_to(to, &msg);
                }
            }
            NetMsg::RoundMark { round, .. } => {
                if round > self.observed_round {
                    self.observed_round = round;
                    self.release_held(round);
                }
                // Stashed frames must not be held across a barrier longer
                // than necessary; flush before the mark goes out.
                self.flush_stashes();
                self.fan_out(from, &msg);
                // Socket-reset chaos: tear this node's link mid-frame right
                // after its mark — a half-written frame, then a dead socket.
                // The node must notice, redial, and re-handshake; its decoder
                // must survive the torn frame.
                if self.cfg.spec.reset_due(round, from) {
                    self.stats.resets += 1;
                    if let Some(conn) = self.conns[from.idx()].as_mut() {
                        conn.send_partial(&NetMsg::RoundMark { round, from });
                    }
                    self.conns[from.idx()] = None;
                }
            }
            NetMsg::Rejoin { node, .. } => {
                // A restarted node announces its return: clear its departure,
                // relay the announcement to every peer, and ack directly with
                // the live round the hub has observed.
                if node >= 1 && node as usize <= self.cfg.n {
                    self.departed[NodeId(node).idx()] = false;
                }
                self.fan_out(from, &msg);
                self.send_to(
                    from,
                    &NetMsg::RejoinAck {
                        node: 0,
                        round: self.observed_round,
                    },
                );
            }
            // Peer acks carry no destination; fan them out — receivers fold
            // the round into their live-round hint monotonically.
            NetMsg::RejoinAck { .. } => self.fan_out(from, &msg),
            NetMsg::Bye { node } => {
                if node >= 1 && node as usize <= self.cfg.n {
                    self.departed[NodeId(node).idx()] = true;
                }
                self.fan_out(from, &msg);
            }
            // Collector-bound traffic does not transit the proxy.
            NetMsg::Event { .. }
            | NetMsg::Report(_)
            | NetMsg::Metrics { .. }
            | NetMsg::Beacon(_)
            | NetMsg::Alarm(_)
            | NetMsg::Trace { .. } => {}
        }
    }

    /// Forwards all held frames whose release round has been reached.
    fn release_held(&mut self, up_to: u64) {
        let due: Vec<u64> = self.held.range(..=up_to).map(|(k, _)| *k).collect();
        for k in due {
            for (to, msg) in self.held.remove(&k).unwrap_or_default() {
                self.stats.forwarded += 1;
                self.send_to(to, &msg);
            }
        }
    }

    /// Forwards every stashed (reorder-pending) frame.
    fn flush_stashes(&mut self) {
        for idx in 0..self.stash.len() {
            if let Some(msg) = self.stash[idx].take() {
                self.stats.forwarded += 1;
                self.send_to(NodeId::from_idx(idx), &msg);
            }
        }
    }
}

/// Convenience: bind and run in one call.
pub fn run_proxy(cfg: ProxyConfig) -> io::Result<ProxyStats> {
    Proxy::bind(cfg)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_decisions_are_deterministic_and_bounded() {
        let spec = ChaosNetSpec {
            seed: 42,
            delay_pct: 30,
            delay_max: 3,
            dup_pct: 10,
            reorder_pct: 10,
            reset_pct: 0,
            partition: None,
        };
        let mut delayed = 0u32;
        for seq in 0..1000 {
            let a = spec.decide(7, NodeId(1), NodeId(2), seq);
            let b = spec.decide(7, NodeId(1), NodeId(2), seq);
            assert_eq!(a, b, "decisions must be reproducible");
            if a.delay_rounds > 0 {
                delayed += 1;
                assert!(a.delay_rounds <= 3);
            }
        }
        // ~30% of 1000, generously bracketed.
        assert!((150..450).contains(&delayed), "delayed={delayed}");
    }

    #[test]
    fn partition_blocks_cross_group_only() {
        let spec = ChaosNetSpec {
            partition: Some(Partition {
                start: 10,
                end: 20,
                split: 3,
            }),
            ..ChaosNetSpec::faithful()
        };
        // Cross-group, inside the window: held until healing.
        let d = spec.decide(12, NodeId(1), NodeId(5), 0);
        assert_eq!(d.delay_rounds, 8);
        // Same group: untouched.
        assert_eq!(spec.decide(12, NodeId(1), NodeId(3), 0).delay_rounds, 0);
        // Outside the window: untouched.
        assert_eq!(spec.decide(20, NodeId(1), NodeId(5), 0).delay_rounds, 0);
        assert_eq!(spec.decide(9, NodeId(1), NodeId(5), 0).delay_rounds, 0);
    }

    /// Frames parked anywhere in the proxy for `to`: link-down backlog, held
    /// for a later round, or stashed for a swap.
    fn parked(proxy: &Proxy, to: NodeId) -> usize {
        proxy.pending[to.idx()].len()
            + proxy.held.values().flatten().filter(|(dest, _)| *dest == to).count()
            + usize::from(proxy.stash[to.idx()].is_some())
    }

    #[test]
    fn frames_addressed_outside_the_network_are_rejected_not_indexed() {
        // No node ever connects: `route` is driven directly, so every frame
        // the proxy accepts ends up parked somewhere for its destination.
        let n = 3;
        let dir = std::env::temp_dir().join(format!("proauth-proxy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut proxy = Proxy::bind(ProxyConfig {
            n,
            plan: AddrPlan::Unix { dir: dir.clone() },
            spec: ChaosNetSpec {
                seed: 9,
                delay_pct: 40,
                delay_max: 3,
                dup_pct: 40,
                reorder_pct: 40,
                reset_pct: 0,
                partition: None,
            },
            run_id: 0,
            idle_timeout_ms: 1_000,
        })
        .unwrap();
        let from = NodeId(1);
        let round_to = |round: u64, seq: u32, to: NodeId| NetMsg::Round {
            round,
            seq,
            from,
            to,
            payload: vec![seq as u8],
        };

        // Enough sequence numbers to take every chaos path.
        let seqs = 0..32u32;
        for seq in seqs.clone() {
            for to in [NodeId(n as u32 + 1), NodeId(u32::MAX), from] {
                proxy.route(from, round_to(3, seq, to));
                proxy.route(
                    from,
                    NetMsg::Setup {
                        setup_round: 0,
                        seq,
                        from,
                        to,
                        payload: vec![seq as u8],
                    },
                );
            }
        }
        assert_eq!(proxy.stats.rejected, 32 * 3 * 2);
        assert_eq!(
            ProxyStats {
                rejected: 0,
                ..proxy.stats
            },
            ProxyStats::default(),
            "a rejected frame takes no chaos path"
        );
        assert!(NodeId::all(n).all(|id| parked(&proxy, id) == 0));
        assert!(proxy.held.is_empty());

        // A round number from the same untrusted frame must not overflow the
        // release key; well-formed frames still reach their destination's
        // queues, duplicates included.
        let to = NodeId(2);
        for seq in seqs {
            proxy.route(from, round_to(u64::MAX, seq, to));
            proxy.route(from, round_to(3, seq, to));
        }
        assert!(proxy.stats.delayed > 0 && proxy.held.contains_key(&u64::MAX));
        assert!(proxy.stats.duplicated > 0 && proxy.stats.reordered > 0);
        assert_eq!(parked(&proxy, to), 64 + proxy.stats.duplicated as usize);
        assert_eq!(parked(&proxy, NodeId(3)), 0);
        assert_eq!(proxy.stats.rejected, 32 * 3 * 2);

        drop(proxy);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faithful_spec_is_identity() {
        let spec = ChaosNetSpec::faithful();
        assert!(spec.is_faithful());
        let d = spec.decide(5, NodeId(1), NodeId(2), 9);
        assert_eq!(d, ChaosDecision::default());
    }
}

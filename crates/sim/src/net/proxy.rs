//! The chaos proxy: an adversarial *process* on the wire.
//!
//! In hub topology every node holds one connection to the proxy, which
//! routes protocol frames by destination. Because all traffic crosses it,
//! the proxy is exactly the paper's UL adversary boundary made physical. It
//! executes the repository's one link-fault model, [`LinkChaos::fate`] —
//! the function the engine's [`crate::chaos::ChaosNet`] executes too — so a
//! frame is delayed by whole rounds, duplicated, or held across a partition
//! window *deterministically*, keyed by a seed and the frame's `(round,
//! from, to, seq)` identity, and a daemon chaos run delivers the same frames
//! in the same rounds as the engine run under the same `LinkChaos`.
//!
//! Model discipline is kept:
//!
//! * **setup traffic is faithful** — the set-up phase is adversary-free by
//!   assumption (§2.1), so `Setup`/`SetupMark` frames are forwarded verbatim
//!   and immediately;
//! * **marks are faithful** — barriers are engine pacing, not protocol
//!   messages; they are never dropped, delayed past need, or duplicated;
//! * **round frames** are fair game, and every manipulation maps to a legal
//!   UL adversary action (delayed or duplicated delivery).
//!
//! Delivery rounds are exact (DESIGN §3h): a round-`K` mark reaches node
//! `R` only after `R`'s own, right behind `R`'s frames held until `K`, so a
//! `Delay(k)` frame sent in round `w` enters `R`'s inbox in round
//! `w + k + 1`, as in the engine. Socket resets (`reset_pct`) are the
//! proxy's own fault, with no UL meaning and no engine counterpart.

use super::msg::NetMsg;
use super::peer::{AddrPlan, Conn, NetListener};
use super::poll;
use crate::chaos::{Fate, LinkChaos};
use crate::message::NodeId;
use proauth_primitives::sha256;
use std::collections::BTreeMap;
use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Cap on frames parked for a node whose link is down, and on marks waiting
/// for a node to reach their round; beyond this new ones are dropped —
/// matching engine crash semantics.
const PENDING_CAP: usize = 4096;

/// Proxy accounting, printed by the CLI at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Round frames forwarded (including released and duplicated copies).
    pub forwarded: u64,
    /// Frames held for extra rounds (delay or partition).
    pub delayed: u64,
    /// Duplicate copies injected.
    pub duplicated: u64,
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
    /// Link faults applied to round frames.
    pub link: LinkChaos,
    /// Percent of `(round, node)` pairs whose proxy link is reset mid-frame
    /// right after the node's barrier mark: the node sees a torn frame and a
    /// dead socket, and must redial and re-handshake.
    pub reset_pct: u8,
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
    /// Highest round each node has marked complete.
    marked: Vec<Option<u64>>,
    /// Delayed frames per destination, keyed by release round.
    held: Vec<BTreeMap<u64, Vec<NetMsg>>>,
    /// Round marks per destination, waiting for it to mark their round.
    early_marks: Vec<Vec<(u64, NetMsg)>>,
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
            marked: vec![None; n],
            held: vec![BTreeMap::new(); n],
            early_marks: vec![Vec::new(); n],
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
        for to in NodeId::all(self.cfg.n) {
            self.release(to, u64::MAX);
        }
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
            } => match self.cfg.link.fate(round, from, to, seq) {
                Fate::Deliver => {
                    self.stats.forwarded += 1;
                    self.send_to(to, &msg);
                }
                Fate::Dup => {
                    self.stats.duplicated += 1;
                    self.stats.forwarded += 2;
                    self.send_to(to, &msg);
                    self.send_to(to, &msg);
                }
                Fate::Delay(k) => {
                    self.stats.delayed += 1;
                    self.held[to.idx()]
                        .entry(round.saturating_add(k))
                        .or_default()
                        .push(msg);
                }
            },
            NetMsg::RoundMark { round, .. } => {
                if self.marked[from.idx()].is_none_or(|m| round > m) {
                    self.marked[from.idx()] = Some(round);
                    self.release(from, round);
                }
                self.stats.marks += 1;
                for to in NodeId::all(self.cfg.n).filter(|&id| id != from) {
                    let i = to.idx();
                    if self.departed[i] || self.marked[i].is_some_and(|m| m >= round) {
                        self.send_to(to, &msg);
                    } else if self.early_marks[i].len() < PENDING_CAP {
                        self.early_marks[i].push((round, msg.clone()));
                    }
                }
                // Socket-reset chaos: tear this node's link mid-frame right
                // after its mark — a half-written frame, then a dead socket.
                // The node must notice, redial, and re-handshake; its decoder
                // must survive the torn frame.
                if self.reset_due(round, from) {
                    self.stats.resets += 1;
                    if let Some(conn) = self.conns[from.idx()].as_mut() {
                        conn.send_partial(&NetMsg::RoundMark { round, from });
                    }
                    self.conns[from.idx()] = None;
                }
            }
            NetMsg::Rejoin { node, .. } => {
                // A restarted node announces its return: clear its departure
                // and relay the announcement to every peer; their acks tell
                // it how far the cluster is.
                if node >= 1 && node as usize <= self.cfg.n {
                    self.departed[NodeId(node).idx()] = false;
                }
                self.fan_out(from, &msg);
            }
            // Peer acks carry no destination; fan them out — receivers fold
            // the round into their view of the cluster's progress.
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

    /// `to` has marked `up_to`: forwards its frames held until then, then
    /// the round marks it was waiting for — frames first, so each enters the
    /// inbox its fate names.
    fn release(&mut self, to: NodeId, up_to: u64) {
        let idx = to.idx();
        let later = match up_to.checked_add(1) {
            Some(k) => self.held[idx].split_off(&k),
            None => BTreeMap::new(),
        };
        for msg in std::mem::replace(&mut self.held[idx], later).into_values().flatten() {
            self.stats.forwarded += 1;
            self.send_to(to, &msg);
        }
        let (due, wait) = std::mem::take(&mut self.early_marks[idx])
            .into_iter()
            .partition::<Vec<_>, _>(|(round, _)| *round <= up_to);
        self.early_marks[idx] = wait;
        for (_, msg) in due {
            self.send_to(to, &msg);
        }
    }

    /// Deterministic socket-reset decision for `(round, node)`.
    fn reset_due(&self, round: u64, node: NodeId) -> bool {
        if self.cfg.reset_pct == 0 {
            return false;
        }
        let h = sha256::hash_parts(
            "proauth/net/chaos",
            &[
                b"reset",
                &self.cfg.link.seed.to_be_bytes(),
                &round.to_be_bytes(),
                &node.0.to_be_bytes(),
            ],
        );
        (h[0] % 100) < self.cfg.reset_pct
    }
}

/// Convenience: bind and run in one call.
pub fn run_proxy(cfg: ProxyConfig) -> io::Result<ProxyStats> {
    Proxy::bind(cfg)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FaithfulUl, NetView, UlAdversary};
    use crate::chaos::{ChaosConfig, ChaosNet, FaultSchedule, Partition};
    use crate::clock::{Schedule, TimeView};
    use crate::message::Envelope;

    #[test]
    fn chaos_decisions_are_deterministic_and_bounded() {
        let link = LinkChaos {
            seed: 42,
            delay_pct: 30,
            delay_max: 3,
            dup_pct: 10,
            partition: None,
        };
        let (mut delayed, mut duplicated) = (0u32, 0u32);
        for seq in 0..1000 {
            let a = link.fate(7, NodeId(1), NodeId(2), seq);
            let b = link.fate(7, NodeId(1), NodeId(2), seq);
            assert_eq!(a, b, "decisions must be reproducible");
            match a {
                Fate::Delay(k) => {
                    delayed += 1;
                    assert!((1..=3).contains(&k), "delay {k}");
                }
                Fate::Dup => duplicated += 1,
                Fate::Deliver => {}
            }
        }
        // ~30% of 1000 delayed and ~10% of the rest duplicated, generously
        // bracketed.
        assert!((150..450).contains(&delayed), "delayed={delayed}");
        assert!((20..150).contains(&duplicated), "duplicated={duplicated}");
    }

    #[test]
    fn partition_blocks_cross_group_only() {
        let link = LinkChaos {
            partition: Some(Partition {
                start: 10,
                end: 20,
                split: 3,
            }),
            ..LinkChaos::default()
        };
        // Cross-group, inside the window: held until healing, both ways.
        assert_eq!(link.fate(12, NodeId(1), NodeId(5), 0), Fate::Delay(8));
        assert_eq!(link.fate(19, NodeId(5), NodeId(3), 0), Fate::Delay(1));
        // Same group: untouched.
        assert_eq!(link.fate(12, NodeId(1), NodeId(3), 0), Fate::Deliver);
        assert_eq!(link.fate(12, NodeId(4), NodeId(5), 0), Fate::Deliver);
        // Outside the window: untouched.
        assert_eq!(link.fate(20, NodeId(1), NodeId(5), 0), Fate::Deliver);
        assert_eq!(link.fate(9, NodeId(1), NodeId(5), 0), Fate::Deliver);
    }

    /// Binds a proxy no node ever connects to: `route` is driven directly,
    /// so every frame it accepts ends up parked for its destination.
    fn idle_proxy(tag: &str, n: usize, link: LinkChaos) -> (Proxy, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("proauth-proxy-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let proxy = Proxy::bind(ProxyConfig {
            n,
            plan: AddrPlan::Unix { dir: dir.clone() },
            link,
            reset_pct: 0,
            run_id: 0,
            idle_timeout_ms: 1_000,
        })
        .unwrap();
        (proxy, dir)
    }

    /// Frames parked anywhere in the proxy for `to`: link-down backlog or
    /// held for a later round.
    fn parked(proxy: &Proxy, to: NodeId) -> usize {
        proxy.pending[to.idx()].len() + proxy.held[to.idx()].values().map(Vec::len).sum::<usize>()
    }

    #[test]
    fn frames_addressed_outside_the_network_are_rejected_not_indexed() {
        let n = 3;
        let link = LinkChaos {
            seed: 9,
            delay_pct: 40,
            delay_max: 3,
            dup_pct: 40,
            partition: None,
        };
        let (mut proxy, dir) = idle_proxy("reject", n, link);
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
        assert!(proxy.held.iter().all(BTreeMap::is_empty));

        // A round number from the same untrusted frame must not overflow the
        // release key; well-formed frames still reach their destination's
        // queues, duplicates included.
        let to = NodeId(2);
        for seq in seqs {
            proxy.route(from, round_to(u64::MAX, seq, to));
            proxy.route(from, round_to(3, seq, to));
        }
        assert!(proxy.stats.delayed > 0 && proxy.held[to.idx()].contains_key(&u64::MAX));
        assert!(proxy.stats.duplicated > 0);
        assert_eq!(parked(&proxy, to), 64 + proxy.stats.duplicated as usize);
        assert_eq!(parked(&proxy, NodeId(3)), 0);
        assert_eq!(proxy.stats.rejected, 32 * 3 * 2);

        drop(proxy);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faithful_spec_is_identity() {
        let link = LinkChaos::default();
        assert!(link.is_faithful());
        for seq in 0..100 {
            assert_eq!(link.fate(5, NodeId(1), NodeId(2), seq), Fate::Deliver);
        }
    }

    #[test]
    fn engine_and_proxy_execute_the_same_fates() {
        // Every node sends to every other for ten rounds; the proxy gets
        // the frames as `Round`s, the engine's `ChaosNet` as one round's
        // sent set at a time. Both must hold the same frames until the same
        // round and duplicate the same ones.
        let (n, rounds) = (4usize, 10u64);
        let link = LinkChaos {
            seed: 5,
            delay_pct: 25,
            delay_max: 3,
            dup_pct: 15,
            partition: Some(Partition {
                start: 3,
                end: 6,
                split: 2,
            }),
        };
        let frame = |w: u64, from: NodeId, to: NodeId, seq: u32| {
            format!("{w}:{}:{}:{seq}", from.0, to.0).into_bytes()
        };
        let (mut proxy, dir) = idle_proxy("parity", n, link);
        let chaos = ChaosConfig {
            link,
            ..ChaosConfig::default()
        };
        let mut engine = ChaosNet::new(FaithfulUl, chaos, FaultSchedule::default(), n);
        let schedule = Schedule::new(10, 2, 2);
        let (quiet, ops) = (vec![false; n], vec![true; n]);
        // (frame, round it is released in) for held frames; frames copied.
        let mut engine_held = BTreeMap::new();
        let mut engine_dup = Vec::new();
        for w in 0..rounds + link.delay_max + 4 {
            let mut sent = Vec::new();
            for from in NodeId::all(n).filter(|_| w < rounds) {
                for (seq, to) in NodeId::all(n).filter(|&to| to != from).enumerate() {
                    let payload = frame(w, from, to, seq as u32);
                    proxy.route(
                        from,
                        NetMsg::Round {
                            round: w,
                            seq: seq as u32,
                            from,
                            to,
                            payload: payload.clone(),
                        },
                    );
                    sent.push(Envelope::new(from, to, payload));
                }
            }
            let view = NetView {
                time: TimeView::at(&schedule, w),
                n,
                broken: &quiet,
                crashed: &quiet,
                operational: &ops,
                last_delivered: &[],
                broken_inboxes: &[],
            };
            let out: Vec<Vec<u8>> = engine
                .deliver(&sent, &view)
                .into_iter()
                .map(|e| e.payload.to_vec())
                .collect();
            for (i, p) in out.iter().enumerate() {
                let sent_in: u64 = std::str::from_utf8(p).unwrap().split(':').next().unwrap().parse().unwrap();
                if sent_in < w {
                    engine_held.insert(p.clone(), w);
                } else if out.get(i + 1) == Some(p) {
                    engine_dup.push(p.clone());
                }
            }
        }
        let proxy_held: BTreeMap<Vec<u8>, u64> = NodeId::all(n)
            .flat_map(|to| proxy.held[to.idx()].iter())
            .flat_map(|(&release, msgs)| {
                msgs.iter().map(move |m| match m {
                    NetMsg::Round { payload, .. } => (payload.clone(), release),
                    other => panic!("held a non-round frame {other:?}"),
                })
            })
            .collect();
        let mut proxy_dup = Vec::new();
        for to in NodeId::all(n) {
            for pair in proxy.pending[to.idx()].windows(2) {
                if pair[0] == pair[1] {
                    if let NetMsg::Round { payload, .. } = &pair[0] {
                        proxy_dup.push(payload.clone());
                    }
                }
            }
        }
        engine_dup.sort();
        proxy_dup.sort();
        assert!(!proxy_held.is_empty() && !proxy_dup.is_empty(), "both fates fired");
        assert!(
            proxy_held.values().any(|&r| r == 6),
            "the partition held frames until its heal"
        );
        assert_eq!(engine_held, proxy_held, "same frames held until the same round");
        assert_eq!(engine_dup, proxy_dup, "same frames duplicated");
        drop(proxy);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

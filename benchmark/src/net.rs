//! The socket workload: `n` `run_node` loops as threads over Unix-domain
//! sockets plus the collector, all inside the benchmark process — the
//! `proauth serve` code path minus `fork`. Every node drives a
//! `ProcessDriver<UlsNode<HeartbeatApp>>` wrapped in [`Timed`], builds its
//! own `Group` (as a separate process would), and the mesh runs unpaced
//! (`min_round_ms = 0`): a round ends when every peer's mark is in.

use crate::host::CpuTime;
use crate::workload::{Scenario, REFRESH_ROUNDS};
use crate::wrap::Timed;
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::uls::{UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_crypto::group::Group;
use proauth_sim::message::{Envelope, NodeId};
use proauth_sim::net::{
    run_node, AddrPlan, Collector, CollectorConfig, DaemonOutcome, Endpoint, NodeNetConfig,
    NodeReport,
};
use proauth_sim::ProcessDriver;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Pacing deadline per round, ms. Tempo only; an unpaced mesh never gets
/// near it, and a round that did would show up as a mark timeout.
const ROUND_MS: u64 = 2_000;

/// Budget for connecting and for the set-up barriers, ms.
const CONNECT_TIMEOUT_MS: u64 = 30_000;

/// How long a node thread may take to bind its listener before the next
/// one is started anyway (its dial then retries on its own).
const BIND_WAIT: Duration = Duration::from_secs(5);

/// One node's readings.
#[derive(Debug, Clone, Default)]
pub struct NodeTimes {
    /// `round_step` entered, ns since the run's epoch, one per round.
    pub enter_ns: Vec<u64>,
    /// `round_step` returned.
    pub exit_ns: Vec<u64>,
    /// Envelopes and payload bytes sent, per round.
    pub sent: Vec<(u64, u64)>,
}

/// What a socket run leaves behind.
pub struct NetRun {
    /// What the collector assembled.
    pub outcome: DaemonOutcome,
    /// The nodes' own final reports.
    pub reports: Vec<NodeReport>,
    /// Per-node readings.
    pub nodes: Vec<NodeTimes>,
    /// Process CPU when node 1 entered the first round of each unit.
    pub cpu_at_unit: Vec<CpuTime>,
    /// All nodes' sends at the sampled round of each unit.
    pub samples: Vec<(u64, Vec<Envelope>)>,
    /// Time from the epoch (before the first bind) until the last node
    /// entered round 0: bind, connect, handshake and the set-up barriers.
    pub ready_s: f64,
}

impl NetRun {
    /// Envelopes and payload bytes all nodes sent, per round.
    pub fn sent_per_round(&self) -> Vec<(u64, u64)> {
        let rounds = self.nodes.iter().map(|n| n.sent.len()).min().unwrap_or(0);
        (0..rounds)
            .map(|r| {
                self.nodes
                    .iter()
                    .fold((0, 0), |(m, b), n| (m + n.sent[r].0, b + n.sent[r].1))
            })
            .collect()
    }

    /// Node 1's time from entering round `from` to entering round `to`, in
    /// seconds, as it went.
    pub fn span_s(&self, from: usize, to: usize) -> f64 {
        let enter = &self.nodes[0].enter_ns;
        (enter[to] - enter[from]) as f64 * 1e-9
    }
}

/// A fresh directory for one deployment's sockets, under `out_dir`.
fn socket_dir(out_dir: &Path) -> io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir.join(format!(
        "sock-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Runs `rounds` rounds of the scenario over sockets. With `telemetry`, the
/// nodes record node-layer metrics and stream per-round deltas, beacons and
/// alarms to the collector (the deployment's observability plane).
pub fn run_net(sc: &Scenario, rounds: u64, telemetry: bool, out_dir: &Path) -> io::Result<NetRun> {
    let spec = sc.spec;
    let n = spec.n;
    let dir = socket_dir(out_dir)?;
    let plan = AddrPlan::Unix { dir: dir.clone() };
    let epoch = Instant::now();
    // The collector listens before any node dials it.
    let collector = Collector::bind(CollectorConfig {
        n,
        plan: plan.clone(),
        run_id: sc.seed,
        idle_timeout_ms: CONNECT_TIMEOUT_MS,
        t: spec.t,
        unit_rounds: sc.unit_rounds(),
        status: false,
        trace_spec: None,
    })?;
    let result = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collector.run());
        let mut handles = Vec::with_capacity(n);
        for id in 1..=n as u32 {
            let me = NodeId(id);
            let mut cfg = NodeNetConfig::new(me, n, plan.clone(), sc.schedule);
            cfg.seed = sc.seed;
            cfg.run_id = sc.seed;
            cfg.report = true;
            cfg.setup_rounds = SETUP_ROUNDS;
            cfg.total_rounds = rounds;
            cfg.round_ms = ROUND_MS;
            cfg.min_round_ms = 0;
            cfg.connect_timeout_ms = CONNECT_TIMEOUT_MS;
            cfg.telemetry = telemetry;
            handles.push(scope.spawn(move || {
                let uls = UlsConfig::new(Group::new(spec.group), n, spec.t);
                let node = UlsNode::new(uls, me, HeartbeatApp::default());
                let mut driver = Timed::new(
                    ProcessDriver::new(node, me, n, sc.seed),
                    epoch,
                    sc.unit_rounds(),
                    Some(REFRESH_ROUNDS),
                );
                let report = run_node(cfg, &mut driver, |_, round| sc.uls_input(round));
                (report, driver)
            }));
            // Node j dials every lower-numbered peer, and a refused dial
            // sleeps 20 ms before it retries. Starting node j+1 only once
            // node j's listener exists keeps set-up free of those sleeps.
            if let Endpoint::Unix(path) = plan.node(id) {
                let patience = Instant::now() + BIND_WAIT;
                while !path.exists() && Instant::now() < patience {
                    std::thread::yield_now();
                }
            }
        }
        let mut reports = Vec::with_capacity(n);
        let mut drivers = Vec::with_capacity(n);
        for handle in handles {
            let (report, driver) = handle.join().expect("node thread panicked");
            reports.push(report?);
            drivers.push(driver);
        }
        let outcome = collector.join().expect("collector thread panicked")?;
        Ok::<_, io::Error>((outcome, reports, drivers))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let (outcome, reports, mut drivers) = result?;
    let ready_ns = drivers
        .iter()
        .filter_map(|d| d.enter_ns.first().copied())
        .max()
        .unwrap_or(0);
    let mut samples: BTreeMap<u64, Vec<Envelope>> = BTreeMap::new();
    for d in &mut drivers {
        for (round, envelopes) in d.samples.drain(..) {
            samples.entry(round).or_default().extend(envelopes);
        }
    }
    Ok(NetRun {
        outcome,
        reports,
        cpu_at_unit: std::mem::take(&mut drivers[0].cpu_at_unit),
        nodes: drivers
            .into_iter()
            .map(|d| NodeTimes {
                enter_ns: d.enter_ns,
                exit_ns: d.exit_ns,
                sent: d.sent,
            })
            .collect(),
        samples: samples.into_iter().collect(),
        ready_s: ready_ns as f64 * 1e-9,
    })
}

/// One fresh socket deployment up to its first round, in seconds: bind,
/// connect, handshake, group and node construction, the set-up barriers.
pub fn fresh_setup_s(sc: &Scenario, out_dir: &Path) -> io::Result<f64> {
    Ok(run_net(sc, 1, false, out_dir)?.ready_s)
}

//! Cross-backend consistency: the multi-process daemon engine must reach the
//! same protocol outcomes as the in-process round engine.
//!
//! Nodes here run as threads (one `NodeLoop` each) over real Unix-domain
//! sockets — the same code path `proauth serve` uses, minus `fork`. Every
//! test demands bit-identical output logs and ROMs against `run_ul`: the
//! faithful test over a full mesh, the chaos tests through the adversarial
//! proxy against an engine run whose `ChaosNet` executes the same
//! `LinkChaos` (delay, duplication, partition).

use proauth_sim::adversary::FaithfulUl;
use proauth_sim::chaos::{ChaosConfig, ChaosNet, FaultSchedule, LinkChaos, Partition};
use proauth_sim::clock::Schedule;
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_sim::net::{
    collect, run_node, AddrPlan, CollectorConfig, DaemonOutcome, NodeNetConfig, ProxyConfig,
    ProxyStats, TraceSpec,
};
use proauth_sim::process::{Process, RoundCtx, SetupCtx};
use proauth_sim::runner::{run_ul, SimConfig, SimResult};
use proauth_sim::ProcessDriver;
use proauth_telemetry::{memory_contents, strip_wall_fields, Telemetry};
use rand::RngCore;
use std::any::Any;
use std::path::PathBuf;

/// A heartbeat-style node: random setup key exchange into the ROM, then an
/// authenticated-echo round loop that accepts peers' heartbeats.
struct HbNode {
    me: NodeId,
}

impl Process for HbNode {
    fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
        match ctx.setup_round {
            0 => {
                let mut key = vec![0u8; 8];
                ctx.rng.fill_bytes(&mut key);
                ctx.rom.write("self_key", key.clone());
                ctx.send_all(key);
            }
            1 => {
                // Freeze the peer table: concatenation in NodeId order, which
                // is exactly the engine's inbox order — equality of this ROM
                // entry across backends proves setup delivery order matched.
                let mut table = Vec::new();
                for env in ctx.inbox {
                    table.push(env.from.0 as u8);
                    table.extend_from_slice(&env.payload);
                }
                ctx.rom.write("peer_table", table);
            }
            _ => {}
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        for env in ctx.inbox {
            if env.payload.starts_with(b"hb:") {
                proauth_telemetry::count("hb/accepted", 1);
                ctx.emit(OutputEvent::Accepted {
                    from: env.from,
                    msg: env.payload.to_vec(),
                });
            }
        }
        let hb = format!("hb:{}:{}", self.me.0, ctx.time.round).into_bytes();
        ctx.send_all(hb);
        if ctx.time.round_in_unit == 0 && ctx.time.unit > 0 {
            ctx.emit(OutputEvent::Custom(format!("unit:{}", ctx.time.unit)));
        }
    }

    fn state_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const SEED: u64 = 1234;
const N: usize = 4;
const SETUP_ROUNDS: u64 = 3;
const TOTAL_ROUNDS: u64 = 16;

fn schedule() -> Schedule {
    Schedule::new(8, 2, 2)
}

/// The engine run of the scenario, its deliveries subject to `link`.
fn engine_run(n: usize, link: LinkChaos) -> SimResult {
    let mut cfg = SimConfig::new(n, 1, schedule());
    cfg.seed = SEED;
    cfg.setup_rounds = SETUP_ROUNDS;
    cfg.total_rounds = TOTAL_ROUNDS;
    cfg.parallel = false;
    let chaos = ChaosConfig {
        link,
        ..ChaosConfig::default()
    };
    let mut adv = ChaosNet::new(FaithfulUl, chaos, FaultSchedule::default(), n);
    run_ul(cfg, |id| HbNode { me: id }, &mut adv)
}

/// Asserts the daemon outcome is the engine's, bit for bit: ROMs, and every
/// event the nodes emitted. The engine's log also carries `Compromised` /
/// `Recovered` lines, which it derives from global link ground truth (§2.2)
/// rather than from any node; a faithful run has none.
fn assert_bit_identical(outcome: &DaemonOutcome, engine: &SimResult) {
    // Identical ROMs: setup delivery (content and order) matched.
    assert_eq!(outcome.roms, engine.roms, "ROMs must match engine setup");
    // Identical output logs: every round's inbox matched, in order.
    for (i, (got, want)) in outcome.outputs.iter().zip(&engine.outputs).enumerate() {
        let want: Vec<_> = want
            .iter()
            .filter(|(_, e)| !matches!(e, OutputEvent::Compromised | OutputEvent::Recovered))
            .cloned()
            .collect();
        assert_eq!(got, &want, "node {} output log diverged", i + 1);
    }
    for rep in &outcome.reports {
        assert_eq!(rep.rounds, TOTAL_ROUNDS);
    }
}

/// Same scenario as [`engine_run`], but with the flight recorder on;
/// returns the engine's trace JSONL.
fn engine_trace(n: usize) -> String {
    let (tele, buf) = Telemetry::with_memory_sink();
    let mut cfg = SimConfig::new(n, 1, schedule());
    cfg.seed = SEED;
    cfg.setup_rounds = SETUP_ROUNDS;
    cfg.total_rounds = TOTAL_ROUNDS;
    cfg.parallel = false;
    cfg.telemetry = tele;
    run_ul(cfg, |id| HbNode { me: id }, &mut FaithfulUl);
    memory_contents(&buf)
}

fn temp_plan(tag: &str) -> (AddrPlan, PathBuf) {
    let dir = std::env::temp_dir().join(format!("proauth-daemon-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    (AddrPlan::Unix { dir: dir.clone() }, dir)
}

/// Runs `n` NodeLoops in threads (mesh or via a chaos proxy) plus a
/// collector; returns the assembled outcome and proxy stats (if any).
fn daemon_run(
    n: usize,
    plan: AddrPlan,
    chaos: Option<LinkChaos>,
    obs: bool,
) -> (DaemonOutcome, Option<ProxyStats>) {
    let via_proxy = chaos.is_some();
    let collector_cfg = CollectorConfig {
        n,
        plan: plan.clone(),
        run_id: SEED,
        idle_timeout_ms: 30_000,
        t: 1,
        unit_rounds: schedule().unit_rounds,
        status: false,
        trace_spec: obs.then(|| TraceSpec {
            n,
            s: 1,
            seed: SEED,
            schedule: schedule(),
            setup_rounds: SETUP_ROUNDS,
            total_rounds: TOTAL_ROUNDS,
        }),
    };
    // Bind order matters: collector (and proxy) listen before any node dials.
    let collector = std::thread::spawn({
        let cfg = collector_cfg;
        move || collect(cfg)
    });
    let proxy = chaos.map(|link| {
        let cfg = ProxyConfig {
            n,
            plan: plan.clone(),
            link,
            reset_pct: 0,
            run_id: SEED,
            idle_timeout_ms: 30_000,
        };
        std::thread::spawn(move || proauth_sim::net::run_proxy(cfg))
    });
    // Give the listeners a moment to bind (dial retries cover the rest).
    std::thread::sleep(std::time::Duration::from_millis(50));
    let nodes: Vec<_> = (1..=n as u32)
        .map(|id| {
            let plan = plan.clone();
            std::thread::spawn(move || {
                let me = NodeId(id);
                let mut cfg = NodeNetConfig::new(me, n, plan, schedule());
                cfg.seed = SEED;
                cfg.run_id = SEED;
                cfg.via_proxy = via_proxy;
                cfg.report = true;
                cfg.setup_rounds = SETUP_ROUNDS;
                cfg.total_rounds = TOTAL_ROUNDS;
                cfg.round_ms = 2_000;
                cfg.connect_timeout_ms = 30_000;
                cfg.telemetry = obs;
                cfg.stream_trace = obs;
                let mut driver = ProcessDriver::new(HbNode { me }, me, n, SEED);
                run_node(cfg, &mut driver, |_, _| None)
            })
        })
        .collect();
    for t in nodes {
        t.join().unwrap().expect("node loop failed");
    }
    let outcome = collector.join().unwrap().expect("collector failed");
    let proxy_stats = proxy.map(|t| t.join().unwrap().expect("proxy failed"));
    (outcome, proxy_stats)
}

#[test]
fn faithful_daemon_matches_engine_bit_for_bit() {
    let engine = engine_run(N, LinkChaos::default());
    let (plan, dir) = temp_plan("mesh");
    let (outcome, _) = daemon_run(N, plan, None, false);
    let _ = std::fs::remove_dir_all(dir);

    assert_bit_identical(&outcome, &engine);
    // Reports are self-consistent.
    for rep in &outcome.reports {
        assert_eq!(rep.mark_timeouts, 0, "faithful run must never hit deadlines");
        assert_eq!(rep.alerts, 0);
    }
    assert!(outcome.accepted_bytes() > 0);
    assert!(outcome.goodput() > 0.0);
}

#[test]
fn chaos_proxy_preserves_model_invariants() {
    let n = 5;
    let link = LinkChaos {
        seed: 77,
        delay_pct: 25,
        delay_max: 2,
        dup_pct: 10,
        partition: None,
    };
    let engine = engine_run(n, link);
    let (plan, dir) = temp_plan("chaos");
    let (outcome, proxy_stats) = daemon_run(n, plan, Some(link), false);
    let _ = std::fs::remove_dir_all(dir);
    let stats = proxy_stats.expect("proxy ran");

    // The proxy actually manipulated traffic.
    assert!(stats.delayed > 0, "chaos must delay some frames: {stats:?}");
    assert!(stats.duplicated > 0, "chaos must duplicate some frames: {stats:?}");
    assert!(stats.forwarded > 0);
    // Delayed frames were delivered late, and the receivers noticed.
    let late: u64 = outcome.reports.iter().map(|r| r.late_frames).sum();
    assert!(late > 0, "delays must surface as late frames");

    // The engine is the oracle: the same frames in the same rounds, so the
    // same outputs, duplicates and late heartbeats included.
    assert_bit_identical(&outcome, &engine);
    let faithful = engine_run(n, LinkChaos::default());
    assert_ne!(outcome.outputs, faithful.outputs, "the chaos was visible");
}

#[test]
fn chaos_proxy_partition_matches_engine() {
    // Nodes {1, 2} and {3, 4, 5} cannot hear each other in rounds 4..9; the
    // frames are held until the heal and delivered in round 10.
    let n = 5;
    let link = LinkChaos {
        seed: 78,
        delay_pct: 10,
        delay_max: 2,
        partition: Some(Partition {
            start: 4,
            end: 9,
            split: 2,
        }),
        ..LinkChaos::default()
    };
    let engine = engine_run(n, link);
    let (plan, dir) = temp_plan("partition");
    let (outcome, proxy_stats) = daemon_run(n, plan, Some(link), false);
    let _ = std::fs::remove_dir_all(dir);
    let stats = proxy_stats.expect("proxy ran");
    // Five rounds of 2 × 3 × 2 cross-group frames, plus random delays.
    assert!(stats.delayed >= 60, "the partition held frames: {stats:?}");

    assert_bit_identical(&outcome, &engine);
    // Once frames randomly delayed from before the partition are in (round
    // 7), node 1 hears only node 2 until the heal.
    let heard: Vec<NodeId> = outcome.outputs[0]
        .iter()
        .filter(|(r, _)| (7..10).contains(r))
        .filter_map(|(_, e)| match e {
            OutputEvent::Accepted { from, .. } => Some(*from),
            _ => None,
        })
        .collect();
    assert!(heard.iter().all(|&f| f == NodeId(2)), "node 1 heard {heard:?}");
}

#[test]
fn observability_plane_merges_metrics_and_reassembles_engine_trace() {
    let (plan, dir) = temp_plan("obs");
    let (outcome, _) = daemon_run(N, plan, None, true);
    let _ = std::fs::remove_dir_all(dir);

    // The cluster registry is exactly the sum of the per-node registries:
    // no delta was lost, duplicated, or misattributed on the way in.
    assert_eq!(outcome.node_metrics.len(), N);
    let mut summed: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for snap in &outcome.node_metrics {
        for (name, v) in &snap.counters {
            *summed.entry(name).or_insert(0) += v;
        }
    }
    let merged: std::collections::BTreeMap<&str, u64> = outcome
        .merged
        .counters
        .iter()
        .map(|(k, v)| (*k, *v))
        .collect();
    assert_eq!(merged, summed, "merged registry must equal per-node sum");
    // The protocol counters actually flowed: every accepted heartbeat was
    // counted once (heartbeats sent in round r arrive in round r+1).
    let accepted = outcome.merged.counters.get("hb/accepted").copied().unwrap_or(0);
    assert_eq!(accepted, (N as u64) * (N as u64 - 1) * (TOTAL_ROUNDS - 1));
    // A faithful run raises no alarms.
    assert!(
        outcome.alarms.is_empty(),
        "faithful run must be alarm-free: {:?}",
        outcome.alarms
    );

    // Golden-trace guarantee, daemon edition: the collector-assembled trace,
    // stripped of wall-clock fields, is byte-identical to the in-process
    // engine's for the same scenario.
    let daemon_trace = outcome.trace.expect("trace assembly must complete");
    let engine = engine_trace(N);
    assert_eq!(
        strip_wall_fields(&daemon_trace),
        strip_wall_fields(&engine),
        "stripped daemon trace must match engine trace byte-for-byte"
    );
}

//! `proauth` — scenario runner CLI.
//!
//! Runs a configurable ULS network against a chosen adversary and prints a
//! full report: per-node traffic, alerts, impersonation analysis, ideal-model
//! conformance, and (s,t)-limit accounting.
//!
//! ```text
//! cargo run -p proauth-examples --bin proauth -- [options]
//! cargo run -p proauth-examples --bin proauth -- chaos [options]
//! cargo run -p proauth-examples --bin proauth -- service [options]
//! cargo run -p proauth-examples --bin proauth -- serve [options]
//! cargo run -p proauth-examples --bin proauth -- proxy [options]
//! cargo run -p proauth-examples --bin proauth -- client [options]
//! cargo run -p proauth-examples --bin proauth -- daemon [options]
//!
//! Daemon mode runs the protocol over real sockets, one OS process per node:
//!
//!   serve   one node process: --node <id> --n <int> --addr <plan> plus the
//!           scenario flags below; --via-proxy routes through the chaos
//!           proxy, --report streams events to the collector,
//!           --round-ms/--min-round-ms tune wall-clock round pacing
//!   proxy   the adversarial router: --n --addr plus --delay <pct>
//!           --delay-max <rounds> --dup <pct> --reorder <pct>
//!           --reset <pct> --partition <start:end:split> --chaos-seed <int>
//!   client  the collector: --n --addr; prints the goodput report once all
//!           nodes delivered their final reports
//!   daemon  orchestrator: spawns n `serve` processes (plus a `proxy` when
//!           any chaos flag is set), runs the collector inline, prints the
//!           goodput report; --check verifies the outcome against the
//!           in-process engine (bit-identical outputs AND flight-recorder
//!           trace without chaos; certified keys + zero forgeries +
//!           liveness under chaos)
//!   top     scrape a running daemon's live status socket: --addr plus
//!           --view metrics|json|top (default top), --once for a single
//!           snapshot, --interval <ms> to refresh (default 1000)
//!
//! Daemon observability (on by default): every node streams per-round
//! metrics deltas, a health beacon, and typed alarms to the collector,
//! which serves them at the status endpoint (`status.sock` / base-2 port).
//! --adaptive enables bounded AIMD round pacing (halve on congestion, creep
//! back when clean; --adapt-floor-ms sets the floor); --trace <path> saves
//! the collector-assembled cluster trace.
//!
//! Self-healing (daemon + serve):
//!   --state-dir <dir>    durable per-node state root; each node persists its
//!                        ROM image once after setup and a round watermark
//!                        every round, and a restarted process rejoins the
//!                        running cluster from there instead of re-running
//!                        setup (serve accepts the flag directly too)
//!   --kill <plan>        process-level chaos: `auto` SIGKILLs every node
//!                        once at a seed-derived round, or give an explicit
//!                        `node:round,node:round` schedule; needs --state-dir
//!   --truncate-state     corrupt each victim's watermark file before its
//!                        respawn (exercises the full catch-up + share
//!                        recovery path)
//!   --max-restarts <k>   restart budget per node per window (default 3)
//!   --restart-window <s> budget window in seconds (default 60)
//!   --backoff-ms <ms>    respawn backoff base; doubles per attempt, capped
//!                        at 10s, plus deterministic jitter (default 100)
//!   --hosts <manifest>   multi-host deployment: manifest lines are
//!                        `<label> <lo>-<hi>`; the daemon prints the serve
//!                        command for every remote range and spawns only the
//!                        ranges whose label matches --local <label>
//!
//! Prefer unix socket plans (the default) for kill/heal runs: a respawned
//! node rebinds its socket path immediately, while TCP listeners can land in
//! TIME_WAIT on some systems.
//!
//!   --addr <plan>        unix:DIR (default) or tcp:HOST:PORT — node i
//!                        listens at DIR/node-i.sock / PORT+i
//!
//! The `chaos` subcommand runs the degradation sweep instead of a single
//! scenario: the standard intensity ramp (calm / sub-budget / over-budget)
//! across the (s,t) boundary, one full ULS run per point. Exit code 0 means
//! the boundary was demonstrated (sub-budget guarantees held, over-budget
//! degraded loudly), 1 means it was not. `chaos` takes --n --t --units
//! --normal --seed.
//!
//! The `service` subcommand runs the ALS layer as a signing service: an
//! open-loop client workload (Poisson-like arrivals, 3:1 sign:verify) drives
//! concurrent sign sessions, and the run reports completion, online/sustained
//! signatures per second, and latency quantiles from telemetry. The PDS runs
//! as `AlsConfig::new` configures it (nonce preprocessing and the batch-verify
//! window on). `service` takes --n --t --units --seed --group, plus:
//!   --rate <int>         mean offered ops per round, in milli-ops
//!                        (default 2000 = 2 ops/round)
//!   --mix <spec>         op mix, e.g. sign=8,verify=1,refresh=0.01
//!                        (default sign=3,verify=1)
//!
//! Options:
//!   --n <int>            nodes (default 5)
//!   --t <int>            threshold (default (n-1)/2)
//!   --units <int>        time units to simulate (default 3)
//!   --normal <int>       normal-operation rounds per unit, even (default 12)
//!   --seed <int>         master seed (default 0)
//!   --group <id>         toy64 | s256 | s512 | s1024 (default toy64)
//!   --auth <mode>        sign | mac (default sign)
//!   --adversary <name>   none | drop:<pct> | replay | isolate:<node> |
//!                        wipe:<node> | hijack:<node> (default none)
//!   --clusters           run the §6 two-level hierarchy (√n clusters, each
//!                        with its own PDS, top-level PDS over
//!                        representatives) instead of the flat scheme;
//!                        supports adversary none | drop:<pct> | replay |
//!                        isolate:<node>
//!   --trace <path>       write a JSONL flight-recorder trace to <path>
//!                        (also enables the metrics report; PROAUTH_TRACE=path
//!                        works too)
//!   --parallel           run nodes on worker threads
//!   --verbose            print every output event
//! ```

use proauth_adversary::{run_sweep, Hijacker, LimitObserver, LinkCutter, Replayer, SweepConfig};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::awareness;
use proauth_core::uls::{uls_schedule, AuthMode, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_crypto::group::{Group, GroupId};
use proauth_sim::adversary::{
    BreakPlan, FaithfulUl, NetView, UlAdversary,
};
use proauth_sim::clock::TimeView;
use proauth_sim::message::{Envelope, NodeId, OutputEvent};
use proauth_sim::runner::{run_ul, SimConfig, SimResult};
use std::collections::HashMap;
use std::process::exit;

struct Wiper {
    target: NodeId,
    break_at: u64,
    leave_at: u64,
}

impl UlAdversary for Wiper {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        if view.time.round == self.break_at {
            BreakPlan::break_into([self.target])
        } else if view.time.round == self.leave_at {
            BreakPlan::leave([self.target])
        } else {
            BreakPlan::none()
        }
    }
    fn corrupt(&mut self, _n: NodeId, state: &mut dyn std::any::Any, _t: &TimeView) {
        if let Some(node) = state.downcast_mut::<UlsNode<HeartbeatApp>>() {
            node.corrupt_wipe();
            proauth_sim::telemetry::count("adversary/wipes", 1);
        }
    }
    fn deliver(&mut self, sent: &[Envelope], _v: &NetView<'_>) -> Vec<Envelope> {
        sent.to_vec()
    }
}

fn usage() -> ! {
    eprintln!("see the module docs at the top of examples/proauth_cli.rs for usage");
    exit(2)
}

fn parse_args(args: impl IntoIterator<Item = String>) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            eprintln!("unexpected argument: {arg}");
            usage()
        };
        match key {
            "parallel" | "verbose" | "clusters" | "via-proxy" | "report"
            | "check" | "closed-loop" | "telemetry" | "stream-trace" | "adaptive" | "status"
            | "once" | "truncate-state" => {
                out.insert(key.to_owned(), "true".to_owned());
            }
            "n" | "t" | "units" | "normal" | "seed" | "group" | "auth" | "adversary"
            | "trace" | "rate" | "mix" | "node" | "addr" | "round-ms"
            | "min-round-ms" | "connect-timeout" | "idle-timeout" | "chaos-seed" | "delay"
            | "delay-max" | "dup" | "reorder" | "partition" | "windows" | "adapt-floor-ms"
            | "interval" | "view" | "state-dir" | "kill" | "max-restarts" | "restart-window"
            | "backoff-ms" | "reset" | "hosts" | "local" => {
                let Some(value) = args.next() else {
                    eprintln!("--{key} needs a value");
                    usage()
                };
                out.insert(key.to_owned(), value);
            }
            _ => {
                eprintln!("unknown option --{key}");
                usage()
            }
        }
    }
    out
}

fn get<T: std::str::FromStr>(args: &HashMap<String, String>, key: &str, default: T) -> T {
    match args.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{key}: {v}");
            usage()
        }),
    }
}

/// The `chaos` subcommand: run the standard degradation ramp and report
/// whether the (s,t) boundary showed up where the paper says it should.
fn chaos_main(args: &HashMap<String, String>) -> ! {
    let n: usize = get(args, "n", 5);
    let t: usize = get(args, "t", (n - 1) / 2);
    let units: u64 = get(args, "units", 4);
    let normal: u64 = get(args, "normal", 8);
    let seed: u64 = get(args, "seed", 0);
    if n < 2 * t + 1 {
        eprintln!("need n >= 2t+1 (got n={n}, t={t})");
        exit(2);
    }
    if !normal.is_multiple_of(2) {
        eprintln!("--normal must be even");
        exit(2);
    }
    println!("proauth chaos sweep: n={n} t={t} units={units} normal={normal} seed={seed}");
    println!("impairment budget: t={t} nodes per unit (Definition 7)\n");

    let cfg = SweepConfig::boundary_ramp(n, t, units, normal, seed);
    let points = run_sweep(&cfg);
    let mut demonstrated = true;
    for p in &points {
        println!("{p}");
        // Sub-budget points must uphold every guarantee; over-budget points
        // must degrade *loudly* — a silent pass past the boundary means the
        // accounting is broken.
        if p.intended_sub_budget != p.healthy() || p.intended_sub_budget == p.alarm() {
            demonstrated = false;
        }
    }
    println!();
    if demonstrated {
        println!(
            "boundary demonstrated: sub-budget guarantees held, over-budget degraded with alarms"
        );
        exit(0)
    }
    println!("boundary NOT demonstrated (see points above)");
    exit(1)
}

/// The `service` subcommand: drive the ALS layer with the open-loop client
/// workload and report signing-as-a-service throughput and latency.
/// `service --closed-loop`: sweep the outstanding-request window and print
/// the latency-vs-offered-load curve. Open-loop runs show overload as
/// unbounded queueing; the closed loop instead throttles the client to the
/// service's own completion rate, so the sweep traces the classic curve —
/// throughput climbs with the window until the service saturates (the
/// *knee*), after which extra outstanding work only buys latency.
fn service_closed_loop_main(args: &HashMap<String, String>) -> ! {
    use proauth_pds::als::{AlsConfig, AlsPds};
    use proauth_pds::als_node::AlsProcess;
    use proauth_sim::adversary::PassiveAl;
    use proauth_sim::clock::Schedule;
    use proauth_sim::runner::run_al_with_inputs;
    use proauth_sim::workload::ClosedLoopWorkload;
    use std::collections::BTreeSet;

    let n: usize = get(args, "n", 5);
    let t: usize = get(args, "t", (n - 1) / 2);
    let units: u64 = get(args, "units", 2);
    let seed: u64 = get(args, "seed", 0);
    if n < 2 * t + 1 {
        eprintln!("need n >= 2t+1 (got n={n}, t={t})");
        exit(2);
    }
    let group_id = match args.get("group").map(String::as_str) {
        None | Some("toy64") => GroupId::Toy64,
        Some("s256") => GroupId::S256,
        Some("s512") => GroupId::S512,
        Some("s1024") => GroupId::S1024,
        Some(other) => {
            eprintln!("unknown group {other}");
            usage()
        }
    };
    let windows: Vec<usize> = match args.get("windows") {
        None => vec![1, 2, 4, 8, 16, 32],
        Some(spec) => {
            let parsed: Result<Vec<usize>, _> =
                spec.split(',').map(|w| w.trim().parse()).collect();
            match parsed {
                Ok(ws) if !ws.is_empty() && ws.iter().all(|&w| w > 0) => ws,
                _ => {
                    eprintln!("--windows wants a comma list of positive ints, e.g. 1,2,4,8");
                    exit(2);
                }
            }
        }
    };
    println!(
        "proauth signing service, closed loop: n={n} t={t} units={units} group={group_id} \
         seed={seed} windows={windows:?}\n"
    );

    let mut rows = Vec::new();
    let mut curve: Vec<(usize, f64, u64, u64)> = Vec::new(); // (window, sigs/round, p50, p95)
    for &w in &windows {
        let schedule = Schedule::new(20, 1, 8);
        let mut cfg = SimConfig::new(n, t, schedule);
        cfg.setup_rounds = 2;
        cfg.total_rounds = schedule.unit_rounds * units;
        cfg.seed = seed;
        cfg.parallel = args.contains_key("parallel");
        let telemetry = proauth_sim::Telemetry::enabled();
        cfg.telemetry = telemetry.clone();
        let total_rounds = cfg.total_rounds;

        let mut wl = ClosedLoopWorkload::new(seed ^ 0xC105ED, w);
        let group = Group::new(group_id);
        let feedback = telemetry.clone();
        let result = run_al_with_inputs(
            cfg,
            |id| AlsProcess::new(AlsPds::new(AlsConfig::new(group.clone(), n, t), id)),
            &mut PassiveAl,
            // Every node increments `pds/sign_completed` once per finished
            // session, so the per-client completion count is the counter
            // divided by n. The registry only changes at round barriers,
            // which keeps the feedback (and so the issued stream)
            // deterministic for any engine.
            |id, round| {
                let completed = feedback.counter("pds/sign_completed") / n as u64;
                wl.input(id, round, completed)
            },
        );

        let mut distinct: BTreeSet<(Vec<u8>, u64)> = BTreeSet::new();
        for node_log in &result.outputs {
            for (_, ev) in node_log {
                if let OutputEvent::Signed { msg, unit } = ev {
                    distinct.insert((msg.clone(), *unit));
                }
            }
        }
        let signed = distinct.len();
        let snap = telemetry.snapshot().expect("telemetry enabled");
        let (p50, p95) = snap
            .value_hists
            .get("pds/sign_latency_rounds")
            .map(|h| {
                let q = h.quantiles_value(&[0.5, 0.95]);
                (q[0], q[1])
            })
            .unwrap_or((0, 0));
        let per_round = signed as f64 / total_rounds as f64;
        curve.push((w, per_round, p50, p95));
        rows.push(vec![
            w.to_string(),
            wl.issued().to_string(),
            signed.to_string(),
            format!("{per_round:.2}"),
            p50.to_string(),
            p95.to_string(),
        ]);
    }

    // The knee: the last window that still bought a meaningful (≥10%)
    // throughput gain — past it, deeper pipelines only add latency.
    let mut knee = curve.first().map(|c| c.0).unwrap_or(1);
    for pair in curve.windows(2) {
        let (_, prev_tp, _, _) = pair[0];
        let (w, tp, _, _) = pair[1];
        if tp > prev_tp * 1.10 {
            knee = w;
        }
    }
    println!("latency vs offered load (closed loop, sign-only):");
    println!(
        "  {:>7} {:>7} {:>7} {:>10} {:>11} {:>11}",
        "window", "issued", "signed", "sigs/round", "p50 rounds", "p95 rounds"
    );
    for row in &rows {
        println!(
            "  {:>7} {:>7} {:>7} {:>10} {:>11} {:>11}{}",
            row[0],
            row[1],
            row[2],
            row[3],
            row[4],
            row[5],
            if row[0] == knee.to_string() {
                "   <- knee"
            } else {
                ""
            }
        );
    }
    println!(
        "\nknee at window {knee}: larger windows raise latency without a matching \
         throughput gain"
    );
    exit(0)
}

fn service_main(args: &HashMap<String, String>) -> ! {
    use proauth_pds::als::{AlsConfig, AlsPds};
    use proauth_pds::als_node::AlsProcess;
    use proauth_sim::adversary::PassiveAl;
    use proauth_sim::clock::Schedule;
    use proauth_sim::runner::run_al_with_inputs;
    use proauth_sim::workload::{Workload, WorkloadConfig};
    use std::collections::BTreeSet;

    if args.contains_key("closed-loop") {
        service_closed_loop_main(args);
    }
    let n: usize = get(args, "n", 5);
    let t: usize = get(args, "t", (n - 1) / 2);
    let units: u64 = get(args, "units", 2);
    let seed: u64 = get(args, "seed", 0);
    let rate: u64 = get(args, "rate", 2_000);
    let mix = args.get("mix").cloned();
    if n < 2 * t + 1 {
        eprintln!("need n >= 2t+1 (got n={n}, t={t})");
        exit(2);
    }
    let group_id = match args.get("group").map(String::as_str) {
        None | Some("toy64") => GroupId::Toy64,
        Some("s256") => GroupId::S256,
        Some("s512") => GroupId::S512,
        Some("s1024") => GroupId::S1024,
        Some(other) => {
            eprintln!("unknown group {other}");
            usage()
        }
    };
    println!(
        "proauth signing service: n={n} t={t} units={units} group={group_id} \
         rate={rate}m ops/round mix={} seed={seed}\n",
        mix.as_deref().unwrap_or("sign=3,verify=1")
    );

    let schedule = Schedule::new(20, 1, 8);
    let mut cfg = SimConfig::new(n, t, schedule);
    cfg.setup_rounds = 2;
    cfg.total_rounds = schedule.unit_rounds * units;
    cfg.seed = seed;
    cfg.parallel = args.contains_key("parallel");
    let telemetry = proauth_sim::Telemetry::enabled();
    cfg.telemetry = telemetry.clone();

    let wcfg = match &mix {
        None => WorkloadConfig::with_rate(seed ^ 0xE13, rate),
        Some(spec) => match WorkloadConfig::with_mix(seed ^ 0xE13, rate, spec) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("bad --mix: {e}");
                exit(2);
            }
        },
    };
    let workload = Workload::new(wcfg, n);
    let offered = workload.offered_signs(cfg.total_rounds);
    let group = Group::new(group_id);
    let start = std::time::Instant::now();
    let result = run_al_with_inputs(
        cfg,
        |id| AlsProcess::new(AlsPds::new(AlsConfig::new(group.clone(), n, t), id)),
        &mut PassiveAl,
        |id, round| workload.input(id, round),
    );
    let elapsed = start.elapsed();

    let mut distinct: BTreeSet<(Vec<u8>, u64)> = BTreeSet::new();
    for node_log in &result.outputs {
        for (_, ev) in node_log {
            if let OutputEvent::Signed { msg, unit } = ev {
                distinct.insert((msg.clone(), *unit));
            }
        }
    }
    let signed = distinct.len();
    let snap = telemetry.snapshot().expect("telemetry enabled");
    let normal_ns = snap.hists.get("phase/normal_ns").map_or(0, |h| h.sum_ns);
    println!("signed {signed} of {offered} offered sign requests");
    if normal_ns > 0 {
        println!(
            "online throughput:    {:.1} sig/s of normal-phase engine time",
            signed as f64 * 1e9 / normal_ns as f64
        );
    }
    if !elapsed.is_zero() {
        println!(
            "sustained throughput: {:.1} sig/s wall-clock (setup + refresh included)",
            signed as f64 / elapsed.as_secs_f64()
        );
    }
    if let Some(h) = snap.value_hists.get("pds/sign_latency_rounds") {
        let q = h.quantiles_value(&[0.5, 0.95, 0.99]);
        println!(
            "sign latency (rounds): p50 {}  p95 {}  p99 {}",
            q[0], q[1], q[2]
        );
    }
    if let Some(metrics) = proauth_sim::report::render_metrics(&telemetry) {
        println!("\nmetrics:");
        print!("{metrics}");
    }
    exit(0)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("chaos") {
        raw.remove(0);
        chaos_main(&parse_args(raw));
    }
    if raw.first().map(String::as_str) == Some("service") {
        raw.remove(0);
        service_main(&parse_args(raw));
    }
    if raw.first().map(String::as_str) == Some("serve") {
        raw.remove(0);
        serve_main(&parse_args(raw));
    }
    if raw.first().map(String::as_str) == Some("proxy") {
        raw.remove(0);
        proxy_main(&parse_args(raw));
    }
    if raw.first().map(String::as_str) == Some("client") {
        raw.remove(0);
        client_main(&parse_args(raw));
    }
    if raw.first().map(String::as_str) == Some("daemon") {
        raw.remove(0);
        daemon_main(&parse_args(raw));
    }
    if raw.first().map(String::as_str) == Some("top") {
        raw.remove(0);
        top_main(&parse_args(raw));
    }
    let args = parse_args(raw);
    let n: usize = get(&args, "n", 5);
    let t: usize = get(&args, "t", (n - 1) / 2);
    let units: u64 = get(&args, "units", 3);
    let normal: u64 = get(&args, "normal", 12);
    let seed: u64 = get(&args, "seed", 0);
    if n < 2 * t + 1 {
        eprintln!("need n >= 2t+1 (got n={n}, t={t})");
        exit(2);
    }
    if !normal.is_multiple_of(2) {
        eprintln!("--normal must be even");
        exit(2);
    }
    let group_id = match args.get("group").map(String::as_str) {
        None | Some("toy64") => GroupId::Toy64,
        Some("s256") => GroupId::S256,
        Some("s512") => GroupId::S512,
        Some("s1024") => GroupId::S1024,
        Some(other) => {
            eprintln!("unknown group {other}");
            usage()
        }
    };
    let auth_mode = match args.get("auth").map(String::as_str) {
        None | Some("sign") => AuthMode::Sign,
        Some("mac") => AuthMode::SessionMac,
        Some(other) => {
            eprintln!("unknown auth mode {other}");
            usage()
        }
    };

    if args.contains_key("clusters") {
        hier_main(&args, group_id, auth_mode);
    }

    let schedule = uls_schedule(normal);
    let mut cfg = SimConfig::new(n, t, schedule);
    cfg.setup_rounds = SETUP_ROUNDS;
    cfg.total_rounds = schedule.unit_rounds * units;
    cfg.seed = seed;
    cfg.parallel = args.contains_key("parallel");
    apply_trace(&args, &mut cfg);
    // Keep a handle for the post-run metrics report (the config moves into
    // the runner).
    let telemetry = cfg.telemetry.clone();

    let group = Group::new(group_id);
    let make_node = |id: NodeId| {
        let mut c = UlsConfig::new(group.clone(), n, t);
        c.auth_mode = auth_mode;
        UlsNode::new(c, id, HeartbeatApp::default())
    };

    println!(
        "proauth scenario: n={n} t={t} units={units} group={group_id} auth={auth_mode:?} seed={seed}"
    );
    let adversary_spec = args
        .get("adversary")
        .cloned()
        .unwrap_or_else(|| "none".to_owned());
    println!("adversary: {adversary_spec}\n");

    let parse_node = |spec: &str| -> NodeId {
        let id: u32 = spec.parse().unwrap_or_else(|_| {
            eprintln!("bad node id {spec}");
            usage()
        });
        if id == 0 || id as usize > n {
            eprintln!("node id out of range: {id}");
            exit(2);
        }
        NodeId(id)
    };

    // Dispatch on the adversary; each arm runs the same simulation.
    let result: SimResult;
    let mut limit_note = String::new();
    if adversary_spec == "none" {
        result = run_ul(cfg, make_node, &mut FaithfulUl);
    } else if let Some(pct) = adversary_spec.strip_prefix("drop:") {
        let p: f64 = pct.parse::<f64>().unwrap_or_else(|_| usage()) / 100.0;
        let mut adv = proauth_adversary::RandomDropper::new(p, seed ^ 0xD20);
        result = run_ul(cfg, make_node, &mut adv);
    } else if adversary_spec == "replay" {
        let mut adv = Replayer::new(6);
        result = run_ul(cfg, make_node, &mut adv);
    } else if let Some(node) = adversary_spec.strip_prefix("isolate:") {
        let victim = parse_node(node);
        let from = schedule.unit_rounds;
        let mut adv = LimitObserver::new(
            LinkCutter::isolate(victim, n).during(from, 2 * schedule.unit_rounds),
        );
        result = run_ul(cfg, make_node, &mut adv);
        limit_note = format!("max impaired per unit: {}", adv.max_impaired());
    } else if let Some(node) = adversary_spec.strip_prefix("wipe:") {
        let victim = parse_node(node);
        let mut adv = Wiper {
            target: victim,
            break_at: 4,
            leave_at: 8,
        };
        result = run_ul(cfg, make_node, &mut adv);
    } else if let Some(node) = adversary_spec.strip_prefix("hijack:") {
        let victim = parse_node(node);
        if units < 2 {
            eprintln!("hijack needs at least 2 units");
            exit(2);
        }
        let mut adv = LimitObserver::new(Hijacker::new(
            group.clone(),
            victim,
            1,
            schedule.unit_rounds,
        ));
        result = run_ul(cfg, make_node, &mut adv);
        limit_note = format!(
            "cert harvested: {}, forgeries: {}, max impaired per unit: {}",
            adv.inner.harvested_cert.is_some(),
            adv.inner.forgeries_sent,
            adv.max_impaired()
        );
    } else {
        eprintln!("unknown adversary {adversary_spec}");
        usage()
    }

    print_report(&args, n, &schedule, &telemetry, &result, &limit_note);
}

/// Applies `--trace` / `PROAUTH_TRACE` to the config (a requested-and-
/// unusable trace is a hard error for the CLI, not a silent run).
fn apply_trace(args: &HashMap<String, String>, cfg: &mut SimConfig) {
    if let Some(path) = args.get("trace") {
        cfg.telemetry = match proauth_sim::Telemetry::with_trace_path(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot open trace file {path}: {e}");
                exit(2);
            }
        };
    } else if let Ok(path) = std::env::var(proauth_sim::telemetry::TRACE_ENV) {
        // SimConfig::new already resolved PROAUTH_TRACE; the library falls
        // back to no tracing when the path is unwritable.
        if !path.is_empty() && !cfg.telemetry.is_on() {
            eprintln!("cannot open trace file {path} (from PROAUTH_TRACE)");
            exit(2);
        }
    }
}

/// The `--clusters` scenario: the §6 two-level hierarchy — √n clusters, each
/// running its own cluster-local ULS stack, a top-level PDS over the cluster
/// representatives, and inter-cluster traffic certified through the
/// authenticator.
fn hier_main(args: &HashMap<String, String>, group_id: GroupId, auth_mode: AuthMode) -> ! {
    use proauth_core::hier::{heartbeat_msg, HierConfig, HierNode, HIER_SETUP_ROUNDS};

    let n: usize = get(args, "n", 16);
    let units: u64 = get(args, "units", 3);
    let normal: u64 = get(args, "normal", 12);
    let seed: u64 = get(args, "seed", 0);
    if !normal.is_multiple_of(2) {
        eprintln!("--normal must be even");
        exit(2);
    }
    let mut hcfg = HierConfig::new(Group::new(group_id), n);
    hcfg.auth_mode = auth_mode;
    let k = hcfg.partition.cluster_count();

    let schedule = uls_schedule(normal);
    let mut cfg = SimConfig::new(n, 1, schedule);
    cfg.setup_rounds = HIER_SETUP_ROUNDS;
    cfg.total_rounds = schedule.unit_rounds * units;
    cfg.seed = seed;
    cfg.parallel = args.contains_key("parallel");
    cfg.clusters = Some(hcfg.partition.clusters.clone());
    apply_trace(args, &mut cfg);
    let telemetry = cfg.telemetry.clone();

    println!(
        "proauth hierarchy: n={n} clusters={k} group={group_id} auth={auth_mode:?} \
         units={units} seed={seed}"
    );
    for (c, members) in hcfg.partition.clusters.iter().enumerate() {
        println!(
            "  cluster {c}: nodes {}..{} (t={}, representative {})",
            members.first().unwrap(),
            members.last().unwrap(),
            hcfg.partition.cluster_threshold(c),
            hcfg.partition.representative(c, 0),
        );
    }
    let adversary_spec = args
        .get("adversary")
        .cloned()
        .unwrap_or_else(|| "none".to_owned());
    println!("adversary: {adversary_spec}\n");

    let make_node = |id: NodeId| HierNode::new(hcfg.clone(), id, HeartbeatApp::default());
    let result: SimResult;
    let mut limit_note = String::new();
    if adversary_spec == "none" {
        result = run_ul(cfg, make_node, &mut FaithfulUl);
    } else if let Some(pct) = adversary_spec.strip_prefix("drop:") {
        let p: f64 = pct.parse::<f64>().unwrap_or_else(|_| usage()) / 100.0;
        let mut adv = proauth_adversary::RandomDropper::new(p, seed ^ 0xD20);
        result = run_ul(cfg, make_node, &mut adv);
    } else if adversary_spec == "replay" {
        let mut adv = Replayer::new(6);
        result = run_ul(cfg, make_node, &mut adv);
    } else if let Some(node) = adversary_spec.strip_prefix("isolate:") {
        let victim: u32 = node.parse().unwrap_or_else(|_| usage());
        if victim == 0 || victim as usize > n {
            eprintln!("node id out of range: {victim}");
            exit(2);
        }
        let from = schedule.unit_rounds;
        let mut adv = LimitObserver::with_clusters(
            LinkCutter::isolate(NodeId(victim), n).during(from, 2 * schedule.unit_rounds),
            hcfg.partition.clusters.clone(),
        );
        result = run_ul(cfg, make_node, &mut adv);
        limit_note = format!(
            "max impaired per unit: {}, majority-compromised clusters: {}",
            adv.max_impaired(),
            adv.max_compromised_clusters()
        );
    } else {
        eprintln!("--clusters supports adversary none | drop:<pct> | replay | isolate:<node>");
        exit(2);
    }

    // Per-cluster liveness: which units each cluster co-signed the
    // top-level heartbeat for (any member — robust to re-elections).
    println!("top-level heartbeat signatures per cluster:");
    for (c, members) in hcfg.partition.clusters.iter().enumerate() {
        let mut units_signed: Vec<u64> = members
            .iter()
            .flat_map(|&m| result.events_of(NodeId(m)))
            .filter_map(|(_, ev)| match ev {
                OutputEvent::Signed { msg, unit } if *msg == heartbeat_msg(*unit) => Some(*unit),
                _ => None,
            })
            .collect();
        units_signed.sort_unstable();
        units_signed.dedup();
        println!("  cluster {c}: units {units_signed:?}");
    }
    println!();

    // The engine's own two-level Definition-7 scoreboard: distinct impaired
    // nodes per unit, scored against each cluster's PDS threshold and the
    // top-level PDS over representatives.
    println!("per-unit two-level (s,t) scoreboard:");
    for score in &result.stats.unit_scores {
        let per_cluster: Vec<String> = score
            .clusters
            .iter()
            .map(|c| {
                format!(
                    "{}/{}{}",
                    c.impaired,
                    c.size,
                    if c.majority_compromised() { "!" } else { "" }
                )
            })
            .collect();
        println!(
            "  unit {}: impaired {} non-op {}  clusters [{}]  majority-compromised {}  {}",
            score.unit,
            score.impaired,
            score.non_operational,
            per_cluster.join(" "),
            score.majority_compromised_clusters(),
            if score.within_two_level_budget() {
                "within two-level budget"
            } else {
                "OVER two-level budget"
            }
        );
    }
    println!();

    print_report(args, n, &schedule, &telemetry, &result, &limit_note);
    exit(0)
}

/// The common post-run report shared by the flat and hierarchy scenarios.
fn print_report(
    args: &HashMap<String, String>,
    n: usize,
    schedule: &proauth_sim::clock::Schedule,
    telemetry: &proauth_sim::Telemetry,
    result: &SimResult,
    limit_note: &str,
) {
    println!("per-node summary:");
    for id in NodeId::all(n) {
        let log = &result.outputs[id.idx()];
        let count = |f: &dyn Fn(&OutputEvent) -> bool| log.iter().filter(|(_, e)| f(e)).count();
        println!(
            "  {id}: accepted {:4}  sent {:4}  alerts {}  broken-rounds {:3}  operational {}",
            count(&|e| matches!(e, OutputEvent::Accepted { .. })),
            count(&|e| matches!(e, OutputEvent::Sent { .. })),
            count(&|e| *e == OutputEvent::Alert),
            result.stats.broken_rounds[id.idx()],
            result.final_operational[id.idx()],
        );
    }
    println!("\ntraffic: {}", result.stats);
    if !limit_note.is_empty() {
        println!("adversary: {limit_note}");
    }

    // Awareness analysis.
    let imps = awareness::find_impersonations(&result.outputs, schedule, |_, _| false);
    let uncovered = awareness::unalerted_impersonations(
        &result.outputs,
        schedule,
        |_, _| false,
        |node, unit| result.alerted_in_unit(node, unit, schedule),
    );
    println!(
        "awareness: {} impersonation incidents, {} NOT covered by same-unit alerts",
        imps.len(),
        uncovered.len()
    );

    // Unit-by-unit operator view.
    println!("\nunit timeline:");
    for summary in proauth_sim::report::unit_summaries(result, schedule) {
        print!("{summary}");
    }

    if let Some(metrics) = proauth_sim::report::render_metrics(telemetry) {
        println!("\nmetrics:");
        print!("{metrics}");
        if let Some(path) = args.get("trace") {
            println!("trace written to {path}");
        }
    }

    if args.contains_key("verbose") {
        println!("\nfull event log:");
        for id in NodeId::all(n) {
            for (round, ev) in &result.outputs[id.idx()] {
                println!("  [{round:4}] {id}: {ev:?}");
            }
        }
    }

    for line in &result.adversary_output {
        println!("adversary output: {line}");
    }
}

// ---------------------------------------------------------------------------
// Daemon mode: the protocol over real sockets, one OS process per node.
// ---------------------------------------------------------------------------

/// The scenario parameters every daemon-mode process must agree on.
#[derive(Clone)]
struct NetScenario {
    n: usize,
    t: usize,
    units: u64,
    normal: u64,
    seed: u64,
    group_id: GroupId,
    auth_mode: AuthMode,
    plan: proauth_sim::net::AddrPlan,
}

impl NetScenario {
    fn from_args(args: &HashMap<String, String>) -> Self {
        let n: usize = get(args, "n", 5);
        let t: usize = get(args, "t", (n - 1) / 2);
        let normal: u64 = get(args, "normal", 8);
        if n < 2 * t + 1 {
            eprintln!("need n >= 2t+1 (got n={n}, t={t})");
            exit(2);
        }
        if !normal.is_multiple_of(2) {
            eprintln!("--normal must be even");
            exit(2);
        }
        let group_id = match args.get("group").map(String::as_str) {
            None | Some("toy64") => GroupId::Toy64,
            Some("s256") => GroupId::S256,
            Some("s512") => GroupId::S512,
            Some("s1024") => GroupId::S1024,
            Some(other) => {
                eprintln!("unknown group {other}");
                usage()
            }
        };
        let auth_mode = match args.get("auth").map(String::as_str) {
            None | Some("sign") => AuthMode::Sign,
            Some("mac") => AuthMode::SessionMac,
            Some(other) => {
                eprintln!("unknown auth mode {other}");
                usage()
            }
        };
        let addr = args
            .get("addr")
            .cloned()
            .unwrap_or_else(|| format!("unix:{}", default_sock_dir().display()));
        let plan = proauth_sim::net::AddrPlan::parse(&addr).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        });
        NetScenario {
            n,
            t,
            units: get(args, "units", 2),
            normal,
            seed: get(args, "seed", 0),
            group_id,
            auth_mode,
            plan,
        }
    }

    fn schedule(&self) -> proauth_sim::clock::Schedule {
        uls_schedule(self.normal)
    }

    fn total_rounds(&self) -> u64 {
        self.schedule().unit_rounds * self.units
    }

    /// The scenario digest: any parameter mismatch between processes changes
    /// it, so a stray `serve` from another invocation is rejected at Hello.
    fn run_id(&self) -> u64 {
        let d = proauth_primitives::sha256::hash_parts(
            "proauth/net/run-id",
            &[
                &(self.n as u64).to_be_bytes(),
                &(self.t as u64).to_be_bytes(),
                &self.units.to_be_bytes(),
                &self.normal.to_be_bytes(),
                &self.seed.to_be_bytes(),
                format!("{}", self.group_id).as_bytes(),
                format!("{:?}", self.auth_mode).as_bytes(),
            ],
        );
        u64::from_be_bytes(d[..8].try_into().expect("8 of 32 digest bytes"))
    }

    fn make_node(&self, id: NodeId) -> UlsNode<HeartbeatApp> {
        let mut c = UlsConfig::new(Group::new(self.group_id), self.n, self.t);
        c.auth_mode = self.auth_mode;
        UlsNode::new(c, id, HeartbeatApp::default())
    }

    /// The equivalent in-process engine run, for `--check`.
    fn engine_run(&self) -> SimResult {
        let mut cfg = SimConfig::new(self.n, self.t, self.schedule());
        cfg.setup_rounds = SETUP_ROUNDS;
        cfg.total_rounds = self.total_rounds();
        cfg.seed = self.seed;
        cfg.parallel = false;
        run_ul(cfg, |id| self.make_node(id), &mut FaithfulUl)
    }

    /// The engine run's flight-recorder trace (JSONL), for the daemon-trace
    /// equality check.
    fn engine_trace(&self) -> String {
        let (tele, buf) = proauth_sim::telemetry::Telemetry::with_memory_sink();
        let mut cfg = SimConfig::new(self.n, self.t, self.schedule());
        cfg.setup_rounds = SETUP_ROUNDS;
        cfg.total_rounds = self.total_rounds();
        cfg.seed = self.seed;
        cfg.parallel = false;
        cfg.telemetry = tele;
        run_ul(cfg, |id| self.make_node(id), &mut FaithfulUl);
        proauth_sim::telemetry::memory_contents(&buf)
    }

    /// The collector-side trace-assembly spec for this scenario.
    fn trace_spec(&self) -> proauth_sim::net::TraceSpec {
        proauth_sim::net::TraceSpec {
            n: self.n,
            s: self.t,
            seed: self.seed,
            schedule: self.schedule(),
            setup_rounds: SETUP_ROUNDS,
            total_rounds: self.total_rounds(),
        }
    }
}

fn default_sock_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("proauth-daemon-{}", std::process::id()))
}

/// Chaos flags shared by `proxy` and `daemon`.
fn chaos_spec_from_args(args: &HashMap<String, String>) -> proauth_sim::net::ChaosNetSpec {
    use proauth_sim::net::{ChaosNetSpec, Partition};
    let partition = args.get("partition").map(|spec| {
        let parts: Vec<u64> = spec.split(':').filter_map(|s| s.parse().ok()).collect();
        if parts.len() != 3 {
            eprintln!("--partition wants start:end:split");
            exit(2);
        }
        Partition {
            start: parts[0],
            end: parts[1],
            split: parts[2] as u32,
        }
    });
    ChaosNetSpec {
        seed: get(args, "chaos-seed", 0),
        delay_pct: get(args, "delay", 0),
        delay_max: get(args, "delay-max", 2),
        dup_pct: get(args, "dup", 0),
        reorder_pct: get(args, "reorder", 0),
        reset_pct: get(args, "reset", 0),
        partition,
    }
}

/// `serve`: one node of the deployment, as this process.
fn serve_main(args: &HashMap<String, String>) -> ! {
    use proauth_sim::net::{run_node, Load, NodeNetConfig, StateDir};
    use proauth_sim::ProcessDriver;

    let sc = NetScenario::from_args(args);
    let node_id: u32 = get(args, "node", 0);
    if node_id == 0 || node_id as usize > sc.n {
        eprintln!("serve needs --node <1..={}>", sc.n);
        exit(2);
    }
    let me = NodeId(node_id);
    let mut cfg = NodeNetConfig::new(me, sc.n, sc.plan.clone(), sc.schedule());
    cfg.seed = sc.seed;
    cfg.run_id = sc.run_id();
    cfg.via_proxy = args.contains_key("via-proxy");
    cfg.report = args.contains_key("report");
    cfg.setup_rounds = SETUP_ROUNDS;
    cfg.total_rounds = sc.total_rounds();
    cfg.round_ms = get(args, "round-ms", 250);
    cfg.min_round_ms = get(args, "min-round-ms", 0);
    cfg.connect_timeout_ms = get(args, "connect-timeout", 30_000);
    cfg.telemetry = args.contains_key("telemetry");
    cfg.stream_trace = args.contains_key("stream-trace");
    cfg.adaptive = args.contains_key("adaptive");
    cfg.adapt_floor_ms = get(args, "adapt-floor-ms", 20);

    // Durable state: with --state-dir, a restarted process finds its ROM
    // image and round watermark on disk and rejoins the running cluster
    // instead of re-running setup. A corrupt watermark demotes to a full
    // catch-up from round 0 (share recovery repairs the lost shares); a
    // corrupt ROM is fatal — the write-once image is the node's identity
    // and cannot be reconstructed locally.
    let state_root = args.get("state-dir").map(std::path::PathBuf::from);
    cfg.state_dir = state_root.clone();
    let mut driver = match &state_root {
        None => ProcessDriver::new(sc.make_node(me), me, sc.n, sc.seed),
        Some(root) => {
            let sd = StateDir::open(root, me.0).unwrap_or_else(|e| {
                eprintln!("node {me}: cannot open state dir {}: {e}", root.display());
                exit(1)
            });
            match sd.load_rom() {
                Load::Absent => ProcessDriver::new(sc.make_node(me), me, sc.n, sc.seed),
                Load::Corrupt => {
                    eprintln!("node {me}: durable ROM image is corrupt; refusing to rejoin");
                    exit(1)
                }
                Load::Ok(rom) => {
                    let resume = match sd.load_watermark() {
                        Load::Ok(wm) => wm.completed_rounds,
                        Load::Absent => 0,
                        Load::Corrupt => {
                            eprintln!(
                                "node {me}: watermark corrupt; rejoining from round 0 \
                                 (full catch-up + share recovery)"
                            );
                            0
                        }
                    };
                    eprintln!("node {me}: rejoining from durable state at round {resume}");
                    cfg.resume = Some(resume);
                    ProcessDriver::with_rom(sc.make_node(me), me, sc.n, sc.seed, rom)
                }
            }
        }
    };
    match run_node(cfg, &mut driver, |_, _| None) {
        Ok(rep) => {
            println!(
                "node {me}: rounds {} sent {} received {} bytes_sent {} alerts {} \
                 late {} mark_timeouts {}",
                rep.rounds,
                rep.sent,
                rep.received,
                rep.bytes_sent,
                rep.alerts,
                rep.late_frames,
                rep.mark_timeouts
            );
            exit(0)
        }
        Err(e) => {
            eprintln!("node {me} failed: {e}");
            exit(1)
        }
    }
}

/// `proxy`: the adversarial router, as this process.
fn proxy_main(args: &HashMap<String, String>) -> ! {
    use proauth_sim::net::{run_proxy, ProxyConfig};

    let sc = NetScenario::from_args(args);
    let spec = chaos_spec_from_args(args);
    let cfg = ProxyConfig {
        n: sc.n,
        plan: sc.plan.clone(),
        spec,
        run_id: sc.run_id(),
        idle_timeout_ms: get(args, "idle-timeout", 60_000),
    };
    println!(
        "proxy: n={} chaos: delay {}%/{}r dup {}% reorder {}% reset {}% partition {:?}",
        sc.n, spec.delay_pct, spec.delay_max, spec.dup_pct, spec.reorder_pct, spec.reset_pct,
        spec.partition
    );
    match run_proxy(cfg) {
        Ok(stats) => {
            println!(
                "proxy: forwarded {} delayed {} duplicated {} reordered {} resets {} \
                 rejected {} setup {} marks {}",
                stats.forwarded,
                stats.delayed,
                stats.duplicated,
                stats.reordered,
                stats.resets,
                stats.rejected,
                stats.setup_forwarded,
                stats.marks
            );
            exit(0)
        }
        Err(e) => {
            eprintln!("proxy failed: {e}");
            exit(1)
        }
    }
}

/// `client`: the collector, as this process.
fn client_main(args: &HashMap<String, String>) -> ! {
    use proauth_sim::net::{collect, CollectorConfig};

    let sc = NetScenario::from_args(args);
    let cfg = CollectorConfig {
        n: sc.n,
        plan: sc.plan.clone(),
        run_id: sc.run_id(),
        idle_timeout_ms: get(args, "idle-timeout", 60_000),
        t: sc.t,
        unit_rounds: sc.schedule().unit_rounds,
        status: args.contains_key("status"),
        trace_spec: None,
    };
    match collect(cfg) {
        Ok(outcome) => {
            print_goodput_report(&sc, &outcome);
            exit(0)
        }
        Err(e) => {
            eprintln!("collector failed: {e}");
            exit(1)
        }
    }
}

/// The goodput report shared by `client` and `daemon`.
fn print_goodput_report(sc: &NetScenario, outcome: &proauth_sim::net::DaemonOutcome) {
    println!("\ndaemon run complete: n={} units={} rounds={}", sc.n, sc.units, sc.total_rounds());
    println!("per-node summary:");
    for id in NodeId::all(sc.n) {
        let rep = &outcome.reports[id.idx()];
        let log = &outcome.outputs[id.idx()];
        let accepted = log
            .iter()
            .filter(|(_, e)| matches!(e, OutputEvent::Accepted { .. }))
            .count();
        println!(
            "  {id}: accepted {accepted:4}  sent {:5}  late {:3}  mark-timeouts {:2}  alerts {}",
            rep.sent, rep.late_frames, rep.mark_timeouts, rep.alerts
        );
    }
    let wall = outcome.wall.as_secs_f64();
    println!(
        "\nwall clock: {wall:.2}s  rounds/s: {:.1}  msgs/s: {:.0}",
        outcome.rounds_per_sec(),
        outcome.reports.iter().map(|r| r.sent).sum::<u64>() as f64 / wall.max(1e-9),
    );
    println!(
        "authenticated goodput: {:.0} B/s ({} accepted payload bytes)",
        outcome.goodput(),
        outcome.accepted_bytes()
    );
}

/// The observability-plane summary: merged transport counters and the alarm
/// stream (empty on a clean run).
fn print_observability_report(outcome: &proauth_sim::net::DaemonOutcome) {
    let c = |name: &str| outcome.merged.counters.get(name).copied().unwrap_or(0);
    if !outcome.merged.counters.is_empty() {
        println!(
            "observability: late_frames {} mark_timeouts {} dup {} reorder {} \
             rejected {} alerts {}",
            c("net/late_frames"),
            c("net/mark_timeouts"),
            c("net/dup_frames"),
            c("net/reorder_frames"),
            c("uls/rejected"),
            c("uls/alerts"),
        );
    }
    if let Some(h) = outcome.merged.value_hists.get("net/recovery_latency_ms") {
        let q = h.quantiles_value(&[0.5, 0.95, 1.0]);
        println!(
            "recovery latency: {} restart(s) healed, p50 {}ms p95 {}ms max {}ms",
            h.total, q[0], q[1], q[2]
        );
    }
    if std::env::var_os("PROAUTH_DEBUG_COUNTERS").is_some() {
        for (name, v) in &outcome.merged.counters {
            println!("  counter {name} = {v}");
        }
    }
    if outcome.alarms.is_empty() {
        println!("alarms: none");
    } else {
        println!("alarms: {}", outcome.alarms.len());
        for a in &outcome.alarms {
            println!(
                "  [{}] node {} round {}: {} ({})",
                a.severity.label(),
                a.node,
                a.round,
                a.kind,
                a.detail
            );
        }
    }
}

/// `top`: scrape the collector's live status socket and print the result.
/// `--view metrics|json|top` picks the rendering (default `top`); `--once`
/// prints one snapshot, otherwise refreshes every `--interval` ms.
fn top_main(args: &HashMap<String, String>) -> ! {
    use proauth_sim::net::{AddrPlan, Endpoint};
    use std::io::{Read, Write};

    let addr = args
        .get("addr")
        .cloned()
        .unwrap_or_else(|| format!("unix:{}", default_sock_dir().display()));
    let plan = AddrPlan::parse(&addr).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    let endpoint = plan.status();
    let view = args.get("view").cloned().unwrap_or_else(|| "top".to_owned());
    if !matches!(view.as_str(), "metrics" | "json" | "top") {
        eprintln!("--view wants metrics|json|top");
        exit(2);
    }
    let once = args.contains_key("once");
    let interval = std::time::Duration::from_millis(get(args, "interval", 1_000));

    let scrape = |endpoint: &Endpoint| -> std::io::Result<String> {
        let mut body = String::new();
        match endpoint {
            Endpoint::Tcp(addr) => {
                let mut s = std::net::TcpStream::connect(addr)?;
                s.write_all(format!("{view}\n").as_bytes())?;
                s.read_to_string(&mut body)?;
            }
            Endpoint::Unix(path) => {
                let mut s = std::os::unix::net::UnixStream::connect(path)?;
                s.write_all(format!("{view}\n").as_bytes())?;
                s.read_to_string(&mut body)?;
            }
        }
        Ok(body)
    };

    loop {
        match scrape(&endpoint) {
            Ok(body) => {
                print!("{body}");
                if !body.ends_with('\n') {
                    println!();
                }
            }
            Err(e) => {
                eprintln!("cannot scrape {endpoint}: {e}");
                exit(1)
            }
        }
        if once {
            exit(0)
        }
        println!("---");
        std::thread::sleep(interval);
    }
}

/// Checks a chaos-run outcome against the protocol's promises: certified
/// keys match the engine's, every node made progress, and nothing was
/// accepted that its claimed sender never sends. Returns human-readable
/// failures (empty = pass).
///
/// Restarted nodes are read off the collector's `node_restarted` alarm
/// stream (the supervisor emits one per respawn, stamped with the observed
/// round): a restarted node's report covers only the rounds since its
/// rejoin (the dead instance never reported), so its round count is checked
/// for progress rather than completeness, and its liveness must be
/// demonstrated *at or after* the restart round — proof that the respawned
/// process caught up and the cluster still authenticates it.
fn check_chaos_outcome(
    sc: &NetScenario,
    outcome: &proauth_sim::net::DaemonOutcome,
    engine: &SimResult,
) -> Vec<String> {
    let mut failures = Vec::new();
    // Certified keys: setup is adversary-free even under the chaos proxy, so
    // every ROM (v_cert and friends) must equal the engine's exactly.
    if outcome.roms != engine.roms {
        failures.push("ROMs (certified keys) diverged from the engine run".to_owned());
    }
    for id in NodeId::all(sc.n) {
        let log = &outcome.outputs[id.idx()];
        // The last round this node's process was respawned at, per the
        // supervisor's alarms (None = never restarted).
        let restart_round = outcome
            .alarms
            .iter()
            .filter(|a| a.kind == "node_restarted" && a.node == id.0)
            .map(|a| a.round)
            .max();
        // Liveness: heartbeats verified at every node — for a restarted
        // node, at or after the restart, but only when recovery is
        // observable. A respawned process rebuilds its volatile protocol
        // state through share recovery at the next refreshment phase, so it
        // can only prove liveness if a complete time unit (refresh, then
        // normal rounds) starts at or after the restart; a kill inside the
        // final unit heals the process but leaves nothing on the schedule
        // to accept.
        let live = match restart_round {
            None => log
                .iter()
                .any(|(_, e)| matches!(e, OutputEvent::Accepted { .. })),
            Some(rr) => {
                let sched = sc.schedule();
                let unit_rounds = sched.unit_rounds;
                let next_unit_start = rr.div_ceil(unit_rounds) * unit_rounds;
                let observable = next_unit_start + unit_rounds <= sc.total_rounds();
                // The victim verifies peers from its durable ROM right away;
                // the cluster re-authenticates the victim only once the
                // refresh after its restart hands it fresh certified keys.
                // Both directions must be visible: the respawned process
                // accepts, and some peer accepts *from* it post-recovery.
                let recertified_by = next_unit_start + sched.refresh_rounds();
                let accepts = log
                    .iter()
                    .any(|(r, e)| *r >= rr && matches!(e, OutputEvent::Accepted { .. }));
                let heard_from = outcome.outputs.iter().flat_map(|l| l.iter()).any(
                    |(r, e)| {
                        *r >= recertified_by
                            && matches!(e, OutputEvent::Accepted { from, .. } if *from == id)
                    },
                );
                !observable || (accepts && heard_from)
            }
        };
        if !live {
            let last_accept = log
                .iter()
                .filter(|(_, e)| matches!(e, OutputEvent::Accepted { .. }))
                .map(|(r, _)| *r)
                .max();
            failures.push(match restart_round {
                None => format!("{id} accepted no heartbeats"),
                Some(rr) => {
                    format!(
                        "{id} accepted no heartbeats after its restart at round {rr} \
                         (last accept: {})",
                        last_accept.map_or("never".into(), |r| format!("round {r}")),
                    )
                }
            });
        }
        let rounds = outcome.reports[id.idx()].rounds;
        match restart_round {
            None if rounds != sc.total_rounds() => {
                failures.push(format!("{id} did not complete all rounds"));
            }
            Some(_) if rounds == 0 || rounds > sc.total_rounds() => {
                failures.push(format!(
                    "{id} rejoined instance reported a nonsensical round count {rounds}"
                ));
            }
            _ => {}
        }
        // Zero forgeries: an accepted heartbeat must be one its claimed
        // sender actually emits ("hb:<sender>:<round>").
        for (_, ev) in log {
            if let OutputEvent::Accepted { from, msg } = ev {
                let ok = std::str::from_utf8(msg).is_ok_and(|text| {
                    let mut parts = text.splitn(3, ':');
                    parts.next() == Some("hb")
                        && parts.next() == Some(from.0.to_string().as_str())
                        && parts.next().is_some_and(|r| r.parse::<u64>().is_ok())
                });
                if !ok {
                    failures.push(format!("{id} accepted a forged message: {msg:?}"));
                }
            }
        }
    }
    failures
}

/// `daemon`: orchestrates a full deployment — spawns `serve` children (and a
/// `proxy` when chaos flags are set), runs the collector inline, reports
/// goodput, and optionally verifies against the in-process engine.
fn daemon_main(args: &HashMap<String, String>) -> ! {
    use proauth_sim::net::{AddrPlan, Alarm, Collector, CollectorConfig, Severity, StateDir};
    use proauth_sim::ProcessFaultPlan;
    use std::process::{Child, Command, Stdio};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    let sc = NetScenario::from_args(args);
    let spec = chaos_spec_from_args(args);
    let chaos = !spec.is_faithful();
    let check = args.contains_key("check");
    let round_ms: u64 = get(args, "round-ms", 1_000);

    // Process-level chaos and the self-healing knobs. Kills only make sense
    // with durable state: a respawned node without a ROM image on disk would
    // try to re-run setup against a cluster whose setup barrier has passed.
    let mut kill_plan = match args.get("kill").map(String::as_str) {
        None => ProcessFaultPlan::default(),
        Some("auto") => ProcessFaultPlan::kill_all_once(
            sc.n,
            sc.t,
            &sc.schedule(),
            sc.total_rounds(),
            sc.seed,
        )
        .unwrap_or_else(|e| {
            eprintln!("bad --kill auto: {e}");
            exit(2)
        }),
        Some(spec) => ProcessFaultPlan::parse(spec).unwrap_or_else(|e| {
            eprintln!("bad --kill: {e}");
            exit(2)
        }),
    };
    for &(round, victim) in &kill_plan.kills {
        if victim == 0 || victim as usize > sc.n || round >= sc.total_rounds() {
            eprintln!("--kill {victim}:{round} is out of range (n={}, rounds={})",
                sc.n, sc.total_rounds());
            exit(2);
        }
    }
    let state_root = args.get("state-dir").map(std::path::PathBuf::from);
    if !kill_plan.kills.is_empty() && state_root.is_none() {
        eprintln!("--kill needs --state-dir (a killed node can only rejoin from durable state)");
        exit(2);
    }
    if args.contains_key("truncate-state") {
        kill_plan.truncate = kill_plan.kills.iter().map(|&(_, v)| v).collect();
        kill_plan.truncate.dedup();
    }
    let max_restarts: usize = get(args, "max-restarts", 3);
    let restart_window = Duration::from_secs(get(args, "restart-window", 60));
    let backoff_ms: u64 = get(args, "backoff-ms", 100);
    // Trace assembly needs the nodes to stream their flight-recorder events;
    // `--check` compares the assembled trace against the engine (faithful
    // runs only), `--trace PATH` saves it.
    let want_trace = check || args.contains_key("trace");
    let adaptive = args.contains_key("adaptive");
    let exe = std::env::current_exe().expect("own executable path");

    if let AddrPlan::Unix { dir } = &sc.plan {
        std::fs::create_dir_all(dir).expect("socket directory");
    }
    println!(
        "proauth daemon: n={} t={} units={} normal={} group={} auth={:?} seed={} addr={}",
        sc.n,
        sc.t,
        sc.units,
        sc.normal,
        sc.group_id,
        sc.auth_mode,
        sc.seed,
        args.get("addr").cloned().unwrap_or_else(|| format!(
            "unix:{}",
            default_sock_dir().display()
        ))
    );
    if chaos {
        println!(
            "chaos proxy: delay {}%/{}r dup {}% reorder {}% reset {}% partition {:?} (seed {})",
            spec.delay_pct, spec.delay_max, spec.dup_pct, spec.reorder_pct, spec.reset_pct,
            spec.partition, spec.seed
        );
    } else {
        println!("topology: direct full mesh (no proxy)");
    }
    if let Some(root) = &state_root {
        println!("durable state: {}", root.display());
    }
    if !kill_plan.kills.is_empty() {
        let sched: Vec<String> = kill_plan
            .kills
            .iter()
            .map(|(r, v)| format!("{v}@r{r}"))
            .collect();
        println!(
            "kill schedule: {} (truncate-state: {})",
            sched.join(" "),
            if kill_plan.truncate.is_empty() { "no" } else { "yes" }
        );
    }

    // Bind the collector before any child starts so report dials never race.
    // The live status socket is always on in daemon mode (`proauth top`
    // scrapes it at `plan.status()`).
    let mut collector = Collector::bind(CollectorConfig {
        n: sc.n,
        plan: sc.plan.clone(),
        run_id: sc.run_id(),
        idle_timeout_ms: get(args, "idle-timeout", 120_000),
        t: sc.t,
        unit_rounds: sc.schedule().unit_rounds,
        status: true,
        trace_spec: want_trace.then(|| sc.trace_spec()),
    })
    .unwrap_or_else(|e| {
        eprintln!("cannot bind collector: {e}");
        exit(1)
    });
    println!("status endpoint: {}", sc.plan.status());

    // The supervisor's two taps into the observability plane: restart alarms
    // flow into the collector's alarm stream (Warning severity, so a kill
    // charges the victim's Definition-7 budget), and the collector publishes
    // the highest beacon round so the kill schedule can fire on protocol
    // time instead of wall clock.
    let (alarm_tx, alarm_rx) = mpsc::channel::<Alarm>();
    let round_watch = Arc::new(AtomicU64::new(0));
    collector.set_alarm_channel(alarm_rx);
    collector.set_round_watch(round_watch.clone());
    let stop = Arc::new(AtomicBool::new(false));

    let addr_arg = args
        .get("addr")
        .cloned()
        .unwrap_or_else(|| format!("unix:{}", default_sock_dir().display()));
    // Children are described by argv vectors, not pre-built Commands, so the
    // supervisor can respawn a dead node with exactly the arguments it was
    // born with.
    let scenario_argv = || -> Vec<String> {
        let mut v = vec![
            "--n".to_owned(),
            sc.n.to_string(),
            "--t".to_owned(),
            sc.t.to_string(),
            "--units".to_owned(),
            sc.units.to_string(),
            "--normal".to_owned(),
            sc.normal.to_string(),
            "--seed".to_owned(),
            sc.seed.to_string(),
            "--group".to_owned(),
            format!("{}", sc.group_id).to_lowercase(),
            "--addr".to_owned(),
            addr_arg.clone(),
        ];
        if sc.auth_mode == AuthMode::SessionMac {
            v.push("--auth".to_owned());
            v.push("mac".to_owned());
        }
        v
    };
    let serve_argv = |id: u32| -> Vec<String> {
        let mut v = vec!["serve".to_owned()];
        v.extend(scenario_argv());
        v.push("--node".to_owned());
        v.push(id.to_string());
        v.push("--report".to_owned());
        v.push("--round-ms".to_owned());
        v.push(round_ms.to_string());
        if let Some(x) = args.get("min-round-ms") {
            v.push("--min-round-ms".to_owned());
            v.push(x.clone());
        } else if !kill_plan.kills.is_empty() {
            // A kill schedule fires on beacon-observed rounds, so rounds must
            // take long enough for the supervisor to interleave; unpaced
            // rounds finish in microseconds and every kill would land after
            // the run. Pace at a quarter of the round deadline by default.
            v.push("--min-round-ms".to_owned());
            v.push((round_ms / 4).max(20).to_string());
        }
        if chaos {
            v.push("--via-proxy".to_owned());
        }
        // Observability is on by default in daemon mode: each node folds its
        // registry into per-round metrics deltas and a health beacon.
        v.push("--telemetry".to_owned());
        if want_trace {
            v.push("--stream-trace".to_owned());
        }
        if adaptive {
            v.push("--adaptive".to_owned());
            if let Some(x) = args.get("adapt-floor-ms") {
                v.push("--adapt-floor-ms".to_owned());
                v.push(x.clone());
            }
        }
        if let Some(root) = &state_root {
            v.push("--state-dir".to_owned());
            v.push(root.display().to_string());
        }
        v
    };
    // Node stdout is summary-only; keep the orchestrator's output clean but
    // surface child errors.
    let spawn_child = |argv: &[String], quiet: bool| -> Child {
        let mut cmd = Command::new(&exe);
        cmd.args(argv);
        cmd.stdout(if quiet { Stdio::null() } else { Stdio::inherit() });
        cmd.stderr(Stdio::inherit());
        cmd.spawn().expect("spawn child")
    };

    // --hosts: which node ids this invocation spawns locally. Remote ranges
    // get their exact serve command printed for the operator to run; the
    // collector then waits for them to dial in.
    let local_only: Option<Vec<u32>> = args.get("hosts").map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read hosts manifest {path}: {e}");
            exit(2)
        });
        if matches!(sc.plan, AddrPlan::Unix { .. }) {
            eprintln!(
                "warning: --hosts over unix sockets only reaches this machine; \
                 use --addr tcp:HOST:PORT for a real multi-host run"
            );
        }
        let local_label = args.get("local").cloned().unwrap_or_default();
        let mut local = Vec::new();
        let mut matched = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parsed = line.split_once(char::is_whitespace).and_then(|(label, range)| {
                let (lo, hi) = range.trim().split_once('-')?;
                Some((label, lo.trim().parse::<u32>().ok()?, hi.trim().parse::<u32>().ok()?))
            });
            let Some((label, lo, hi)) = parsed else {
                eprintln!("{path}:{}: want `<label> <lo>-<hi>`, got: {line}", lineno + 1);
                exit(2)
            };
            if lo == 0 || hi as usize > sc.n || lo > hi {
                eprintln!("{path}:{}: node range {lo}-{hi} out of 1..={}", lineno + 1, sc.n);
                exit(2)
            }
            if label == local_label {
                matched = true;
                local.extend(lo..=hi);
            } else {
                println!("host {label}: run nodes {lo}-{hi} with:");
                for id in lo..=hi {
                    println!("  proauth {}", serve_argv(id).join(" "));
                }
            }
        }
        if !local_label.is_empty() && !matched {
            eprintln!("--local {local_label} matches no line in {path}");
            exit(2);
        }
        local
    });

    /// One supervised child: its respawn recipe and restart accounting.
    struct Slot {
        name: String,
        /// 0 = the proxy (never respawned: it holds no protocol state worth
        /// healing, so its death fails the run).
        node: u32,
        argv: Vec<String>,
        child: Option<Child>,
        done: bool,
        why: String,
        attempt: u32,
        restarts: Vec<Instant>,
        respawn_at: Option<Instant>,
    }
    let new_slot = |name: String, node: u32, argv: Vec<String>, child: Child| Slot {
        name,
        node,
        argv,
        child: Some(child),
        done: false,
        why: String::new(),
        attempt: 0,
        restarts: Vec::new(),
        respawn_at: None,
    };

    let mut slots: Vec<Slot> = Vec::new();
    if chaos {
        let mut argv = vec!["proxy".to_owned()];
        argv.extend(scenario_argv());
        for key in ["chaos-seed", "delay", "delay-max", "dup", "reorder", "reset", "partition"] {
            if let Some(v) = args.get(key) {
                argv.push(format!("--{key}"));
                argv.push(v.clone());
            }
        }
        let child = spawn_child(&argv, false);
        slots.push(new_slot("proxy".into(), 0, argv, child));
    }
    for id in 1..=sc.n as u32 {
        if let Some(local) = &local_only {
            if !local.contains(&id) {
                continue;
            }
        }
        let argv = serve_argv(id);
        let child = spawn_child(&argv, true);
        slots.push(new_slot(format!("node {id}"), id, argv, child));
    }

    // The supervisor: fires scheduled kills on protocol time, reaps children,
    // classifies their exits, and respawns crashed nodes under the restart
    // policy while the collector runs on this thread.
    let seed = sc.seed;
    let supervisor = {
        let stop = Arc::clone(&stop);
        let round_watch = Arc::clone(&round_watch);
        let exe = exe.clone();
        let state_root = state_root.clone();
        let mut pending_kills = kill_plan.kills.clone();
        let truncate = kill_plan.truncate.clone();
        std::thread::spawn(move || {
            let mut slots = slots;
            let mut failures: Vec<String> = Vec::new();
            let mut restarts_total = 0u64;
            let mut shutdown_deadline: Option<Instant> = None;
            let respawn = |argv: &[String]| -> std::io::Result<Child> {
                let mut cmd = Command::new(&exe);
                cmd.args(argv);
                cmd.stdout(Stdio::null()).stderr(Stdio::inherit());
                cmd.spawn()
            };
            loop {
                let stopping = stop.load(Ordering::Relaxed);
                if stopping && shutdown_deadline.is_none() {
                    // Children self-terminate (round deadlines, idle
                    // timeouts); give the stragglers a grace period.
                    shutdown_deadline = Some(Instant::now() + Duration::from_secs(30));
                    pending_kills.clear();
                }

                // Fire due kills: SIGKILL mid-protocol, no warning — the
                // process-level analogue of the paper's break-in.
                let cur = round_watch.load(Ordering::Relaxed);
                while let Some(&(round, victim)) = pending_kills.first() {
                    if round > cur {
                        break;
                    }
                    pending_kills.remove(0);
                    if let Some(slot) = slots.iter_mut().find(|s| s.node == victim) {
                        if let Some(child) = slot.child.as_mut() {
                            println!(
                                "supervisor: SIGKILL node {victim} \
                                 (scheduled round {round}, cluster at {cur})"
                            );
                            let _ = child.kill();
                        }
                    }
                }

                for slot in slots.iter_mut() {
                    if slot.done {
                        continue;
                    }
                    if let Some(child) = slot.child.as_mut() {
                        match child.try_wait() {
                            Ok(Some(status)) => {
                                slot.child = None;
                                if status.success() {
                                    slot.done = true;
                                    continue;
                                }
                                use std::os::unix::process::ExitStatusExt;
                                slot.why = match status.signal() {
                                    Some(sig) => format!("killed by signal {sig}"),
                                    None => format!("exited with {status}"),
                                };
                                if stopping || slot.node == 0 {
                                    slot.done = true;
                                    failures.push(format!("{} {}", slot.name, slot.why));
                                    continue;
                                }
                                let now = Instant::now();
                                slot.restarts
                                    .retain(|t| now.duration_since(*t) < restart_window);
                                if slot.restarts.len() >= max_restarts {
                                    slot.done = true;
                                    failures.push(format!(
                                        "{} {}; restart budget exhausted \
                                         ({max_restarts} per {}s)",
                                        slot.name,
                                        slot.why,
                                        restart_window.as_secs()
                                    ));
                                    continue;
                                }
                                // Bounded exponential backoff with
                                // deterministic jitter so simultaneous deaths
                                // do not respawn in lockstep.
                                let base = backoff_ms
                                    .saturating_mul(1 << slot.attempt.min(5))
                                    .min(10_000);
                                let d = proauth_primitives::sha256::hash_parts(
                                    "proauth/net/backoff",
                                    &[
                                        &seed.to_be_bytes(),
                                        &slot.node.to_be_bytes(),
                                        &slot.attempt.to_be_bytes(),
                                    ],
                                );
                                let jitter = u64::from_be_bytes(
                                    d[..8].try_into().expect("8 of 32 digest bytes"),
                                ) % backoff_ms.max(1);
                                slot.respawn_at =
                                    Some(now + Duration::from_millis(base + jitter));
                            }
                            Ok(None) => {}
                            Err(e) => {
                                slot.child = None;
                                slot.done = true;
                                failures.push(format!("{}: wait failed: {e}", slot.name));
                            }
                        }
                        continue;
                    }
                    // Down, waiting out its backoff.
                    let Some(at) = slot.respawn_at else {
                        slot.done = true;
                        continue;
                    };
                    if stopping {
                        slot.done = true;
                        failures.push(format!("{} down at shutdown ({})", slot.name, slot.why));
                        continue;
                    }
                    if Instant::now() < at {
                        continue;
                    }
                    slot.respawn_at = None;
                    slot.restarts.push(Instant::now());
                    slot.attempt += 1;
                    restarts_total += 1;
                    if truncate.contains(&slot.node) {
                        if let Some(root) = &state_root {
                            match StateDir::open(root, slot.node)
                                .and_then(|sd| sd.truncate_state_file())
                            {
                                Ok(true) => println!(
                                    "supervisor: truncated node {}'s watermark before respawn",
                                    slot.node
                                ),
                                Ok(false) => {}
                                Err(e) => eprintln!(
                                    "supervisor: cannot truncate node {}'s state: {e}",
                                    slot.node
                                ),
                            }
                        }
                    }
                    match respawn(&slot.argv) {
                        Ok(child) => {
                            println!(
                                "supervisor: respawned {} (attempt {}, was {})",
                                slot.name, slot.attempt, slot.why
                            );
                            slot.child = Some(child);
                            // Warning severity: the restart impairs the victim
                            // for Definition-7 accounting, exactly like an
                            // in-engine break-in would.
                            let _ = alarm_tx.send(Alarm {
                                node: slot.node,
                                round: round_watch.load(Ordering::Relaxed),
                                severity: Severity::Warning,
                                kind: "node_restarted".to_owned(),
                                detail: format!("{}; respawn attempt {}", slot.why, slot.attempt),
                            });
                        }
                        Err(e) => {
                            slot.done = true;
                            failures.push(format!("{}: respawn failed: {e}", slot.name));
                        }
                    }
                }

                if let Some(deadline) = shutdown_deadline {
                    if Instant::now() >= deadline {
                        for slot in slots.iter_mut().filter(|s| !s.done) {
                            if let Some(child) = slot.child.as_mut() {
                                let _ = child.kill();
                                let _ = child.wait();
                                failures.push(format!("{} hung; killed", slot.name));
                            }
                            slot.child = None;
                            slot.done = true;
                        }
                    }
                }
                if slots.iter().all(|s| s.done) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            (failures, restarts_total)
        })
    };

    let outcome = collector.run();
    stop.store(true, Ordering::Relaxed);
    let (child_failures, restarts_total) = supervisor.join().expect("supervisor thread");
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("collector failed: {e}");
            for f in &child_failures {
                eprintln!("  {f}");
            }
            exit(1)
        }
    };
    print_goodput_report(&sc, &outcome);
    print_observability_report(&outcome);
    if restarts_total > 0 {
        println!("supervisor: {restarts_total} restart(s) performed");
    }
    for f in &child_failures {
        eprintln!("child failure: {f}");
    }

    if let Some(path) = args.get("trace") {
        match &outcome.trace {
            Some(trace) => {
                std::fs::write(path, trace).unwrap_or_else(|e| {
                    eprintln!("cannot write trace to {path}: {e}");
                    exit(1)
                });
                println!("assembled cluster trace: {path} ({} lines)", trace.lines().count());
            }
            None => eprintln!("trace assembly incomplete; {path} not written"),
        }
    }

    if check {
        println!("\nchecking against the in-process engine...");
        let engine = sc.engine_run();
        // Kill schedules disturb the run the same way link chaos does: the
        // certified keys and safety properties must hold exactly, but
        // per-round output logs are no longer bit-comparable (a rejoined
        // node's log starts at its resume watermark).
        let disturbed = chaos || !kill_plan.kills.is_empty();
        let failures = if disturbed {
            check_chaos_outcome(&sc, &outcome, &engine)
        } else {
            // No chaos: the daemon must be bit-identical to the engine.
            let mut fails = check_chaos_outcome(&sc, &outcome, &engine);
            for id in NodeId::all(sc.n) {
                if outcome.outputs[id.idx()] != engine.outputs[id.idx()] {
                    fails.push(format!("{id} output log diverged from the engine"));
                }
            }
            // Golden-trace guarantee, daemon edition: the collector-assembled
            // trace, stripped of wall-clock fields, must be byte-identical to
            // the engine's flight recorder.
            use proauth_sim::telemetry::strip_wall_fields;
            match &outcome.trace {
                Some(trace) => {
                    if strip_wall_fields(trace) != strip_wall_fields(&sc.engine_trace()) {
                        fails.push("assembled trace diverged from the engine trace".to_owned());
                    }
                }
                None => fails.push("trace assembly did not complete".to_owned()),
            }
            fails
        };
        if failures.is_empty() {
            let accepted_engine = engine
                .outputs
                .iter()
                .flatten()
                .filter(|(_, e)| matches!(e, OutputEvent::Accepted { .. }))
                .count();
            let accepted_daemon = outcome
                .count_events(|e| matches!(e, OutputEvent::Accepted { .. }));
            println!(
                "check PASSED: certified keys match, zero forgeries, all nodes live \
                 (daemon accepted {accepted_daemon}, engine {accepted_engine}{})",
                if disturbed { ", chaos run" } else { ", bit-identical" }
            );
        } else {
            println!("check FAILED:");
            for f in &failures {
                println!("  {f}");
            }
            exit(1)
        }
    }
    if !child_failures.is_empty() {
        exit(1)
    }
    exit(0)
}

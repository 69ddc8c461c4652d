//! E11 — whole-system simulation throughput (supplementary): physical
//! rounds per second of a full ULS network by size, authentication mode,
//! and round-engine configuration.
//!
//! Not a paper claim, but the number a user sizing an experiment wants: how
//! much wall-clock a unit costs at each scale, what the session-MAC mode
//! buys at the system level (E9 measures it per message), and what the
//! persistent worker pool buys over the serial engine.
//!
//! Three parts:
//!
//! 1. a single-run **n = 64** refresh unit (`e11/refresh/n64`), timed with
//!    its peak RSS recorded — run *first* so the process high-water mark
//!    reflects this run alone;
//! 2. a criterion group (`e11/unit`) timing one refresh unit at small `n`
//!    with `Throughput::Elements(rounds)`, so the report carries rounds/s;
//! 3. a round-engine **ablation** at `n ∈ {13, 32}` (single timed runs —
//!    a full n=32 unit is too slow to sample repeatedly), printed as a table
//!    and appended to the `CRITERION_JSON` file when set.
//!
//! n = 64 used to be infeasible here: PARTIAL-AGREEMENT step 3 relayed every
//! majority member's certified message to every node through DISPERSE —
//! Θ(n³) envelopes per node per refresh, >10⁸ transient envelopes (tens of
//! GB) for one n = 64 unit. Evidence bundling (`Blob::EvidenceBundle`: one
//! DISPERSE send per destination per subject) cuts that to Θ(n²), and the
//! shared-payload outbox makes each remaining envelope a handle, not a copy.
//! Set `PROAUTH_E11=n64` to run only the n = 64 part (CI does).
//!
//! Run `CRITERION_JSON=BENCH_e11.json cargo bench --bench
//! e11_system_throughput` to regenerate the recorded baseline.

use criterion::{Criterion, Throughput};
use proauth_bench::print_table;
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::disperse::DisperseMode;
use proauth_core::uls::{uls_schedule, AuthMode, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_crypto::group::{Group, GroupId};
use proauth_sim::adversary::FaithfulUl;
use proauth_sim::report::ThroughputSummary;
use proauth_sim::runner::{run_ul, SimConfig, SimStats};
use proauth_sim::Telemetry;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Round engine under test.
#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Serial,
    Pool(usize),
}

impl Engine {
    fn label(self) -> String {
        match self {
            Engine::Serial => "serial".into(),
            Engine::Pool(w) => format!("pool{w}"),
        }
    }
}

fn sim_cfg(n: usize, t: usize, units: u64, engine: Engine) -> SimConfig {
    let schedule = uls_schedule(8);
    let mut cfg = SimConfig::new(n, t, schedule);
    cfg.setup_rounds = SETUP_ROUNDS;
    cfg.total_rounds = schedule.unit_rounds * units;
    cfg.seed = 87;
    match engine {
        Engine::Serial => cfg.parallel = false,
        Engine::Pool(w) => {
            cfg.parallel = true;
            cfg.threads = w;
        }
    }
    cfg
}

fn run_one(
    n: usize,
    t: usize,
    mode: AuthMode,
    engine: Engine,
    units: u64,
) -> (SimStats, u64, Duration) {
    run_one_tele(n, t, mode, engine, units, false)
}

fn run_one_tele(
    n: usize,
    t: usize,
    mode: AuthMode,
    engine: Engine,
    units: u64,
    telemetry: bool,
) -> (SimStats, u64, Duration) {
    let mut cfg = sim_cfg(n, t, units, engine);
    if telemetry {
        // Metrics + an in-memory flight recorder: the full recording path
        // minus file I/O, isolating the instrumentation cost itself.
        let (tele, _buf) = Telemetry::with_memory_sink();
        cfg.telemetry = tele;
    }
    let total_rounds = cfg.total_rounds;
    let group = Group::new(GroupId::Toy64);
    let start = Instant::now();
    let result = run_ul(
        cfg,
        |id| {
            let mut c = UlsConfig::new(group.clone(), n, t);
            c.auth_mode = mode;
            // Large networks use the §6 relaxation so DISPERSE volume stays
            // O(n·t) instead of O(n²).
            if n >= 32 {
                c.disperse = DisperseMode::Relaxed { fanout: 2 * t + 1 };
            }
            UlsNode::new(c, id, HeartbeatApp::default())
        },
        &mut FaithfulUl,
    );
    (result.stats, total_rounds, start.elapsed())
}

/// The process peak resident set (`VmHWM`), in bytes.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Part 0: one full refresh unit at n = 64 (§6 relaxed fan-out), single
/// timed run with peak RSS. Must run before anything else so `VmHWM`
/// reflects this run, not an earlier allocation peak.
fn refresh_n64() {
    let (n, t) = (64usize, 3usize);
    let (stats, total_rounds, elapsed) = run_one(n, t, AuthMode::SessionMac, Engine::Serial, 1);
    let tp = ThroughputSummary::from_run(&stats, total_rounds, elapsed);
    let rss = peak_rss_bytes().unwrap_or(0);
    print_table(
        "E11 — one refresh unit at n = 64 (serial, session-MAC, 2t+1 fan-out)",
        &["n", "t", "rounds", "messages", "rounds/s", "msgs/s", "peak RSS MiB"],
        &[vec![
            n.to_string(),
            t.to_string(),
            total_rounds.to_string(),
            stats.messages_sent.to_string(),
            format!("{:.1}", tp.rounds_per_sec),
            format!("{:.0}", tp.msgs_per_sec),
            format!("{:.0}", rss as f64 / (1024.0 * 1024.0)),
        ]],
    );
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            let _ = writeln!(
                file,
                "{{\"id\": \"e11/refresh/n64\", \"elapsed_ns\": {}, \
                 \"rounds_per_sec\": {:.1}, \"msgs_per_sec\": {:.1}, \
                 \"peak_rss_bytes\": {rss}}}",
                elapsed.as_nanos(),
                tp.rounds_per_sec,
                tp.msgs_per_sec,
            );
        }
    }
}

/// Part 1: sampled timings of one 2-unit run at small n, rounds/s reported
/// via the criterion `Throughput` API.
fn bench_units(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11/unit");
    for n in [5usize, 9, 13] {
        let t = (n - 1) / 2;
        let rounds = uls_schedule(8).unit_rounds * 2;
        group.throughput(Throughput::Elements(rounds));
        for (mode, label) in [(AuthMode::Sign, "sign"), (AuthMode::SessionMac, "mac")] {
            group.bench_function(format!("n{n}/{label}"), |b| {
                b.iter(|| run_one(n, t, mode, Engine::Serial, 2));
            });
        }
    }
    group.finish();
}

/// Part 2: round-engine and telemetry ablation, one timed run per row. The
/// `serial-tele` row runs the identical serial config with the flight
/// recorder on (memory sink), measuring the full instrumentation cost —
/// the gap to `serial` is what `PROAUTH_TRACE` costs, and the gap between
/// `serial` and the recorded baseline is what the disabled-path branch
/// checks cost (budget: ≤ 2%).
fn ablation() {
    let configs: [(Engine, bool); 5] = [
        (Engine::Serial, false),
        (Engine::Serial, true),
        (Engine::Pool(1), false),
        (Engine::Pool(2), false),
        (Engine::Pool(8), false),
    ];
    let mut rows = Vec::new();
    let mut json_lines = Vec::new();
    for (n, t) in [(13usize, 6usize), (32, 3)] {
        for (engine, telemetry) in configs {
            let label = if telemetry {
                format!("{}-tele", engine.label())
            } else {
                engine.label()
            };
            let (stats, total_rounds, elapsed) =
                run_one_tele(n, t, AuthMode::SessionMac, engine, 2, telemetry);
            let tp = ThroughputSummary::from_run(&stats, total_rounds, elapsed);
            rows.push(vec![
                n.to_string(),
                t.to_string(),
                label.clone(),
                stats.messages_sent.to_string(),
                format!("{:.1}", tp.rounds_per_sec),
                format!("{:.0}", tp.msgs_per_sec),
                format!("{:.0}", tp.bytes_per_sec / 1024.0),
            ]);
            json_lines.push(format!(
                "{{\"id\": \"e11/ablation/n{n}/{label}\", \"elapsed_ns\": {}, \
                 \"rounds_per_sec\": {:.1}, \"msgs_per_sec\": {:.1}, \
                 \"bytes_per_sec\": {:.1}}}",
                elapsed.as_nanos(),
                tp.rounds_per_sec,
                tp.msgs_per_sec,
                tp.bytes_per_sec,
            ));
        }
    }
    print_table(
        "E11 — engine + telemetry ablation (2 units, session-MAC, toy group)",
        &["n", "t", "engine", "messages", "rounds/s", "msgs/s", "KiB/s"],
        &rows,
    );
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            for line in &json_lines {
                let _ = writeln!(file, "{line}");
            }
        }
    }
    println!(
        "\nExpected shape: the pool engines approach the serial engine at 1 worker\n\
         (handshake overhead only) and win once cores × per-round crypto outweigh\n\
         scheduling. On a single-core host all engines tie — record the core\n\
         count with the run."
    );
}

/// Part 3: the §6 two-level hierarchy, serial vs pool engine, one timed run
/// per row. Cluster-local PDS work is what the pool parallelises best (√n
/// independent clusters per round), so this is the configuration where the
/// pool engine should earn its keep on a multi-core host — and the rounds/s
/// figure a user sizing a hierarchy deployment actually needs.
fn hierarchy() {
    use proauth_core::hier::{HierConfig, HierNode, HIER_SETUP_ROUNDS};

    let mut rows = Vec::new();
    let mut json_lines = Vec::new();
    for n in [16usize, 64] {
        for engine in [Engine::Serial, Engine::Pool(4)] {
            let schedule = uls_schedule(8);
            let mut cfg = SimConfig::new(n, 1, schedule);
            cfg.setup_rounds = HIER_SETUP_ROUNDS;
            cfg.total_rounds = schedule.unit_rounds * 2;
            cfg.seed = 87;
            match engine {
                Engine::Serial => cfg.parallel = false,
                Engine::Pool(w) => {
                    cfg.parallel = true;
                    cfg.threads = w;
                }
            }
            let mut hcfg = HierConfig::new(Group::new(GroupId::Toy64), n);
            hcfg.auth_mode = AuthMode::SessionMac;
            cfg.clusters = Some(hcfg.partition.clusters.clone());
            let clusters = hcfg.partition.cluster_count();
            let total_rounds = cfg.total_rounds;
            let start = Instant::now();
            let result = run_ul(
                cfg,
                |id| HierNode::new(hcfg.clone(), id, HeartbeatApp::default()),
                &mut FaithfulUl,
            );
            let elapsed = start.elapsed();
            let tp = ThroughputSummary::from_run(&result.stats, total_rounds, elapsed);
            let label = engine.label();
            rows.push(vec![
                n.to_string(),
                clusters.to_string(),
                label.clone(),
                result.stats.messages_sent.to_string(),
                format!("{:.1}", tp.rounds_per_sec),
                format!("{:.0}", tp.msgs_per_sec),
            ]);
            json_lines.push(format!(
                "{{\"id\": \"e11/hier/n{n}/{label}\", \"elapsed_ns\": {}, \
                 \"rounds_per_sec\": {:.1}, \"msgs_per_sec\": {:.1}}}",
                elapsed.as_nanos(),
                tp.rounds_per_sec,
                tp.msgs_per_sec,
            ));
        }
    }
    print_table(
        "E11 — two-level hierarchy throughput (2 units, session-MAC, toy group)",
        &["n", "clusters", "engine", "messages", "rounds/s", "msgs/s"],
        &rows,
    );
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            for line in &json_lines {
                let _ = writeln!(file, "{line}");
            }
        }
    }
}

fn main() {
    // `PROAUTH_E11=n64`: the n = 64 refresh only (the vendored criterion
    // shim has no CLI filtering; CI uses this to keep the run bounded).
    refresh_n64();
    if std::env::var("PROAUTH_E11").as_deref() == Ok("n64") {
        return;
    }
    let mut criterion = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    bench_units(&mut criterion);
    ablation();
    hierarchy();
}

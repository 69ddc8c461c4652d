//! The untraced measurement of a workload and its end-to-end metrics.
//!
//! Every end-to-end time is read off the uncontended profile `t̂` of a
//! single-threaded engine run ([`Profile`]). The socket workload runs its
//! scenario twice — over sockets, then through the engine — and must get the
//! same logs and ROMs bit for bit; its end-to-end times are the engine
//! replay's. What the socket run itself took is a per-layer row
//! (`sim.net.*`, [`crate::layers`]): six threads on two vCPUs wait on each
//! other through the hypervisor, and identical runs gave median units from
//! 39 ms to 63 ms within half an hour, far outside any bound worth gating.

use crate::check::{check, Evidence, Verdict};
use crate::engine::{self, run_uls, EngineOpts, EngineRun, Profile};
use crate::host::peak_rss_mib;
use crate::net::{self, run_net, NetRun};
use crate::report::Metric;
use crate::workload::{Scenario, Transport};
use std::io;
use std::path::Path;
use std::time::Instant;

/// An engine run with its profile and verdict.
pub struct EngineMeasured {
    /// The run.
    pub run: EngineRun,
    /// Its uncontended profile over the timed units.
    pub profile: Profile,
    /// What the checks said.
    pub verdict: Verdict,
    /// Nodes impaired (broken, or not yet operational again) per unit.
    pub impaired_per_unit: Vec<u64>,
}

/// Runs the workload's stack in the engine and checks the outcome.
pub fn measure_engine(sc: &Scenario, opts: &EngineOpts, tamper: bool) -> EngineMeasured {
    let run = run_uls(sc, opts);
    let profile = Profile::of(&run, sc.unit_rounds(), sc.units);
    let impaired: Vec<u64> = run
        .result
        .stats
        .unit_scores
        .iter()
        .map(|s| s.impaired.max(s.non_operational))
        .collect();
    let mut verdict = check(&Evidence {
        sc,
        outputs: &run.result.outputs,
        roms: &run.result.roms,
        samples: &run.stamps.samples,
        break_ins: &run.stamps.break_ins,
        impaired_per_unit: &impaired,
        tamper,
    });
    if let Some(max) = run.max_impaired {
        if max > sc.spec.t {
            verdict.problems.push(format!(
                "LimitObserver saw {max} impaired in one unit, limit t = {}",
                sc.spec.t
            ));
        }
    }
    EngineMeasured {
        run,
        profile,
        verdict,
        impaired_per_unit: impaired,
    }
}

/// Fresh set-ups of the workload's deployment, each in seconds: at least
/// `at_least` of them, and as many more as it takes to fill `seconds`.
pub fn fresh_setups_s(
    sc: &Scenario,
    at_least: usize,
    seconds: f64,
    out_dir: &Path,
) -> io::Result<Vec<f64>> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < at_least || started.elapsed().as_secs_f64() < seconds {
        out.push(match sc.spec.transport {
            Transport::Engine => engine::fresh_setup_s(sc),
            Transport::Net => net::fresh_setup_s(sc, out_dir)?,
        });
    }
    Ok(out)
}

/// The end-to-end metrics of a workload, from its engine run (the replay,
/// on the socket workload) and its fresh set-ups.
pub fn engine_metrics(sc: &Scenario, m: &EngineMeasured, setups_s: &[f64]) -> Vec<Metric> {
    let p = &m.profile;
    let u = sc.units as usize;
    let r = sc.unit_rounds() as usize;
    let units = sc.units as f64;
    let unit_s = p.unit_s();
    let timed = r..(u + 1) * r;
    let msgs: u64 = m.run.stamps.msgs[timed.clone()].iter().sum();
    let bytes: u64 = m.run.stamps.bytes[timed].iter().sum();
    const SUM: &str = "sum over the refresh rounds of per-round medians over the timed units";
    const EXACT: &str = "sent in the timed units / units (exact for a given seed)";
    vec![
        Metric::new(
            "setup_s",
            setups_s.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
            setups_s.len(),
            "fastest fresh set-up",
        ),
        Metric::new(
            "rounds_per_s",
            r as f64 / unit_s,
            "1/s",
            u,
            "unit rounds / sum of per-round medians",
        ),
        Metric::new("refresh_s", p.refresh_s(), "s", u, SUM),
        Metric::new(
            "normal_round_ms",
            p.normal_round_ms(),
            "ms",
            u,
            "mean of per-round medians over the normal rounds",
        ),
        Metric::new(
            "goodput_Bps",
            m.verdict.accepted_bytes as f64 / units / unit_s,
            "B/s",
            u,
            "accepted payload bytes per unit / unit time",
        ),
        Metric::new("msgs_per_unit", msgs as f64 / units, "count", u, EXACT),
        Metric::new("wire_bytes_per_unit", bytes as f64 / units, "B", u, EXACT),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB", 1, "VmHWM at exit"),
        Metric::new(
            "cpu_ms_per_round",
            unit_s / r as f64 * p.cpu_share * 1e3,
            "ms",
            u,
            "uncontended round x share of the timed units' wall time the process was on a CPU",
        ),
    ]
}

/// A socket run, its verdict, and the same scenario through the engine.
pub struct NetMeasured {
    /// The socket run.
    pub run: NetRun,
    /// What the checks said of it (including bit-identity with the engine).
    pub verdict: Verdict,
    /// The engine replay: the oracle, and the source of the end-to-end times.
    pub engine: EngineMeasured,
}

/// Runs the workload over sockets, replays it in the engine, and checks
/// both the usual properties and that the two agree bit for bit.
pub fn measure_net(sc: &Scenario, tamper: bool, out_dir: &Path) -> io::Result<NetMeasured> {
    let run = run_net(sc, sc.total_rounds(), false, out_dir)?;
    let impaired: Vec<u64> = (0..=sc.units)
        .map(|u| {
            run.outcome
                .unit_impairments
                .get(&u)
                .map_or(0, |v| v.len() as u64)
        })
        .collect();
    let mut verdict = check(&Evidence {
        sc,
        outputs: &run.outcome.outputs,
        roms: &run.outcome.roms,
        samples: &run.samples,
        break_ins: &[],
        impaired_per_unit: &impaired,
        tamper,
    });
    let late: u64 = run.reports.iter().map(|r| r.late_frames).sum();
    let timeouts: u64 = run.reports.iter().map(|r| r.mark_timeouts).sum();
    if late > 0 || timeouts > 0 {
        verdict.problems.push(format!(
            "{late} late frames, {timeouts} mark timeouts on a clean mesh"
        ));
    }
    let engine = measure_engine(sc, &EngineOpts::default(), false);
    if run.outcome.roms != engine.run.result.roms {
        verdict
            .problems
            .push("ROMs differ from the engine's".into());
    }
    if run.outcome.outputs != engine.run.result.outputs {
        verdict
            .problems
            .push("output logs differ from the engine's".into());
    }
    // The reported counts are the engine's; the sockets must have carried
    // exactly the same traffic.
    let stamps = &engine.run.stamps;
    let engine_sent: Vec<(u64, u64)> = stamps
        .msgs
        .iter()
        .copied()
        .zip(stamps.bytes.iter().copied())
        .collect();
    if run.sent_per_round() != engine_sent {
        verdict
            .problems
            .push("envelopes or bytes sent per round differ from the engine's".into());
    }
    verdict.problems.extend(
        engine
            .verdict
            .problems
            .iter()
            .map(|p| format!("engine replay: {p}")),
    );
    Ok(NetMeasured {
        run,
        verdict,
        engine,
    })
}

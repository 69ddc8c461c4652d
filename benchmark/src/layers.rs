//! The traced run: the workload repeated with the wrappers and telemetry on,
//! plus the side runs that peel the stack apart, turned into the per-layer
//! table. End-to-end metrics never come from here.
//!
//! Runs made, all on a shorter scenario (half the timed units, at least 2):
//!
//! * **A** — untraced: the baseline profile;
//! * **C** — A with telemetry on (registry and in-memory flight recorder):
//!   the counts, the spans, and the overhead rows against A (the wrappers
//!   are the same in both, so on engine workloads tracing *is* telemetry);
//! * **pool** — A with `parallel = true, threads = 2`;
//! * **peel** — the AL-model PDS alone, with telemetry;
//! * on the socket workload, the socket run with and without telemetry.

use crate::check::Verdict;
use crate::cli::{Args, Outcome};
use crate::e2e::{measure_engine, measure_net, EngineMeasured, NetMeasured};
use crate::engine::{run_als, run_uls, EngineOpts, EngineRun, Profile, RoundTimes};
use crate::estimate::{histogram_quantile, median, percentile_supported, quantile};
use crate::host::process_cpu;
use crate::micro;
use crate::net::{run_net, NetRun};
use crate::report::Metric;
use crate::spans::{engine_spans, net_spans, SpanLog};
use crate::workload::{Scenario, Transport, REFRESH_ROUNDS};
use proauth_core::uls::PART1_ROUNDS;
use proauth_primitives::wire::Encode;
use proauth_telemetry::registry::{HIST_BOUNDS_NS, HIST_BOUNDS_VALUE};
use proauth_telemetry::{MetricsDelta, MetricsSnapshot, Telemetry};
use std::io;
use std::time::Instant;

/// The in-situ crypto histograms (`telemetry::timed` around Schnorr sign,
/// verify and batch verify, wherever the stack calls them).
const CRYPTO_HISTS: [&str; 3] = [
    "crypto/sign_ns",
    "crypto/verify_ns",
    "crypto/batch_verify_ns",
];

/// What the timed units of a telemetry-on run recorded: the final registry
/// minus what the warm-up unit had put there.
fn timed_metrics(tele: &Telemetry, run: &EngineRun) -> MetricsDelta {
    let end = tele.snapshot().unwrap_or_default();
    let warmup = run.stamps.warmup_metrics.clone().unwrap_or_default();
    end.delta_since(&warmup)
}

fn counter(delta: &MetricsDelta, name: &str) -> f64 {
    delta.counters.get(name).copied().unwrap_or(0) as f64
}

fn crypto_ns(delta: &MetricsDelta) -> f64 {
    CRYPTO_HISTS
        .iter()
        .filter_map(|h| delta.hists.get(*h))
        .map(|h| h.sum_ns as f64)
        .sum()
}

/// `(p50 in µs, observations)` of a latency histogram over the timed units.
fn hist_p50_us(delta: &MetricsDelta, name: &str) -> (f64, usize) {
    delta.hists.get(name).map_or((0.0, 0), |h| {
        (
            histogram_quantile(&h.counts, &HIST_BOUNDS_NS, 0.5) / 1e3,
            h.total as usize,
        )
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Latency of every sign request over the profile, ms: `Σ t̂` from the round
/// of the input to the round of the first `Signed`, both inclusive.
fn sign_latencies_ms(sc: &Scenario, profile: &Profile, verdict: &Verdict) -> Vec<f64> {
    let r = sc.unit_rounds();
    verdict
        .sign_spans
        .iter()
        .map(|&(req, done)| profile.span_s((req % r) as usize, (done % r) as usize) * 1e3)
        .collect()
}

/// Node 1's enter-to-enter time of every fully timed unit of a socket run,
/// seconds (the last unit has no following round to close it).
fn net_units_s(run: &NetRun, unit_rounds: usize, units: usize) -> Vec<f64> {
    (1..units)
        .map(|u| run.span_s(u * unit_rounds, (u + 1) * unit_rounds))
        .collect()
}

/// Sums over the timed rounds of a run, in normalised seconds, plus the
/// run's effective slowdown there (time as it went ÷ normalised time).
struct TimedSums {
    wall: f64,
    merge: f64,
    nodes: f64,
    effective_slowdown: f64,
}

fn timed_sums(profile: &Profile, timed: std::ops::Range<usize>) -> TimedSums {
    let rounds = &profile.rounds[timed];
    let sum = |f: &dyn Fn(&RoundTimes) -> f64| rounds.iter().map(f).sum::<f64>();
    let wall = sum(&|t| t.norm_s);
    TimedSums {
        wall,
        merge: sum(&|t| t.merge_s),
        nodes: sum(&|t| t.nodes_s),
        effective_slowdown: ratio(sum(&|t| t.raw_s), wall).max(1.0),
    }
}

fn print_self_times(title: &str, log: &SpanLog, root: u64) {
    let root_ns = log.spans[root as usize].duration_ns() as f64;
    println!(
        "-- span self time, {title} (root {:.3} s) --",
        root_ns / 1e9
    );
    for (kind, (count, ns)) in log.self_time_by_kind(root) {
        println!(
            "{kind:<12} spans={count:<8} self={:>12.3} ms  share={:.4}",
            ns as f64 / 1e6,
            ns as f64 / root_ns
        );
    }
}

/// The traced run of a workload: prints the span and layer tables, writes
/// the spans to `<out>/<workload>.trace.jsonl`, returns the per-layer
/// metrics.
pub fn traced(full: &Scenario, args: &Args) -> io::Result<Outcome> {
    let spec = full.spec;
    let units = if args.smoke {
        full.units
    } else {
        (full.units / 2).max(2)
    };
    let sc = &Scenario::new(spec, full.seed, units);
    let r = sc.unit_rounds() as usize;
    let u = units as usize;
    let uf = units as f64;
    let timed = r..(u + 1) * r;
    let started = Instant::now();
    let mut rows: Vec<Metric> = Vec::new();
    let mut problems: Vec<String> = Vec::new();

    // ---- the runs ----------------------------------------------------------
    let cpu_before = process_cpu();
    let (base, net_base) = match spec.transport {
        Transport::Engine => (
            measure_engine(sc, &EngineOpts::default(), args.tamper),
            None,
        ),
        Transport::Net => {
            let NetMeasured {
                run,
                verdict,
                engine,
            } = measure_net(sc, args.tamper, &args.out_dir)?;
            (engine, Some((run, verdict)))
        }
    };
    let cpu_base = process_cpu().since(cpu_before);
    let a = &base.profile;

    let (tele_c, sink) = Telemetry::with_memory_sink();
    let traced: EngineMeasured = measure_engine(
        sc,
        &EngineOpts {
            telemetry: tele_c.clone(),
            threads: 0,
        },
        false,
    );
    let c = &traced.profile;
    let delta_c = timed_metrics(&tele_c, &traced.run);
    let sink_bytes = sink.lock().map_or(0, |buf| buf.len());
    drop(sink);

    let pool = run_uls(
        sc,
        &EngineOpts {
            threads: 2,
            ..EngineOpts::default()
        },
    );
    let pool_profile = Profile::of(&pool, sc.unit_rounds(), units);
    drop(pool);

    let tele_al = Telemetry::enabled();
    let peel = run_als(
        sc,
        &EngineOpts {
            telemetry: tele_al.clone(),
            threads: 0,
        },
    );
    let peel_profile = Profile::of(&peel, sc.unit_rounds(), units);
    let delta_al = timed_metrics(&tele_al, &peel);

    // ---- checks on the traced runs ------------------------------------------
    problems.extend(base.verdict.problems.iter().cloned());
    problems.extend(
        traced
            .verdict
            .problems
            .iter()
            .map(|p| format!("traced run: {p}")),
    );
    if traced.run.result != base.run.result {
        problems.push(
            "the wrapped, telemetry-on run does not reproduce the bare run's SimResult".into(),
        );
    }
    let rejected = counter(&delta_c, "uls/rejected");
    if spec.rotation.is_none() && rejected > 0.0 {
        problems.push(format!("{rejected} messages rejected on a clean workload"));
    }
    if peel.result.stats.alerts.iter().sum::<u64>() > 0 {
        problems.push("the AL-model PDS alone raised alerts".into());
    }

    // ---- spans ---------------------------------------------------------------
    let run_id = format!("{}-seed{}", spec.name, sc.seed);
    let (mut log, root) = engine_spans(
        run_id.clone(),
        &traced.run.stamps,
        &traced.run.node_steps,
        sc.unit_rounds(),
    );
    print_self_times("engine run C", &log, root);
    let mut gap = log.self_time_gap(root);

    // ---- primitives, crypto, codec: micro rows --------------------------------
    rows.extend(micro::rows(spec, &args.out_dir));
    let mut push =
        |name: &str, value: f64, unit: &'static str, samples: usize, how: &'static str| {
            rows.push(Metric::new(name, value, unit, samples, how));
        };
    const INSITU: &str = "p50 of the in-situ histogram, interpolated inside its bucket";
    for (row, hist) in [
        ("crypto.insitu.sign_us_p50", CRYPTO_HISTS[0]),
        ("crypto.insitu.verify_us_p50", CRYPTO_HISTS[1]),
        ("crypto.insitu.batch_verify_us_p50", CRYPTO_HISTS[2]),
    ] {
        let (p50, n) = hist_p50_us(&delta_c, hist);
        push(row, p50, "us", n, INSITU);
    }

    // ---- pds -----------------------------------------------------------------
    const PEEL: &str = "AL-model PDS alone, sum of per-round medians";
    const PER_UNIT: &str = "counter over the timed units / units";
    let pds_refresh_ms = peel_profile.refresh_s() * 1e3;
    let pds_round_ms = peel_profile.normal_round_ms();
    push("pds.refresh_unit_ms", pds_refresh_ms, "ms", u, PEEL);
    push(
        "pds.sign_round_ms",
        pds_round_ms,
        "ms",
        u,
        "AL-model PDS alone, mean of per-round medians over normal rounds",
    );
    for (row, name) in [
        ("pds.sign_sessions_per_unit", "pds/sign_started"),
        ("pds.sign_failed_per_unit", "pds/sign_failed"),
        ("pds.sign_expired_per_unit", "pds/sign_expired"),
    ] {
        push(row, counter(&delta_c, name) / uf, "count", u, PER_UNIT);
    }
    let latency = delta_c.value_hists.get("pds/sign_latency_rounds");
    push(
        "pds.sign_latency_rounds_p50",
        latency.map_or(0.0, |h| h.quantile_bounded(&HIST_BOUNDS_VALUE, 0.5) as f64),
        "rounds",
        latency.map_or(0, |h| h.total as usize),
        "p50 bucket of pds/sign_latency_rounds (logical PDS rounds)",
    );
    let (hit, miss) = (
        counter(&delta_c, "pds/nonce_pool_hit"),
        counter(&delta_c, "pds/nonce_pool_miss"),
    );
    push(
        "pds.nonce_pool_hit_share",
        ratio(hit, hit + miss),
        "ratio",
        (hit + miss) as usize,
        "hits / (hits + misses)",
    );
    let batched = counter(&delta_c, "uls/certs_checked");
    let single = delta_c
        .hists
        .get(CRYPTO_HISTS[1])
        .map_or(0.0, |h| h.total as f64);
    push(
        "pds.verify_batched_share",
        ratio(batched, batched + single),
        "ratio",
        (batched + single) as usize,
        "certificates checked in batches / (those + single verifications)",
    );
    let (step_p50, step_n) = hist_p50_us(&delta_c, "pds/refresh_step_ns");
    push(
        "pds.refresh_step_ms_p50",
        step_p50 / 1e3,
        "ms",
        step_n,
        INSITU,
    );

    // ---- threshold signing as its users see it (run A) ---------------------
    let latencies = sign_latencies_ms(sc, a, &base.verdict);
    let n_lat = latencies.len();
    if n_lat > 0 && !percentile_supported(n_lat, 0.9) {
        problems.push(format!(
            "{n_lat} sign latencies: fewer than ten beyond the 90th percentile"
        ));
    }
    const NO_REQUESTS: &str = "no sign requests on this workload";
    if n_lat == 0 {
        push("sigs_per_s", 0.0, "1/s", 0, NO_REQUESTS);
    } else {
        push(
            "sigs_per_s",
            base.verdict.signed_msgs as f64 / uf / a.unit_s(),
            "1/s",
            u,
            "distinct messages signed per unit / unit time",
        );
    }
    for (row, q) in [("sign_p50_ms", 0.5), ("sign_p90_ms", 0.9)] {
        if n_lat == 0 {
            push(row, 0.0, "ms", 0, NO_REQUESTS);
        } else {
            push(
                row,
                quantile(&latencies, q),
                "ms",
                n_lat,
                "request latencies over the profile: input round to the round of the first Signed",
            );
        }
    }

    // ---- core ----------------------------------------------------------------
    push(
        "core.stack_overhead_refresh_ms",
        a.refresh_s() * 1e3 - pds_refresh_ms,
        "ms",
        u,
        "refresh_s (run A) - pds.refresh_unit_ms: what CERTIFY, PA and DISPERSE add",
    );
    push(
        "core.stack_overhead_sign_round_ms",
        a.normal_round_ms() - pds_round_ms,
        "ms",
        u,
        "normal_round_ms (run A) - pds.sign_round_ms",
    );
    for (row, name) in [
        ("core.disperse.sends", "disperse/sends"),
        ("core.disperse.relays", "disperse/relays"),
        ("core.disperse.bytes", "disperse/bytes"),
        ("core.pa.evidence", "pa/evidence"),
        ("core.pa.decided", "pa/decided"),
        ("core.uls.sig_sent", "uls/sig_sent"),
        ("core.uls.certs_checked", "uls/certs_checked"),
        ("core.uls.accepted", "uls/accepted"),
        ("core.uls.rejected", "uls/rejected"),
        ("core.uls.alerts", "uls/alerts"),
    ] {
        let unit = if name == "disperse/bytes" {
            "B"
        } else {
            "count"
        };
        push(row, counter(&delta_c, name) / uf, unit, u, PER_UNIT);
    }
    let (delivered, suppressed) = (
        counter(&delta_c, "disperse/delivered"),
        counter(&delta_c, "disperse/dedup_suppressed"),
    );
    push(
        "core.disperse.dedup_share",
        ratio(suppressed, delivered + suppressed),
        "ratio",
        (delivered + suppressed) as usize,
        "duplicates suppressed / (delivered + suppressed)",
    );
    let (p1, refresh) = (PART1_ROUNDS as usize, REFRESH_ROUNDS as usize);
    const NODE_STEP: &str =
        "sum over nodes of on_round time, per-round medians over the timed units (run C)";
    let nodes_ms = |from: usize, to: usize| c.nodes_s[from..to].iter().sum::<f64>() * 1e3;
    push(
        "core.node_step.refresh1_ms",
        nodes_ms(0, p1),
        "ms",
        u,
        NODE_STEP,
    );
    push(
        "core.node_step.refresh2_ms",
        nodes_ms(p1, refresh),
        "ms",
        u,
        NODE_STEP,
    );
    push(
        "core.node_step.normal_ms",
        nodes_ms(refresh, r),
        "ms",
        u,
        NODE_STEP,
    );
    let timed_c = &c.rounds[timed.clone()];
    let max_sum: f64 = timed_c.iter().map(|t| t.slowest_node_s).sum();
    let mean_sum: f64 = timed_c
        .iter()
        .map(|t| ratio(t.nodes_s, t.nodes as f64))
        .sum();
    push(
        "core.node_step.max_over_mean",
        ratio(max_sum, mean_sum),
        "ratio",
        timed.len(),
        "sum over rounds of the slowest node / sum of the mean node",
    );
    let recovery: Vec<f64> = base
        .verdict
        .recovery_units
        .iter()
        .map(|&x| x as f64)
        .collect();
    push(
        "core.recovery_units_p50",
        if recovery.is_empty() {
            0.0
        } else {
            median(&recovery)
        },
        "units",
        recovery.len(),
        "median units from a wipe to the first heartbeat accepted again (0: nobody wiped)",
    );

    // ---- sim: engine -----------------------------------------------------------
    let (step_a, merge_a): (f64, f64) = (a.step_s.iter().sum(), a.merge_s.iter().sum());
    push(
        "sim.runner.step_ms_per_round",
        step_a / r as f64 * 1e3,
        "ms",
        u,
        "run A: plan->deliver, per-round medians",
    );
    push(
        "sim.runner.merge_ms_per_round",
        merge_a / r as f64 * 1e3,
        "ms",
        u,
        "run A: deliver->next plan, per-round medians",
    );
    push(
        "sim.runner.merge_share",
        ratio(merge_a, step_a + merge_a),
        "ratio",
        u,
        "merge / (step + merge)",
    );
    push(
        "sim.runner.first_refresh_ratio",
        ratio(a.unit_walls_s[0], a.unit_s()),
        "ratio",
        1,
        "wall of the first refresh-bearing unit / uncontended unit: lazy initialisation outside setup_s",
    );
    push(
        "sim.pool.speedup_t2",
        ratio(a.raw_unit_s, pool_profile.raw_unit_s),
        "ratio",
        u,
        "serial unit / unit with parallel = true, threads = 2 (plain per-round minima as they went: the kernel cannot tell the pool's own threads from the host)",
    );

    // ---- sim: transport ---------------------------------------------------------
    let mut trace_overhead = ratio(c.unit_s(), a.unit_s()) - 1.0;
    const NODE1: &str = "median over node 1's units of the traced socket run";
    match &net_base {
        None => {
            push(
                "sim.net.core_ms_per_round",
                step_a / r as f64 * 1e3,
                "ms",
                u,
                "engine workload: node steps only",
            );
            push(
                "sim.net.transport_ms_per_round",
                0.0,
                "ms",
                u,
                "engine workload: no transport",
            );
            push(
                "sim.net.transport_share",
                0.0,
                "ratio",
                u,
                "engine workload: no transport",
            );
            push(
                "sim.net.cpu_sys_share",
                ratio(cpu_base.sys_ns as f64, cpu_base.total_ns() as f64),
                "ratio",
                1,
                "system / (user + system) CPU over run A",
            );
            push("sim.net.mark_timeouts", 0.0, "count", 1, "engine workload");
            push("sim.net.late_frames", 0.0, "count", 1, "engine workload");
            push("sim.net.engine_ratio", 1.0, "ratio", 1, "engine workload");
            push("sim.net.rounds_per_s", 0.0, "1/s", 0, "engine workload");
            push("sim.net.cpu_ms_per_round", 0.0, "ms", 0, "engine workload");
        }
        Some((run_a, verdict_a)) => {
            problems.extend(verdict_a.problems.iter().cloned());
            let unit_a = net_units_s(run_a, r, u);
            let net_c = run_net(sc, sc.total_rounds(), true, &args.out_dir)?;
            if net_c.outcome.outputs != run_a.outcome.outputs {
                problems.push(
                    "the telemetry-on socket run does not reproduce the bare one's outputs".into(),
                );
            }
            let node = &net_c.nodes[0];
            let full_units = 1..u;
            let per_unit = |f: &dyn Fn(usize) -> u64| -> Vec<f64> {
                full_units
                    .clone()
                    .map(|unit| {
                        (unit * r..(unit + 1) * r).map(f).sum::<u64>() as f64 / 1e6 / r as f64
                    })
                    .collect()
            };
            let core_ms = median(&per_unit(&|i| node.exit_ns[i] - node.enter_ns[i]));
            let transport_ms = median(&per_unit(&|i| node.enter_ns[i + 1] - node.exit_ns[i]));
            let n_units = full_units.len();
            push("sim.net.core_ms_per_round", core_ms, "ms", n_units, NODE1);
            push(
                "sim.net.transport_ms_per_round",
                transport_ms,
                "ms",
                n_units,
                NODE1,
            );
            push(
                "sim.net.transport_share",
                ratio(transport_ms, core_ms + transport_ms),
                "ratio",
                n_units,
                "transport / (core + transport)",
            );
            let cpu = net_c.cpu_at_unit[u].since(net_c.cpu_at_unit[1]);
            push(
                "sim.net.cpu_sys_share",
                ratio(cpu.sys_ns as f64, cpu.total_ns() as f64),
                "ratio",
                n_units,
                "system / (user + system) CPU over the timed units",
            );
            let sum = |f: &dyn Fn(&proauth_sim::net::NodeReport) -> u64| -> f64 {
                run_a
                    .reports
                    .iter()
                    .chain(&net_c.reports)
                    .map(f)
                    .sum::<u64>() as f64
            };
            push(
                "sim.net.mark_timeouts",
                sum(&|rep| rep.mark_timeouts),
                "count",
                2,
                "both socket runs, all nodes",
            );
            push(
                "sim.net.late_frames",
                sum(&|rep| rep.late_frames),
                "count",
                2,
                "both socket runs, all nodes",
            );
            let net_unit = median(&unit_a);
            push(
                "sim.net.engine_ratio",
                ratio(median(&a.unit_walls_s), net_unit),
                "ratio",
                unit_a.len(),
                "socket rounds/s / engine rounds/s, same scenario, median units as they went",
            );
            push(
                "sim.net.rounds_per_s",
                r as f64 / net_unit,
                "1/s",
                unit_a.len(),
                "unit rounds / median of node 1's enter-to-enter units, untraced socket run",
            );
            let cpu_a = run_a.cpu_at_unit[u].since(run_a.cpu_at_unit[1]);
            push(
                "sim.net.cpu_ms_per_round",
                cpu_a.total_ns() as f64 / 1e6 / ((u - 1) * r) as f64,
                "ms",
                unit_a.len(),
                "process user+sys over the full timed units / their rounds, untraced socket run",
            );
            trace_overhead = ratio(median(&net_units_s(&net_c, r, u)), net_unit) - 1.0;
            let (net_log, node_roots) = net_spans(run_id, &net_c.nodes);
            print_self_times("socket run, node 1", &net_log, node_roots[0]);
            gap = node_roots
                .iter()
                .map(|&id| net_log.self_time_gap(id))
                .fold(gap, f64::max);
            // One file: the socket spans follow the engine's, ids shifted.
            let shift = log.spans.len() as u64;
            log.spans.extend(net_log.spans.into_iter().map(|mut s| {
                s.id += shift;
                s.parent = s.parent.map(|p| p + shift);
                s
            }));
        }
    }

    // ---- telemetry, bench, adversary, host ----------------------------------------
    push(
        "telemetry.overhead_share",
        ratio(c.unit_s(), a.unit_s()) - 1.0,
        "ratio",
        u,
        "unit with telemetry + in-memory flight recorder / unit without, - 1 (run C vs A)",
    );
    let snapshot: MetricsSnapshot = tele_c.snapshot().unwrap_or_default();
    let encode_s = {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            for _ in 0..20 {
                std::hint::black_box(snapshot.delta_since(&MetricsSnapshot::default()).to_bytes());
            }
            best = best.min(start.elapsed().as_secs_f64() / 20.0);
        }
        best
    };
    push(
        "telemetry.delta.encode_us",
        encode_s * 1e6,
        "us",
        5,
        "delta_since + encode of run C's registry, fastest batch",
    );
    push(
        "bench.trace_overhead_share",
        trace_overhead,
        "ratio",
        u,
        "traced unit / untraced unit - 1 (engine: run C vs A, i.e. telemetry; sockets: node telemetry on vs off)",
    );
    push(
        "adversary.wipes_per_unit",
        counter(&delta_c, "adversary/wipes") / uf,
        "count",
        u,
        PER_UNIT,
    );
    let impaired_max = base.impaired_per_unit.iter().copied().max().unwrap_or(0);
    push(
        "adversary.impaired_max",
        base.run
            .max_impaired
            .map_or(impaired_max as f64, |m| m as f64),
        "count",
        u + 1,
        "most nodes impaired (broken or not yet operational again) in one unit",
    );
    push(
        "host.contention_ratio",
        a.contention_ratio(),
        "ratio",
        u,
        "median unit as it went / uncontended unit, run A (informational)",
    );

    // ---- budget: where one traced unit goes ------------------------------------------
    let sums_c = timed_sums(c, timed.clone());
    let sums_al = timed_sums(&peel_profile, timed.clone());
    // The in-situ histograms hold times as they went; bring them to the
    // same normalised seconds as the round sums of their run.
    let crypto_c = crypto_ns(&delta_c) * 1e-9 / sums_c.effective_slowdown;
    let crypto_al = crypto_ns(&delta_al) * 1e-9 / sums_al.effective_slowdown;
    let pds_exclusive = sums_al.nodes - crypto_al;
    let wall_c = sums_c.wall;
    let shares = [
        (
            "budget.crypto_share",
            crypto_c,
            "in-situ Schnorr sign/verify/batch-verify time / unit (run C)",
        ),
        (
            "budget.pds_share",
            pds_exclusive,
            "AL-model PDS node time minus its in-situ crypto / unit",
        ),
        (
            "budget.core_share",
            sums_c.nodes - crypto_c - pds_exclusive,
            "node time of run C minus in-situ crypto minus the PDS share / unit",
        ),
        (
            "budget.merge_share",
            sums_c.merge,
            "engine merge (deliver to next boundary) / unit (run C)",
        ),
        (
            "budget.unattributed_share",
            sums_c.wall - sums_c.merge - sums_c.nodes,
            "plan-to-deliver time outside every node's on_round / unit (run C)",
        ),
    ];
    let budget_sum: f64 = shares
        .iter()
        .map(|(_, seconds, _)| ratio(*seconds, wall_c))
        .sum();
    for (name, seconds, how) in shares {
        push(name, ratio(seconds, wall_c), "ratio", u, how);
    }

    // ---- write-out and summary ---------------------------------------------------------
    let path = args.out_dir.join(format!("{}.trace.jsonl", spec.name));
    log.write_jsonl(&path)?;
    println!(
        "# trace: {} spans -> {}; worst |sum of self times - root| / root = {:.5} (limit 0.02)",
        log.spans.len(),
        path.display(),
        gap
    );
    println!("# budget rows sum to {budget_sum:.4} (limit 1 +- 0.02); flight recorder of run C: {sink_bytes} bytes");
    println!(
        "# traced side runs took {:.1}s",
        started.elapsed().as_secs_f64()
    );
    if gap > 0.02 {
        problems.push(format!("span self times miss the root by {gap:.4}"));
    }
    if (budget_sum - 1.0).abs() > 0.02 {
        problems.push(format!("budget rows sum to {budget_sum:.4}"));
    }
    let failed = base.verdict.failed + traced.verdict.failed;
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted: base.verdict.attempted,
        failed,
        metrics: rows,
        contention_ratio: a.contention_ratio(),
        plain_rounds_per_s: r as f64 / a.raw_unit_s,
        problems,
    })
}

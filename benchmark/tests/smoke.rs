//! `--smoke` of every workload through the same code path as the binary:
//! every correctness check must pass, every metric `BENCHMARK.json` names
//! must be reported, the wrappers must not change a run's result, and a
//! deliberately broken check must turn the verdict.

use proauth_benchmark::cli::{run_workload, Args};
use proauth_benchmark::engine::{run_uls, EngineOpts};
use proauth_benchmark::workload::{find, Scenario, WORKLOADS};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::uls::{UlsConfig, UlsNode};
use proauth_crypto::group::Group;
use proauth_sim::adversary::FaithfulUl;
use proauth_sim::runner::run_ul_with_inputs;
use proauth_sim::Telemetry;
use std::path::PathBuf;

fn smoke_args(tag: &str) -> Args {
    Args {
        smoke: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag),
        ..Args::default()
    }
}

/// Names listed under `section` of the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_owned())
        .collect()
}

#[test]
fn smoke_runs_are_correct_and_report_every_end_to_end_metric() {
    let names = declared("end_to_end");
    assert_eq!(names.len(), 9);
    for spec in &WORKLOADS {
        let out = run_workload(spec, &smoke_args(spec.name)).expect("run");
        assert!(out.correct, "{}: {:?}", spec.name, out.problems);
        assert!(out.attempted > 0 && out.failed == 0);
        let reported: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            reported, names,
            "{}: metrics differ from BENCHMARK.json",
            spec.name
        );
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                spec.name,
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn a_flipped_signature_byte_turns_the_verdict() {
    for name in ["mobile-toy64-n16", "net-toy64-n5"] {
        let mut args = smoke_args("tamper");
        args.tamper = true;
        let out = run_workload(find(name).unwrap(), &args).expect("run");
        assert!(
            !out.correct,
            "{name}: a corrupted certificate went unnoticed"
        );
        assert!(
            out.problems
                .iter()
                .any(|p| p.contains("does not verify under v_cert")),
            "{name}: {:?}",
            out.problems
        );
        // The operations themselves all completed; only the check broke.
        assert_eq!(out.failed, 0);
    }
}

#[test]
fn traced_smoke_reports_every_per_layer_metric() {
    let names = declared("per_layer");
    for name in ["net-toy64-n5", "mobile-toy64-n16"] {
        let mut args = smoke_args("traced");
        args.trace = true;
        let out = run_workload(find(name).unwrap(), &args).expect("run");
        // Correct includes: span self times sum to the root within 2 %,
        // budget rows sum to 1 within 0.02, wrapped run == bare run.
        assert!(out.correct, "{name}: {:?}", out.problems);
        let reported: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            reported, names,
            "{name}: per-layer rows differ from BENCHMARK.json"
        );
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        let trace = args.out_dir.join(format!("{name}.trace.jsonl"));
        let lines = std::fs::read_to_string(trace).expect("trace file");
        assert!(lines.lines().count() > 1000);
        assert!(lines
            .lines()
            .all(|l| l.starts_with("{\"run\":\"") && l.ends_with('}')));
    }
}

/// `Stamp` and `Probe` (and telemetry) leave the `SimResult` of a run
/// exactly as the bare engine call produces it.
#[test]
fn wrappers_do_not_change_the_result() {
    let spec = find("net-toy64-n5").unwrap();
    let sc = Scenario::new(spec, 77, 2);
    let uls = UlsConfig::new(Group::new(spec.group), spec.n, spec.t);
    let bare = run_ul_with_inputs(
        sc.uls_config(),
        |id| UlsNode::new(uls.clone(), id, HeartbeatApp::default()),
        &mut FaithfulUl,
        |_, round| sc.uls_input(round),
    );
    let stamped = run_uls(&sc, &EngineOpts::default());
    assert_eq!(stamped.result, bare, "Stamp or Probe changed the run");
    let wrapped = run_uls(
        &sc,
        &EngineOpts {
            telemetry: Telemetry::enabled(),
            threads: 0,
        },
    );
    assert_eq!(wrapped.result, bare, "telemetry changed the run");
    assert_eq!(wrapped.node_steps.len(), spec.n);
    assert!(wrapped
        .node_steps
        .iter()
        .all(|s| s.len() as u64 == sc.total_rounds()));
    // The mobile adversary's break-ins still reach the real node through
    // the wrapper (`state_mut` forwards): wiped nodes must recover, which
    // the smoke test of `mobile-toy64-n16` checks on both paths.
}

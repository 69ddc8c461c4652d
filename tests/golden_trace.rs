//! Golden-trace snapshot: the flight recorder's JSONL event sequence is a
//! pure function of `(config, seed, adversary)` — the engine variant must
//! not show through. One fixed scenario (n = 13, an active adversary mixing
//! break-ins and random drops with a chaos layer of scheduled
//! crash–restarts and chaotic delivery) is run on the serial engine and on
//! worker
//! pools of 1 and 4 threads; after stripping the `wall_*` fields (the only
//! nondeterministic bytes, by design) the three traces must be
//! **byte-identical**, and so must the three `SimResult`s.
//!
//! This is the observability analogue of `prop_engine_determinism`: it
//! pins not just the simulation outcome but the *recorded evidence* of it.

use proauth_adversary::{CorruptMode, MobileBreakins, RandomDropper};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::uls::{uls_schedule, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_crypto::group::{Group, GroupId};
use proauth_sim::adversary::{BreakPlan, NetView, UlAdversary};
use proauth_sim::chaos::{ChaosConfig, ChaosNet, LinkChaos};
use proauth_sim::clock::TimeView;
use proauth_sim::message::{Envelope, NodeId};
use proauth_sim::runner::{run_ul, SimConfig, SimResult};
use proauth_sim::telemetry::{memory_contents, strip_wall_fields, Telemetry};

const N: usize = 13;
const T: usize = 6;
const NORMAL: u64 = 8;
const UNITS: u64 = 2;

/// Break-ins (wipe) riding on top of seeded random message drops: exercises
/// the adversary-side counters (break_ins, wipes, dropped) while staying
/// fully deterministic for a fixed seed.
struct ActiveAdversary {
    breakins: MobileBreakins<HeartbeatApp>,
    dropper: RandomDropper,
}

impl UlAdversary for ActiveAdversary {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        self.breakins.plan(view)
    }
    fn corrupt(&mut self, node: NodeId, state: &mut dyn std::any::Any, time: &TimeView) {
        self.breakins.corrupt(node, state, time);
    }
    fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        self.dropper.deliver(sent, view)
    }
}

fn run_traced(parallel: bool, threads: usize) -> (SimResult, String) {
    let schedule = uls_schedule(NORMAL);
    let mut cfg = SimConfig::new(N, T, schedule);
    cfg.setup_rounds = SETUP_ROUNDS;
    cfg.total_rounds = schedule.unit_rounds * UNITS;
    cfg.seed = 7;
    cfg.parallel = parallel;
    cfg.threads = threads;
    let (telemetry, buf) = Telemetry::with_memory_sink();
    cfg.telemetry = telemetry;

    let group = Group::new(GroupId::Toy64);
    let make_node = |id: NodeId| {
        let c = UlsConfig::new(group.clone(), N, T);
        UlsNode::new(c, id, HeartbeatApp::default())
    };
    // Chaos on top of the break-ins and drops: scheduled crash–restarts plus
    // link faults (delay, duplication). Every knob at once — the trace must
    // still be a pure function of (config, seed, adversary).
    let chaos = ChaosConfig {
        crash_p: 0.01,
        boundary_crash_p: 0.5,
        restart_after: Some(6),
        max_down: 2,
        presumed_down: None,
        target: None,
        link: LinkChaos {
            seed: 0xC405,
            delay_pct: 2,
            dup_pct: 2,
            ..LinkChaos::default()
        },
    };
    let mut adv = ChaosNet::compile(
        ActiveAdversary {
            breakins: MobileBreakins::rotating(
                N,
                2,
                UNITS,
                schedule.unit_rounds,
                4,
                6,
                CorruptMode::Wipe,
            ),
            dropper: RandomDropper::new(0.02, 0xD20),
        },
        chaos,
        N,
        cfg.total_rounds,
        &schedule,
        0xC405,
    );
    let result = run_ul(cfg, make_node, &mut adv);
    let raw = memory_contents(&buf);
    (result, strip_wall_fields(&raw))
}

#[test]
fn golden_trace_is_engine_invariant() {
    let (serial_result, serial_trace) = run_traced(false, 0);
    let (pool1_result, pool1_trace) = run_traced(true, 1);
    let (pool4_result, pool4_trace) = run_traced(true, 4);

    assert_eq!(serial_result, pool1_result, "serial vs pool(1) results");
    assert_eq!(serial_result, pool4_result, "serial vs pool(4) results");

    // Byte-identical traces once wall-clock fields are stripped.
    assert_eq!(serial_trace, pool1_trace, "serial vs pool(1) trace");
    assert_eq!(serial_trace, pool4_trace, "serial vs pool(4) trace");

    // Structural sanity of the snapshot itself.
    let total_rounds = uls_schedule(NORMAL).unit_rounds * UNITS;
    let lines: Vec<&str> = serial_trace.lines().collect();
    assert!(
        lines[0].starts_with(&format!("{{\"ev\":\"run_start\",\"n\":{N},")),
        "first event is run_start: {}",
        lines[0]
    );
    assert!(
        lines.last().unwrap().starts_with("{\"ev\":\"run_end\","),
        "last event is run_end"
    );
    let count = |kind: &str| {
        let tag = format!("{{\"ev\":\"{kind}\",");
        lines.iter().filter(|l| l.starts_with(&tag)).count() as u64
    };
    assert_eq!(count("round_start"), total_rounds);
    assert_eq!(count("round_end"), total_rounds);
    assert_eq!(count("unit_end"), UNITS);

    // The active adversary left its marks in the trace and the stats.
    assert!(
        serial_trace.contains("\"adversary/break_ins\":"),
        "break-ins recorded in unit_end counters"
    );
    assert!(
        serial_trace.contains("\"adversary/wipes\":"),
        "wipes recorded in unit_end counters"
    );
    assert!(serial_result.stats.messages_dropped > 0, "dropper was live");

    // The chaos layer was live too, and its events are part of the golden
    // sequence: scheduled crashes, restarts, and delivery faults.
    assert!(serial_result.stats.crashes > 0, "chaos crashed somebody");
    assert!(serial_result.stats.restarts > 0, "and restarted them");
    assert!(
        serial_trace.contains("{\"ev\":\"node_crash\","),
        "crashes recorded in the trace"
    );
    assert!(
        serial_trace.contains("{\"ev\":\"node_restart\","),
        "restarts recorded in the trace"
    );
}

//! Concurrent-session composition: the PDS session table runs many
//! interleaved sign sessions per round, with faults (garbled shares, wiped
//! nodes) forcing retries in all of them at once, without weakening any
//! per-session guarantee — the executable content of the composition
//! argument the signing-as-a-service layer rests on.

use proauth_crypto::group::{Group, GroupId};
use proauth_pds::als::{AlsConfig, AlsPds};
use proauth_pds::als_node::AlsProcess;
use proauth_primitives::bigint::BigUint;
use proauth_sim::adversary::{AlAdversary, BreakPlan, NetView, PassiveAl};
use proauth_sim::clock::{Schedule, TimeView};
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_sim::runner::{run_al_with_inputs, SimConfig, SimResult};
use proauth_sim::workload::{ClientBatch, ClientOp};
use proauth_telemetry::Telemetry;
use std::collections::BTreeSet;

const N: usize = 5;
const T: usize = 2;

fn schedule() -> Schedule {
    Schedule::new(20, 1, 8)
}

fn cfg(total_units: u64) -> SimConfig {
    let mut c = SimConfig::new(N, T, schedule());
    c.setup_rounds = 2;
    c.total_rounds = schedule().unit_rounds * total_units;
    c.seed = 7;
    c
}

fn make_node_with(tweak: impl Fn(&mut AlsConfig)) -> impl Fn(NodeId) -> AlsProcess {
    move |id| {
        let group = Group::new(GroupId::Toy64);
        let mut c = AlsConfig::new(group, N, T);
        tweak(&mut c);
        AlsProcess::new(AlsPds::new(c, id))
    }
}

fn make_node(id: NodeId) -> AlsProcess {
    make_node_with(|_| {})(id)
}

/// Distinct `(msg, unit)` pairs each node reported signed.
fn signed_at(result: &SimResult, node: NodeId) -> BTreeSet<(Vec<u8>, u64)> {
    result.outputs[node.idx()]
        .iter()
        .filter_map(|(_, ev)| match ev {
            OutputEvent::Signed { msg, unit } => Some((msg.clone(), *unit)),
            _ => None,
        })
        .collect()
}

fn sign_batch(msgs: &[Vec<u8>]) -> Vec<u8> {
    ClientBatch {
        ops: msgs
            .iter()
            .map(|m| ClientOp::Sign { msg: m.clone() })
            .collect(),
    }
    .to_bytes()
}

fn msgs(prefix: &str, count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| format!("{prefix}-{i:03}").into_bytes())
        .collect()
}

/// Wipes node 1 (its whole session table is lost) and garbles node 2's
/// share (its key fails self-consistency, so it stops contributing
/// partials) right after the inits round — every concurrent session is
/// forced through the retry path simultaneously.
struct FaultPair;

impl AlAdversary for FaultPair {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        match view.time.round {
            3 => BreakPlan::break_into([NodeId(1), NodeId(2)]),
            4 => BreakPlan::leave([NodeId(1), NodeId(2)]),
            _ => BreakPlan::none(),
        }
    }

    fn corrupt(&mut self, node: NodeId, state: &mut dyn std::any::Any, _time: &TimeView) {
        let Some(p) = state.downcast_mut::<AlsProcess>() else {
            return;
        };
        match node {
            NodeId(1) => p.pds.corrupt_wipe(),
            _ => p.pds.corrupt_share(BigUint::from_u64(0xDEAD)),
        }
    }
}

#[test]
fn twenty_interleaved_sessions_with_faults_all_complete() {
    let requests = msgs("interleaved", 20);
    let batch = sign_batch(&requests);
    let result = run_al_with_inputs(cfg(1), make_node, &mut FaultPair, |_, round| {
        (round == 2).then(|| batch.clone())
    });
    // Every healthy node completes all 20 sessions: nodes 1 and 2 both
    // withheld their attempt-0 partials (wiped table, garbled share), so
    // each of the 20 concurrent sessions retried with the honest remainder
    // {3, 4, 5} — exactly t+1 signers.
    let want: BTreeSet<(Vec<u8>, u64)> =
        requests.iter().map(|m| (m.clone(), 0u64)).collect();
    for node in [3u32, 4, 5] {
        assert_eq!(
            signed_at(&result, NodeId(node)),
            want,
            "node {node} completed all 20 retried sessions"
        );
    }
    // The wiped node lost its session table outright.
    assert!(signed_at(&result, NodeId(1)).is_empty());
}

#[test]
fn sixteen_sessions_clean_path_all_complete_everywhere() {
    let requests = msgs("clean", 16);
    let batch = sign_batch(&requests);
    let result = run_al_with_inputs(cfg(1), make_node, &mut PassiveAl, |_, round| {
        (round == 2).then(|| batch.clone())
    });
    let want: BTreeSet<(Vec<u8>, u64)> =
        requests.iter().map(|m| (m.clone(), 0u64)).collect();
    for node in 1..=N as u32 {
        assert_eq!(signed_at(&result, NodeId(node)), want, "node {node}");
    }
}

#[test]
fn session_cap_rejects_excess_requests() {
    let requests = msgs("capped", 12);
    let batch = sign_batch(&requests);
    let tele = Telemetry::enabled();
    let mut c = cfg(1);
    c.telemetry = tele.clone();
    let result = run_al_with_inputs(
        c,
        make_node_with(|cfg| cfg.max_sessions = 8),
        &mut PassiveAl,
        |_, round| (round == 2).then(|| batch.clone()),
    );
    // Eight sessions fit under the cap; the other four are rejected at
    // every node (same deterministic order everywhere).
    let signed = signed_at(&result, NodeId(4));
    assert_eq!(signed.len(), 8, "{signed:?}");
    assert_eq!(tele.counter("pds/sign_rejected"), (12 - 8) * N as u64);
    assert_eq!(tele.counter("pds/sign_started"), 8 * N as u64);
}

#[test]
fn age_gc_expires_stalled_sessions() {
    // With an absurdly tight age bound every session is collected before it
    // can complete: the GC path runs, the expired counter ticks, and no
    // signature is reported.
    let requests = msgs("stalled", 4);
    let batch = sign_batch(&requests);
    let tele = Telemetry::enabled();
    let mut c = cfg(1);
    c.telemetry = tele.clone();
    let result = run_al_with_inputs(
        c,
        make_node_with(|cfg| cfg.session_max_age = 1),
        &mut PassiveAl,
        |_, round| (round == 2).then(|| batch.clone()),
    );
    for node in 1..=N as u32 {
        assert!(signed_at(&result, NodeId(node)).is_empty());
    }
    assert_eq!(tele.counter("pds/sign_expired"), 4 * N as u64);
}

#[test]
fn sessions_straddling_a_refresh_are_aborted_and_counted() {
    // Three requests early in unit 0 complete; four arrive in its last
    // round, send their partials in unit 1's Part I (a normal PDS round)
    // and would combine in the next round — refresh step 0, which drops
    // every live session because the shares, and with them the sessions'
    // nonces, are about to change.
    let early = msgs("early", 3);
    let late = msgs("late", 4);
    let (early_batch, late_batch) = (sign_batch(&early), sign_batch(&late));
    let last_unit0_round = schedule().unit_rounds - 1;
    let tele = Telemetry::enabled();
    let mut c = cfg(2);
    c.telemetry = tele.clone();
    let result = run_al_with_inputs(c, make_node, &mut PassiveAl, |_, round| {
        if round == 2 {
            Some(early_batch.clone())
        } else if round == last_unit0_round {
            Some(late_batch.clone())
        } else {
            None
        }
    });
    let want: BTreeSet<(Vec<u8>, u64)> = early.iter().map(|m| (m.clone(), 0u64)).collect();
    for node in 1..=N as u32 {
        assert_eq!(signed_at(&result, NodeId(node)), want, "node {node}");
    }
    let n = N as u64;
    assert_eq!(tele.counter("pds/sign_aborted"), late.len() as u64 * n);
    // Every started session ends in exactly one counter by the unit
    // boundary: none vanishes uncounted.
    assert_eq!(tele.counter("pds/sign_started"), (early.len() + late.len()) as u64 * n);
    assert_eq!(
        tele.counter("pds/sign_started"),
        tele.counter("pds/sign_completed")
            + tele.counter("pds/sign_failed")
            + tele.counter("pds/sign_expired")
            + tele.counter("pds/sign_aborted")
    );
}

#[test]
fn verify_window_sizes_agree_on_outputs() {
    // Sign six messages, then fire verify requests at one responder. The
    // amortized window (8) and the per-item window (1) must produce
    // identical Verified output streams — amortization is a latency/cost
    // trade, never a semantic one.
    let requests = msgs("verify", 6);
    let batch = sign_batch(&requests);
    let verify_batch = ClientBatch {
        ops: vec![ClientOp::Verify; 5],
    }
    .to_bytes();
    let inputs = move |id: NodeId, round: u64| {
        if round == 2 {
            Some(batch.clone())
        } else if round == 8 && id == NodeId(3) {
            Some(verify_batch.clone())
        } else {
            None
        }
    };

    let run = |window: usize, tele: Telemetry| {
        let mut c = cfg(1);
        c.telemetry = tele;
        run_al_with_inputs(
            c,
            make_node_with(move |cfg| cfg.verify_window = window),
            &mut PassiveAl,
            inputs.clone(),
        )
    };
    let tele_batched = Telemetry::enabled();
    let batched = run(8, tele_batched.clone());
    let tele_single = Telemetry::enabled();
    let single = run(1, tele_single.clone());

    let verified = |r: &SimResult| -> Vec<Vec<u8>> {
        r.outputs[NodeId(3).idx()]
            .iter()
            .filter_map(|(_, ev)| match ev {
                OutputEvent::Verified { msg } => Some(msg.clone()),
                _ => None,
            })
            .collect()
    };
    let b = verified(&batched);
    assert_eq!(b.len(), 5, "all five verify requests served: {b:?}");
    assert_eq!(b, verified(&single), "window size is semantically invisible");
    assert_eq!(tele_batched.counter("pds/verify_ok"), 5);
    assert_eq!(tele_single.counter("pds/verify_ok"), 5);
    // The amortized run actually used the batch path; the per-item run
    // never did.
    assert_eq!(tele_batched.counter("pds/verify_batched"), 5);
    assert_eq!(tele_single.counter("pds/verify_batched"), 0);
}

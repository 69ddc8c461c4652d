//! Envelope-budget regression tests: the refresh phase must stay within an
//! O(n² · fanout) per-node envelope budget now that PA step-3 evidence rides
//! `Blob::EvidenceBundle` (one DISPERSE send per destination per subject)
//! instead of one send per majority member — the Θ(n³) wall the E11
//! throughput experiment hit before bundling (EXPERIMENTS.md).
//!
//! The pre-bundle encoding is gone from the product, so the Θ(n³) figure the
//! bundled run is compared against is computed, not run: every evidence
//! envelope on the wire stands for as many pre-bundle envelopes as its bundle
//! holds messages (one DISPERSE per majority member, same fan-out).
//!
//! The §6 relaxed mode routes every DISPERSE through the lowest-indexed
//! `fanout` nodes, so those hub nodes still carry super-quadratic relay
//! traffic (that is the relaxation's stated trade-off, not a regression).
//! The budget is therefore asserted two ways: the *mean* across all nodes,
//! and the *max* across non-hub nodes.

use proauth_core::authenticator::HeartbeatApp;
use proauth_core::disperse::DisperseMode;
use proauth_core::uls::{uls_schedule, AuthMode, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_core::wire::{Blob, DisperseView};
use proauth_crypto::group::{Group, GroupId};
use proauth_primitives::wire::Decode;
use proauth_sim::adversary::FaithfulUl;
use proauth_sim::message::NodeId;
use proauth_sim::runner::{run_ul, RoundRecord, SimConfig};
use std::collections::HashMap;

const FANOUT: usize = 7;

/// Runs unit 0 plus the full unit-1 refresh (Part I + Part II) and returns
/// the transcript.
fn run_refresh(n: usize, t: usize) -> Vec<RoundRecord> {
    let schedule = uls_schedule(8);
    let mut cfg = SimConfig::new(n, t, schedule);
    cfg.setup_rounds = SETUP_ROUNDS;
    // Unit 0 (44 rounds) + unit-1 refresh Part I and II (36 rounds).
    cfg.total_rounds = schedule.unit_rounds + schedule.part1_rounds + schedule.part2_rounds;
    cfg.seed = 87;
    cfg.parallel = false;
    cfg.record_transcript = true;
    let group = Group::new(GroupId::Toy64);
    let result = run_ul(
        cfg,
        |id| {
            let mut c = UlsConfig::new(group.clone(), n, t);
            c.auth_mode = AuthMode::SessionMac;
            c.disperse = DisperseMode::Relaxed { fanout: FANOUT };
            UlsNode::new(c, id, HeartbeatApp::default())
        },
        &mut FaithfulUl,
    );
    // The refresh must actually succeed — a budget met by nodes falling
    // over would prove nothing.
    assert!(
        result.stats.alerts.iter().all(|&a| a == 0),
        "refresh failed (alerts: {:?})",
        result.stats.alerts
    );
    result.transcript.expect("transcript recorded")
}

/// Per-node envelopes sent during the unit-1 refresh (rounds 44..80).
fn refresh_sent_per_node(transcript: &[RoundRecord], n: usize) -> Vec<usize> {
    let unit_rounds = uls_schedule(8).unit_rounds;
    let mut per_node = vec![0usize; n];
    for rec in transcript {
        if rec.time.round >= unit_rounds {
            for env in &rec.sent {
                per_node[env.from.idx()] += 1;
            }
        }
    }
    per_node
}

/// Envelopes sent in the evidence rounds of the unit-1 refresh — the step-3
/// send round (offset 3) and the relays' forwarding round (offset 4) — as
/// `(on the wire, under the pre-bundle encoding)`.
fn evidence_round_sent(transcript: &[RoundRecord]) -> (usize, usize) {
    let unit_rounds = uls_schedule(8).unit_rounds;
    // A fan-out shares one payload allocation: decode each once.
    let mut msgs_in: HashMap<*const u8, usize> = HashMap::new();
    let (mut bundled, mut legacy) = (0, 0);
    for rec in transcript {
        if rec.time.round != unit_rounds + 3 && rec.time.round != unit_rounds + 4 {
            continue;
        }
        for env in &rec.sent {
            bundled += 1;
            legacy += *msgs_in.entry(env.payload.as_ptr()).or_insert_with(|| {
                let (DisperseView::Forward { body, .. } | DisperseView::Forwarding { body, .. }) =
                    DisperseView::parse(&env.payload).expect("DISPERSE traffic only");
                match Blob::from_bytes(body) {
                    Ok(Blob::EvidenceBundle { msgs, .. }) => msgs.len(),
                    other => panic!("evidence rounds carry bundles only, saw {other:?}"),
                }
            });
        }
    }
    (bundled, legacy)
}

/// Asserts the O(n² · fanout) budget on a bundled-run transcript.
fn assert_budget(transcript: &[RoundRecord], n: usize) {
    let per_node = refresh_sent_per_node(transcript, n);
    let budget = 12 * n * n * (FANOUT + 1);
    let mean = per_node.iter().sum::<usize>() / n;
    println!("n={n} refresh envelopes: mean={mean} per_node={per_node:?}");
    assert!(
        mean <= budget,
        "mean refresh envelopes per node {mean} exceeds budget {budget} (n = {n})"
    );
    // Nodes above index fanout+1 never serve as §6 relay hubs; their cost
    // must fit the same bound individually.
    let non_hub_max = per_node
        .iter()
        .enumerate()
        .filter(|(idx, _)| NodeId::from_idx(*idx).0 > FANOUT as u32 + 1)
        .map(|(_, &c)| c)
        .max()
        .expect("non-hub nodes exist");
    assert!(
        non_hub_max <= budget,
        "max non-hub refresh envelopes {non_hub_max} exceeds budget {budget} (n = {n})"
    );
}

/// Asserts that bundling shrinks the evidence rounds at least `factor`-fold.
fn assert_evidence_reduction(transcript: &[RoundRecord], n: usize, factor: usize) {
    let (bundled_ev, legacy_ev) = evidence_round_sent(transcript);
    println!(
        "n={n} evidence-round envelopes: bundled={bundled_ev} pre-bundle={legacy_ev} \
         ratio={:.1}",
        legacy_ev as f64 / bundled_ev as f64
    );
    assert!(bundled_ev > 0, "evidence was sent");
    assert!(
        legacy_ev >= factor * bundled_ev,
        "expected >= {factor}x evidence reduction at n = {n} \
         (bundled {bundled_ev}, pre-bundle {legacy_ev})"
    );
}

#[test]
fn refresh_envelopes_within_quadratic_budget_n13() {
    let bundled = run_refresh(13, 3);
    assert_budget(&bundled, 13);
    // The evidence rounds alone must shrink by the PA-majority factor
    // (≈ n − 1 under faithful delivery; assert a conservative 5×).
    assert_evidence_reduction(&bundled, 13, 5);
}

#[test]
#[ignore = "minutes-long in debug builds; ci.sh runs it in release mode"]
fn refresh_envelopes_within_quadratic_budget_n32() {
    let bundled = run_refresh(32, 3);
    assert_budget(&bundled, 32);
}

/// The headline Θ(n³) → Θ(n²) claim at n = 32.
#[test]
#[ignore = "minutes-long in debug builds; ci.sh runs it in release mode"]
fn evidence_bundling_cuts_envelopes_tenfold_n32() {
    assert_evidence_reduction(&run_refresh(32, 3), 32, 10);
}

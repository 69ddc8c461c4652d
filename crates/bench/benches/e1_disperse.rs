//! E1 — Lemma 15: DISPERSE delivers between `s`-operational nodes.
//!
//! Reproduces the lemma's content as a measured series: node 1 DISPERSEs a
//! probe to node 2 every round while an adversary cuts `k` links incident to
//! each endpoint (worst-case placement: the direct link plus disjoint relay
//! sets; and random placement for comparison). The paper predicts 100%
//! delivery while both endpoints remain `s`-operational with
//! `s ≤ ⌊(n−1)/2⌋` — i.e. a sharp cliff at `k ≈ n/2` under worst-case
//! cutting, and far more robustness under random cutting.

use proauth_adversary::LinkCutter;
use proauth_bench::{pct, print_table};
use proauth_core::disperse::{DisperseLayer, DisperseMode};
use proauth_sim::clock::Schedule;
use proauth_sim::message::{NodeId, OutputEvent};
use proauth_sim::process::{Process, RoundCtx, SetupCtx};
use proauth_sim::runner::{run_ul, SimConfig};
use rand::seq::SliceRandom;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Node 1 probes node 2 via DISPERSE each round; node 2 logs deliveries.
struct Probe {
    layer: DisperseLayer,
    me: NodeId,
}

impl Probe {
    fn new_with(me: NodeId, n: usize, mode: DisperseMode) -> Self {
        Probe {
            layer: DisperseLayer::new(me, n, mode),
            me,
        }
    }
}

impl Process for Probe {
    fn on_setup_round(&mut self, _ctx: &mut SetupCtx<'_>) {}

    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        let delivered = self
            .layer
            .receive(ctx.inbox.iter().map(|env| &env.payload[..]));
        if self.me == NodeId(2) {
            for (origin, blob) in delivered {
                if origin == 1 {
                    ctx.emit(OutputEvent::Custom(format!(
                        "probe:{}",
                        String::from_utf8_lossy(&blob)
                    )));
                }
            }
        }
        if self.me == NodeId(1) {
            self.layer
                .send(NodeId(2), format!("{}", ctx.time.round).into_bytes().into());
        }
        for entry in self.layer.drain_outgoing() {
            ctx.send_many(entry.to, entry.payload);
        }
    }

    fn state_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn run_with_cuts_mode(
    n: usize,
    cuts: Vec<(NodeId, NodeId)>,
    seed: u64,
    mode: DisperseMode,
) -> (usize, usize) {
    let rounds = 40u64;
    let mut cfg = SimConfig::new(n, (n - 1) / 2, Schedule::new(rounds, 1, 1));
    cfg.total_rounds = rounds;
    cfg.setup_rounds = 0;
    cfg.seed = seed;
    let mut adv = LinkCutter::new(cuts);
    let result = run_ul(cfg, |id| Probe::new_with(id, n, mode), &mut adv);
    let delivered = result.outputs[NodeId(2).idx()]
        .iter()
        .filter(|(_, e)| matches!(e, OutputEvent::Custom(_)))
        .count();
    // Probes sent every round; the last 2 are still in flight at the end.
    (delivered, (rounds - 2) as usize)
}

fn run_with_cuts(n: usize, cuts: Vec<(NodeId, NodeId)>, seed: u64) -> (usize, usize) {
    run_with_cuts_mode(n, cuts, seed, DisperseMode::Full)
}

/// Worst-case placement: cut the direct link, then disjoint relay sets.
fn worst_case_cuts(n: usize, k: usize) -> Vec<(NodeId, NodeId)> {
    let mut cuts = Vec::new();
    if k == 0 {
        return cuts;
    }
    cuts.push((NodeId(1), NodeId(2)));
    let relays: Vec<u32> = (3..=n as u32).collect();
    for i in 0..k.saturating_sub(1) {
        if i < relays.len() {
            cuts.push((NodeId(1), NodeId(relays[i])));
        }
    }
    for i in 0..k.saturating_sub(1) {
        let idx = relays.len().saturating_sub(1 + i);
        if idx < relays.len() && !cuts.contains(&(NodeId(2), NodeId(relays[idx]))) {
            cuts.push((NodeId(2), NodeId(relays[idx])));
        }
    }
    cuts
}

/// Random placement: `k` random links incident to each endpoint.
fn random_cuts(n: usize, k: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cuts = Vec::new();
    for endpoint in [1u32, 2] {
        let mut others: Vec<u32> = (1..=n as u32).filter(|&x| x != endpoint).collect();
        others.shuffle(&mut rng);
        for &o in others.iter().take(k) {
            cuts.push((NodeId(endpoint), NodeId(o)));
        }
    }
    cuts
}

fn main() {
    let mut rows = Vec::new();
    for n in [8usize, 16] {
        for k in 0..n {
            let (d_worst, total) = run_with_cuts(n, worst_case_cuts(n, k), 100 + k as u64);
            // Random placement averaged over 5 seeds.
            let mut d_rand_sum = 0usize;
            let trials = 5;
            for s in 0..trials {
                let (d, _) = run_with_cuts(n, random_cuts(n, k, 7 * s + k as u64), 200 + s);
                d_rand_sum += d;
            }
            // The §6 relaxation: same worst-case cuts, 2t+1 fan-out with
            // t = ⌊(n−1)/2⌋ (= full coverage of the Lemma 15 regime).
            let t = (n - 1) / 2;
            let (d_relaxed, _) = run_with_cuts_mode(
                n,
                worst_case_cuts(n, k),
                300 + k as u64,
                DisperseMode::Relaxed { fanout: 2 * t + 1 },
            );
            let guaranteed = k < n / 2; // Lemma 15's regime (worst case)
            rows.push(vec![
                n.to_string(),
                k.to_string(),
                pct(d_worst, total),
                pct(d_relaxed, total),
                pct(d_rand_sum, total * trials as usize),
                if guaranteed { "yes" } else { "no" }.to_string(),
            ]);
        }
    }
    print_table(
        "E1 / Lemma 15 — DISPERSE delivery vs. links cut per endpoint",
        &["n", "k cut", "worst-case", "worst-case (2t+1 fanout)", "random", "Lemma 15 guarantee"],
        &rows,
    );
    println!(
        "\nExpected shape: worst-case delivery is 100% exactly while k < n/2 (both endpoints\n\
         remain s-operational for s = ⌊(n−1)/2⌋), then collapses; random cutting stays near\n\
         100% far beyond the guarantee — the adversary must *place* cuts, not just make them."
    );
}

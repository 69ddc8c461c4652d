//! The four workloads and how `--seed` / `--seconds` turn into a scenario.
//!
//! The seed sets `SimConfig::seed` (all protocol randomness), the bytes of
//! the signed messages and where the break-in rotation starts — never the
//! amount of work: every run of a workload executes the same rounds, the
//! same number of requests and the same number of break-ins.

use proauth_adversary::{CorruptMode, MobileBreakins};
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::uls::{sign_input, uls_schedule, PART1_ROUNDS, PART2_ROUNDS, SETUP_ROUNDS};
use proauth_crypto::group::GroupId;
use proauth_primitives::sha256;
use proauth_sim::clock::Schedule;
use proauth_sim::message::NodeId;
use proauth_sim::runner::SimConfig;
use proauth_sim::Telemetry;

/// Rounds of the refresh phase that opens every unit after the first.
pub const REFRESH_ROUNDS: u64 = PART1_ROUNDS + PART2_ROUNDS;

/// A request given at round `k` is signed by the end of round `k + 5` at the
/// latest (the PDS ticks every second round), so the last request of a unit
/// must come at least this many rounds before the unit ends — the next
/// refresh aborts what is still in flight.
pub const SIGN_SPAN_ROUNDS: u64 = 6;

/// Which engine carries the rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The in-process round engine, single-threaded.
    Engine,
    /// `sim::net`: one `run_node` loop per node as a thread, Unix sockets.
    Net,
}

/// The mobile adversary's rotation: `k` victims per unit, broken into
/// `offset` rounds into the unit for `dwell` rounds, memory wiped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rotation {
    /// Victims per unit.
    pub k: usize,
    /// Break-in round within the unit.
    pub offset: u64,
    /// Rounds the adversary stays.
    pub dwell: u64,
}

/// A workload definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// The name `--workload` takes (why each exists: `BENCHMARK.json`).
    pub name: &'static str,
    /// Group preset.
    pub group: GroupId,
    /// Nodes.
    pub n: usize,
    /// Threshold (`n ≥ 2t+1`).
    pub t: usize,
    /// Normal rounds per unit (after the 36 refresh rounds). Sixteen where
    /// the unit is all refresh anyway: `normal_round_ms` over eight 5 ms
    /// rounds spread 6-7 % between identical runs.
    pub normal_rounds: u64,
    /// Sign requests per unit: one at each of the first `sign_slots` normal
    /// rounds (open loop on the round clock); 0 on the workloads whose
    /// normal phase is too short to hold a request load worth a percentile.
    pub sign_slots: u64,
    /// Break-in rotation, if the workload has an active adversary.
    pub rotation: Option<Rotation>,
    /// Engine or sockets.
    pub transport: Transport,
    /// Timed units per second of `--seconds` on the reference host; the
    /// count is fixed up front because the engine takes its round total
    /// when it starts.
    pub units_per_second: f64,
    /// Timed units of a `--smoke` run.
    pub smoke_units: u64,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "refresh-s256-n13",
        group: GroupId::S256,
        n: 13,
        t: 6,
        normal_rounds: 16,
        sign_slots: 0,
        rotation: None,
        transport: Transport::Engine,
        units_per_second: 0.25,
        smoke_units: 2,
    },
    Spec {
        name: "sign-s256-n7",
        group: GroupId::S256,
        n: 7,
        t: 3,
        normal_rounds: 200,
        sign_slots: 192,
        rotation: None,
        transport: Transport::Engine,
        units_per_second: 0.3,
        smoke_units: 2,
    },
    Spec {
        name: "mobile-toy64-n16",
        group: GroupId::Toy64,
        n: 16,
        t: 7,
        normal_rounds: 16,
        sign_slots: 0,
        // Break-ins land two rounds into the normal phase and last four, so
        // the adversary sits on its victims while heartbeats are in flight.
        rotation: Some(Rotation {
            k: 3,
            offset: 38,
            dwell: 4,
        }),
        transport: Transport::Engine,
        units_per_second: 0.4,
        smoke_units: 2,
    },
    Spec {
        name: "net-toy64-n5",
        group: GroupId::Toy64,
        n: 5,
        t: 2,
        normal_rounds: 8,
        sign_slots: 0,
        rotation: None,
        transport: Transport::Net,
        units_per_second: 6.0,
        smoke_units: 20,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One concrete run of a workload: spec + seed + length.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The workload.
    pub spec: &'static Spec,
    /// `--seed`.
    pub seed: u64,
    /// Timed units (units `1..=units`; unit 0 has no refresh phase and is
    /// the warm-up).
    pub units: u64,
    /// Round layout.
    pub schedule: Schedule,
    /// External input per round (the same bytes go to every node).
    inputs: Vec<Option<Vec<u8>>>,
}

impl Scenario {
    /// Builds the scenario for `units` timed units.
    pub fn new(spec: &'static Spec, seed: u64, units: u64) -> Self {
        assert!(units >= 1, "at least one timed unit");
        let schedule = uls_schedule(spec.normal_rounds);
        let total = (units + 1) * schedule.unit_rounds;
        let inputs = (0..total)
            .map(|round| {
                let k = schedule.round_in_unit(round);
                // The warm-up unit takes no requests: it only has to get
                // the nodes to their first refresh.
                (round >= schedule.unit_rounds
                    && k >= REFRESH_ROUNDS
                    && k < REFRESH_ROUNDS + spec.sign_slots)
                    .then(|| sign_message(seed, round))
            })
            .collect();
        Scenario {
            spec,
            seed,
            units,
            schedule,
            inputs,
        }
    }

    /// Timed units for a measuring time of `seconds` (at least 2).
    pub fn units_for(spec: &Spec, seconds: u64) -> u64 {
        ((seconds as f64 * spec.units_per_second).round() as u64).max(2)
    }

    /// Rounds per unit.
    pub fn unit_rounds(&self) -> u64 {
        self.schedule.unit_rounds
    }

    /// All rounds of the run: the warm-up unit plus the timed ones.
    pub fn total_rounds(&self) -> u64 {
        (self.units + 1) * self.unit_rounds()
    }

    /// First timed round.
    pub fn timed_start(&self) -> u64 {
        self.unit_rounds()
    }

    /// The message to be signed at `round`, if a request is due then.
    pub fn request_at(&self, round: u64) -> Option<&[u8]> {
        self.inputs.get(round as usize)?.as_deref()
    }

    /// Every sign request of the run: `(round, message)`.
    pub fn requests(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.inputs
            .iter()
            .enumerate()
            .filter_map(|(r, m)| m.as_deref().map(|m| (r as u64, m)))
    }

    /// The engine's `x_{i,w}` for the full ULS stack (tagged USign input).
    pub fn uls_input(&self, round: u64) -> Option<Vec<u8>> {
        self.request_at(round).map(sign_input)
    }

    /// The engine's `x_{i,w}` for the bare AL-model PDS (raw bytes).
    pub fn als_input(&self, round: u64) -> Option<Vec<u8>> {
        self.request_at(round).map(<[u8]>::to_vec)
    }

    /// Engine configuration: serial, telemetry off, this run's seed.
    pub fn sim_config(&self, setup_rounds: u64) -> SimConfig {
        let mut cfg = SimConfig::new(self.spec.n, self.spec.t, self.schedule);
        cfg.seed = self.seed;
        cfg.setup_rounds = setup_rounds;
        cfg.total_rounds = self.total_rounds();
        cfg.parallel = false;
        cfg.threads = 0;
        cfg.telemetry = Telemetry::off();
        cfg
    }

    /// Engine configuration of the ULS stack.
    pub fn uls_config(&self) -> SimConfig {
        self.sim_config(SETUP_ROUNDS)
    }

    /// The workload's mobile adversary: the crate's round-robin rotation
    /// with its starting node moved by the seed. Covers the warm-up unit
    /// too, so the first timed refresh already has nodes to recover.
    pub fn mobile_adversary(&self, rot: Rotation) -> MobileBreakins<HeartbeatApp> {
        let n = self.spec.n;
        let mut adv = MobileBreakins::rotating(
            n,
            rot.k,
            self.units + 1,
            self.unit_rounds(),
            rot.offset,
            rot.dwell,
            CorruptMode::Wipe,
        );
        let shift = (self.seed % n as u64) as usize;
        for v in &mut adv.visits {
            v.node = NodeId::from_idx((v.node.idx() + shift) % n);
        }
        adv
    }
}

/// 32 seed-dependent bytes for the request due at `round`.
fn sign_message(seed: u64, round: u64) -> Vec<u8> {
    sha256::hash_parts(
        "proauth/benchmark/sign",
        &[&seed.to_be_bytes(), &round.to_be_bytes()],
    )
    .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_bytes_not_work() {
        let spec = find("sign-s256-n7").unwrap();
        let a = Scenario::new(spec, 1, 2);
        let b = Scenario::new(spec, 2, 2);
        assert_eq!(a.total_rounds(), b.total_rounds());
        let ra: Vec<_> = a.requests().collect();
        let rb: Vec<_> = b.requests().collect();
        assert_eq!(ra.len(), rb.len());
        assert_eq!(ra.len() as u64, 2 * spec.sign_slots);
        assert!(ra
            .iter()
            .zip(&rb)
            .all(|(x, y)| x.0 == y.0 && x.1 != y.1 && x.1.len() == 32));
        // Requests stop early enough to drain before the next refresh.
        let last_k = ra
            .iter()
            .map(|(r, _)| a.schedule.round_in_unit(*r))
            .max()
            .unwrap();
        assert!(last_k + SIGN_SPAN_ROUNDS <= a.unit_rounds());
    }

    #[test]
    fn rotation_start_follows_seed() {
        let spec = find("mobile-toy64-n16").unwrap();
        let rot = spec.rotation.unwrap();
        let a = Scenario::new(spec, 0, 2).mobile_adversary(rot);
        let b = Scenario::new(spec, 5, 2).mobile_adversary(rot);
        assert_eq!(a.visits.len(), b.visits.len());
        assert_eq!(a.visits.len(), 3 * rot.k);
        assert_eq!(a.visits[0].node, NodeId(1));
        assert_eq!(b.visits[0].node, NodeId(6));
        assert!(a
            .visits
            .iter()
            .zip(&b.visits)
            .all(|(x, y)| x.break_at == y.break_at));
    }

    #[test]
    fn units_scale_with_seconds() {
        assert_eq!(
            Scenario::units_for(find("refresh-s256-n13").unwrap(), 20),
            5
        );
        assert_eq!(Scenario::units_for(find("sign-s256-n7").unwrap(), 20), 6);
        assert_eq!(Scenario::units_for(find("net-toy64-n5").unwrap(), 20), 120);
        assert_eq!(Scenario::units_for(find("refresh-s256-n13").unwrap(), 1), 2);
    }
}

//! Open-loop client workload: an external stream of sign/verify requests
//! driven through the per-round input channel (`x_{i,w}` of §3.1), so the
//! adversary and chaos layers apply to service traffic exactly as to
//! protocol traffic.
//!
//! The generator is **stateless per call**: the operation list for a round
//! is a pure function of `(seed, round)`, so any engine (serial or
//! parallel, any thread count) sampling inputs in any per-round order sees
//! identical requests — the determinism property the golden tests pin.
//!
//! Semantics of the mix:
//!
//! * **sign** operations are broadcast to *every* node in the same round —
//!   the AL-model ideal process requires all intended signers to be asked
//!   within one time unit, and the session layer drops messages for unknown
//!   session ids;
//! * **verify** operations land on one node each (any single responder can
//!   check a signature against the ROM public key).
//!
//! There is no client refresh operation: proactive refresh is
//! time-triggered by the schedule (Fig. 1), so a client cannot move it, and
//! a workload meets refresh by running across unit boundaries. Weights are
//! decimals, so a rare op can be mixed in (`verify=0.01`).
//!
//! Arrivals are open-loop Poisson: the client does not wait for
//! completions, so overload shows up as queueing (and, past the session
//! cap, explicit rejections) rather than as a throttled offered load.

use crate::message::NodeId;
use proauth_primitives::wire::{Reader, Writer};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Wire magic distinguishing an encoded [`ClientBatch`] from a legacy raw
/// "sign these bytes" input.
const MAGIC: &[u8; 4] = b"PAWL";
/// Cap on operations sampled for a single round (keeps the Poisson sampler
/// total and a hostile rate from allocating unboundedly).
const MAX_OPS_PER_ROUND: usize = 64;

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Ask the service to threshold-sign `msg` in the current unit.
    Sign {
        /// Message bytes to sign.
        msg: Vec<u8>,
    },
    /// Ask the responder to verify a recently produced signature.
    Verify,
}

/// A round's worth of client operations for one node, as delivered on the
/// external input channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientBatch {
    /// Operations in issue order.
    pub ops: Vec<ClientOp>,
}

impl ClientBatch {
    /// Encodes the batch with a magic prefix so receivers can distinguish
    /// it from legacy raw sign inputs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(MAGIC);
        w.put_u16(self.ops.len().min(u16::MAX as usize) as u16);
        for op in self.ops.iter().take(u16::MAX as usize) {
            match op {
                ClientOp::Sign { msg } => {
                    w.put_u8(1);
                    w.put_bytes(msg);
                }
                ClientOp::Verify => w.put_u8(2),
            }
        }
        w.into_bytes()
    }

    /// Decodes a batch; `None` when `bytes` is not magic-prefixed (legacy
    /// raw input) or is malformed.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return None;
        }
        let mut r = Reader::new(&bytes[MAGIC.len()..]);
        let count = r.get_u16().ok()?;
        let mut ops = Vec::with_capacity(count as usize);
        for _ in 0..count {
            match r.get_u8().ok()? {
                1 => ops.push(ClientOp::Sign {
                    msg: r.get_bytes().ok()?,
                }),
                2 => ops.push(ClientOp::Verify),
                _ => return None,
            }
        }
        (r.remaining() == 0).then_some(ClientBatch { ops })
    }
}

/// Workload shape knobs.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Seed of the request stream (independent of the simulation seed).
    pub seed: u64,
    /// Mean arrivals per round across the whole network, in milli-ops
    /// (2500 = 2.5 ops/round on average).
    pub rate_millis: u64,
    /// Relative weight of sign operations in the mix.
    pub sign_weight: u32,
    /// Relative weight of verify operations in the mix. Only the ratios
    /// matter: [`WorkloadConfig::with_mix`] scales the human-readable spec
    /// by 1000, so `verify=0.01` next to `sign=8` becomes `10` next to
    /// `8000`.
    pub verify_weight: u32,
    /// Length in bytes of generated sign messages (the round and op index
    /// are stamped in, so messages are unique regardless of length).
    pub msg_len: usize,
    /// First physical round that may carry operations.
    pub start_round: u64,
    /// First round past the active window (`u64::MAX` = never stop).
    pub stop_round: u64,
}

impl WorkloadConfig {
    /// A sign-heavy default stream: ~`rate_millis`/1000 ops per round,
    /// 3:1 sign:verify, 24-byte messages, active from round 0 forever.
    pub fn with_rate(seed: u64, rate_millis: u64) -> Self {
        WorkloadConfig {
            seed,
            rate_millis,
            sign_weight: 3,
            verify_weight: 1,
            msg_len: 24,
            start_round: 0,
            stop_round: u64::MAX,
        }
    }

    /// [`WorkloadConfig::with_rate`] with the op mix replaced by a spec of
    /// the form `sign=8,verify=0.01` (keys optional, values are
    /// non-negative decimals, at least one must be positive). Weights are
    /// scaled by 1000 and rounded, so two fractional digits survive.
    pub fn with_mix(seed: u64, rate_millis: u64, spec: &str) -> Result<Self, String> {
        let (sign, verify) = Self::parse_mix(spec)?;
        let mut cfg = Self::with_rate(seed, rate_millis);
        cfg.sign_weight = sign;
        cfg.verify_weight = verify;
        Ok(cfg)
    }

    /// Parses a mix spec into `(sign, verify)` weights, each the decimal
    /// value scaled by 1000. Unknown or repeated keys are errors; omitted
    /// keys default to 0.
    pub fn parse_mix(spec: &str) -> Result<(u32, u32), String> {
        let (mut sign, mut verify) = (None, None);
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("mix entry `{part}` is not key=value"))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("mix weight `{value}` is not a number"))?;
            if !value.is_finite() || !(0.0..=1_000_000.0).contains(&value) {
                return Err(format!("mix weight `{value}` out of range [0, 1e6]"));
            }
            let slot = match key.trim() {
                "sign" => &mut sign,
                "verify" => &mut verify,
                other => return Err(format!("unknown mix op `{other}`")),
            };
            if slot.replace((value * 1000.0).round() as u32).is_some() {
                return Err(format!("mix op `{}` given twice", key.trim()));
            }
        }
        let (sign, verify) = (sign.unwrap_or(0), verify.unwrap_or(0));
        if sign == 0 && verify == 0 {
            return Err("mix has no positive weight (after ×1000 rounding)".into());
        }
        Ok((sign, verify))
    }
}

/// The open-loop generator. Feed [`Workload::input`] to
/// `run_al_with_inputs`/`run_ul_with_inputs` as the per-round input
/// function.
#[derive(Debug, Clone)]
pub struct Workload {
    cfg: WorkloadConfig,
    n: usize,
}

/// SplitMix64 finalizer: decorrelates `(seed, round)` into an rng seed.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl Workload {
    /// A workload over an `n`-node network.
    pub fn new(cfg: WorkloadConfig, n: usize) -> Self {
        assert!(n > 0, "workload needs at least one node");
        assert!(
            cfg.sign_weight as u64 + cfg.verify_weight as u64 > 0,
            "degenerate op mix"
        );
        Workload { cfg, n }
    }

    /// Samples the number of arrivals this round (Poisson via Knuth's
    /// product method, capped at [`MAX_OPS_PER_ROUND`]).
    fn arrivals(&self, rng: &mut StdRng) -> usize {
        let lambda = self.cfg.rate_millis as f64 / 1000.0;
        if lambda <= 0.0 {
            return 0;
        }
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= l || k >= MAX_OPS_PER_ROUND {
                return k;
            }
            k += 1;
        }
    }

    /// The full operation list for `round`: each op together with its
    /// destination (`None` = broadcast to all nodes).
    fn round_ops(&self, round: u64) -> Vec<(Option<NodeId>, ClientOp)> {
        if round < self.cfg.start_round || round >= self.cfg.stop_round {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(mix(self.cfg.seed ^ mix(round.wrapping_add(1))));
        let count = self.arrivals(&mut rng);
        let (s, v) = (self.cfg.sign_weight as u64, self.cfg.verify_weight as u64);
        (0..count)
            .map(|idx| {
                let draw = rng.next_u32() as u64 % (s + v);
                if draw < s {
                    // Unique, reproducible message: round/op stamp + filler.
                    let mut msg = vec![0u8; self.cfg.msg_len.max(12)];
                    msg[..8].copy_from_slice(&round.to_be_bytes());
                    msg[8..12].copy_from_slice(&(idx as u32).to_be_bytes());
                    rng.fill_bytes(&mut msg[12..]);
                    (None, ClientOp::Sign { msg })
                } else {
                    let node = NodeId(1 + (rng.next_u32() % self.n as u32));
                    (Some(node), ClientOp::Verify)
                }
            })
            .collect()
    }

    /// The encoded input for `(node, round)`, or `None` when the node has
    /// no operations this round. Pure in `(node, round)` — safe under any
    /// engine's sampling order.
    pub fn input(&self, node: NodeId, round: u64) -> Option<Vec<u8>> {
        let ops: Vec<ClientOp> = self
            .round_ops(round)
            .into_iter()
            .filter(|(dest, _)| dest.is_none() || *dest == Some(node))
            .map(|(_, op)| op)
            .collect();
        (!ops.is_empty()).then(|| ClientBatch { ops }.to_bytes())
    }

    /// Total sign operations the stream issues in `[0, rounds)` — the
    /// offered sign load, for benchmark accounting.
    pub fn offered_signs(&self, rounds: u64) -> usize {
        (0..rounds)
            .map(|r| {
                self.round_ops(r)
                    .iter()
                    .filter(|(_, op)| matches!(op, ClientOp::Sign { .. }))
                    .count()
            })
            .sum()
    }
}

/// Closed-loop client workload: instead of an open-loop arrival rate, the
/// client keeps a fixed **window** of sign operations outstanding and issues
/// a new one only when a previous one completes. Offered load is therefore
/// throttled by the service itself, which is what makes the latency-vs-load
/// *knee* visible: sweeping the window from 1 upward, throughput climbs
/// until the service saturates, after which extra outstanding work only adds
/// queueing latency.
///
/// Completion feedback is pushed in by the caller each round (typically the
/// live `pds/sign_completed` telemetry counter, which the engine merges at
/// every round barrier in deterministic `NodeId` order — so the feedback
/// value, and hence the issued stream, is identical across engines and
/// worker counts). Sign operations are broadcast like the open-loop
/// generator's, so every node sees the same batch.
#[derive(Debug, Clone)]
pub struct ClosedLoopWorkload {
    seed: u64,
    window: usize,
    msg_len: usize,
    /// First physical round that may carry operations.
    pub start_round: u64,
    /// First round past the active window (`u64::MAX` = never stop).
    pub stop_round: u64,
    issued: u64,
    /// The batch issued for the current round, cached so every node of the
    /// same round sees identical bytes regardless of sampling order.
    current: Option<(u64, Vec<u8>)>,
}

impl ClosedLoopWorkload {
    /// A closed-loop stream keeping `window` sign ops outstanding.
    pub fn new(seed: u64, window: usize) -> Self {
        assert!(window > 0, "closed loop needs a positive window");
        ClosedLoopWorkload {
            seed,
            window,
            msg_len: 24,
            start_round: 0,
            stop_round: u64::MAX,
            issued: 0,
            current: None,
        }
    }

    /// Total sign operations issued so far — the offered load actually
    /// achieved, for the load axis of the knee curve.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The encoded input for `(node, round)` given `completed` operations
    /// finished so far (as reported by the service's own counters). The
    /// first call of each round computes the batch; later calls (other
    /// nodes, same round) replay it. Rounds must be sampled in
    /// non-decreasing order, which every engine guarantees.
    pub fn input(&mut self, _node: NodeId, round: u64, completed: u64) -> Option<Vec<u8>> {
        if round < self.start_round || round >= self.stop_round {
            return None;
        }
        match &self.current {
            Some((r, bytes)) if *r == round => {
                return (!bytes.is_empty()).then(|| bytes.clone());
            }
            _ => {}
        }
        let outstanding = self.issued.saturating_sub(completed) as usize;
        let fresh = self
            .window
            .saturating_sub(outstanding)
            .min(MAX_OPS_PER_ROUND);
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ mix(round.wrapping_add(1))));
        let ops: Vec<ClientOp> = (0..fresh)
            .map(|idx| {
                let mut msg = vec![0u8; self.msg_len.max(12)];
                msg[..8].copy_from_slice(&round.to_be_bytes());
                msg[8..12].copy_from_slice(&(idx as u32).to_be_bytes());
                rng.fill_bytes(&mut msg[12..]);
                ClientOp::Sign { msg }
            })
            .collect();
        self.issued += fresh as u64;
        let bytes = if ops.is_empty() {
            Vec::new()
        } else {
            ClientBatch { ops }.to_bytes()
        };
        self.current = Some((round, bytes.clone()));
        (!bytes.is_empty()).then_some(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_roundtrips_and_rejects_legacy() {
        let batch = ClientBatch {
            ops: vec![
                ClientOp::Sign { msg: b"abc".to_vec() },
                ClientOp::Verify,
                ClientOp::Sign { msg: vec![] },
            ],
        };
        let bytes = batch.to_bytes();
        assert_eq!(ClientBatch::from_bytes(&bytes), Some(batch));
        assert_eq!(ClientBatch::from_bytes(b"hello world"), None);
        assert_eq!(ClientBatch::from_bytes(b""), None);
        // Truncated batches are malformed, not misparsed.
        assert_eq!(ClientBatch::from_bytes(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn inputs_are_deterministic_and_sign_ops_broadcast() {
        let w = Workload::new(WorkloadConfig::with_rate(42, 3000), 5);
        for round in 0..50 {
            let per_node: Vec<Option<Vec<u8>>> = (1..=5u32)
                .map(|i| w.input(NodeId(i), round))
                .collect();
            // Re-sampling is bit-identical.
            for (i, prev) in per_node.iter().enumerate() {
                assert_eq!(*prev, w.input(NodeId(1 + i as u32), round));
            }
            // Every sign op appears at every node.
            let signs = |bytes: &Option<Vec<u8>>| -> Vec<Vec<u8>> {
                bytes
                    .as_deref()
                    .and_then(ClientBatch::from_bytes)
                    .map(|b| {
                        b.ops
                            .into_iter()
                            .filter_map(|op| match op {
                                ClientOp::Sign { msg } => Some(msg),
                                _ => None,
                            })
                            .collect()
                    })
                    .unwrap_or_default()
            };
            let first = signs(&per_node[0]);
            for other in &per_node[1..] {
                assert_eq!(first, signs(other), "sign ops broadcast, round {round}");
            }
        }
    }

    #[test]
    fn rate_controls_volume_and_window_bounds_it() {
        let mut cfg = WorkloadConfig::with_rate(7, 2000);
        cfg.start_round = 10;
        cfg.stop_round = 20;
        let w = Workload::new(cfg, 3);
        assert_eq!(w.offered_signs(10), 0, "quiet before start_round");
        let active = w.offered_signs(20);
        assert!(active > 0, "ops inside the window");
        assert_eq!(w.offered_signs(100), active, "quiet after stop_round");

        let heavy = Workload::new(WorkloadConfig::with_rate(7, 8000), 3);
        let light = Workload::new(WorkloadConfig::with_rate(7, 500), 3);
        assert!(
            heavy.offered_signs(100) > light.offered_signs(100),
            "rate knob is monotone"
        );
    }

    #[test]
    fn mix_spec_parses_fractions_and_rejects_junk() {
        assert_eq!(
            WorkloadConfig::parse_mix("sign=8,verify=0.01"),
            Ok((8000, 10))
        );
        assert_eq!(WorkloadConfig::parse_mix("verify=2"), Ok((0, 2000)));
        assert!(WorkloadConfig::parse_mix("sign=8,sign=1").is_err());
        assert!(WorkloadConfig::parse_mix("mint=8").is_err());
        assert!(WorkloadConfig::parse_mix("refresh=1").is_err());
        assert!(WorkloadConfig::parse_mix("sign=-1").is_err());
        assert!(WorkloadConfig::parse_mix("sign").is_err());
        assert!(WorkloadConfig::parse_mix("verify=0.0001").is_err(), "rounds to all-zero");
        let cfg = WorkloadConfig::with_mix(9, 2500, "sign=8,verify=0.01").expect("mix");
        assert_eq!((cfg.sign_weight, cfg.verify_weight), (8000, 10));
    }

    #[test]
    fn closed_loop_respects_window_and_tracks_completions() {
        let mut w = ClosedLoopWorkload::new(5, 4);
        // Round 0, nothing completed: the full window is issued, broadcast
        // identically to every node.
        let b1 = w.input(NodeId(1), 0, 0);
        let b2 = w.input(NodeId(2), 0, 0);
        assert_eq!(b1, b2, "same round, same batch");
        let ops = ClientBatch::from_bytes(&b1.expect("batch")).expect("decode").ops;
        assert_eq!(ops.len(), 4);
        assert_eq!(w.issued(), 4);

        // Round 1, still nothing completed: the window is full, no new ops.
        assert_eq!(w.input(NodeId(1), 1, 0), None);
        assert_eq!(w.issued(), 4);

        // Round 2, three completions: exactly three slots reopen.
        let b = w.input(NodeId(1), 2, 3).expect("batch");
        assert_eq!(ClientBatch::from_bytes(&b).expect("decode").ops.len(), 3);
        assert_eq!(w.issued(), 7);

        // Outstanding never exceeds the window under any feedback sequence.
        let mut completed = 3;
        for round in 3..40 {
            if round % 3 == 0 {
                completed += 2; // service drains slowly
            }
            let _ = w.input(NodeId(1), round, completed);
            assert!(w.issued() - completed.min(w.issued()) <= 4);
        }

        // Identical feedback ⇒ identical stream (engine invariance).
        let mut v1 = ClosedLoopWorkload::new(5, 4);
        let mut v2 = ClosedLoopWorkload::new(5, 4);
        for round in 0..20 {
            let completed = round / 2;
            assert_eq!(
                v1.input(NodeId(1), round, completed),
                v2.input(NodeId(1), round, completed)
            );
        }
    }

    #[test]
    fn verify_ops_land_on_single_nodes() {
        let mut cfg = WorkloadConfig::with_rate(3, 4000);
        cfg.sign_weight = 0;
        cfg.verify_weight = 1;
        let w = Workload::new(cfg, 4);
        let mut seen = 0usize;
        for round in 0..40 {
            let total: usize = (1..=4u32)
                .filter_map(|i| w.input(NodeId(i), round))
                .map(|b| ClientBatch::from_bytes(&b).expect("batch").ops.len())
                .sum();
            seen += total;
            assert_eq!(
                total,
                w.round_ops(round).len(),
                "each verify op delivered exactly once"
            );
        }
        assert!(seen > 0);
    }
}

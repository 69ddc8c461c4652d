//! # proauth-sim
//!
//! The computational models of Canetti–Halevi–Herzberg (PODC '97), §2, as an
//! executable synchronous network simulator:
//!
//! * [`clock`] — time units and refreshment phases (Fig. 1);
//! * [`message`] — envelopes, node ids, output events (the "global output");
//! * [`process`] — the node programming interface, including ROM;
//! * [`adversary`] — the AL and UL mobile-adversary interfaces;
//! * [`chaos`] — deterministic fault injection: compiled crash/restart
//!   schedules, chaotic delivery, and the panic→crash test hook;
//! * [`reliability`] — link reliability (Def. 4) and `s`-operational
//!   tracking (Defs. 5–6) from ground truth;
//! * [`runner`] — the AL/UL execution engines ([`runner::run_al`],
//!   [`runner::run_ul`]).
//!
//! Observability rides on `proauth-telemetry` (re-exported as [`telemetry`]):
//! set [`runner::SimConfig::telemetry`] (or `PROAUTH_TRACE=path`) and the
//! engine emits a deterministic JSONL flight-recorder trace plus a metrics
//! registry, with per-node shards merged in `NodeId` order so results and
//! traces stay bit-identical across engine thread counts.
//!
//! The simulator is fully deterministic given a seed: node randomness is
//! derived per (node, round) outside corruptible state, matching the paper's
//! `r_{i,w}` formalization.

#![deny(unsafe_code)]

pub mod adversary;
pub mod chaos;
pub mod clock;
pub mod driver;
pub mod message;
pub mod net;
pub mod process;
pub mod reliability;
pub mod report;
pub mod runner;
pub mod workload;

pub use proauth_telemetry as telemetry;

pub use adversary::{AlAdversary, BreakPlan, NetView, UlAdversary};
pub use chaos::{ChaosConfig, ChaosNet, FaultSchedule, PanicOn, ProcessFaultPlan};
pub use driver::{NodeDriver, ProcessDriver, StepReport};
pub use clock::{Phase, Schedule, TimeView};
pub use message::{Envelope, NodeId, OutputEvent, OutputLog, Payload};
pub use process::{Process, Rom, RoundCtx, SetupCtx};
pub use reliability::{OperationalRule, OperationalTracker, PairMatrix};
pub use proauth_telemetry::Telemetry;
pub use report::{render_metrics, unit_summaries, NodeUnitSummary, ThroughputSummary, UnitSummary};
pub use workload::{ClientBatch, ClientOp, Workload, WorkloadConfig};
pub use runner::{
    run_al, run_al_with_inputs, run_ul, run_ul_with_inputs, RoundRecord, SimConfig, SimResult,
    SimStats,
};

//! Real-network daemon mode: the socket-backed engine.
//!
//! The in-process round engine ([`crate::runner`]) and this module are two
//! backends of the same protocol core ([`crate::driver`]). Here each node is
//! a separate OS process speaking length-prefixed [`msg::NetMsg`] frames —
//! canonical `primitives::wire` encoding — over TCP or Unix-domain sockets,
//! multiplexed by a hand-rolled `poll(2)` loop ([`poll`], zero dependencies).
//!
//! Module map:
//!
//! * [`frame`] — length-prefixed frame codec with a streaming decoder;
//! * [`msg`] — the wire vocabulary (`Hello`, `Setup`, `Round`, marks,
//!   events, reports, `Bye`);
//! * [`poll`] — the `poll(2)` readiness loop;
//! * [`peer`] — address plans, listeners, and framed non-blocking
//!   connections with reconnect support;
//! * [`daemon`] — the node process main loop (setup barriers, paced rounds);
//! * [`proxy`] — the chaos proxy: deterministic delay/duplicate/reorder/
//!   partition on real packets;
//! * [`client`] — the collector that reassembles a `SimResult`-shaped
//!   outcome (output logs, ROMs, reports, goodput) from the streams;
//! * [`status`] — the live observability plane: the merged registry, health
//!   beacons, Def-7 budget alarms, the status socket's Prometheus / JSON /
//!   `top` renderers, and the cluster-trace assembler;
//! * [`state`] — durable per-node state (write-once ROM image + round
//!   watermark, crash-consistent, digest-verified) backing the self-healing
//!   rejoin path after a process-level crash.
//!
//! Determinism carries over from the simulator: protocol payloads are the
//! same bytes, randomness is the same per-(node, round) derivation, and
//! inbox order is reproduced by sorting deliveries on `(round, sender, seq)`
//! — so a faithful daemon run reaches outcomes bit-identical to `run_ul`
//! under the same seed, and a chaos run stays within the UL adversary's
//! legal actions (delay, duplication, reordering).

pub mod client;
pub mod daemon;
pub mod frame;
pub mod msg;
pub mod peer;
// The poll(2) FFI shim is the one exception to the crate-level deny.
#[allow(unsafe_code)]
pub mod poll;
pub mod proxy;
pub mod state;
pub mod status;

pub use client::{collect, Collector, CollectorConfig, DaemonOutcome};
pub use daemon::{run_node, NodeLoop, NodeNetConfig};
pub use frame::{encode_frame, FrameDecoder, FrameError, MAX_FRAME};
pub use msg::{Alarm, HealthBeacon, NetMsg, NodeReport, Severity};
pub use status::{LiveState, StatusConn, TraceAssembler, TraceSpec};
pub use peer::{AddrPlan, Conn, Endpoint, NetListener, NetStream};
pub use proxy::{run_proxy, ChaosNetSpec, Partition, Proxy, ProxyConfig, ProxyStats};
pub use state::{Load, StateDir, Watermark};

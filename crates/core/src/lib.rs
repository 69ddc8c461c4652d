//! # proauth-core
//!
//! The primary contribution of Canetti–Halevi–Herzberg (PODC '97 /
//! *J. Cryptology* 2000): maintaining authenticated communication over
//! unauthenticated links under repeated transient break-ins.
//!
//! * [`disperse`] — protocol DISPERSE (Fig. 2) and its §6 O(nt) relaxation;
//! * [`mod@certify`] — CERTIFY / VER-CERT (Fig. 3) and per-unit local keys;
//! * [`pa`] — PARTIAL-AGREEMENT (Fig. 5, Lemma 16);
//! * [`wire`] — the layered wire formats;
//! * [`uls`] — the ULS construction of §4.2 (Theorem 14): the UL-model PDS
//!   plus the proactive-authentication refresh machinery;
//! * [`authenticator`] — the proactive authenticator Λ of §5 (Theorem 30,
//!   Proposition 31): compile any [`authenticator::AlProtocol`] into the UL
//!   model by plugging it into [`uls::UlsNode`];
//! * [`awareness`] — internal/external views and impersonation detection
//!   (Definitions 10–11);
//! * [`partition`] — the §6 two-level scalability scheme (topology and
//!   break-in arithmetic);
//! * [`hier`] — the §6 scheme end to end: cluster-local ULS stacks under a
//!   top-level PDS over cluster representatives.
//!
//! ## Quick start
//!
//! See `examples/quickstart.rs` at the repository root: build a
//! [`uls::UlsConfig`], spawn [`uls::UlsNode`]s in `proauth_sim::run_ul`, and
//! authenticated communication survives break-ins and hostile links.

#![forbid(unsafe_code)]

pub mod authenticator;
pub mod awareness;
pub mod certify;
pub mod disperse;
pub mod hier;
pub mod pa;
pub mod partition;
pub mod uls;
pub mod wire;

pub use authenticator::{AlProtocol, AppCtx, GrowSetApp, HeartbeatApp, NullApp};
pub use certify::{certify, ver_cert, DestCheck, LocalKeys};
pub use disperse::{DisperseLayer, DisperseMode};
pub use hier::{
    heartbeat_msg, transit_input, HierConfig, HierNode, HierWire, HIER_SETUP_ROUNDS,
};
pub use pa::PaInstance;
pub use uls::{
    app_input, sign_input, uls_schedule, AuthMode, UlsConfig, UlsNode, PART1_ROUNDS,
    PART2_ROUNDS, SETUP_ROUNDS,
};

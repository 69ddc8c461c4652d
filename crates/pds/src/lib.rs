//! # proauth-pds
//!
//! Proactive distributed signatures (§3–§4 of Canetti–Halevi–Herzberg,
//! PODC '97):
//!
//! * [`api`] — the PDS interface `⟨Gen, Sign, Ver, Rfr⟩` as a
//!   transport-agnostic state machine ([`api::AlPds`]);
//! * [`als`] — the bundled AL-model instantiation (threshold Schnorr +
//!   joint-Feldman DKG + Herzberg-style proactive refresh and recovery),
//!   fulfilling Theorem 13;
//! * [`als_node`] — adapter running an ALS instance in the AL simulator;
//! * [`sign_session`] / [`refresh_session`] — the protocol state machines;
//! * [`msg`] — wire formats;
//! * [`statement`] — the canonical certificate statements of §1.3;
//! * [`ideal`] — the ideal signature process of §3.1 as a conformance
//!   oracle for Definition 12.
//!
//! The UL-model transformation of these schemes (Theorem 14) lives in
//! `proauth-core`.

#![forbid(unsafe_code)]

pub mod api;
pub mod als;
pub mod als_node;
pub mod ideal;
pub mod msg;
pub mod refresh_session;
pub mod sign_session;
pub mod statement;

pub use api::{AlPds, PdsEnvelope, PdsPhase, PdsTime, SignatureRecord};
pub use als::{AlsConfig, AlsPds};
pub use als_node::AlsProcess;
pub use ideal::{IdealChecker, Violation};

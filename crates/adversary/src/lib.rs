//! # proauth-adversary
//!
//! Adversary strategies against the `proauth` protocol stack — the attack
//! catalogue of §1.1/§1.3/§5.1 of Canetti–Halevi–Herzberg plus the
//! instrumentation that checks an attack stayed `(s,t)`-limited
//! (Definition 7):
//!
//! * [`strategies`] — link-level attacks: cutting, dropping, injecting,
//!   replaying, composition;
//! * [`breakins`] — mobile break-in schedules with memory-corruption modes;
//! * [`impersonation`] — the key-theft and certification-hijack attacks the
//!   awareness property exists to expose;
//! * [`limits`] — per-unit impairment accounting;
//! * [`sweep`] — the degradation sweep driver: ramp chaos intensity across
//!   the `(s,t)` boundary and report graceful degradation.

#![forbid(unsafe_code)]

pub mod breakins;
pub mod impersonation;
pub mod limits;
pub mod strategies;
pub mod sweep;

pub use breakins::{CorruptMode, MobileBreakins, Visit};
pub use impersonation::{forge_app_message, Hijacker, KeyThief};
pub use limits::LimitObserver;
pub use sweep::{run_sweep, Intensity, SweepConfig, SweepPoint};
pub use strategies::{Composed, Injector, LinkCutter, RandomDropper, Replayer};

//! # proauth-benchmark
//!
//! The repository's end-to-end and per-layer benchmark: four workloads over
//! the public APIs of the `proauth` crates, an uncontended-profile timing
//! method, correctness checks on every run, and a traced mode that prints a
//! per-layer table. See `README.md` in this directory.

pub mod calib;
pub mod check;
pub mod cli;
pub mod e2e;
pub mod engine;
pub mod estimate;
pub mod host;
pub mod layers;
pub mod micro;
pub mod net;
pub mod report;
pub mod spans;
pub mod workload;
pub mod wrap;

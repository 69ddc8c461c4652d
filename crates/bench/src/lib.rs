//! # proauth-bench
//!
//! Shared infrastructure for the experiment harnesses that reproduce the
//! paper's claims (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded results). Each experiment is a
//! `harness = false` bench target that prints its tables and asserts the
//! lemma it reproduces, so `cargo bench` regenerates everything. Timings are
//! not measured here: `benchmark/` (see `BENCHMARK.json`) is the one ruler.

#![forbid(unsafe_code)]

use proauth_core::authenticator::HeartbeatApp;
use proauth_core::uls::{uls_schedule, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_crypto::group::{Group, GroupId};
use proauth_sim::message::NodeId;
use proauth_sim::runner::SimConfig;

/// Prints a paper-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    );
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Standard ULS simulation config used across experiments.
pub fn uls_cfg(n: usize, t: usize, normal_rounds: u64, units: u64, seed: u64) -> SimConfig {
    let schedule = uls_schedule(normal_rounds);
    let mut c = SimConfig::new(n, t, schedule);
    c.setup_rounds = SETUP_ROUNDS;
    c.total_rounds = schedule.unit_rounds * units;
    c.seed = seed;
    c
}

/// Standard ULS node factory (heartbeat top layer, toy group).
pub fn uls_node(n: usize, t: usize) -> impl Fn(NodeId) -> UlsNode<HeartbeatApp> {
    move |id| {
        let group = Group::new(GroupId::Toy64);
        UlsNode::new(UlsConfig::new(group, n, t), id, HeartbeatApp::default())
    }
}

/// Formats a ratio as a percentage string.
pub fn pct(num: usize, den: usize) -> String {
    if den == 0 {
        "-".to_owned()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1, 2), "50.0%");
        assert_eq!(pct(0, 0), "-");
    }

    #[test]
    fn cfg_shape() {
        let c = uls_cfg(5, 2, 12, 3, 1);
        assert_eq!(c.n, 5);
        assert_eq!(c.total_rounds, c.schedule.unit_rounds * 3);
    }
}

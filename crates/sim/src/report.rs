//! Unit-by-unit summaries of a run — the "system log" view of the global
//! output that an operator (the consumer of alerts, per the paper's
//! awareness discussion) would actually read.

use crate::clock::Schedule;
use crate::message::{NodeId, OutputEvent};
use crate::runner::{SimResult, SimStats};
use proauth_telemetry::Telemetry;
use std::fmt;
use std::fmt::Write as _;

impl fmt::Display for SimStats {
    /// The operator-facing traffic line, including the adversary-side
    /// counters (drops / injections / modifications from the per-round
    /// delivery diff) and, when any fired, the chaos-side crash accounting.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} messages sent, {} delivered, {} bytes; adversary: {} dropped, {} injected, {} modified",
            self.messages_sent,
            self.messages_delivered,
            self.bytes_sent,
            self.messages_dropped,
            self.messages_injected,
            self.messages_modified,
        )?;
        if self.crashes > 0 || self.restarts > 0 {
            write!(
                f,
                "; chaos: {} crashes ({} from panics), {} restarts",
                self.crashes, self.panics, self.restarts
            )?;
        }
        Ok(())
    }
}

/// Formats nanoseconds with a human-scale unit.
fn fmt_ns(ns: u64) -> String {
    match ns {
        u64::MAX => ">1s".into(),
        ns if ns >= 1_000_000_000 => format!("{:.2}s", ns as f64 / 1e9),
        ns if ns >= 1_000_000 => format!("{:.2}ms", ns as f64 / 1e6),
        ns if ns >= 1_000 => format!("{:.1}µs", ns as f64 / 1e3),
        ns => format!("{ns}ns"),
    }
}

/// Renders the telemetry registry as the operator's metrics report: a
/// per-unit counter table (metrics as rows, time units as columns, plus a
/// total column) followed by a latency-histogram summary. Returns `None`
/// when the handle is off or nothing was recorded.
pub fn render_metrics(tele: &Telemetry) -> Option<String> {
    let units = tele.units();
    let snap = tele.snapshot()?;
    let mut out = String::new();

    if !units.is_empty() && units.iter().any(|u| !u.counters.is_empty()) {
        // Row set: every counter name seen in any unit, in sorted order
        // (BTreeMap keys already are).
        let names: std::collections::BTreeSet<&str> = units
            .iter()
            .flat_map(|u| u.counters.keys().copied())
            .collect();
        let name_w = names.iter().map(|n| n.len()).max().unwrap_or(6).max(6);
        let col_w = 10;
        let _ = write!(out, "{:name_w$}", "metric");
        for u in &units {
            let _ = write!(out, " {:>col_w$}", format!("unit {}", u.unit));
        }
        let _ = writeln!(out, " {:>col_w$}", "total");
        for name in names {
            let _ = write!(out, "{name:name_w$}");
            let mut total = 0u64;
            for u in &units {
                let v = u.counters.get(name).copied().unwrap_or(0);
                total += v;
                let _ = write!(out, " {v:>col_w$}");
            }
            let _ = writeln!(out, " {total:>col_w$}");
        }
    }

    if !snap.maxes.is_empty() {
        let _ = writeln!(out, "\ngauges (max):");
        for (name, v) in &snap.maxes {
            let _ = writeln!(out, "  {name} = {v}");
        }
    }

    if !snap.hists.is_empty() {
        let _ = writeln!(
            out,
            "\n{:28} {:>8} {:>9} {:>9} {:>9}",
            "latency", "count", "mean", "p50", "p99"
        );
        for (name, h) in &snap.hists {
            let qs = h.quantiles_ns(&[0.5, 0.99]);
            let _ = writeln!(
                out,
                "{name:28} {:>8} {:>9} {:>9} {:>9}",
                h.total,
                fmt_ns(h.mean_ns()),
                fmt_ns(qs[0]),
                fmt_ns(qs[1]),
            );
        }
    }

    if !snap.value_hists.is_empty() {
        // Unitless distributions (e.g. recovery latency in rounds); the
        // quantiles are power-of-2 bucket upper bounds.
        let _ = writeln!(
            out,
            "\n{:28} {:>8} {:>9} {:>9} {:>9}",
            "distribution", "count", "mean", "p50", "p99"
        );
        for (name, h) in &snap.value_hists {
            let qs = h.quantiles_value(&[0.5, 0.99]);
            let _ = writeln!(
                out,
                "{name:28} {:>8} {:>9} {:>9} {:>9}",
                h.total,
                h.mean_ns(),
                qs[0],
                qs[1],
            );
        }
    }

    (!out.is_empty()).then_some(out)
}

/// Aggregates for one node in one time unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeUnitSummary {
    /// Top-layer messages sent.
    pub sent: usize,
    /// Authenticated messages accepted.
    pub accepted: usize,
    /// Alerts raised.
    pub alerts: usize,
    /// Whether a "compromised" line appeared this unit.
    pub compromised: bool,
    /// Whether a "recovered" line appeared this unit.
    pub recovered: bool,
    /// Threshold signatures reported.
    pub signed: usize,
}

/// Aggregates for one time unit across the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitSummary {
    /// The time unit index.
    pub unit: u64,
    /// Per-node rows.
    pub nodes: Vec<NodeUnitSummary>,
}

impl UnitSummary {
    /// Total alerts in the unit.
    pub fn total_alerts(&self) -> usize {
        self.nodes.iter().map(|n| n.alerts).sum()
    }

    /// Nodes that were compromised at some point in the unit.
    pub fn compromised_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.compromised)
            .map(|(i, _)| NodeId::from_idx(i))
            .collect()
    }
}

/// Builds per-unit summaries from a run's global output.
pub fn unit_summaries(result: &SimResult, schedule: &Schedule) -> Vec<UnitSummary> {
    let n = result.outputs.len();
    let last_round = result
        .outputs
        .iter()
        .flat_map(|l| l.iter().map(|(r, _)| *r))
        .max()
        .unwrap_or(0);
    let units = schedule.unit_of(last_round) + 1;
    let mut out: Vec<UnitSummary> = (0..units)
        .map(|unit| UnitSummary {
            unit,
            nodes: vec![NodeUnitSummary::default(); n],
        })
        .collect();
    for (idx, log) in result.outputs.iter().enumerate() {
        for (round, ev) in log {
            let unit = schedule.unit_of(*round) as usize;
            let cell = &mut out[unit].nodes[idx];
            match ev {
                OutputEvent::Sent { .. } => cell.sent += 1,
                OutputEvent::Accepted { .. } => cell.accepted += 1,
                OutputEvent::Alert => cell.alerts += 1,
                OutputEvent::Compromised => cell.compromised = true,
                OutputEvent::Recovered => cell.recovered = true,
                OutputEvent::Signed { .. } => cell.signed += 1,
                _ => {}
            }
        }
    }
    out
}

impl fmt::Display for UnitSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "unit {}:", self.unit)?;
        for (idx, node) in self.nodes.iter().enumerate() {
            let mut flags = String::new();
            if node.compromised {
                flags.push_str(" COMPROMISED");
            }
            if node.recovered {
                flags.push_str(" RECOVERED");
            }
            if node.alerts > 0 {
                flags.push_str(&format!(" ALERT×{}", node.alerts));
            }
            writeln!(
                f,
                "  {}: sent {:4}  accepted {:4}  signed {:2}{}",
                NodeId::from_idx(idx),
                node.sent,
                node.accepted,
                node.signed,
                flags
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Rom;
    use crate::runner::{SimResult, SimStats};

    fn mk_result(outputs: Vec<Vec<(u64, OutputEvent)>>) -> SimResult {
        let n = outputs.len();
        SimResult {
            outputs,
            adversary_output: Vec::new(),
            stats: SimStats::default(),
            final_operational: vec![true; n],
            roms: vec![Rom::new(); n],
            transcript: None,
        }
    }

    #[test]
    fn summaries_bucket_by_unit() {
        let schedule = Schedule::new(10, 2, 2);
        let result = mk_result(vec![
            vec![
                (1, OutputEvent::Sent { to: NodeId(2), msg: vec![] }),
                (12, OutputEvent::Alert),
                (13, OutputEvent::Compromised),
            ],
            vec![(3, OutputEvent::Accepted { from: NodeId(1), msg: vec![] })],
        ]);
        let summaries = unit_summaries(&result, &schedule);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].nodes[0].sent, 1);
        assert_eq!(summaries[0].nodes[1].accepted, 1);
        assert_eq!(summaries[0].total_alerts(), 0);
        assert_eq!(summaries[1].nodes[0].alerts, 1);
        assert!(summaries[1].nodes[0].compromised);
        assert_eq!(summaries[1].compromised_nodes(), vec![NodeId(1)]);
    }

    #[test]
    fn display_renders_flags() {
        let schedule = Schedule::new(10, 2, 2);
        let result = mk_result(vec![vec![
            (0, OutputEvent::Alert),
            (1, OutputEvent::Recovered),
        ]]);
        let text = format!("{}", unit_summaries(&result, &schedule)[0]);
        assert!(text.contains("ALERT×1"));
        assert!(text.contains("RECOVERED"));
    }

    #[test]
    fn stats_display_includes_adversary_counters() {
        let stats = SimStats {
            messages_sent: 10,
            messages_delivered: 8,
            messages_dropped: 2,
            messages_injected: 1,
            messages_modified: 3,
            bytes_sent: 99,
            ..SimStats::default()
        };
        let line = format!("{stats}");
        assert!(line.contains("2 dropped"));
        assert!(line.contains("1 injected"));
        assert!(line.contains("3 modified"));
    }

    #[test]
    fn render_metrics_tables() {
        assert!(render_metrics(&Telemetry::off()).is_none());
        let tele = Telemetry::enabled();
        tele.add("uls/accepted", 4);
        tele.unit_mark(0);
        tele.add("uls/accepted", 6);
        tele.add("disperse/sent", 2);
        tele.unit_mark(1);
        tele.gauge_max("adversary/max_impaired", 3);
        tele.observe_ns("crypto/verify_ns", 2_000_000);
        let text = render_metrics(&tele).expect("rendered");
        // Counter rows carry per-unit and total columns.
        assert!(text.contains("unit 0"));
        assert!(text.contains("unit 1"));
        assert!(text.contains("uls/accepted"));
        assert!(text.contains("10")); // total column
        assert!(text.contains("adversary/max_impaired = 3"));
        assert!(text.contains("crypto/verify_ns"));
        assert!(text.contains("ms"));
    }

    #[test]
    fn render_metrics_value_distributions() {
        let tele = Telemetry::enabled();
        tele.observe_value("engine/recovery_rounds", 11);
        tele.observe_value("engine/recovery_rounds", 3);
        let text = render_metrics(&tele).expect("rendered");
        assert!(text.contains("distribution"));
        assert!(text.contains("engine/recovery_rounds"));
        // p50 lands on the power-of-2 bucket bound of the observation 3 → 4,
        // p99 on that of 11 → 16.
        let row = text
            .lines()
            .find(|l| l.starts_with("engine/recovery_rounds"))
            .expect("row");
        assert!(row.contains('4'));
        assert!(row.contains("16"));
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(5), "5ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
        assert_eq!(fmt_ns(u64::MAX), ">1s");
    }

    #[test]
    fn empty_run_yields_one_empty_unit() {
        let schedule = Schedule::new(10, 2, 2);
        let result = mk_result(vec![vec![], vec![]]);
        let summaries = unit_summaries(&result, &schedule);
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].total_alerts(), 0);
    }
}

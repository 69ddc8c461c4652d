//! Spans of a traced run: built after the run from the wrappers' clock
//! readings, held in memory, written as JSONL at exit.
//!
//! Engine runs nest `run → setup | unit → phase → calib | round → step →
//! calib | node_step[i]` and `round → calib | merge` (`calib` is a sample of
//! the reference kernel: at the round boundary, before each node step, after
//! the last); socket runs nest `run → node[i] → round → core | transport`.
//! A span's self time is its duration minus its children's.

use crate::net::NodeTimes;
use crate::workload::REFRESH_ROUNDS;
use crate::wrap::{RoundStamps, StepRec};
use proauth_core::uls::PART1_ROUNDS;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// One span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within the log.
    pub id: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u64>,
    /// Name; instances carry an index (`round[81]`, `node_step[3]`).
    pub name: String,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The name without its index: `node_step[3]` → `node_step`.
    pub fn kind(&self) -> &str {
        self.name.split('[').next().unwrap_or(&self.name)
    }
}

/// All spans of one run.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    /// Shared by every span of the run.
    pub run_id: String,
    /// The spans, parents before children.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log.
    pub fn new(run_id: String) -> Self {
        SpanLog {
            run_id,
            spans: Vec::new(),
        }
    }

    /// Adds a span and returns its id.
    pub fn add(&mut self, parent: Option<u64>, name: String, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Self time of every span, indexed by span id.
    pub fn self_times_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.duration_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.duration_ns() as i64;
            }
        }
        own
    }

    /// Self time summed by span kind, over the subtree under `root`:
    /// `kind → (spans, self ns)`.
    pub fn self_time_by_kind(&self, root: u64) -> BTreeMap<String, (u64, i64)> {
        let own = self.self_times_ns();
        let mut under = vec![false; self.spans.len()];
        let mut out: BTreeMap<String, (u64, i64)> = BTreeMap::new();
        for s in &self.spans {
            let inside = s.id == root || s.parent.is_some_and(|p| under[p as usize]);
            under[s.id as usize] = inside;
            if inside {
                let slot = out.entry(s.kind().to_owned()).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += own[s.id as usize];
            }
        }
        out
    }

    /// `|Σ self − root| / root` over the subtree under `root`: 0 when every
    /// child lies inside its parent and siblings do not overlap.
    pub fn self_time_gap(&self, root: u64) -> f64 {
        let total: i64 = self
            .self_time_by_kind(root)
            .values()
            .map(|(_, ns)| ns)
            .sum();
        let root_ns = self.spans[root as usize].duration_ns() as f64;
        if root_ns == 0.0 {
            return 0.0;
        }
        (total as f64 - root_ns).abs() / root_ns
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Phase of round index `k` in unit `unit`, with the index range it covers.
fn phase_of(unit: usize, k: usize, unit_rounds: usize) -> (&'static str, usize) {
    let (p1, refresh) = (PART1_ROUNDS as usize, REFRESH_ROUNDS as usize);
    if unit == 0 {
        ("normal", unit_rounds)
    } else if k < p1 {
        ("refresh1", p1)
    } else if k < refresh {
        ("refresh2", refresh)
    } else {
        ("normal", unit_rounds)
    }
}

/// Spans of an engine run. Returns the log and the id of the `run` root.
pub fn engine_spans(
    run_id: String,
    stamps: &RoundStamps,
    node_steps: &[Vec<StepRec>],
    unit_rounds: u64,
) -> (SpanLog, u64) {
    let r = unit_rounds as usize;
    let rounds = stamps.rounds();
    let mut log = SpanLog::new(run_id);
    let root = log.add(None, "run".into(), 0, stamps.end_ns);
    log.add(Some(root), "setup".into(), 0, stamps.boundary(0));
    // Node steps by round, in node order.
    let mut by_round: Vec<Vec<(usize, StepRec)>> = vec![Vec::new(); rounds];
    for (node, steps) in node_steps.iter().enumerate() {
        for step in steps {
            if let Some(slot) = by_round.get_mut(step.round as usize) {
                slot.push((node + 1, *step));
            }
        }
    }
    let mut round = 0;
    while round < rounds {
        let unit = round / r;
        let unit_end = ((unit + 1) * r).min(rounds);
        let unit_id = log.add(
            Some(root),
            format!("unit[{unit}]"),
            stamps.boundary(round),
            stamps.boundary(unit_end),
        );
        while round < unit_end {
            let (phase, until) = phase_of(unit, round % r, r);
            let phase_end = (unit * r + until).min(rounds);
            let phase_id = log.add(
                Some(unit_id),
                format!("phase[{phase}]"),
                stamps.boundary(round),
                stamps.boundary(phase_end),
            );
            while round < phase_end {
                let (start, done, next) = (
                    stamps.plan_ns[round],
                    stamps.deliver_ns[round],
                    stamps.boundary(round + 1),
                );
                log.add(
                    Some(phase_id),
                    "calib".into(),
                    stamps.boundary(round),
                    start,
                );
                let round_id = log.add(Some(phase_id), format!("round[{round}]"), start, next);
                let step_id = log.add(Some(round_id), "step".into(), start, done);
                for &(node, step) in &by_round[round] {
                    log.add(
                        Some(step_id),
                        "calib".into(),
                        step.start_ns - step.calib_ns,
                        step.start_ns,
                    );
                    log.add(
                        Some(step_id),
                        format!("node_step[{node}]"),
                        step.start_ns,
                        step.end_ns,
                    );
                }
                let merge_start = done + stamps.deliver_calib_ns[round];
                log.add(Some(round_id), "calib".into(), done, merge_start);
                log.add(Some(round_id), "merge".into(), merge_start, next);
                round += 1;
            }
        }
    }
    (log, root)
}

/// Spans of a socket run. Returns the log and the ids of the `node[i]`
/// spans (each the root of one thread's tree).
pub fn net_spans(run_id: String, nodes: &[NodeTimes]) -> (SpanLog, Vec<u64>) {
    let mut log = SpanLog::new(run_id);
    let end = nodes
        .iter()
        .filter_map(|n| n.exit_ns.last().copied())
        .max()
        .unwrap_or(0);
    let root = log.add(None, "run".into(), 0, end);
    let mut node_ids = Vec::with_capacity(nodes.len());
    for (idx, node) in nodes.iter().enumerate() {
        let (Some(&first), Some(&last)) = (node.enter_ns.first(), node.exit_ns.last()) else {
            continue;
        };
        let node_id = log.add(Some(root), format!("node[{}]", idx + 1), first, last);
        node_ids.push(node_id);
        for (round, (&enter, &exit)) in node.enter_ns.iter().zip(&node.exit_ns).enumerate() {
            let next = node.enter_ns.get(round + 1).copied().unwrap_or(exit);
            let round_id = log.add(Some(node_id), format!("round[{round}]"), enter, next);
            log.add(Some(round_id), "core".into(), enter, exit);
            log.add(Some(round_id), "transport".into(), exit, next);
        }
    }
    (log, node_ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut log = SpanLog::new("t".into());
        let root = log.add(None, "run".into(), 0, 100);
        let a = log.add(Some(root), "round[0]".into(), 10, 60);
        log.add(Some(a), "step".into(), 10, 40);
        log.add(Some(a), "merge".into(), 40, 60);
        log.add(Some(root), "round[1]".into(), 60, 100);
        let own = log.self_times_ns();
        assert_eq!(own, vec![10, 0, 30, 20, 40]);
        assert_eq!(log.self_time_gap(root), 0.0);
        let by_kind = log.self_time_by_kind(root);
        assert_eq!(by_kind["round"], (2, 40));
        assert_eq!(by_kind["step"], (1, 30));
        // A subtree only counts what hangs under it.
        assert_eq!(log.self_time_by_kind(a).len(), 3);
        assert_eq!(log.spans[1].kind(), "round");
    }

    #[test]
    fn net_spans_split_rounds_into_core_and_transport() {
        let nodes = vec![NodeTimes {
            enter_ns: vec![100, 200, 300],
            exit_ns: vec![130, 260, 310],
            sent: vec![(0, 0); 3],
        }];
        let (log, roots) = net_spans("n".into(), &nodes);
        assert_eq!(roots.len(), 1);
        let by_kind = log.self_time_by_kind(roots[0]);
        assert_eq!(by_kind["core"], (3, 30 + 60 + 10));
        assert_eq!(by_kind["transport"], (3, 70 + 40));
        assert!(log.self_time_gap(roots[0]) < 1e-9);
    }
}

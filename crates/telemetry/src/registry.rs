//! The metrics registry: counters, max-gauges, and fixed-bucket histograms,
//! plus the per-node **shards** that keep recording deterministic under the
//! parallel engine.
//!
//! # Determinism rules
//!
//! Nothing here may make simulation results depend on scheduling:
//!
//! * counter and gauge merges are commutative (sums and maxes), so the
//!   registry totals at any round barrier are identical for every worker
//!   count;
//! * trace events are *not* written to the sink by the recording thread —
//!   they accumulate in a per-node [`Shard`] which the engine merges in
//!   `NodeId` order after the round barrier;
//! * wall-clock values only ever land in histograms (display) or `wall_*`
//!   event fields (stripped for golden comparison), never in counters.

use crate::event::EventBuf;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Histogram bucket upper bounds in nanoseconds: powers of 4 from 250 ns to
/// ~1 s. One fixed layout for every histogram keeps merging trivial.
pub const HIST_BOUNDS_NS: [u64; 12] = [
    250,
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
];

/// Bucket upper bounds for unitless **value** histograms (e.g. recovery
/// latency measured in rounds): powers of 2 from 1 to 2048. Same fixed-layout
/// principle as [`HIST_BOUNDS_NS`], different scale.
pub const HIST_BOUNDS_VALUE: [u64; 12] =
    [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// A fixed-bucket histogram. Latency histograms bucket by [`HIST_BOUNDS_NS`]
/// (nanoseconds); value histograms by [`HIST_BOUNDS_VALUE`] (unitless, e.g.
/// rounds). The last bucket counts overflow beyond the bounds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts; index `i` counts observations `<= bounds[i]`,
    /// the final slot counts the rest.
    pub counts: [u64; HIST_BOUNDS_NS.len() + 1],
    /// Total number of observations.
    pub total: u64,
    /// Sum of all observed values, in ns.
    pub sum_ns: u64,
}

impl Histogram {
    /// Records one observation bucketed by `bounds`.
    pub fn observe_bounded(&mut self, bounds: &[u64], v: u64) {
        let idx = bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_ns = self.sum_ns.saturating_add(v);
    }

    /// Records one latency observation (ns buckets).
    pub fn observe(&mut self, ns: u64) {
        self.observe_bounded(&HIST_BOUNDS_NS, ns);
    }

    /// Adds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Approximate quantile under the given bounds: the upper bound of the
    /// bucket containing the `q`-quantile observation (`u64::MAX`-capped for
    /// the overflow bucket).
    pub fn quantile_bounded(&self, bounds: &[u64], q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bounds.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Approximate latency quantile (ns buckets).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.quantile_bounded(&HIST_BOUNDS_NS, q)
    }

    /// Several quantiles at once under the given bounds — the one-stop
    /// extraction reports use instead of hand-rolling p50/p95/p99 pulls.
    pub fn quantiles(&self, bounds: &[u64], qs: &[f64]) -> Vec<u64> {
        qs.iter().map(|&q| self.quantile_bounded(bounds, q)).collect()
    }

    /// Several latency quantiles (ns buckets).
    pub fn quantiles_ns(&self, qs: &[f64]) -> Vec<u64> {
        self.quantiles(&HIST_BOUNDS_NS, qs)
    }

    /// Several value quantiles ([`HIST_BOUNDS_VALUE`] buckets, e.g. rounds).
    pub fn quantiles_value(&self, qs: &[f64]) -> Vec<u64> {
        self.quantiles(&HIST_BOUNDS_VALUE, qs)
    }

    /// Mean observation in ns (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.total).unwrap_or(0)
    }
}

/// A per-node (or engine-side) telemetry shard: counter/gauge/histogram
/// deltas plus pre-encoded trace-event bytes, accumulated while one node
/// executes — possibly on a worker thread — and merged by the engine at the
/// round barrier in `NodeId` order.
#[derive(Debug, Default)]
pub struct Shard {
    /// `NodeId` value providing event context; `0` means "engine" (node ids
    /// are 1-based) and suppresses the `node` field.
    ctx_node: u32,
    /// Round providing event context.
    ctx_round: u64,
    counters: BTreeMap<&'static str, u64>,
    maxes: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    value_hists: BTreeMap<&'static str, Histogram>,
    events: String,
}

impl Shard {
    /// Sets the (node, round) context stamped onto subsequent trace events.
    pub fn set_ctx(&mut self, node: u32, round: u64) {
        self.ctx_node = node;
        self.ctx_round = round;
    }

    /// Adds `v` to the named counter.
    pub fn count(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Raises the named max-gauge to at least `v`.
    pub fn gauge_max(&mut self, name: &'static str, v: u64) {
        let slot = self.maxes.entry(name).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Records a latency observation (wall clock; display only).
    pub fn observe_ns(&mut self, name: &'static str, ns: u64) {
        self.hists.entry(name).or_default().observe(ns);
    }

    /// Records a unitless value observation (e.g. rounds). Unlike latency
    /// histograms these carry deterministic simulation quantities, so merges
    /// stay commutative and results identical across worker counts.
    pub fn observe_value(&mut self, name: &'static str, v: u64) {
        self.value_hists
            .entry(name)
            .or_default()
            .observe_bounded(&HIST_BOUNDS_VALUE, v);
    }

    /// Appends a trace event, stamped with the shard's (node, round) context.
    pub fn trace(&mut self, kind: &str, fill: impl FnOnce(&mut EventBuf)) {
        let mut ev = EventBuf::new(kind);
        if self.ctx_node != 0 {
            ev.u64("node", u64::from(self.ctx_node));
        }
        ev.u64("round", self.ctx_round);
        fill(&mut ev);
        self.events.push_str(&ev.finish());
    }

    /// Whether the shard holds nothing to merge.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.maxes.is_empty()
            && self.hists.is_empty()
            && self.value_hists.is_empty()
            && self.events.is_empty()
    }

    pub(crate) fn drain_into(&mut self, registry: &Registry) -> String {
        if !self.counters.is_empty() {
            let mut c = lock(&registry.counters);
            for (name, v) in &self.counters {
                *c.entry(name).or_insert(0) += v;
            }
            self.counters.clear();
        }
        if !self.maxes.is_empty() {
            let mut m = lock(&registry.maxes);
            for (name, v) in &self.maxes {
                let slot = m.entry(name).or_insert(0);
                *slot = (*slot).max(*v);
            }
            self.maxes.clear();
        }
        if !self.hists.is_empty() {
            let mut h = lock(&registry.hists);
            for (name, hist) in &self.hists {
                h.entry(name).or_default().merge(hist);
            }
            self.hists.clear();
        }
        if !self.value_hists.is_empty() {
            let mut h = lock(&registry.value_hists);
            for (name, hist) in &self.value_hists {
                h.entry(name).or_default().merge(hist);
            }
            self.value_hists.clear();
        }
        std::mem::take(&mut self.events)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The run-wide metrics store. Shards merge into it at round barriers; the
/// engine may also add to it directly (engine-thread accounting like the
/// delivery diff).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    maxes: Mutex<BTreeMap<&'static str, u64>>,
    hists: Mutex<BTreeMap<&'static str, Histogram>>,
    value_hists: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl Registry {
    /// Adds `v` to a counter directly (engine-thread use).
    pub fn add(&self, name: &'static str, v: u64) {
        *lock(&self.counters).entry(name).or_insert(0) += v;
    }

    /// Raises a max-gauge directly (engine-thread use).
    pub fn gauge_max(&self, name: &'static str, v: u64) {
        let mut m = lock(&self.maxes);
        let slot = m.entry(name).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Records a latency observation directly (engine-thread use).
    pub fn observe_ns(&self, name: &'static str, ns: u64) {
        lock(&self.hists).entry(name).or_default().observe(ns);
    }

    /// Records a unitless value observation directly (engine-thread use).
    pub fn observe_value(&self, name: &'static str, v: u64) {
        lock(&self.value_hists)
            .entry(name)
            .or_default()
            .observe_bounded(&HIST_BOUNDS_VALUE, v);
    }

    /// Merges a latency-histogram delta into the named histogram (collector
    /// use: applying a cross-process [`crate::MetricsDelta`]).
    pub fn merge_hist(&self, name: &'static str, h: &Histogram) {
        lock(&self.hists).entry(name).or_default().merge(h);
    }

    /// Merges a value-histogram delta into the named histogram.
    pub fn merge_value_hist(&self, name: &'static str, h: &Histogram) {
        lock(&self.value_hists).entry(name).or_default().merge(h);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).copied().unwrap_or(0)
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters).clone(),
            maxes: lock(&self.maxes).clone(),
            hists: lock(&self.hists).clone(),
            value_hists: lock(&self.value_hists).clone(),
        }
    }
}

/// A point-in-time copy of the registry, cheap to diff and render.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Max-gauge values by name.
    pub maxes: BTreeMap<&'static str, u64>,
    /// Histograms by name.
    pub hists: BTreeMap<&'static str, Histogram>,
    /// Unitless value histograms by name (bucketed on [`HIST_BOUNDS_VALUE`]).
    pub value_hists: BTreeMap<&'static str, Histogram>,
}

impl MetricsSnapshot {
    /// Counter deltas since `prev` (names absent from `prev` count from 0;
    /// zero deltas are omitted).
    pub fn counter_deltas(&self, prev: &MetricsSnapshot) -> BTreeMap<&'static str, u64> {
        self.counters
            .iter()
            .filter_map(|(name, v)| {
                let d = v - prev.counters.get(name).copied().unwrap_or(0);
                (d > 0).then_some((*name, d))
            })
            .collect()
    }
}

/// Per-unit counter deltas, captured by the engine at each unit boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitMetrics {
    /// The time unit the deltas cover.
    pub unit: u64,
    /// Counter increments during the unit (zero rows omitted).
    pub counters: BTreeMap<&'static str, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for ns in [100, 200, 2_000, 2_000, 3_000_000_000] {
            h.observe(ns);
        }
        assert_eq!(h.total, 5);
        assert_eq!(h.counts[0], 2); // <= 250ns
        assert_eq!(h.counts[2], 2); // <= 4µs
        assert_eq!(*h.counts.last().unwrap(), 1); // overflow
        assert_eq!(h.quantile_ns(0.5), 4_000);
        assert_eq!(h.quantile_ns(1.0), u64::MAX);
        assert_eq!(
            h.quantiles_ns(&[0.5, 0.95, 1.0]),
            vec![4_000, u64::MAX, u64::MAX]
        );
        assert_eq!(Histogram::default().quantiles_value(&[0.5, 0.99]), vec![0, 0]);
        assert_eq!(h.mean_ns(), (100 + 200 + 2_000 + 2_000 + 3_000_000_000u64) / 5);
    }

    #[test]
    fn shard_merges_into_registry_and_clears() {
        let reg = Registry::default();
        let mut shard = Shard::default();
        shard.set_ctx(3, 17);
        shard.count("x", 2);
        shard.count("x", 1);
        shard.gauge_max("g", 5);
        shard.observe_ns("h", 500);
        shard.trace("tick", |ev| {
            ev.u64("k", 9);
        });
        let events = shard.drain_into(&reg);
        assert!(shard.is_empty());
        assert_eq!(reg.counter("x"), 3);
        assert_eq!(events, "{\"ev\":\"tick\",\"node\":3,\"round\":17,\"k\":9}\n");

        // Merging again accumulates; gauges take the max.
        let mut shard2 = Shard::default();
        shard2.count("x", 4);
        shard2.gauge_max("g", 2);
        let _ = shard2.drain_into(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["x"], 7);
        assert_eq!(snap.maxes["g"], 5);
        assert_eq!(snap.hists["h"].total, 1);
    }

    #[test]
    fn snapshot_deltas() {
        let reg = Registry::default();
        reg.add("a", 5);
        let first = reg.snapshot();
        reg.add("a", 2);
        reg.add("b", 1);
        let second = reg.snapshot();
        let d = second.counter_deltas(&first);
        assert_eq!(d["a"], 2);
        assert_eq!(d["b"], 1);
        assert_eq!(second.counter_deltas(&second).len(), 0);
    }

    #[test]
    fn engine_shard_omits_node_field() {
        let mut shard = Shard::default();
        shard.set_ctx(0, 4);
        shard.trace("adv", |_| {});
        let reg = Registry::default();
        assert_eq!(shard.drain_into(&reg), "{\"ev\":\"adv\",\"round\":4}\n");
    }
}

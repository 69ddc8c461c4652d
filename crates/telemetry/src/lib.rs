//! `proauth-telemetry` — hand-rolled flight-recorder telemetry for the
//! proauth workspace: a metrics registry (counters, max-gauges, fixed-bucket
//! latency histograms), a span-style phase timer keyed to the time-unit /
//! refreshment schedule, and a JSONL flight-recorder sink.
//!
//! Zero external dependencies, consistent with the vendored rand / proptest
//! shims: the build environment has no crates.io access, and the paper's
//! substrates are all built from scratch anyway.
//!
//! # Shape
//!
//! A [`Telemetry`] handle is either **off** (`Telemetry::off()`, the
//! default — a `None` inner, every operation a no-op) or **on**, holding a
//! [`Registry`] and optionally a [`Sink`]. The simulation engine owns the
//! handle (via `SimConfig`); deep layers (DISPERSE, ULS, PA, PDS sessions,
//! adversaries) never see it — they record through the ambient thread-local
//! scope ([`count`], [`observe_ns`], [`timed`], [`trace`]), which the engine
//! installs per node execution and per adversary callback.
//!
//! # Determinism
//!
//! The round engine must stay bit-identical across thread counts with
//! telemetry on or off. Three rules enforce that (see `registry`):
//! per-node shards merged at round barriers in `NodeId` order, commutative
//! counter/gauge merges, and wall-clock values confined to histograms and
//! `wall_*` event fields (which [`strip_wall_fields`] removes for golden
//! comparisons). Telemetry reads nothing back into the simulation: enabling
//! it cannot change a `SimResult`.
//!
//! # Cost when disabled
//!
//! Instrumented call sites compile to a relaxed atomic load and a branch
//! (the process-global hot flag, raised only while an enabled handle
//! exists). The e11 benchmark's telemetry ablation row measures exactly
//! this.

#![forbid(unsafe_code)]

pub mod delta;
pub mod event;
pub mod phase;
pub mod registry;
pub mod sink;
mod scope;

pub use delta::MetricsDelta;
pub use event::{strip_wall_fields, EventBuf, Field};
pub use phase::{PhaseTimer, PHASE_NORMAL, PHASE_REFRESH1, PHASE_REFRESH2};
pub use registry::{
    Histogram, MetricsSnapshot, Registry, Shard, UnitMetrics, HIST_BOUNDS_NS, HIST_BOUNDS_VALUE,
};
pub use scope::{
    count, gauge_max, hot, install, observe_ns, observe_value, scope_active, timed, trace,
};
pub use sink::{memory_contents, Sink};

/// Interns a dynamically-built metric name (e.g. the per-cluster keys of the
/// §6 hierarchy: `"engine/cluster3/non_op_rounds"`) into a process-lifetime
/// string usable with the `&'static str` metric APIs. Each unique name leaks
/// exactly once per process; intended for small bounded key families
/// (clusters, phases), never for unbounded identifiers.
pub fn intern_name(name: &str) -> &'static str {
    use std::collections::BTreeMap;
    use std::sync::OnceLock;
    static INTERNED: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let map = INTERNED.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = lock(map);
    if let Some(&s) = map.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    map.insert(name.to_owned(), leaked);
    leaked
}

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Environment variable naming the JSONL trace file for a run.
pub const TRACE_ENV: &str = "PROAUTH_TRACE";

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug)]
struct Inner {
    registry: Registry,
    sink: Option<Sink>,
    /// Per-unit counter deltas captured by [`Telemetry::unit_mark`].
    units: Mutex<Vec<UnitMetrics>>,
    /// Snapshot at the previous unit mark, for delta computation.
    last_mark: Mutex<MetricsSnapshot>,
    /// Keeps the process-global hot flag raised while this handle lives.
    _active: scope::ActiveToken,
}

/// A cloneable telemetry handle; clones share the same registry and sink.
/// The default handle is **off** and near-free to carry around.
///
/// Note that because clones share state, two simulation runs that should be
/// metered independently need two separately-constructed handles.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Telemetry(off)"),
            Some(inner) => write!(
                f,
                "Telemetry(on, sink: {})",
                match &inner.sink {
                    None => "none",
                    Some(Sink::File(_)) => "file",
                    Some(Sink::Memory(_)) => "memory",
                }
            ),
        }
    }
}

impl Telemetry {
    /// The disabled handle (the default everywhere).
    pub fn off() -> Self {
        Telemetry { inner: None }
    }

    fn on(sink: Option<Sink>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Registry::default(),
                sink,
                units: Mutex::new(Vec::new()),
                last_mark: Mutex::new(MetricsSnapshot::default()),
                _active: scope::ActiveToken::new(),
            })),
        }
    }

    /// Metrics registry only — no flight-recorder sink.
    pub fn enabled() -> Self {
        Telemetry::on(None)
    }

    /// Metrics plus a JSONL flight recorder writing to `path`
    /// (created/truncated).
    pub fn with_trace_path(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Telemetry::on(Some(Sink::file(path.as_ref())?)))
    }

    /// Metrics plus an in-memory JSONL sink; returns the shared buffer for
    /// later inspection (see [`memory_contents`]).
    pub fn with_memory_sink() -> (Self, Arc<Mutex<Vec<u8>>>) {
        let (sink, buf) = Sink::memory();
        (Telemetry::on(Some(sink)), buf)
    }

    /// Off unless `PROAUTH_TRACE=path` is set, in which case a file-sink
    /// handle (falling back to off, with a note on stderr, if the path
    /// cannot be created). Intended for single runs — two concurrent runs
    /// constructed from the same environment would race on the file.
    pub fn from_env() -> Self {
        match std::env::var(TRACE_ENV) {
            Ok(path) if !path.is_empty() => match Telemetry::with_trace_path(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("proauth-telemetry: cannot open {TRACE_ENV}={path}: {e}");
                    Telemetry::off()
                }
            },
            _ => Telemetry::off(),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// A fresh shard for a node (or the engine) to record into; `None` when
    /// the handle is off, so disabled runs allocate nothing.
    pub fn new_shard(&self) -> Option<Shard> {
        self.is_on().then(Shard::default)
    }

    /// Merges a shard's metrics into the registry and appends its buffered
    /// trace events to the sink. The engine calls this at round barriers in
    /// `NodeId` order — that ordering is what makes the trace byte-identical
    /// across engine thread counts.
    pub fn merge_shard(&self, shard: &mut Shard) {
        let Some(inner) = &self.inner else {
            return;
        };
        if shard.is_empty() {
            return;
        }
        let events = shard.drain_into(&inner.registry);
        if let Some(sink) = &inner.sink {
            sink.write(events.as_bytes());
        }
    }

    /// Appends pre-encoded JSONL event bytes straight to the sink
    /// (cluster-trace assembly: node-shard blobs cross the process boundary
    /// already encoded, and must land between the synthesized round events
    /// byte-for-byte).
    pub fn append_raw(&self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.sink {
                sink.write(bytes);
            }
        }
    }

    /// Emits one event straight to the sink (engine-thread use: run/round/
    /// unit boundaries, phase spans).
    pub fn emit_event(&self, kind: &str, fill: impl FnOnce(&mut EventBuf)) {
        let Some(inner) = &self.inner else {
            return;
        };
        let Some(sink) = &inner.sink else {
            return;
        };
        let mut ev = EventBuf::new(kind);
        fill(&mut ev);
        sink.write(ev.finish().as_bytes());
    }

    /// Adds to a counter directly (engine-thread accounting such as the
    /// delivery diff).
    pub fn add(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            if v > 0 {
                inner.registry.add(name, v);
            }
        }
    }

    /// Raises a max-gauge directly.
    pub fn gauge_max(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_max(name, v);
        }
    }

    /// Records a latency observation directly.
    pub fn observe_ns(&self, name: &'static str, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe_ns(name, ns);
        }
    }

    /// Records a unitless value observation (e.g. rounds) directly.
    pub fn observe_value(&self, name: &'static str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe_value(name, v);
        }
    }

    /// Current value of a counter (0 when off or never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.registry.counter(name))
    }

    /// A point-in-time copy of every metric (`None` when off).
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|inner| inner.registry.snapshot())
    }

    /// Closes a time unit: captures the counter deltas since the previous
    /// mark as a [`UnitMetrics`] row and emits a `unit_end` event carrying
    /// them (counters are deterministic at round barriers, so these fields
    /// are part of the golden trace).
    pub fn unit_mark(&self, unit: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let snap = inner.registry.snapshot();
        let deltas = {
            let mut last = lock(&inner.last_mark);
            let deltas = snap.counter_deltas(&last);
            *last = snap;
            deltas
        };
        self.emit_event("unit_end", |ev| {
            ev.u64("unit", unit);
            for (name, v) in &deltas {
                ev.u64(name, *v);
            }
        });
        lock(&inner.units).push(UnitMetrics {
            unit,
            counters: deltas,
        });
    }

    /// The per-unit counter-delta rows captured so far.
    pub fn units(&self) -> Vec<UnitMetrics> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| lock(&inner.units).clone())
    }

    /// Flushes the sink (file sinks buffer).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.sink {
                sink.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_is_inert() {
        let t = Telemetry::off();
        assert!(!t.is_on());
        assert!(t.new_shard().is_none());
        t.add("x", 5);
        t.unit_mark(0);
        assert_eq!(t.counter("x"), 0);
        assert!(t.snapshot().is_none());
        assert!(t.units().is_empty());
        assert_eq!(format!("{t:?}"), "Telemetry(off)");
    }

    #[test]
    fn enabled_handle_counts_and_marks_units() {
        let t = Telemetry::enabled();
        assert!(t.is_on());
        t.add("layer/x", 3);
        t.unit_mark(0);
        t.add("layer/x", 4);
        t.add("layer/y", 1);
        t.unit_mark(1);
        let units = t.units();
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].counters["layer/x"], 3);
        assert_eq!(units[1].counters["layer/x"], 4);
        assert_eq!(units[1].counters["layer/y"], 1);
        assert_eq!(t.counter("layer/x"), 7);
    }

    #[test]
    fn shard_merge_reaches_sink_and_registry() {
        let (t, buf) = Telemetry::with_memory_sink();
        let mut shard = t.new_shard().expect("shard");
        shard.set_ctx(2, 9);
        shard.count("c", 1);
        shard.trace("tick", |ev| {
            ev.u64("v", 7);
        });
        t.merge_shard(&mut shard);
        t.emit_event("round_end", |ev| {
            ev.u64("round", 9);
        });
        assert_eq!(t.counter("c"), 1);
        assert_eq!(
            memory_contents(&buf),
            "{\"ev\":\"tick\",\"node\":2,\"round\":9,\"v\":7}\n\
             {\"ev\":\"round_end\",\"round\":9}\n"
        );
    }

    #[test]
    fn unit_end_event_carries_sorted_deltas() {
        let (t, buf) = Telemetry::with_memory_sink();
        t.add("b/two", 2);
        t.add("a/one", 1);
        t.unit_mark(0);
        assert_eq!(
            memory_contents(&buf),
            "{\"ev\":\"unit_end\",\"unit\":0,\"a/one\":1,\"b/two\":2}\n"
        );
    }

    #[test]
    fn hot_flag_follows_handle_lifetime() {
        // Another test may hold a handle concurrently, so only assert the
        // monotone part: while we hold one, the flag is up.
        let t = Telemetry::enabled();
        assert!(hot());
        drop(t);
    }
}

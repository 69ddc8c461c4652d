//! The ambient recording scope: how deep layers (DISPERSE, ULS, PA, PDS
//! sessions, adversaries) record metrics without any telemetry handle being
//! threaded through their APIs.
//!
//! The engine installs a node's [`Shard`] into thread-local storage before
//! running the node's round (on whichever thread claimed the node) and
//! takes it back afterwards. Instrumented call sites use the free functions
//! below; with no telemetry enabled anywhere in the process they cost one
//! relaxed atomic load and a branch — the "static no-op recorder".
//!
//! Scopes nest: installing saves the previous scope and the caller restores
//! it, which matters because the engine thread both holds the engine-side
//! shard (adversary instrumentation) and steps nodes itself beside its
//! helper threads.

use crate::registry::Shard;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Number of live enabled `Telemetry` handles in the process. Zero means
/// every instrumented call site is a branch-on-bool no-op.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// RAII token held by each enabled telemetry handle; keeps the global hot
/// flag raised while any enabled run exists.
#[derive(Debug)]
pub(crate) struct ActiveToken;

impl ActiveToken {
    pub(crate) fn new() -> Self {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
        ActiveToken
    }
}

impl Drop for ActiveToken {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

thread_local! {
    static SCOPE: RefCell<Option<Shard>> = const { RefCell::new(None) };
}

/// Whether any enabled telemetry handle exists in the process. This is the
/// only cost a disabled call site pays.
#[inline]
pub fn hot() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Installs `shard` as this thread's recording scope, returning the
/// previously installed scope (restore it when done — scopes nest).
pub fn install(shard: Option<Shard>) -> Option<Shard> {
    SCOPE.with(|s| std::mem::replace(&mut *s.borrow_mut(), shard))
}

/// Whether this thread currently has a recording scope installed.
pub fn scope_active() -> bool {
    hot() && SCOPE.with(|s| s.borrow().is_some())
}

#[inline]
fn with_scope(f: impl FnOnce(&mut Shard)) {
    SCOPE.with(|s| {
        if let Ok(mut guard) = s.try_borrow_mut() {
            if let Some(shard) = guard.as_mut() {
                f(shard);
            }
        }
    });
}

/// Adds `v` to the named counter of the ambient scope (no-op otherwise).
#[inline]
pub fn count(name: &'static str, v: u64) {
    if !hot() {
        return;
    }
    with_scope(|sh| sh.count(name, v));
}

/// Raises the named max-gauge of the ambient scope to at least `v`.
#[inline]
pub fn gauge_max(name: &'static str, v: u64) {
    if !hot() {
        return;
    }
    with_scope(|sh| sh.gauge_max(name, v));
}

/// Records a wall-clock latency observation into the ambient scope.
#[inline]
pub fn observe_ns(name: &'static str, ns: u64) {
    if !hot() {
        return;
    }
    with_scope(|sh| sh.observe_ns(name, ns));
}

/// Records a unitless value observation (e.g. rounds) into the ambient scope.
#[inline]
pub fn observe_value(name: &'static str, v: u64) {
    if !hot() {
        return;
    }
    with_scope(|sh| sh.observe_value(name, v));
}

/// Runs `f`, recording its wall-clock duration under `name` when a scope is
/// active. When telemetry is disabled this is exactly a call to `f` behind
/// one branch — no clock is read.
#[inline]
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !scope_active() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    observe_ns(name, start.elapsed().as_nanos() as u64);
    out
}

/// Appends a trace event to the ambient scope, stamped with the scope's
/// (node, round) context. `fields` are emitted in slice order.
#[inline]
pub fn trace(kind: &'static str, fields: &[(&str, crate::event::Field<'_>)]) {
    if !hot() {
        return;
    }
    with_scope(|sh| {
        sh.trace(kind, |ev| {
            for (name, v) in fields {
                ev.field(name, *v);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Field;

    #[test]
    fn calls_without_scope_or_heat_are_noops() {
        // No enabled telemetry in this test: nothing panics, nothing records.
        count("x", 1);
        observe_ns("h", 5);
        trace("e", &[("a", Field::U64(1))]);
        assert!(!scope_active() || hot());
    }

    #[test]
    fn scope_records_and_nests() {
        let _token = ActiveToken::new();
        let mut outer = Shard::default();
        outer.set_ctx(1, 0);
        let prev = install(Some(outer));
        count("outer", 1);

        // Nested scope (as when the publisher thread runs a node job).
        let mut inner = Shard::default();
        inner.set_ctx(2, 0);
        let saved = install(Some(inner));
        count("inner", 5);
        let inner = install(saved).expect("inner back");
        assert!(scope_active());

        count("outer", 2);
        let outer = install(prev).expect("outer back");

        let reg = crate::registry::Registry::default();
        let mut inner = inner;
        let mut outer = outer;
        let _ = inner.drain_into(&reg);
        let _ = outer.drain_into(&reg);
        assert_eq!(reg.counter("inner"), 5);
        assert_eq!(reg.counter("outer"), 3);
    }

    #[test]
    fn timed_passes_value_through() {
        let _token = ActiveToken::new();
        let mut shard = Shard::default();
        shard.set_ctx(1, 0);
        let prev = install(Some(shard));
        let v = timed("t", || 42);
        assert_eq!(v, 42);
        let mut shard = install(prev).expect("shard back");
        let reg = crate::registry::Registry::default();
        let _ = shard.drain_into(&reg);
        assert_eq!(reg.snapshot().hists["t"].total, 1);
    }
}

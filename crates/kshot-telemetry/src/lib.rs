//! # kshot-telemetry
//!
//! Zero-dependency tracing, metrics, and trace export for the KShot
//! patch pipeline. Pure safe Rust over `std` only — like
//! `kshot-crypto`, everything is hand-rolled because the build
//! environment resolves no external crates.
//!
//! ## Model
//!
//! - **Spans** measure intervals (`sgx.prepare_and_stage`,
//!   `smm.decrypt`, ...) with *dual timestamps*: wall-clock nanoseconds
//!   from a monotonic [`std::time::Instant`], and optionally the
//!   machine's simulated clock (plain `u64` ns supplied by the caller,
//!   since this crate sits below `kshot-machine` in the dependency
//!   graph and cannot name `SimTime`).
//! - **Events** mark instants (SMRAM lock faults, trampoline writes,
//!   introspection violations) with structured fields.
//! - **Metrics** are counters, gauges, and mergeable
//!   [`QuantileSketch`]es on a registry attached to the recorder. The
//!   sketch is the crate's one distribution type: phase timings
//!   ([`PhaseProfile`]) and the health plane summarize through it too.
//! - The **recorder** is a bounded ring buffer with three exporters:
//!   JSON lines, Chrome `trace_event` (Perfetto-loadable), and a
//!   plain-text summary table. A fleet worker streams each machine's
//!   records to its shard through one [`StreamSink`].
//!
//! ## Cost when disabled
//!
//! Instrumentation is compiled in unconditionally but gated on a global
//! `AtomicBool`. With no recorder installed, every emit function
//! early-returns after one relaxed atomic load, and [`span`] hands back
//! an inert guard — no heap allocation anywhere on the hot path. This
//! is load-bearing for the overhead experiments: the instrumented
//! binary must behave like the uninstrumented one when tracing is off.
//!
//! ## Usage
//!
//! ```
//! let recorder = kshot_telemetry::Recorder::with_capacity(1024);
//! kshot_telemetry::install(recorder.clone());
//!
//! {
//!     let mut span = kshot_telemetry::span_at("smm.decrypt", 1_000);
//!     span.field("bytes", 4096u64);
//!     kshot_telemetry::counter("machine.smi", 1);
//!     span.end_at(21_000);
//! }
//!
//! kshot_telemetry::uninstall();
//! let trace = recorder.export_chrome_trace();
//! assert!(trace.contains("smm.decrypt"));
//! ```

#![forbid(unsafe_code)]

/// Version stamped as `"v"` on every JSON-lines object this crate
/// emits (records, metric lines and the fleet's machine, smi and
/// roll-up lines alike). Bumped on any change that would make old
/// parsers misread new lines; [`ShardLine::decode`] rejects mismatched
/// versions so format drift fails loudly instead of producing empty
/// aggregates.
pub const SCHEMA_VERSION: u32 = 1;

pub mod export;
pub mod health;
pub mod integrity;
pub mod json;
pub mod merkle;
mod metrics;
mod phase;
mod record;
mod recorder;
mod schema;
pub mod shard;
mod sketch;
mod span;
mod stream;

pub use health::{
    HealthMonitor, HealthPolicy, HealthReport, HealthSnapshot, HealthVerdict, SignalStats,
    RECORDS_DROPPED_METRIC, SMM_DWELL_METRIC,
};
pub use integrity::{IntegrityMonitor, IntegrityPolicy, IntegrityReport, IntegrityVerdict};
pub use merkle::{DigestTree, FrontierNode, FullDigestTree, MerkleError};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use phase::{PhaseProfile, PhaseStats, PHASES};
pub use record::{json_escape, EventRecord, Field, Record, SpanRecord, Value};
pub use recorder::{Recorder, DEFAULT_CAPACITY};
pub use shard::{DigestRollup, MachineLine, ShardData, ShardError, ShardLine, SmiLine};
pub use sketch::QuantileSketch;
pub use span::SpanGuard;
pub use stream::StreamSink;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// Fast gate checked by every emit path before anything else.
static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

thread_local! {
    /// Per-thread recorder override (see [`with_recorder`]). Shadows
    /// the global recorder on this thread only, so concurrent fleet
    /// workers can record into disjoint recorders without contending
    /// on — or corrupting — the process-global slot.
    static LOCAL_RECORDER: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
    /// Fast flag mirroring `LOCAL_RECORDER.is_some()`, so the disabled
    /// path stays one branch + one load, allocation-free.
    static LOCAL_ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Install `recorder` as the process-global collector and enable all
/// instrumentation. Replaces any previous recorder.
pub fn install(recorder: Arc<Recorder>) {
    *RECORDER.write().unwrap() = Some(recorder);
    ENABLED.store(true, Ordering::Release);
}

/// Disable instrumentation and detach the recorder, returning it so the
/// caller can export what was collected.
pub fn uninstall() -> Option<Arc<Recorder>> {
    ENABLED.store(false, Ordering::Release);
    RECORDER.write().unwrap().take()
}

/// Run `f` with `recorder` as *this thread's* collector, restoring the
/// previous state (including nesting) afterwards — even on unwind.
///
/// While active, every emit on this thread lands in `recorder`,
/// regardless of (and without touching) the process-global recorder;
/// other threads are unaffected. This is the fleet-campaign primitive:
/// each worker wraps a machine's session in `with_recorder` so N
/// concurrent sessions trace into N disjoint recorders, merged
/// afterwards via [`Recorder::merge_from`].
pub fn with_recorder<R>(recorder: Arc<Recorder>, f: impl FnOnce() -> R) -> R {
    let _scope = RecorderScope::enter(recorder);
    f()
}

/// RAII form of [`with_recorder`]: entering makes `recorder` this
/// thread's collector, dropping restores whatever was active before
/// (including a shadowed outer scope) — even on unwind.
///
/// This is the re-entry primitive for *interleaved* sessions: a
/// pipelined fleet worker suspends machine A mid-session (say, while
/// its patch delivery is in flight), runs a step of machine B under B's
/// recorder, then re-enters A's recorder for A's next step. Each
/// enter/exit pair brackets exactly one resumed step, so records from
/// concurrent-in-time sessions never mix recorders:
///
/// ```
/// use kshot_telemetry::{Recorder, RecorderScope};
/// let a = Recorder::new();
/// let b = Recorder::new();
/// {
///     let _s = RecorderScope::enter(a.clone());
///     kshot_telemetry::counter("step", 1); // lands in `a`
/// }
/// {
///     let _s = RecorderScope::enter(b.clone());
///     kshot_telemetry::counter("step", 1); // lands in `b`
/// }
/// {
///     let _s = RecorderScope::enter(a.clone()); // re-entry
///     kshot_telemetry::counter("step", 1); // lands in `a` again
/// }
/// assert_eq!(a.metrics_snapshot().counter("step"), 2);
/// assert_eq!(b.metrics_snapshot().counter("step"), 1);
/// ```
///
/// The guard is `!Send`: it manipulates thread-local state and must be
/// dropped on the thread that entered it.
pub struct RecorderScope {
    prev: Option<Arc<Recorder>>,
    /// Pins the guard to the entering thread (thread-local state).
    _not_send: std::marker::PhantomData<*const ()>,
}

impl RecorderScope {
    /// Make `recorder` the active collector for this thread until the
    /// returned guard drops.
    pub fn enter(recorder: Arc<Recorder>) -> RecorderScope {
        let prev = LOCAL_RECORDER.with(|slot| slot.borrow_mut().replace(recorder));
        LOCAL_ENABLED.with(|on| on.set(true));
        RecorderScope {
            prev,
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for RecorderScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        LOCAL_ENABLED.with(|on| on.set(prev.is_some()));
        LOCAL_RECORDER.with(|slot| *slot.borrow_mut() = prev);
    }
}

/// True when a recorder is installed — a thread-local one via
/// [`with_recorder`], or the process-global one via [`install`].
pub fn is_enabled() -> bool {
    LOCAL_ENABLED.with(|on| on.get()) || ENABLED.load(Ordering::Relaxed)
}

/// The active recorder, if any: the thread-local override when inside
/// [`with_recorder`], else the installed global. Cheap-ish (read lock +
/// Arc clone on the global path); emit paths use it only after the
/// [`is_enabled`] gate passes.
pub fn recorder() -> Option<Arc<Recorder>> {
    if LOCAL_ENABLED.with(|on| on.get()) {
        return LOCAL_RECORDER.with(|slot| slot.borrow().clone());
    }
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    RECORDER.read().unwrap().clone()
}

/// Open a wall-clock-only span. Inert (allocation-free) when disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::disabled();
    }
    match recorder() {
        Some(rec) => SpanGuard::open(rec, name, None),
        None => SpanGuard::disabled(),
    }
}

/// Open a span carrying a simulated-clock start timestamp. Close with
/// [`SpanGuard::end_at`] to record the simulated end as well.
pub fn span_at(name: &'static str, sim_start_ns: u64) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::disabled();
    }
    match recorder() {
        Some(rec) => SpanGuard::open(rec, name, Some(sim_start_ns)),
        None => SpanGuard::disabled(),
    }
}

/// Emit a field-less instant event.
pub fn event(name: &'static str) {
    if !is_enabled() {
        return;
    }
    if let Some(rec) = recorder() {
        span::emit_event(&rec, name, None, Vec::new());
    }
}

/// Emit an instant event stamped with simulated time.
pub fn event_at(name: &'static str, sim_ns: u64) {
    if !is_enabled() {
        return;
    }
    if let Some(rec) = recorder() {
        span::emit_event(&rec, name, Some(sim_ns), Vec::new());
    }
}

/// Emit an event with structured fields. The closure builds the field
/// list and runs only when telemetry is enabled, so call sites pay no
/// allocation when disabled:
///
/// ```
/// kshot_telemetry::event_with("introspect.violation", Some(42), |f| {
///     f.push(("kind", "trampoline_reverted".into()));
///     f.push(("site", 0xdead_beefu64.into()));
/// });
/// ```
pub fn event_with<F>(name: &'static str, sim_ns: Option<u64>, build: F)
where
    F: FnOnce(&mut Vec<Field>),
{
    if !is_enabled() {
        return;
    }
    if let Some(rec) = recorder() {
        let mut fields = Vec::new();
        build(&mut fields);
        span::emit_event(&rec, name, sim_ns, fields);
    }
}

/// Add `delta` to a counter on the installed recorder's registry.
pub fn counter(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    if let Some(rec) = recorder() {
        rec.metrics().counter_add(name, delta);
    }
}

/// Current value of a counter on the installed recorder, or 0 when no
/// recorder is installed (or the counter has never been bumped).
///
/// Convenience for tests and probes asserting on pipeline counters
/// (e.g. `kshot.rollback_skipped`, `smm.recover_unwound_apply`)
/// without threading the `Recorder` handle around.
pub fn counter_value(name: &str) -> u64 {
    match recorder() {
        Some(rec) => rec.metrics_snapshot().counter(name),
        None => 0,
    }
}

/// Set a gauge on the installed recorder's registry.
pub fn gauge(name: &'static str, value: i64) {
    if !is_enabled() {
        return;
    }
    if let Some(rec) = recorder() {
        rec.metrics().gauge_set(name, value);
    }
}

/// Record one observation in the named mergeable [`QuantileSketch`],
/// whose fleet percentiles merge deterministically across workers
/// (e.g. SMM dwell time feeding the live [`HealthMonitor`]).
pub fn observe(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    if let Some(rec) = recorder() {
        rec.metrics().observe(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global recorder is process-wide state; tests touching it are
    // serialized through this lock so `cargo test`'s parallel runner
    // cannot interleave install/uninstall.
    static GLOBAL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_global<R>(f: impl FnOnce(&Arc<Recorder>) -> R) -> R {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = Recorder::with_capacity(4096);
        install(rec.clone());
        let out = f(&rec);
        uninstall();
        out
    }

    #[test]
    fn disabled_paths_are_inert() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        assert!(!is_enabled());
        let mut s = span("noop");
        assert!(!s.is_recording());
        s.field("k", 1u64);
        drop(s);
        event("noop");
        counter("noop", 1);
        observe("noop", 1);
        assert_eq!(counter_value("noop"), 0);
    }

    #[test]
    fn counter_value_reads_the_installed_registry() {
        with_global(|_| {
            assert_eq!(counter_value("cv.test"), 0);
            counter("cv.test", 3);
            counter("cv.test", 4);
            assert_eq!(counter_value("cv.test"), 7);
        });
    }

    #[test]
    fn span_records_parentage_and_sim_time() {
        with_global(|rec| {
            {
                let outer = span_at("outer", 100);
                {
                    let inner = span_at("inner", 150);
                    inner.end_at(300);
                }
                outer.end_at(400);
            }
            let records = rec.records();
            assert_eq!(records.len(), 2);
            // Inner closes (and records) first.
            let (inner, outer) = match (&records[0], &records[1]) {
                (Record::Span(a), Record::Span(b)) => (a, b),
                other => panic!("unexpected records: {other:?}"),
            };
            assert_eq!(inner.name, "inner");
            assert_eq!(outer.name, "outer");
            assert_eq!(inner.parent, Some(outer.id));
            assert_eq!(outer.parent, None);
            assert_eq!(inner.sim_dur_ns(), Some(150));
            assert_eq!(outer.sim_dur_ns(), Some(300));
        });
    }

    #[test]
    fn events_inherit_current_span_as_parent() {
        with_global(|rec| {
            let s = span("holder");
            let holder_id = s.id().unwrap();
            event_with("marker", Some(7), |f| f.push(("x", 1u64.into())));
            drop(s);
            let records = rec.records();
            match &records[0] {
                Record::Event(e) => {
                    assert_eq!(e.parent, Some(holder_id));
                    assert_eq!(e.sim_ns, Some(7));
                    assert_eq!(e.fields, vec![("x", Value::U64(1))]);
                }
                other => panic!("expected event, got {other:?}"),
            }
        });
    }

    #[test]
    fn metrics_flow_through_global_helpers() {
        with_global(|rec| {
            counter("c", 2);
            counter("c", 1);
            gauge("g", -5);
            observe("h", 1_500);
            let snap = rec.metrics_snapshot();
            assert_eq!(snap.counter("c"), 3);
            assert_eq!(snap.gauge("g"), Some(-5));
            let h = snap.sketch("h").unwrap();
            assert_eq!((h.count(), h.sum()), (1, 1_500));
        });
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = Recorder::with_capacity(3);
        install(rec.clone());
        for _ in 0..5 {
            event("tick");
        }
        uninstall();
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
    }

    #[test]
    fn with_recorder_shadows_the_global_and_restores_it() {
        with_global(|global| {
            let local = Recorder::with_capacity(64);
            counter("shadow.c", 1); // global
            let out = with_recorder(local.clone(), || {
                counter("shadow.c", 10); // local
                event("shadow.e");
                assert!(is_enabled());
                42
            });
            assert_eq!(out, 42);
            counter("shadow.c", 2); // global again
            assert_eq!(local.metrics_snapshot().counter("shadow.c"), 10);
            assert_eq!(global.metrics_snapshot().counter("shadow.c"), 3);
            assert_eq!(local.len(), 1);
            assert!(global.records().iter().all(|r| r.name() != "shadow.e"));
        });
    }

    #[test]
    fn with_recorder_enables_without_a_global_and_nests() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        assert!(!is_enabled());
        let outer = Recorder::with_capacity(64);
        let inner = Recorder::with_capacity(64);
        with_recorder(outer.clone(), || {
            counter("nest.c", 1);
            with_recorder(inner.clone(), || counter("nest.c", 100));
            counter("nest.c", 2);
        });
        assert!(!is_enabled());
        counter("nest.c", 1000); // dropped: nothing installed
        assert_eq!(outer.metrics_snapshot().counter("nest.c"), 3);
        assert_eq!(inner.metrics_snapshot().counter("nest.c"), 100);
    }

    #[test]
    fn with_recorder_restores_on_unwind() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        let rec = Recorder::with_capacity(16);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_recorder(rec.clone(), || panic!("boom"))
        }));
        assert!(result.is_err());
        assert!(!is_enabled());
        assert!(recorder().is_none());
    }

    /// The pipelined-fleet pattern: two sessions' steps interleave on
    /// one thread, each step re-entering its own recorder. Records and
    /// metrics must stay disjoint per session, and the thread must end
    /// up clean (no recorder active) once all scopes have dropped.
    #[test]
    fn recorder_scope_reenters_interleaved_sessions() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        let a = Recorder::with_capacity(64);
        let b = Recorder::with_capacity(64);
        // step A.1, step B.1, step A.2, step B.2 — as a depth-2
        // scheduler would run them.
        {
            let _s = RecorderScope::enter(a.clone());
            counter("scope.step", 1);
            event("scope.a");
        }
        {
            let _s = RecorderScope::enter(b.clone());
            counter("scope.step", 10);
        }
        {
            let _s = RecorderScope::enter(a.clone());
            counter("scope.step", 2);
        }
        {
            let _s = RecorderScope::enter(b.clone());
            counter("scope.step", 20);
            event("scope.b");
        }
        assert!(!is_enabled());
        assert_eq!(a.metrics_snapshot().counter("scope.step"), 3);
        assert_eq!(b.metrics_snapshot().counter("scope.step"), 30);
        assert!(a.records().iter().all(|r| r.name() != "scope.b"));
        assert!(b.records().iter().all(|r| r.name() != "scope.a"));
    }

    /// Dropping scopes out of LIFO discipline is a bug waiting to
    /// happen in hand-rolled schedulers; the guard restores *its own*
    /// predecessor, so nesting still unwinds correctly when scopes are
    /// dropped in order.
    #[test]
    fn recorder_scope_nests_and_restores_shadowed_outer() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        let outer = Recorder::with_capacity(16);
        let inner = Recorder::with_capacity(16);
        {
            let _o = RecorderScope::enter(outer.clone());
            counter("scope.nest", 1);
            {
                let _i = RecorderScope::enter(inner.clone());
                counter("scope.nest", 100);
            }
            // Outer scope active again after inner drops.
            counter("scope.nest", 2);
        }
        assert_eq!(outer.metrics_snapshot().counter("scope.nest"), 3);
        assert_eq!(inner.metrics_snapshot().counter("scope.nest"), 100);
        assert!(recorder().is_none());
    }

    #[test]
    fn recorder_merge_folds_records_and_metrics() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let a = Recorder::with_capacity(64);
        let b = Recorder::with_capacity(64);
        with_recorder(a.clone(), || {
            counter("m.c", 1);
            observe("m.h", 10_000);
            event("m.e");
        });
        with_recorder(b.clone(), || {
            counter("m.c", 2);
            observe("m.h", 20_000);
            event("m.e");
            event("m.e2");
        });
        a.merge_from(&b);
        let snap = a.metrics_snapshot();
        assert_eq!(snap.counter("m.c"), 3);
        let h = snap.sketch("m.h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 30_000);
        assert_eq!(h.min(), 10_000);
        assert_eq!(h.max(), 20_000);
        assert_eq!(a.len(), 3);
        // `b` untouched.
        assert_eq!(b.len(), 2);
        assert_eq!(b.metrics_snapshot().counter("m.c"), 2);
    }

    /// Regression: merging a shard recorder that had already overflowed
    /// its ring must carry the shard's drop count into the target, or a
    /// fleet merge silently reports zero loss while records are gone.
    #[test]
    fn recorder_merge_accumulates_dropped_counts() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let big = Recorder::with_capacity(64);
        let tiny = Recorder::with_capacity(2);
        with_recorder(tiny.clone(), || {
            for _ in 0..5 {
                event("overflow");
            }
        });
        assert_eq!(tiny.dropped(), 3);
        big.merge_from(&tiny);
        assert_eq!(big.len(), 2);
        assert_eq!(big.dropped(), 3, "shard loss must survive the merge");
        // A second shard's drops accumulate on top.
        let tiny2 = Recorder::with_capacity(2);
        with_recorder(tiny2.clone(), || {
            for _ in 0..4 {
                event("overflow2");
            }
        });
        big.merge_from(&tiny2);
        assert_eq!(big.dropped(), 5);
        // And merging into a near-full target adds its own ring drops on
        // top of the carried ones rather than conflating the two.
        let cramped = Recorder::with_capacity(1);
        cramped.merge_from(&tiny); // 2 records into capacity 1 -> 1 evicted
        assert_eq!(cramped.dropped(), 3 + 1);
    }
}

//! # ffw-obs
//!
//! Runtime observability for the FFW-Tomo workspace: the *measuring*
//! counterpart to `ffw-perf`'s cost *models*. The paper's whole evaluation is
//! per-stage timing and communication breakdowns (aggregation / translation /
//! disaggregation / near-field, comm-vs-compute, Figs. 9-13, Tables 3-4);
//! this crate is the layer every such number flows through.
//!
//! Three primitives, all behind one global recorder:
//!
//! * **Spans** ([`span`]) — hierarchical scoped timers. Nesting follows the
//!   call stack per thread; durations aggregate by slash-joined path
//!   (`reconstruct/dbim/iter`), so repeated scopes fold into count + total.
//! * **Metrics** ([`counter`], [`gauge`], [`histogram`]) — named values with
//!   cheap atomic hot-path recording. Counters are monotonic `u64`, gauges
//!   are last-write-wins `f64`, histograms are log2-bucketed `u64` samples.
//! * **Traces** ([`series_push`], [`event`]) — append-only numeric series
//!   (solver residual histories) and timestamped annotations (checkpoint
//!   writes, restarts, breakdowns).
//!
//! The recorder is **off by default**: every entry point checks one relaxed
//! atomic load and becomes a no-op, so instrumented hot paths cost nothing
//! measurable until a driver opts in with [`set_enabled`]. Snapshots
//! ([`snapshot`]) become one `ffw-obs/1` JSON document
//! ([`Snapshot::to_json`], written by [`Snapshot::write_to`]) and render as
//! a text profile ([`Snapshot::render_profile`]).
//!
//! The [`json`] module is the workspace's one JSON codec: `ffw-serve` speaks
//! its wire protocol and writes its journal through it.
//!
//! This crate is dependency-free by design (it sits below every other crate
//! in the workspace, including the substrate crates) and is the only crate
//! allowed to touch `std::time::Instant` — the root `clippy.toml` bans the
//! type everywhere else, so all timing goes through [`Stopwatch`] / spans
//! and is aggregated here.

#![expect(
    clippy::disallowed_types,
    reason = "the workspace's one clock: every other crate times through Stopwatch / monotonic_ns"
)]

mod clock;
mod export;
pub mod json;
mod metrics;
mod report;
mod span;

pub use clock::{monotonic_ns, Stopwatch};
pub use export::{EventRow, HistogramRow, Snapshot, SpanRow};
pub use metrics::{counter, event, gauge, histogram, series_push, Counter, Gauge, Histogram};
pub use span::{span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the global recorder on or off. Off (the default) makes every
/// recording entry point a no-op after one atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether the global recorder is currently on.
///
/// The acquire load pairs with the release store in [`set_enabled`], so a
/// thread that observes the recorder as on also observes everything the
/// enabling thread wrote before flipping the flag.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Takes a consistent snapshot of everything recorded so far.
pub fn snapshot() -> Snapshot {
    export::take_snapshot()
}

/// Clears all recorded data: counters/gauges/histograms are zeroed in place
/// (cached [`Counter`]/[`Gauge`]/[`Histogram`] handles stay valid), spans,
/// series and events are dropped. Used by benches between measured runs.
pub fn reset() {
    metrics::reset_registry();
    span::reset_spans();
}

/// Serializes tests that toggle [`set_enabled`] or call [`reset`]: the
/// recorder is process-global, so concurrent tests would race otherwise.
#[cfg(test)]
pub(crate) fn tests_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = tests_lock();
        reset();
        set_enabled(false);
        {
            let _g = span("not-recorded");
            counter("test.lib.counter").add(5);
            series_push("test.lib.series", 1.0);
            event("test.lib.event", "detail");
        }
        let snap = snapshot();
        assert!(snap.spans.iter().all(|s| s.path != "not-recorded"));
        // handle creation registers the name, but no value is recorded
        let c = snap
            .counters
            .iter()
            .find(|(n, _)| n == "test.lib.counter")
            .expect("registered");
        assert_eq!(c.1, 0);
        assert!(snap.series.iter().all(|(n, _)| n != "test.lib.series"));
        assert!(snap.events.iter().all(|e| e.name != "test.lib.event"));
    }
}

//! Hierarchical scoped spans.
//!
//! A span is a timed scope: [`span("name")`](span) returns a guard, and the
//! elapsed time is recorded when the guard drops. Nesting follows the call
//! stack of each thread (a thread-local stack of names), and recording
//! aggregates by the slash-joined path — every execution of
//! `reconstruct/dbim/iter` folds into one row with a count, total, min and
//! max. Aggregation is global and thread-safe, so spans recorded on
//! different ranks/threads with the same path merge (their *total* is CPU
//! time summed over threads, not wall time — the profile renderer labels it
//! as such).

use crate::clock::monotonic_ns;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

#[derive(Clone, Default)]
pub(crate) struct SpanStat {
    pub(crate) count: u64,
    pub(crate) total_ns: u64,
    pub(crate) min_ns: u64,
    pub(crate) max_ns: u64,
}

pub(crate) fn span_table() -> &'static Mutex<BTreeMap<String, SpanStat>> {
    static TABLE: OnceLock<Mutex<BTreeMap<String, SpanStat>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

pub(crate) fn reset_spans() {
    span_table()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

thread_local! {
    /// This thread's stack of open span names.
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An open span; records its duration under the path captured at entry when
/// dropped. Obtain via [`span`].
pub struct SpanGuard {
    /// `None` when the recorder was off at entry (fully inert guard).
    open: Option<OpenSpan>,
}

struct OpenSpan {
    path: String,
    start_ns: u64,
}

/// Opens a span named `name`, nested under the spans currently open on this
/// thread. While the recorder is off this returns an inert guard and costs
/// one atomic load.
pub fn span(name: impl Into<String>) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { open: None };
    }
    let name = name.into();
    let path = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = if stack.is_empty() {
            name.clone()
        } else {
            let mut p = String::with_capacity(
                stack.iter().map(|s| s.len() + 1).sum::<usize>() + name.len(),
            );
            for part in stack.iter() {
                p.push_str(part);
                p.push('/');
            }
            p.push_str(&name);
            p
        };
        stack.push(name);
        path
    });
    SpanGuard {
        open: Some(OpenSpan {
            path,
            start_ns: monotonic_ns(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let elapsed = monotonic_ns().saturating_sub(open.start_ns);
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let mut table = span_table().lock().unwrap_or_else(|e| e.into_inner());
        let stat = table.entry(open.path).or_insert(SpanStat {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        });
        stat.count += 1;
        stat.total_ns += elapsed;
        stat.min_ns = stat.min_ns.min(elapsed);
        stat.max_ns = stat.max_ns.max(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_paths_and_aggregates() {
        let _guard = crate::tests_lock();
        crate::reset();
        crate::set_enabled(true);
        for _ in 0..3 {
            let _outer = span("test-span-outer");
            let _inner = span("test-span-inner");
        }
        {
            // a sibling root span
            let _other = span("test-span-other");
        }
        crate::set_enabled(false);
        let snap = crate::snapshot();
        let get = |p: &str| {
            snap.spans
                .iter()
                .find(|s| s.path == p)
                .unwrap_or_else(|| panic!("span {p} missing"))
                .clone()
        };
        assert_eq!(get("test-span-outer").count, 3);
        let inner = get("test-span-outer/test-span-inner");
        assert_eq!(inner.count, 3);
        assert!(inner.total_ns <= get("test-span-outer").total_ns);
        assert_eq!(get("test-span-other").count, 1);
    }

    #[test]
    fn guard_survives_disable_mid_span() {
        let _guard = crate::tests_lock();
        crate::reset();
        crate::set_enabled(true);
        let g = span("test-span-midflight");
        crate::set_enabled(false);
        drop(g); // still records: the span was open when the recorder was on
        let snap = crate::snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "test-span-midflight"));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the property under test is a fresh OS thread's empty span stack"
    )]
    fn stack_is_per_thread() {
        let _guard = crate::tests_lock();
        crate::reset();
        crate::set_enabled(true);
        let _outer = span("test-span-main-thread");
        std::thread::spawn(|| {
            // a fresh thread has an empty stack: this is a root span, not a
            // child of test-span-main-thread
            let _g = span("test-span-worker");
        })
        .join()
        .expect("worker");
        crate::set_enabled(false);
        let snap = crate::snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "test-span-worker"));
        assert!(!snap
            .spans
            .iter()
            .any(|s| s.path.contains("test-span-main-thread/test-span-worker")));
    }
}

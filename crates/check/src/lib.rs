//! # ffw-check
//!
//! Machine-checked concurrency correctness for the parallel substrate. The
//! paper's contribution is a correctly-synchronized 2-D parallelization
//! (illuminations × MLFMA sub-trees); this crate is the verification layer
//! that keeps our reproduction of that protocol honest as it grows:
//!
//! * [`trace`] — event types for an always-on, low-overhead per-rank
//!   communication trace recorded by `ffw-mpi`, plus the post-run static
//!   validator that detects undelivered messages (message leaks), self-sends
//!   and detected compute corruption left unescalated.
//! * [`waitgraph`] — the runtime deadlock watchdog's analysis: given a
//!   snapshot of what every rank is blocked on, reconstruct the global
//!   wait-for graph, find the cycle (or the dependency on a finished/panicked
//!   rank), and render a readable report.
//! * [`loom`] — a from-scratch deterministic interleaving explorer ("mini
//!   loom"): virtual threads as cloneable state machines, bounded DFS over
//!   all schedules, deadlock and invariant-violation detection.
//! * [`models`] — model-level replicas of the `ffw-mpi` tag-matched mailbox
//!   protocol and the `ffw-par` chunk-dispenser protocol, explored
//!   exhaustively by the tests in `tests/explore.rs` (including seeded-bug
//!   mutations that the explorer must catch).
//! * [`jobs`] — the job-lifecycle state machine validator `ffw-serve` runs
//!   over its recovered journal before re-queueing anything.
//!
//! `ffw-mpi` depends on this crate for the event types and the deadlock
//! analysis; the schedule explorer is self-contained and model-based, so it
//! needs no instrumentation of the real runtimes.

pub mod jobs;
pub mod loom;
pub mod models;
pub mod trace;
pub mod waitgraph;

pub use jobs::{validate_job_log, JobLogViolation, JobTransition};
pub use loom::{ExploreReport, Explorer, Model};
pub use trace::{
    validate_traces, validate_traces_faulty, Event, FaultEvent, LeakedMessage, Violation,
};
pub use waitgraph::{diagnose_deadlock, DeadlockReport, WaitState};

//! # ffw-serve
//!
//! Reconstruction as a service: a crash-safe, multi-tenant job engine over
//! the fault-tolerant distributed solver (`ffw_dist::run_dbim_ft`).
//!
//! Clients submit reconstruction jobs as line-delimited JSON (stdin or
//! TCP); the engine validates, admits (bounded queue, per-job FLOP and
//! deadline budgets, typed load-shedding), deduplicates immutable MLFMA
//! plans across jobs with the same geometry fingerprint, executes on a
//! fixed worker team sharing the global thread pool, streams per-iteration
//! progress, retries transient faults from checkpoints with exponential
//! backoff, and journals every state transition to a checksummed fsynced
//! append-only log. SIGKILL at *any* byte boundary loses nothing: the next
//! start replays the journal, re-queues every accepted-but-unfinished job,
//! and resumes started ones bit-identically from their outer-iteration
//! checkpoints. SIGTERM drains gracefully: running jobs checkpoint and
//! park, queued jobs stay journaled, then the process exits.
//!
//! Module map:
//!
//! * [`json`] — the workspace's JSON codec, re-exported from `ffw-obs`:
//!   requests, responses and journal frames all parse and print through it.
//! * [`spec`] — job validation, cost model, geometry fingerprint.
//! * [`admission`] — typed accept/reject policy.
//! * [`journal`] — the append-only checksummed job journal.
//! * [`cache`] — the deduplicating plan cache.
//! * [`proto`] — the wire protocol (requests + response events).
//! * [`engine`] — workers, watchdog, retry, recovery.
//! * [`server`] — stdin and TCP front ends.

pub mod admission;
pub mod cache;
pub mod engine;
pub mod journal;
pub mod proto;
pub mod server;
pub mod spec;

pub use admission::{AdmissionPolicy, RejectReason};
pub use cache::PlanCache;
pub use engine::{Engine, JobState, RecoverySummary, ServeConfig};
pub use ffw_obs::json;
pub use journal::{JobEvent, Journal, JournalError, Recovery};
pub use json::Json;
pub use proto::{parse_request, Request};
pub use server::{serve_stdio, serve_tcp, ServeExit};
pub use spec::JobSpec;

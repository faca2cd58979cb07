//! External control of a running fault-tolerant reconstruction.
//!
//! A [`JobControl`] is the seam between a long-running [`crate::run_dbim_ft`]
//! solve and whoever supervises it (the `ffw-serve` scheduler, the
//! `ffw-reconstruct` signal handler, a test harness). It carries:
//!
//! * a cooperative **stop flag** — when raised, every rank of the launch
//!   agrees on it collectively at the next outer-iteration boundary (*after*
//!   the checkpoint for that iteration is written), so the run always stops
//!   in a state whose `resume` continues bit-identically; and
//! * an optional **progress channel** — one event per completed outer
//!   iteration, mirroring the `dbim.residual` series that `ffw-obs` records,
//!   which the serve layer streams to clients as JSONL.
//!
//! The stop decision must be *collective*: ranks poll the flag at slightly
//! different times, and a raced read would leave some ranks entering the
//! next iteration's collectives while others have returned — a deadlock.
//! The driver therefore allreduces a stop scalar across all ranks at the
//! boundary; the flag only marks intent.

use crossbeam_channel::Sender;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One progress event per completed outer iteration of a controlled run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterProgress {
    /// Outer iterations completed so far (1-based: first event reports 1).
    pub completed: u32,
    /// Relative residual measured at the start of the completed iteration
    /// (the same value the checkpoint's residual history records).
    pub residual: f64,
}

/// Handle for cancelling/pausing a run and observing its progress.
#[derive(Clone, Default)]
pub struct JobControl {
    /// Cooperative stop intent; see module docs for the collective protocol.
    stop: Arc<AtomicBool>,
    /// Also stop when the process-wide shutdown flag
    /// ([`ffw_fault::shutdown_requested`]) is raised by SIGTERM/SIGINT.
    honor_shutdown: bool,
    /// Per-iteration progress events (dropped silently if the receiver is
    /// gone — a disconnected observer must never wedge the solver).
    progress: Option<Sender<IterProgress>>,
}

impl JobControl {
    /// A control handle with no observers: stop only via [`Self::stop`].
    pub fn new() -> Self {
        JobControl::default()
    }

    /// Also treat process-wide shutdown (SIGTERM/SIGINT via
    /// `ffw_fault::install_shutdown_handler`) as a stop request.
    pub fn with_shutdown(mut self) -> Self {
        self.honor_shutdown = true;
        self
    }

    /// Streams one [`IterProgress`] per completed outer iteration.
    pub fn with_progress(mut self, tx: Sender<IterProgress>) -> Self {
        self.progress = Some(tx);
        self
    }

    /// Raises the stop intent. The run stops at the next outer-iteration
    /// boundary, after writing that iteration's checkpoint.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Whether stop intent has been raised (locally or, when configured,
    /// process-wide). This is *intent*, not the collective decision.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
            || (self.honor_shutdown && ffw_fault::shutdown_requested())
    }

    /// Emits a progress event to the observer (no-op without a channel or
    /// receiver): `completed` outer iterations — hop stages, when the front
    /// door reports a schedule — and the residual measured there.
    pub fn progress(&self, completed: u32, residual: f64) {
        if let Some(tx) = &self.progress {
            // lint:unchecked-ok in-process progress channel, not rank comm; a dropped receiver just mutes progress
            let _ = tx.send(IterProgress {
                completed,
                residual,
            });
        }
    }
}

impl fmt::Debug for JobControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobControl")
            .field("stop_requested", &self.stop_requested())
            .field("honor_shutdown", &self.honor_shutdown)
            .field("has_progress", &self.progress.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_flag_roundtrip() {
        let ctl = JobControl::new();
        assert!(!ctl.stop_requested());
        ctl.stop();
        assert!(ctl.stop_requested());
        // Clones share the same flag.
        let other = ctl.clone();
        assert!(other.stop_requested());
    }

    #[test]
    fn progress_without_receiver_is_silent() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let ctl = JobControl::new().with_progress(tx);
        drop(rx);
        ctl.progress(1, 0.5);
    }

    #[test]
    fn honor_shutdown_observes_global_flag() {
        ffw_fault::reset_shutdown();
        let ctl = JobControl::new().with_shutdown();
        assert!(!ctl.stop_requested());
        ffw_fault::request_shutdown();
        assert!(ctl.stop_requested());
        ffw_fault::reset_shutdown();
    }
}

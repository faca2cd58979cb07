//! Typed fault errors shared by the runtime (`ffw-mpi`) and the
//! fault-tolerant distributed solver (`ffw-dist`).

use crate::checkpoint::CheckpointError;
use std::fmt;

/// A fault surfaced by the distributed stack as a value instead of a panic.
///
/// Every variant that comes from a rank names it, so a failed run can
/// always be attributed ("rank 0 waited on rank 1, which had ended",
/// "rank 2's panel #7 failed its checksum"), which is what the chaos harness
/// asserts on.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultError {
    /// A blocking receive can never complete because the peer
    /// rank has ended (returned or panicked without sending).
    PeerDead {
        /// Rank whose wait was abandoned.
        rank: usize,
        /// The dead peer the wait depended on.
        peer: usize,
        /// Human-readable wait-for-graph report from the watchdog.
        detail: String,
    },
    /// A checksum-verified compute stage (an ABFT-checked MLFMA panel apply,
    /// a Krylov drift guard or a reduction's checksum lane) kept failing
    /// verification: the detected silent data corruption persisted through
    /// the bounded recompute / rollback budget, so the result cannot be
    /// trusted.
    ComputeCorruption {
        /// Rank whose arithmetic was corrupted: the detecting rank (0 in
        /// serial runs), or the sender of a payload that disagreed with its
        /// checksum lane.
        rank: usize,
        /// Compute stage that failed verification (e.g. `mlfma.apply_block`,
        /// `krylov.drift`, `dist.apply_block`, `mpi.lane`).
        stage: String,
        /// 1-based index of the corrupted panel apply on this rank (0 for a
        /// checksum lane, which belongs to no panel).
        panel: u64,
        /// Total verification attempts made (initial compute + recomputes).
        attempts: u32,
    },
    /// An iterative Krylov solve broke down (rho underflow or non-finite
    /// residual) and did not recover after one automatic restart.
    KrylovBreakdown {
        /// Rank on which the solve broke down.
        rank: usize,
        /// Iterations completed before the breakdown.
        iterations: usize,
        /// Last finite relative residual observed.
        rel_residual: f64,
        /// What broke down (e.g. "rho underflow", "non-finite residual").
        detail: String,
    },
    /// Saving or loading a reconstruction checkpoint failed.
    Checkpoint(CheckpointError),
    /// The driver cannot make further progress (e.g. the relaunch budget is
    /// exhausted, or a checkpoint asks for a layout this build cannot run).
    Unrecoverable {
        /// Why recovery is impossible.
        detail: String,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::PeerDead { rank, peer, detail } => {
                write!(
                    f,
                    "rank {rank}: peer rank {peer} can no longer participate\n{detail}"
                )
            }
            FaultError::ComputeCorruption {
                rank,
                stage,
                panel,
                attempts,
            } => {
                write!(
                    f,
                    "rank {rank}: compute corruption in {stage} at panel #{panel} \
                     persisted after {attempts} attempts; recompute budget exhausted"
                )
            }
            FaultError::KrylovBreakdown {
                rank,
                iterations,
                rel_residual,
                detail,
            } => {
                write!(
                    f,
                    "rank {rank}: Krylov breakdown after {iterations} iterations \
                     (rel residual {rel_residual:.3e}): {detail}"
                )
            }
            FaultError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            FaultError::Unrecoverable { detail } => {
                write!(f, "unrecoverable: {detail}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

impl From<CheckpointError> for FaultError {
    fn from(e: CheckpointError) -> Self {
        FaultError::Checkpoint(e)
    }
}

/// An operator that cannot fail converts vacuously, so code written against
/// a fallible operator seam returns `FaultError` on every implementor.
impl From<std::convert::Infallible> for FaultError {
    fn from(e: std::convert::Infallible) -> Self {
        match e {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_rank() {
        let e = FaultError::KrylovBreakdown {
            rank: 3,
            iterations: 17,
            rel_residual: 1e-3,
            detail: "rho underflow".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("rank 3"), "{msg}");
        assert!(msg.contains("17 iterations"), "{msg}");
    }

    #[test]
    fn compute_corruption_names_rank_stage_panel_and_budget() {
        let e = FaultError::ComputeCorruption {
            rank: 2,
            stage: "mlfma.apply_block".into(),
            panel: 7,
            attempts: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("rank 2"), "{msg}");
        assert!(msg.contains("mlfma.apply_block"), "{msg}");
        assert!(msg.contains("#7"), "{msg}");
        assert!(msg.contains("4 attempts"), "{msg}");
    }

    #[test]
    fn peer_dead_preserves_watchdog_detail() {
        let e = FaultError::PeerDead {
            rank: 0,
            peer: 1,
            detail: "deadlock detected: rank 0 waits on rank 1".into(),
        };
        assert!(e.to_string().contains("deadlock detected"));
    }
}

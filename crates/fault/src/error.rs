//! Typed fault errors shared by the runtime (`ffw-mpi`) and the
//! fault-tolerant distributed solver (`ffw-dist`).

use crate::checkpoint::CheckpointError;
use std::fmt;

/// A fault surfaced by the distributed stack as a value instead of a panic.
///
/// Every variant names the rank that observed the fault so a failed run can
/// always be attributed ("rank 3 died at op 17", "rank 1 lost its send to
/// rank 2"), which is what the chaos harness asserts on.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultError {
    /// A seeded [`crate::FaultPlan`] crashed this rank at its `op`-th
    /// runtime operation.
    InjectedCrash {
        /// Rank that was crashed.
        rank: usize,
        /// 1-based index of the MPI operation at which the crash fired.
        op: u64,
    },
    /// A blocking receive (or barrier) can never complete because the peer
    /// rank has died (finished or panicked without sending).
    PeerDead {
        /// Rank whose wait was abandoned.
        rank: usize,
        /// The dead peer the wait depended on.
        peer: usize,
        /// Human-readable wait-for-graph report from the watchdog.
        detail: String,
    },
    /// A send was dropped by fault injection and the retry budget ran out;
    /// the destination is treated as dead.
    SendLost {
        /// Rank that was sending.
        rank: usize,
        /// Destination rank now considered dead.
        dst: usize,
        /// Message tag of the lost send.
        tag: u32,
        /// Total delivery attempts made (initial try + retries).
        attempts: u32,
    },
    /// A received payload failed its CRC-32 integrity check (or an ABFT
    /// checksum lane disagreed with the reduced data) and the bounded
    /// NACK/retransmit budget was exhausted without a clean copy arriving.
    Corruption {
        /// Rank whose receive kept failing verification.
        rank: usize,
        /// Source rank of the corrupted message.
        src: usize,
        /// Message tag of the corrupted receive.
        tag: u32,
        /// Total verification attempts made (initial receive + NACKed
        /// retransmits).
        attempts: u32,
    },
    /// A checksum-verified compute stage (an ABFT-checked MLFMA panel apply
    /// or a Krylov drift guard) kept failing verification: the detected
    /// silent data corruption persisted through the bounded recompute /
    /// rollback budget, so the result cannot be trusted.
    ComputeCorruption {
        /// Rank that detected the corruption (0 in serial runs).
        rank: usize,
        /// Compute stage that failed verification (e.g. `mlfma.apply_block`,
        /// `krylov.drift`, `dist.apply_block`).
        stage: String,
        /// 1-based index of the corrupted panel apply on this rank.
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
    /// The driver cannot make further progress (e.g. every illumination
    /// group has been lost, or the restart budget is exhausted).
    Unrecoverable {
        /// Why recovery is impossible.
        detail: String,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InjectedCrash { rank, op } => {
                write!(f, "injected fault: rank {rank} crashed at MPI op #{op}")
            }
            FaultError::PeerDead { rank, peer, detail } => {
                write!(
                    f,
                    "rank {rank}: peer rank {peer} can no longer participate\n{detail}"
                )
            }
            FaultError::SendLost {
                rank,
                dst,
                tag,
                attempts,
            } => {
                write!(
                    f,
                    "rank {rank}: send to rank {dst} (tag {tag:#x}) lost after \
                     {attempts} attempts; declaring the peer dead"
                )
            }
            FaultError::Corruption {
                rank,
                src,
                tag,
                attempts,
            } => {
                write!(
                    f,
                    "rank {rank}: payload from rank {src} (tag {tag:#x}) failed \
                     integrity verification after {attempts} attempts; \
                     retransmit budget exhausted"
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
        let e = FaultError::InjectedCrash { rank: 3, op: 17 };
        let msg = e.to_string();
        assert!(msg.contains("rank 3"), "{msg}");
        assert!(msg.contains("#17"), "{msg}");

        let e = FaultError::SendLost {
            rank: 1,
            dst: 2,
            tag: 0x100,
            attempts: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("rank 1"), "{msg}");
        assert!(msg.contains("rank 2"), "{msg}");
        assert!(msg.contains("4 attempts"), "{msg}");
    }

    #[test]
    fn corruption_names_both_endpoints_and_the_budget() {
        let e = FaultError::Corruption {
            rank: 2,
            src: 0,
            tag: 0x101,
            attempts: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("rank 2"), "{msg}");
        assert!(msg.contains("rank 0"), "{msg}");
        assert!(msg.contains("4 attempts"), "{msg}");
        assert!(msg.contains("integrity"), "{msg}");
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

//! Documented process exit codes for the `ffw` command-line binaries.
//!
//! A supervisor (the `ffw-serve` retry loop, a batch scheduler, CI) must be
//! able to tell *why* a reconstruction process ended without parsing stderr:
//! a Krylov breakdown wants a different response (perturb and retry, or give
//! up on the scene) than an exhausted restart budget (requeue elsewhere) or
//! an operator-requested interruption (resume later from the checkpoint).
//! Each failure class therefore gets its own stable exit code, extending the
//! long-standing "exit 2 = CLI usage error" convention.

use ffw_fault::FaultError;

/// Success.
pub const EXIT_OK: i32 = 0;
/// Generic, unclassified failure (I/O errors, lost sends, corruption…).
pub const EXIT_FAILURE: i32 = 1;
/// Invalid command-line usage, rejected before any work started.
pub const EXIT_USAGE: i32 = 2;
/// A forward solve could not be completed: an iterative Krylov solve broke
/// down (rho underflow / non-finite residual) and did not recover after its
/// automatic restart. The scene is too hard for the solver as configured —
/// perturb it, or loosen the tolerance.
pub const EXIT_BREAKDOWN: i32 = 3;
/// A recovery budget was exhausted: the relaunch/retry budget was spent or
/// no further recovery is possible (e.g. every illumination group lost).
pub const EXIT_BUDGET: i32 = 4;
/// The run was interrupted (SIGTERM/SIGINT or a cancel request) and stopped
/// cleanly at an outer-iteration boundary with its checkpoint flushed;
/// rerunning with `--resume` continues bit-identically.
pub const EXIT_INTERRUPTED: i32 = 5;

/// Maps a terminal [`FaultError`] from the fault-tolerant driver to its
/// documented exit code.
pub fn exit_code_for(err: &FaultError) -> i32 {
    match err {
        FaultError::KrylovBreakdown { .. } => EXIT_BREAKDOWN,
        // Detected silent data corruption that survived the bounded
        // recompute/rollback budget is a spent recovery budget, not a scene
        // property: requeue the job (ideally elsewhere), never trust the
        // output.
        FaultError::ComputeCorruption { .. } => EXIT_BUDGET,
        FaultError::Unrecoverable { .. } => EXIT_BUDGET,
        _ => EXIT_FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_and_budget_get_distinct_codes() {
        let breakdown = FaultError::KrylovBreakdown {
            rank: 0,
            iterations: 7,
            rel_residual: 1e-3,
            detail: "rho underflow".into(),
        };
        let budget = FaultError::Unrecoverable {
            detail: "rank(s) {1} died and the restart budget (1) is exhausted".into(),
        };
        assert_eq!(exit_code_for(&breakdown), EXIT_BREAKDOWN);
        assert_eq!(exit_code_for(&budget), EXIT_BUDGET);
        assert_ne!(EXIT_BREAKDOWN, EXIT_BUDGET);
        let sdc = FaultError::ComputeCorruption {
            rank: 2,
            stage: "mlfma.apply_block".into(),
            panel: 17,
            attempts: 3,
        };
        assert_eq!(
            exit_code_for(&sdc),
            EXIT_BUDGET,
            "unrecoverable silent data corruption exhausts a recovery budget"
        );
        // The classified codes never collide with the established ones.
        for code in [EXIT_BREAKDOWN, EXIT_BUDGET, EXIT_INTERRUPTED] {
            assert!(code != EXIT_OK && code != EXIT_FAILURE && code != EXIT_USAGE);
        }
    }

    #[test]
    fn unclassified_faults_stay_generic() {
        let lost = FaultError::SendLost {
            rank: 0,
            dst: 1,
            tag: 0x100,
            attempts: 4,
        };
        assert_eq!(exit_code_for(&lost), EXIT_FAILURE);
    }
}

//! The 1×1 grid without a rank launch.
//!
//! [`run_dbim_local`] is [`crate::run_dbim_ft`] for a single rank that owns
//! every pixel and every transmitter: the same loop on the serial context
//! over the caller's own `G0` engine, with the same per-iteration
//! checkpoint, [`crate::JobControl`] stop and progress hook, the same
//! fingerprint and the same result type — and no runtime, no threads and no
//! messages, since there is nobody to talk to and nothing that can die
//! separately from the caller.

use crate::ft::{run_fingerprint, FtConfig, FtDbimResult};
use ffw_fault::{Checkpoint, FaultError};
use ffw_inverse::{dbim_hooked, Flow, ImagingSetup, LoopState};
use ffw_numerics::C64;
use ffw_solver::{BlockLinOp, Workspace};

/// Runs `cfg.dbim` on the serial context over `g0`. Of `cfg`, the grid
/// (which must be 1×1), `dbim`, `checkpoint`, `resume` and `control` apply;
/// the restart budget, fault plan and watchdog belong to rank launches.
pub fn run_dbim_local<G: BlockLinOp + ?Sized>(
    setup: &ImagingSetup,
    g0: &G,
    measured: &[Vec<C64>],
    cfg: &FtConfig,
) -> Result<FtDbimResult, FaultError> {
    assert_eq!(
        (cfg.groups, cfg.subtree_ranks),
        (1, 1),
        "the serial context is the 1x1 grid"
    );
    let fingerprint = run_fingerprint(setup, &cfg.dbim, 1, 1, measured);
    let txs: Vec<usize> = (0..setup.n_tx()).collect();
    let init = if cfg.resume {
        let path = cfg
            .checkpoint
            .as_deref()
            .ok_or_else(|| FaultError::Unrecoverable {
                detail: "resume requested but no checkpoint path configured".into(),
            })?;
        let ckpt = Checkpoint::load(path, fingerprint)?;
        ffw_obs::event(
            "dist.checkpoint.load",
            &format!("resume from iter {} ({})", ckpt.next_iter, path.display()),
        );
        Some(LoopState::from_checkpoint(&ckpt, 0..setup.n_pixels(), &txs))
    } else {
        None
    };
    let ws = Workspace::new();
    // The stop is taken *after* the iteration's checkpoint is on disk, so a
    // stopped run always resumes bit-identically.
    let hook = |st: &LoopState| -> Result<Flow, FaultError> {
        if let Some(path) = &cfg.checkpoint {
            // the packed state and its encoding take the idle vectors' place
            ws.release();
            st.to_checkpoint(fingerprint, &txs, cfg.dbim.warm_start)
                .save(path)?;
            ffw_obs::event(
                "dist.checkpoint.save",
                &format!("iter {} -> {}", st.next_iter, path.display()),
            );
        }
        let Some(ctl) = &cfg.control else {
            return Ok(Flow::Continue);
        };
        ctl.progress(
            st.next_iter as u32,
            st.residual_history.last().copied().unwrap_or(f64::NAN),
        );
        Ok(if ctl.stop_requested() {
            Flow::Stop
        } else {
            Flow::Continue
        })
    };
    let run = dbim_hooked(setup, g0, measured, &cfg.dbim, init, &hook, &ws)?;
    if let Some(next) = run.stopped {
        ffw_obs::event(
            "dist.stop",
            &format!("run stopped at outer-iteration boundary {next}"),
        );
    }
    Ok(FtDbimResult {
        object: run.object,
        residual_history: run.residual_history,
        final_residual: run.final_residual,
        lost_txs: Vec::new(),
        restarts: 0,
        interrupted: run.stopped,
        lambdas: run.lambdas,
    })
}

//! One driver: the serial reconstruction is the 1×1 rank grid.
//!
//! The DBIM outer loop (`ffw_inverse::dbim_loop`) and the BiCGStab
//! recurrence (`ffw_solver::try_bicgstab_block`) exist once, written against
//! a rank-context seam with two implementors — the serial context and
//! `ffw-dist`'s grid context. These tests pin what that rests on: the 1×1
//! grid reproduces `dbim` bit for bit, larger grids agree with it to
//! rounding for every regularizer / prior / preconditioner, a hop schedule
//! runs and resumes on both, an unverified grid run sends exactly the
//! messages its solves account for, and the kernel stays width-invariant on
//! a multi-rank operator.

use ffw::dist::{run_dbim_ft, FtConfig};
use ffw::geometry::Point2;
use ffw::inverse::{dbim, DbimConfig, Regularizer};
use ffw::mlfma::Accuracy;
use ffw::numerics::linalg::Matrix;
use ffw::numerics::vecops::rel_diff;
use ffw::numerics::{c64, C64};
use ffw::phantom::Cylinder;
use ffw::solver::{bicgstab_block, try_bicgstab_block, DistOp, IterConfig, Workspace};
use ffw::tomo::{reconstruct, HopPipeline, HopSchedule, Reconstruction, SceneConfig};
use std::convert::Infallible;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

/// Serializes the tests of this file: (d) reads the process-global obs
/// recorder, which every rank launch of the other tests would feed.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scene() -> SceneConfig {
    SceneConfig {
        accuracy: Accuracy::low(),
        threads: 1,
        ..SceneConfig::new(32, 4, 8)
    }
}

fn truth(side: f64) -> Cylinder {
    Cylinder {
        center: Point2::ZERO,
        radius: 0.25 * side,
        contrast: 0.05,
    }
}

fn problem() -> (Reconstruction, Vec<Vec<C64>>) {
    let recon = Reconstruction::new(&scene());
    let measured = recon.synthesize(&truth(recon.domain().side()));
    (recon, measured)
}

fn assert_agree(what: &str, a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (x, y) in a.iter().zip(b) {
        assert!(
            (x - y).abs() <= tol * y.abs().max(1.0),
            "{what}: {x} vs {y}"
        );
    }
}

/// (a) `run_dbim_ft` on the 1×1 grid and `dbim` are the same loop on two
/// contexts over two engines that compute the same thing: object, residual
/// history and final residual are bit-equal.
#[test]
fn the_one_by_one_grid_is_the_serial_run() {
    let _lock = serial();
    let (recon, measured) = problem();
    let cfg = DbimConfig {
        iterations: 2,
        ..Default::default()
    };
    let serial = dbim(&recon.setup, recon.g0(), &measured, &cfg).expect("dbim");
    let ft = FtConfig {
        dbim: cfg,
        ..FtConfig::new(1, 1)
    };
    let grid = run_dbim_ft(&recon.setup, Arc::clone(&recon.plan), &measured, &ft).expect("1x1");
    assert_eq!(grid.object, serial.object, "object");
    let serial_history: Vec<f64> = serial.history.iter().map(|h| h.rel_residual).collect();
    assert_eq!(grid.residual_history, serial_history, "residual history");
    assert_eq!(grid.final_residual, serial.final_residual);
}

/// (b) Everything `DbimConfig` can ask of the linear step runs on a 2×2 grid
/// and agrees with the serial run to rounding.
#[test]
fn a_two_by_two_grid_agrees_with_serial_for_every_step_variant() {
    let _lock = serial();
    let (recon, measured) = problem();
    let variants: Vec<(&str, DbimConfig)> = vec![
        ("plain", DbimConfig::default()),
        (
            "tikhonov",
            DbimConfig {
                regularizer: "tikhonov:1e-3".parse().expect("spec"),
                ..Default::default()
            },
        ),
        (
            "wgcv-lsqr",
            DbimConfig {
                regularizer: "wgcv-lsqr".parse().expect("spec"),
                ..Default::default()
            },
        ),
        (
            "positivity",
            DbimConfig {
                positivity: true,
                ..Default::default()
            },
        ),
        (
            "preconditioned",
            DbimConfig {
                precondition: Some(Arc::clone(&recon.plan)),
                ..Default::default()
            },
        ),
    ];
    for (name, base) in variants {
        let cfg = DbimConfig {
            iterations: 2,
            ..base
        };
        let serial = dbim(&recon.setup, recon.g0(), &measured, &cfg).expect("dbim");
        let ft = FtConfig {
            dbim: cfg,
            ..FtConfig::new(2, 2)
        };
        let grid = run_dbim_ft(&recon.setup, Arc::clone(&recon.plan), &measured, &ft)
            .unwrap_or_else(|e| panic!("{name}: 2x2 run failed: {e}"));
        let err = rel_diff(&grid.object, &serial.object);
        assert!(err <= 1e-10, "{name}: object differs by {err:e}");
        let serial_history: Vec<f64> = serial.history.iter().map(|h| h.rel_residual).collect();
        assert_agree(name, &grid.residual_history, &serial_history, 1e-10);
        assert_agree(
            name,
            &[grid.final_residual],
            &[serial.final_residual],
            1e-10,
        );
        assert_agree(name, &grid.lambdas, &serial.lambdas, 1e-8);
        assert_eq!(
            grid.lambdas.is_empty(),
            !matches!(ft.dbim.regularizer, Regularizer::WgcvLsqr { .. }),
            "{name}: a lambda per iteration exactly for wgcv-lsqr"
        );
    }
}

/// (c) A hop schedule runs on a rank grid and on the serial context through
/// the one front door, agrees between them, and a run stopped after stage 0
/// resumes bit-identically on both.
#[test]
fn a_hop_schedule_runs_and_resumes_on_both_contexts() {
    let _lock = serial();
    let scene = scene();
    let schedule = HopSchedule::parse("2.0,1.0").expect("schedule");
    let pipeline = HopPipeline::new(&scene, &schedule);
    let phantom = truth(pipeline.final_stage().domain().side());
    let measured = pipeline.synthesize(&phantom);
    let dir = std::env::temp_dir().join(format!("ffw-one-driver-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");

    let mut objects = Vec::new();
    for (groups, subtree) in [(1usize, 1usize), (2, 1)] {
        let ft = |checkpoint: Option<std::path::PathBuf>, resume: bool| FtConfig {
            dbim: DbimConfig {
                iterations: 2,
                ..Default::default()
            },
            checkpoint,
            resume,
            ..FtConfig::new(groups, subtree)
        };
        let run = |ft: &FtConfig, stop: Option<&dyn Fn() -> bool>| {
            reconstruct(&scene, &schedule, &pipeline.stages, &measured, ft, stop).expect("hop run")
        };
        let full = run(&ft(None, false), None);
        assert_eq!(full.completed, 2);
        assert!(full.interrupted.is_none());

        let ckpt = dir.join(format!("hop-{groups}x{subtree}.ckpt"));
        std::fs::remove_file(&ckpt).ok();
        let polls = std::sync::atomic::AtomicUsize::new(0);
        let after_stage_0 = || polls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) >= 1;
        let stopped = run(&ft(Some(ckpt.clone()), false), Some(&after_stage_0));
        assert_eq!(stopped.interrupted, Some(1), "{groups}x{subtree}");
        assert_eq!(stopped.completed, 1);
        let resumed = run(&ft(Some(ckpt.clone()), true), None);
        assert_eq!(resumed.resumed, 1);
        assert_eq!(resumed.stages.len(), 1, "only the second stage reran");
        assert_eq!(
            resumed.object, full.object,
            "{groups}x{subtree}: resume must be bit-identical"
        );
        objects.push(full.object);
    }
    let err = rel_diff(&objects[1], &objects[0]);
    assert!(err <= 1e-10, "2x1 hop run vs serial hop run: {err:e}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `DbimConfig::initial` used to be read by the serial loop only. One
/// iteration from a non-zero start on a 2×1 grid must differ from one
/// iteration from zero, and agree with the serial run from the same start.
#[test]
fn an_initial_guess_is_honoured_on_a_rank_grid() {
    let _lock = serial();
    let (recon, measured) = problem();
    let start = dbim(
        &recon.setup,
        recon.g0(),
        &measured,
        &DbimConfig {
            iterations: 1,
            ..Default::default()
        },
    )
    .expect("start")
    .object;
    let one_more = |initial: Option<Vec<C64>>| DbimConfig {
        iterations: 1,
        initial,
        ..Default::default()
    };
    let grid = |initial| {
        let ft = FtConfig {
            dbim: one_more(initial),
            ..FtConfig::new(2, 1)
        };
        run_dbim_ft(&recon.setup, Arc::clone(&recon.plan), &measured, &ft).expect("2x1")
    };
    let from_start = grid(Some(start.clone()));
    let from_zero = grid(None);
    assert!(
        rel_diff(&from_start.object, &from_zero.object) > 1e-3,
        "the start object must matter"
    );
    let cfg = one_more(Some(start));
    let serial = dbim(&recon.setup, recon.g0(), &measured, &cfg).expect("serial");
    let err = rel_diff(&from_start.object, &serial.object);
    assert!(err <= 1e-10, "2x1 from a start vs serial: {err:e}");
}

/// A checkpoint is bound to every setting that changes the iterate, so a
/// resume under another configuration is refused instead of mixing two
/// runs; `batch` changes only the schedule, so resuming at another batch
/// width continues bit-identically.
#[test]
fn resume_refuses_another_configuration_but_not_another_batch() {
    use ffw::fault::{CheckpointError, FaultError};
    let _lock = serial();
    let (recon, measured) = problem();
    let dir = std::env::temp_dir().join(format!("ffw-one-driver-fp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let ckpt = dir.join("run.ckpt");
    for (groups, subtree) in [(1usize, 1usize), (2, 1)] {
        let ft = |dbim: DbimConfig, resume: bool| FtConfig {
            dbim,
            checkpoint: Some(ckpt.clone()),
            resume,
            ..FtConfig::new(groups, subtree)
        };
        let cfg = |iterations: usize| DbimConfig {
            iterations,
            batch: Some(1),
            ..Default::default()
        };
        let run = |ft: &FtConfig| {
            reconstruct(
                &scene(),
                &HopSchedule::single(),
                &[&recon],
                std::slice::from_ref(&measured),
                ft,
                None,
            )
        };
        let full = run(&ft(cfg(2), false)).expect("uninterrupted");
        // Save at iteration 1: a control that asks to stop from the start
        // stops the run at its first boundary, after the checkpoint.
        std::fs::remove_file(&ckpt).ok();
        let control = ffw::dist::JobControl::new();
        control.stop();
        let stopped = run(&FtConfig {
            control: Some(control),
            ..ft(cfg(2), false)
        })
        .expect("stopped run");
        assert_eq!(stopped.interrupted, Some(1), "{groups}x{subtree}");

        for other in [
            DbimConfig {
                positivity: true,
                ..cfg(2)
            },
            DbimConfig {
                regularizer: "tikhonov:1e-3".parse().expect("spec"),
                ..cfg(2)
            },
        ] {
            match run(&ft(other, true)) {
                Err(FaultError::Checkpoint(CheckpointError::FingerprintMismatch { .. })) => {}
                other => panic!("{groups}x{subtree}: expected FingerprintMismatch, got {other:?}"),
            }
        }
        let rebatched = DbimConfig {
            batch: Some(2),
            ..cfg(2)
        };
        let resumed = run(&ft(rebatched, true)).expect("resume at another batch width");
        assert!(resumed.interrupted.is_none());
        assert_eq!(
            resumed.object, full.object,
            "{groups}x{subtree}: resume at batch 2 must be bit-identical"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Messages and bytes of the unverified 2×2 run of [`problem`], two
/// iterations. While every solve ran to `1e-4` from the last field, this run
/// sent 422 messages / 1 497 248 bytes, and so did the distributed loop and
/// recurrence the one-driver refactor deleted: the kernel reduces every
/// phase of the active panel in one call exactly as that code did.
///
/// A rank sends its sub-tree partner 2 messages per `G0` apply (halo and far
/// field; 16 128 bytes for its two-column panel) and 1 per reduction (32
/// bytes; 64 for the omega pair), so a whole BiCGStab step is 2·2 + 5 = 9
/// messages and a step that leaves at the `s`-norm check 2 + 3 = 5 messages
/// / 16 128 + 3·32 = 16 224 bytes — which is also what the second half of
/// a step costs in bytes (16 128 + 64 + 32), in 4 messages. Stopping at
/// `LINEAR_STEP_TOL` ends the gradient and the step solve of iteration 1
/// after one whole step, where `1e-4` went on for half a step more: 2·5
/// messages fewer per rank. From the predicted fields the state solves of
/// iteration 1 and of the final pass converge at the `s`-norm check of
/// their first step, not at its end: 2·4 fewer. Four ranks:
/// 422 − 4·18 = 350 messages, 1 497 248 − 4·4·16 224 = 1 237 664 bytes.
const GRID_MESSAGES: u64 = 350;
const GRID_BYTES: u64 = 1_237_664;

/// (d) What goes over the wire is pinned to the message.
#[test]
fn an_unverified_grid_run_sends_the_messages_it_always_did() {
    let _lock = serial();
    let (recon, measured) = problem();
    let ft = FtConfig {
        dbim: DbimConfig {
            iterations: 2,
            ..Default::default()
        },
        ..FtConfig::new(2, 2)
    };
    ffw_obs::reset();
    ffw_obs::set_enabled(true);
    let run = run_dbim_ft(&recon.setup, Arc::clone(&recon.plan), &measured, &ft);
    let snap = ffw_obs::snapshot();
    ffw_obs::set_enabled(false);
    run.expect("2x2 run");
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(
        (counter("mpi.messages.total"), counter("mpi.bytes.total")),
        (GRID_MESSAGES, GRID_BYTES)
    );
}

/// The one fake the seam exists to allow: a dense system split in two row
/// blocks, each half run by its own thread, whose `reduce` sums the halves.
struct HalfOp<'a> {
    m: &'a Matrix,
    half: usize,
    shared: &'a Exchange,
}

struct Exchange {
    barrier: Barrier,
    panels: [Mutex<Vec<Vec<C64>>>; 2],
    sums: [Mutex<Vec<C64>>; 2],
}

impl DistOp for HalfOp<'_> {
    type Error = Infallible;
    fn n_local(&self) -> usize {
        self.m.rows() / 2
    }
    fn try_apply_block_local(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) -> Result<(), Infallible> {
        let h = self.n_local();
        *self.shared.panels[self.half].lock().expect("panel") =
            xs.iter().map(|x| x.to_vec()).collect();
        self.shared.barrier.wait();
        let lower = self.shared.panels[0].lock().expect("panel").clone();
        let upper = self.shared.panels[1].lock().expect("panel").clone();
        self.shared.barrier.wait();
        for (c, y) in ys.iter_mut().enumerate() {
            let x: Vec<C64> = lower[c].iter().chain(&upper[c]).copied().collect();
            for (r, yr) in y.iter_mut().enumerate() {
                let row = self.m.row(self.half * h + r);
                *yr = row
                    .iter()
                    .zip(&x)
                    .fold(C64::ZERO, |acc, (a, b)| acc + *a * *b);
            }
        }
        Ok(())
    }
    fn reduce(&self, vals: &mut [C64]) -> Result<(), Infallible> {
        *self.shared.sums[self.half].lock().expect("sums") = vals.to_vec();
        self.shared.barrier.wait();
        let lower = self.shared.sums[0].lock().expect("sums").clone();
        let upper = self.shared.sums[1].lock().expect("sums").clone();
        self.shared.barrier.wait();
        for (v, (a, b)) in vals.iter_mut().zip(lower.iter().zip(&upper)) {
            *v = *a + *b;
        }
        Ok(())
    }
}

fn noise(n: usize, seed: u64) -> Vec<C64> {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    (0..n).map(|_| c64(next(), next())).collect()
}

/// (e) On a two-rank operator a column's iterate is bit-identical at panel
/// widths 1, 3 and 8, and the two-rank solve agrees with the whole-matrix
/// solve to rounding.
#[test]
fn the_kernel_is_width_invariant_on_a_two_rank_operator() {
    let _lock = serial();
    let n = 48;
    let entries = noise(n * n, 3);
    let m = Matrix::from_fn(n, n, |r, c| {
        entries[r * n + c] + if r == c { c64(7.0, 0.0) } else { C64::ZERO }
    });
    let bs: Vec<Vec<C64>> = (0..8).map(|c| noise(n, 11 + c)).collect();
    let cfg = IterConfig {
        tol: 1e-13,
        max_iters: 300,
    };

    let split = |width: usize| -> Vec<Vec<C64>> {
        let shared = Exchange {
            barrier: Barrier::new(2),
            panels: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
            sums: [Mutex::new(Vec::new()), Mutex::new(Vec::new())],
        };
        let halves: Vec<Vec<Vec<C64>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|half| {
                    let (m, shared, bs) = (&m, &shared, &bs);
                    scope.spawn(move || {
                        let op = HalfOp { m, half, shared };
                        let h = n / 2;
                        let b_refs: Vec<&[C64]> = bs[..width]
                            .iter()
                            .map(|b| &b[half * h..(half + 1) * h])
                            .collect();
                        let mut xs = vec![vec![C64::ZERO; h]; width];
                        let ws = Workspace::new();
                        let stats = try_bicgstab_block(&op, &b_refs, &mut xs, cfg, None, None, &ws)
                            .expect("two-half solve");
                        assert!(stats.iter().all(|s| s.converged), "{stats:?}");
                        xs
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("half"))
                .collect()
        });
        (0..width)
            .map(|c| halves[0][c].iter().chain(&halves[1][c]).copied().collect())
            .collect()
    };

    let x8 = split(8);
    for width in [1usize, 3] {
        let xs = split(width);
        for c in 0..width {
            assert_eq!(xs[c], x8[c], "column {c} at width {width}");
        }
    }
    let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
    let mut whole = vec![vec![C64::ZERO; n]; 8];
    let stats = bicgstab_block(&m, &b_refs, &mut whole, cfg);
    assert!(stats.iter().all(|s| s.converged));
    for c in 0..8 {
        let err = rel_diff(&x8[c], &whole[c]);
        assert!(err <= 1e-12, "column {c}: split vs whole {err:e}");
    }
}

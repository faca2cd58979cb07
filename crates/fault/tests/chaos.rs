//! Chaos-test harness: small distributed phantom reconstructions under a
//! grid of seeded fault schedules.
//!
//! Every test drives the full fault-tolerant stack
//! (`ffw_dist::run_dbim_ft` over the `ffw_mpi` runtime with injected
//! faults) and asserts the contract from the fault model:
//!
//! * a fault-free run matches the serial DBIM to near machine precision;
//! * recoverable faults (stragglers, dropped-then-retried sends, corrupted
//!   frames retransmitted within budget) leave the result bit-identical;
//! * unrecoverable faults recover elastically — the dead groups'
//!   transmitters are redistributed over the survivors, nothing is lost
//!   (`lost_txs == []`) and the reconstruction matches the fault-free run
//!   within [`REDISTRIBUTE_TOL`] — or, below `min_groups`, degrade
//!   gracefully with the dropped illuminations reported, or surface a
//!   typed [`FaultError`] naming the failing rank;
//! * a run killed mid-flight resumes from its checkpoint bit-identically;
//! * nothing ever hangs, nothing silently returns a wrong answer, and
//!   nothing ever dies on an `unwrap` panic.

use ffw_dist::{run_dbim_ft, FtConfig};
use ffw_fault::{FaultError, FaultPlan};
use ffw_geometry::{Domain, Point2, QuadTree, TransducerArray};
use ffw_inverse::{dbim, synthesize_measurements, DbimConfig, ImagingSetup, MlfmaG0};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::vecops::rel_diff;
use ffw_numerics::C64;
use ffw_par::Pool;
use ffw_phantom::{object_from_contrast, Cylinder, Phantom};
use ffw_solver::VerifyConfig;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const GROUPS: usize = 2;
const SUBTREE: usize = 2;
const N_RANKS: usize = GROUPS * SUBTREE;
const ITERATIONS: usize = 3;
/// Short watchdog so dead-peer detection doesn't dominate test time.
const WATCHDOG: Duration = Duration::from_millis(250);
/// Tolerance for a redistributed reconstruction against the fault-free
/// run. Redistribution regroups the transmitters, which reassociates the
/// cost/gradient reductions; the iterates drift at accumulated-rounding
/// level, far below the phantom contrast, but not bit-identically.
const REDISTRIBUTE_TOL: f64 = 1e-6;

struct Scene {
    setup: ImagingSetup,
    plan: Arc<MlfmaPlan>,
    measured: Vec<Vec<C64>>,
}

fn scene() -> Scene {
    let domain = Domain::new(32, 1.0);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
    let ring = 2.0 * domain.side();
    let setup = ImagingSetup::new(
        domain.clone(),
        TransducerArray::ring(4, ring),
        TransducerArray::ring(8, ring),
    );
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: 1.4,
        contrast: 0.05,
    };
    let tree = QuadTree::new(&domain);
    let object = object_from_contrast(&domain, &tree, &truth.rasterize(&domain));
    let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(
        Arc::clone(&plan),
        Arc::new(Pool::new(1)),
    )));
    let measured = synthesize_measurements(&setup, &g0, &object, Default::default());
    Scene {
        setup,
        plan,
        measured,
    }
}

fn dbim_cfg() -> DbimConfig {
    DbimConfig {
        iterations: ITERATIONS,
        ..Default::default()
    }
}

fn ft_cfg() -> FtConfig {
    FtConfig {
        dbim: dbim_cfg(),
        deadlock_timeout: Some(WATCHDOG),
        ..FtConfig::new(GROUPS, SUBTREE)
    }
}

fn ckpt_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ffw-fault-chaos");
    std::fs::create_dir_all(&dir).expect("create chaos tmp dir");
    dir.join(format!("{name}-{}.ckpt", std::process::id()))
}

#[test]
fn fault_free_run_matches_serial_dbim() {
    let sc = scene();
    let serial = {
        let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(
            Arc::clone(&sc.plan),
            Arc::new(Pool::new(1)),
        )));
        dbim(&sc.setup, &g0, &sc.measured, &dbim_cfg()).expect("serial dbim")
    };
    let r = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &ft_cfg())
        .expect("fault-free run must succeed");
    assert!(r.lost_txs.is_empty());
    assert_eq!(r.restarts, 0);
    assert_eq!(r.residual_history.len(), ITERATIONS);
    let d = rel_diff(&r.object, &serial.object);
    assert!(
        d <= 1e-12,
        "fault-tolerant path must match serial dbim: rel diff {d:.3e}"
    );
}

#[test]
fn straggler_run_is_bit_identical_to_fault_free() {
    let sc = scene();
    let clean = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &ft_cfg())
        .expect("fault-free run");
    let mut cfg = ft_cfg();
    cfg.fault_plan = Some(FaultPlan::new().straggler(1, 5, 60, 1));
    let slow = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect("a straggler must not fail the run");
    assert_eq!(slow.restarts, 0);
    assert!(slow.lost_txs.is_empty());
    assert_eq!(clean.object, slow.object, "straggler changed the result");
    assert_eq!(clean.residual_history, slow.residual_history);
}

#[test]
fn recoverable_dropped_send_is_bit_identical_to_fault_free() {
    let sc = scene();
    let clean = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &ft_cfg())
        .expect("fault-free run");
    // Drop the 3rd send on the 0 -> 1 edge twice: within the default retry
    // budget, so the runtime retries and the run completes untouched.
    let mut cfg = ft_cfg();
    cfg.fault_plan = Some(FaultPlan::new().drop_send(0, 1, 3, 2));
    let retried = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect("a retried send must not fail the run");
    assert_eq!(retried.restarts, 0);
    assert!(retried.lost_txs.is_empty());
    assert_eq!(clean.object, retried.object, "retried send changed result");
}

#[test]
fn lost_send_redistributes_the_dead_groups_transmitters() {
    let sc = scene();
    let clean = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &ft_cfg())
        .expect("fault-free run");
    // Drop a send on the 2 -> 3 edge (inside group 1) past the retry
    // budget: rank 2 declares rank 3 dead and group 1 dies — but its
    // transmitters 2..4 are redistributed onto group 0, so nothing is lost
    // and every illumination is still reconstructed.
    let mut cfg = ft_cfg();
    cfg.fault_plan = Some(FaultPlan::new().drop_send(2, 3, 2, 10));
    let r = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect("survivors must finish after losing a group");
    assert_eq!(r.restarts, 1);
    assert_eq!(
        r.lost_txs,
        Vec::<usize>::new(),
        "no illumination may be lost"
    );
    let d = rel_diff(&r.object, &clean.object);
    assert!(
        d <= REDISTRIBUTE_TOL,
        "redistributed run must match fault-free run: rel diff {d:.3e}"
    );
}

#[test]
fn crash_mid_iteration_redistributes_to_surviving_group() {
    let sc = scene();
    let clean = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &ft_cfg())
        .expect("fault-free run");
    // Kill rank 1 (group 0) at its 30th runtime operation — mid forward
    // solve of the first iteration. Group 0's transmitters 0..2 move to
    // group 1 on relaunch.
    let mut cfg = ft_cfg();
    cfg.fault_plan = Some(FaultPlan::new().crash_at(1, 30));
    let r = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect("survivors must finish after a crash");
    assert_eq!(r.restarts, 1);
    assert_eq!(
        r.lost_txs,
        Vec::<usize>::new(),
        "no illumination may be lost"
    );
    let d = rel_diff(&r.object, &clean.object);
    assert!(
        d <= REDISTRIBUTE_TOL,
        "redistributed run must match fault-free run: rel diff {d:.3e}"
    );
}

#[test]
fn below_min_groups_falls_back_to_dropping_illuminations() {
    let sc = scene();
    // With min_groups == GROUPS, losing any group leaves too few survivors
    // for redistribution; the driver must take the documented fallback and
    // drop the dead group's illuminations instead.
    let mut cfg = ft_cfg();
    cfg.min_groups = GROUPS;
    cfg.fault_plan = Some(FaultPlan::new().crash_at(1, 30));
    let r = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect("survivors must finish after a crash");
    assert_eq!(r.restarts, 1);
    assert_eq!(r.lost_txs, vec![0, 1]);
    assert!(
        r.final_residual.is_finite() && r.final_residual < 0.5,
        "degraded run must still fit the surviving data: {:.3e}",
        r.final_residual
    );
}

#[test]
fn recoverable_corruption_is_bit_identical_to_fault_free() {
    let sc = scene();
    let clean = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &ft_cfg())
        .expect("fault-free run");
    // Corrupt the 3rd send on the 0 -> 1 edge twice: the CRC catches both
    // deliveries, the NACK/retransmit protocol recovers within the retry
    // budget, and the run completes untouched.
    let mut cfg = ft_cfg();
    cfg.fault_plan = Some(FaultPlan::new().corrupt_send(0, 1, 3, 2));
    let r = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect("a retransmitted frame must not fail the run");
    assert_eq!(r.restarts, 0);
    assert!(r.lost_txs.is_empty());
    assert_eq!(
        clean.object, r.object,
        "recovered corruption changed result"
    );
    assert_eq!(clean.residual_history, r.residual_history);
}

#[test]
fn unrecoverable_corruption_recovers_by_redistribution() {
    let sc = scene();
    let clean = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &ft_cfg())
        .expect("fault-free run");
    // Corrupt every delivery of the 2nd send on the 2 -> 3 edge: rank 3's
    // retransmit budget exhausts with a typed Corruption error naming rank
    // 2 as the source. The driver treats the edge's source as lost,
    // redistributes group 1's transmitters and finishes with nothing lost.
    let mut cfg = ft_cfg();
    cfg.fault_plan = Some(FaultPlan::new().corrupt_send(2, 3, 2, 10));
    let r = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect("survivors must finish after unrecoverable corruption");
    assert_eq!(r.restarts, 1);
    assert_eq!(
        r.lost_txs,
        Vec::<usize>::new(),
        "no illumination may be lost"
    );
    let d = rel_diff(&r.object, &clean.object);
    assert!(
        d <= REDISTRIBUTE_TOL,
        "redistributed run must match fault-free run: rel diff {d:.3e}"
    );
}

#[test]
fn combined_corruption_crash_and_straggler_recovers() {
    let sc = scene();
    let clean = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &ft_cfg())
        .expect("fault-free run");
    // All three fault classes in one run: a recoverable corruption on the
    // 0 -> 1 edge, a straggler on rank 1, and a crash of rank 3 (group 1).
    // The corruption and straggler are absorbed in place; the crash costs a
    // relaunch with group 1's transmitters redistributed onto group 0.
    let mut cfg = ft_cfg();
    cfg.max_restarts = 2;
    cfg.fault_plan = Some(
        FaultPlan::new()
            .corrupt_send(0, 1, 3, 2)
            .straggler(1, 5, 30, 1)
            .crash_at(3, 40),
    );
    let r = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect("survivors must finish under combined faults");
    assert!(r.restarts >= 1, "the crash must cost at least one relaunch");
    assert_eq!(
        r.lost_txs,
        Vec::<usize>::new(),
        "no illumination may be lost"
    );
    let d = rel_diff(&r.object, &clean.object);
    assert!(
        d <= REDISTRIBUTE_TOL,
        "combined-fault run must match fault-free run: rel diff {d:.3e}"
    );
}

#[test]
fn crash_with_no_restart_budget_is_a_typed_error_not_a_hang() {
    let sc = scene();
    let mut cfg = ft_cfg();
    cfg.max_restarts = 0;
    cfg.fault_plan = Some(FaultPlan::new().crash_at(0, 25));
    let err = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect_err("no restart budget: the crash must surface");
    assert!(
        matches!(err, FaultError::Unrecoverable { .. }),
        "expected Unrecoverable, got {err}"
    );
}

#[test]
fn seeded_fault_matrix_never_hangs_or_silently_corrupts() {
    let sc = scene();
    let mut cfg = ft_cfg();
    cfg.dbim.iterations = 2;
    // Fault-free reference at the same iteration count, for the
    // no-silent-wrong-answer check below.
    let clean = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect("fault-free reference run");
    // Seeds cycle through all six fault classes (crash, recoverable drop,
    // lost drop, straggler, recoverable corruption, unrecoverable
    // corruption); 0..12 covers each class twice.
    for seed in 0..12u64 {
        let mut c = cfg.clone();
        c.max_restarts = 2;
        c.fault_plan = Some(FaultPlan::seeded(seed, N_RANKS));
        // The contract under arbitrary seeded faults: the run returns —
        // either recovered (finite residual, no silent deviation from the
        // fault-free answer) or a typed error. Reaching the match at all
        // proves no hang and no panic.
        match run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &c) {
            Ok(r) => {
                assert!(
                    r.final_residual.is_finite(),
                    "seed {seed}: non-finite residual"
                );
                assert!(r.restarts <= 2, "seed {seed}: restart budget exceeded");
                // No silent wrong answers: an Ok run that claims to have
                // reconstructed every illumination must actually match the
                // fault-free result — bit-identically when no relaunch was
                // needed (in-place recovery), within REDISTRIBUTE_TOL when
                // transmitters were redistributed.
                if r.lost_txs.is_empty() {
                    let d = rel_diff(&r.object, &clean.object);
                    if r.restarts == 0 {
                        assert_eq!(
                            clean.object, r.object,
                            "seed {seed}: in-place recovery not bit-identical (rel diff {d:.3e})"
                        );
                    } else {
                        assert!(
                            d <= REDISTRIBUTE_TOL,
                            "seed {seed}: redistributed run deviates: rel diff {d:.3e}"
                        );
                    }
                }
            }
            Err(e) => {
                // Must be one of the typed fault errors, with enough
                // context to name what went wrong.
                let msg = e.to_string();
                assert!(!msg.is_empty(), "seed {seed}: empty error");
            }
        }
    }
}

#[test]
fn killed_then_resumed_run_is_bit_identical_to_uninterrupted() {
    let sc = scene();

    // Reference: an uninterrupted checkpointed run.
    let full_path = ckpt_path("full");
    let _ = std::fs::remove_file(&full_path);
    let mut full_cfg = ft_cfg();
    full_cfg.checkpoint = Some(full_path.clone());
    let full = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &full_cfg)
        .expect("uninterrupted checkpointed run");

    // Kill a rank mid-run, after at least one checkpoint has been written.
    // Operation counts are deterministic, so probe crash sites until one
    // lands between the first checkpoint write and run completion.
    let kill_path = ckpt_path("killed");
    let mut killed = false;
    // Batched forward solves fuse messages, so a full run is only a few
    // hundred comm ops per rank — probe densely at the low end.
    for crash_op in [
        150u64, 250, 400, 600, 1200, 2500, 5000, 10_000, 20_000, 40_000,
    ] {
        let _ = std::fs::remove_file(&kill_path);
        let mut cfg = ft_cfg();
        cfg.checkpoint = Some(kill_path.clone());
        cfg.max_restarts = 0; // die instead of recovering in-process
        cfg.fault_plan = Some(FaultPlan::new().crash_at(1, crash_op));
        let out = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg);
        if out.is_err() && kill_path.exists() {
            killed = true;
            break;
        }
    }
    assert!(killed, "no probed crash site left a usable checkpoint");

    // Resume from the survivor's checkpoint, fault-free this time.
    let mut resume_cfg = ft_cfg();
    resume_cfg.checkpoint = Some(kill_path.clone());
    resume_cfg.resume = true;
    let resumed = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &resume_cfg)
        .expect("resume from checkpoint");

    assert_eq!(
        full.object, resumed.object,
        "resumed run must be bit-identical to the uninterrupted run"
    );
    assert_eq!(full.residual_history, resumed.residual_history);
    assert_eq!(
        full.final_residual.to_bits(),
        resumed.final_residual.to_bits()
    );
    assert!(resumed.lost_txs.is_empty());

    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&kill_path);
}

/// A cooperative cancel ([`ffw_dist::JobControl::stop`]) raised
/// mid-outer-iteration must stop the run at the next iteration boundary
/// *after* that boundary's checkpoint is flushed, so that a later
/// `--resume` finishes bit-identically to a never-interrupted run. This is
/// the contract `ffw-serve` relies on for cancel/pause and SIGTERM drains.
#[test]
fn cancel_mid_iteration_checkpoint_resumes_bit_identically() {
    use ffw_dist::JobControl;
    let sc = scene();

    // Reference: uninterrupted checkpointed run.
    let full_path = ckpt_path("cancel-full");
    let _ = std::fs::remove_file(&full_path);
    let mut full_cfg = ft_cfg();
    full_cfg.checkpoint = Some(full_path.clone());
    let full = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &full_cfg)
        .expect("uninterrupted checkpointed run");

    // Cancelled run: raise the stop intent as soon as the first outer
    // iteration's progress event arrives — i.e. while iteration 2 is in
    // flight — and let the collective stop protocol take it from there.
    let cancel_path = ckpt_path("cancelled");
    let _ = std::fs::remove_file(&cancel_path);
    let (ptx, prx) = crossbeam_channel::unbounded();
    let control = JobControl::new().with_progress(ptx);
    let stopper = {
        let control = control.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "the test plays the client: it must stop the run from outside the solver's threads"
        )]
        std::thread::spawn(move || {
            let first = prx.recv().expect("first progress event");
            assert_eq!(first.completed, 1);
            assert!(first.residual.is_finite());
            control.stop();
        })
    };
    let mut cancel_cfg = ft_cfg();
    cancel_cfg.checkpoint = Some(cancel_path.clone());
    cancel_cfg.control = Some(control);
    let cancelled = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cancel_cfg)
        .expect("a cancelled run returns Ok with `interrupted` set");
    stopper.join().expect("stopper thread");
    let next_iter = cancelled
        .interrupted
        .expect("the run must report it was interrupted");
    assert!(
        (1..ITERATIONS as u32).contains(&next_iter),
        "cancel must land mid-run, got iteration {next_iter}"
    );
    assert!(
        cancel_path.exists(),
        "the cancelled run must leave its checkpoint flushed"
    );

    // Resume the cancelled run to completion: bit-identical to the
    // uninterrupted reference, down to the residual history.
    let mut resume_cfg = ft_cfg();
    resume_cfg.checkpoint = Some(cancel_path.clone());
    resume_cfg.resume = true;
    let resumed = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &resume_cfg)
        .expect("resume after cancel");
    assert!(resumed.interrupted.is_none());
    assert_eq!(
        full.object, resumed.object,
        "resume after cancel must be bit-identical to the uninterrupted run"
    );
    assert_eq!(full.residual_history, resumed.residual_history);
    assert_eq!(
        full.final_residual.to_bits(),
        resumed.final_residual.to_bits()
    );

    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&cancel_path);
}

/// Distributed config with ABFT compute verification on: every rank's G0
/// panel applies carry the ride-along checksum column, calibrated to the
/// scene's MLFMA accuracy exactly as the CLI does it.
fn verified_ft_cfg() -> FtConfig {
    let mut cfg = ft_cfg();
    cfg.dbim.verify = Some(VerifyConfig::with_rel_tol(
        Accuracy::low().checksum_rel_tol(),
    ));
    cfg
}

/// The checksum column must be pure overhead on a clean run: per-column
/// arithmetic of the fused panel is independent, so enabling verification
/// cannot move a single output bit.
#[test]
fn verified_clean_run_is_bit_identical_to_unverified() {
    let sc = scene();
    let plain = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &ft_cfg())
        .expect("unverified clean run");
    let verified = run_dbim_ft(
        &sc.setup,
        Arc::clone(&sc.plan),
        &sc.measured,
        &verified_ft_cfg(),
    )
    .expect("verified clean run");
    assert_eq!(verified.restarts, 0, "clean run must not restart");
    assert_eq!(
        plain.object, verified.object,
        "checksum verification changed a clean run's result"
    );
    assert_eq!(plain.residual_history, verified.residual_history);
}

/// A bit flip in one rank's panel output is detected locally by the ABFT
/// check; the detecting rank escalates (its halo inputs are consumed, so
/// there is nothing local to recompute), the driver treats it as the
/// primary death evidence, and recovery proceeds through relaunch with the
/// dead group's transmitters redistributed — nothing lost, no silent
/// corruption of the reconstruction.
#[test]
fn compute_corruption_escalates_to_restart_and_recovers() {
    let sc = scene();
    let clean = run_dbim_ft(
        &sc.setup,
        Arc::clone(&sc.plan),
        &sc.measured,
        &verified_ft_cfg(),
    )
    .expect("verified clean run");
    let mut cfg = verified_ft_cfg();
    // Exponent-bit flip in rank 3's 5th verified panel apply.
    cfg.fault_plan = Some(FaultPlan::new().corrupt_compute(3, 5, 7, 55));
    let r = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect("survivors must finish after compute corruption");
    assert_eq!(r.restarts, 1, "detection must cost exactly one relaunch");
    assert_eq!(
        r.lost_txs,
        Vec::<usize>::new(),
        "no illumination may be lost"
    );
    let d = rel_diff(&r.object, &clean.object);
    assert!(
        d <= REDISTRIBUTE_TOL,
        "recovered run must match the clean run: rel diff {d:.3e}"
    );
}

/// Without verification the same flip goes undetected — the run completes
/// with a silently wrong answer. This is the negative control proving the
/// checksum column is what provides the detection in the test above.
#[test]
fn compute_corruption_without_verification_is_silent() {
    let sc = scene();
    let clean =
        run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &ft_cfg()).expect("clean run");
    let mut cfg = ft_cfg();
    cfg.fault_plan = Some(FaultPlan::new().corrupt_compute(3, 5, 7, 55));
    let r = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect("unverified run has no detector and completes");
    assert_eq!(r.restarts, 0, "nothing detects the flip");
    // The flip is only *injected* on verified applies; with verification
    // off the plan never fires, so the result stays clean. The point of
    // this control is that no detection machinery runs at all.
    assert_eq!(clean.object, r.object);
}

/// The seeded silent-data-corruption matrix over the full distributed
/// stack: bit flips at exponent and mantissa granularity, alone and
/// composed with a crash or a straggler on another rank. The contract is
/// the fault model's: every run returns (no hang, no unwrap panic), a
/// detected corruption never silently survives into an Ok result, and
/// recovery without redistribution is bit-identical.
#[test]
fn seeded_compute_corruption_matrix_never_hangs_or_silently_corrupts() {
    let sc = scene();
    let mut base = verified_ft_cfg();
    base.dbim.iterations = 2;
    let clean = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &base)
        .expect("verified clean reference");
    for seed in 0..8u64 {
        let mut cfg = base.clone();
        cfg.max_restarts = 2;
        cfg.fault_plan = Some(FaultPlan::seeded_compute(seed, N_RANKS));
        match run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg) {
            Ok(r) => {
                assert!(
                    r.final_residual.is_finite(),
                    "seed {seed}: non-finite residual"
                );
                assert!(r.restarts <= 2, "seed {seed}: restart budget exceeded");
                if r.lost_txs.is_empty() {
                    let d = rel_diff(&r.object, &clean.object);
                    if r.restarts == 0 {
                        assert_eq!(
                            clean.object, r.object,
                            "seed {seed}: run without relaunch not bit-identical \
                             (rel diff {d:.3e})"
                        );
                    } else {
                        assert!(
                            d <= REDISTRIBUTE_TOL,
                            "seed {seed}: recovered run deviates: rel diff {d:.3e}"
                        );
                    }
                }
            }
            Err(e) => {
                let msg = e.to_string();
                assert!(!msg.is_empty(), "seed {seed}: empty error");
            }
        }
    }
}

#[test]
fn resume_with_wrong_scene_is_a_fingerprint_error() {
    let sc = scene();
    let path = ckpt_path("fingerprint");
    let _ = std::fs::remove_file(&path);
    let mut cfg = ft_cfg();
    cfg.checkpoint = Some(path.clone());
    run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg).expect("seed the checkpoint");

    // Same checkpoint, different config => different fingerprint.
    let mut other = cfg.clone();
    other.resume = true;
    other.dbim.iterations = ITERATIONS + 1;
    let err = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &other)
        .expect_err("mismatched fingerprint must refuse to resume");
    assert!(
        matches!(
            err,
            FaultError::Checkpoint(ffw_fault::CheckpointError::FingerprintMismatch { .. })
        ),
        "expected FingerprintMismatch, got {err}"
    );
    let _ = std::fs::remove_file(&path);
}

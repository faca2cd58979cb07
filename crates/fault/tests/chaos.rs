//! Chaos-test harness: small distributed phantom reconstructions under
//! seeded compute-fault schedules, stops and resumes.
//!
//! Every test drives the full fault-tolerant stack
//! (`ffw_dist::run_dbim_ft` over the `ffw_mpi` runtime) and asserts the
//! contract from the fault model:
//!
//! * a fault-free run matches the serial DBIM to near machine precision;
//! * a detected compute corruption — a panel that fails its checksum, or a
//!   reduction whose sum disagrees with its lane — relaunches the same grid
//!   within the relaunch budget and matches the fault-free run, or, with
//!   the budget spent, surfaces a typed [`FaultError`];
//! * a run stopped mid-flight resumes from its checkpoint bit-identically;
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

const GROUPS: usize = 2;
const SUBTREE: usize = 2;
const N_RANKS: usize = GROUPS * SUBTREE;
const ITERATIONS: usize = 3;
/// Tolerance the relaunch tests allow against the fault-free run: the
/// contract's floor. A relaunch reruns the same grid from the same state,
/// so it in fact lands bit for bit.
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
fn killed_then_resumed_run_is_bit_identical_to_uninterrupted() {
    let sc = scene();

    // Reference: an uninterrupted checkpointed run.
    let full_path = ckpt_path("full");
    let _ = std::fs::remove_file(&full_path);
    let mut full_cfg = verified_ft_cfg();
    full_cfg.checkpoint = Some(full_path.clone());
    let full = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &full_cfg)
        .expect("uninterrupted checkpointed run");

    // Kill the run mid-flight, after at least one checkpoint has been
    // written: a compute corruption with no relaunch budget ends it. Apply
    // counts are deterministic, so probe panels until one lands between
    // the first checkpoint write and run completion.
    let kill_path = ckpt_path("killed");
    let mut killed = false;
    for nth_apply in [8u64, 12, 16, 24, 32, 48, 64, 96, 128] {
        let _ = std::fs::remove_file(&kill_path);
        let mut cfg = verified_ft_cfg();
        cfg.checkpoint = Some(kill_path.clone());
        cfg.max_restarts = 0; // die instead of relaunching in-process
        cfg.fault_plan = Some(FaultPlan::new().corrupt_compute(1, nth_apply, 7, 55));
        let out = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg);
        if out.is_err() && kill_path.exists() {
            killed = true;
            break;
        }
    }
    assert!(killed, "no probed corruption site left a usable checkpoint");

    // Resume from the killed run's checkpoint, fault-free this time.
    let mut resume_cfg = verified_ft_cfg();
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
/// there is nothing local to recompute), the ranks waiting on it report it
/// dead, and the driver relaunches the same grid — nothing lost, no silent
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
/// composed with a flip on another rank. The contract is the fault
/// model's: every run returns (no hang, no unwrap panic), a detected
/// corruption never silently survives into an Ok result, and a run without
/// a relaunch is bit-identical.
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

/// A bit flipped inside a reduction, after its checksum lane was folded,
/// reaches the ranks the root sends the sum to. Their lane check fails with
/// a `ComputeCorruption` naming the root, and the driver relaunches the
/// grid within its budget and lands on the clean run bit for bit; with no
/// budget left the run is a typed error that names the lane.
#[test]
fn a_reduction_lane_mismatch_relaunches_within_the_budget() {
    let sc = scene();
    let clean = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &ft_cfg())
        .expect("fault-free run");
    let mut cfg = ft_cfg();
    cfg.fault_plan = Some(FaultPlan::new().corrupt_reduction(0, 3));
    let r = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect("the relaunch must finish");
    assert_eq!(r.restarts, 1, "the lane mismatch must cost one relaunch");
    assert_eq!(clean.object, r.object);
    assert_eq!(clean.residual_history, r.residual_history);

    cfg.max_restarts = 0;
    let err = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect_err("no relaunch budget: the corruption must surface");
    match &err {
        FaultError::Unrecoverable { detail } => {
            assert!(
                detail.contains("rank 0") && detail.contains("mpi.lane"),
                "{detail}"
            )
        }
        other => panic!("expected Unrecoverable, got {other}"),
    }
}

/// With no relaunch budget a detected panel corruption is a typed error,
/// not a hang.
#[test]
fn compute_corruption_with_no_restart_budget_is_a_typed_error_not_a_hang() {
    let sc = scene();
    let mut cfg = verified_ft_cfg();
    cfg.max_restarts = 0;
    cfg.fault_plan = Some(FaultPlan::new().corrupt_compute(0, 5, 7, 55));
    let err = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect_err("no restart budget: the corruption must surface");
    assert!(
        matches!(err, FaultError::Unrecoverable { .. }),
        "expected Unrecoverable, got {err}"
    );
}

/// A checkpoint written after a run dropped transmitters holds a state no
/// run of this build can continue: the resume is refused, typed.
#[test]
fn resume_from_a_checkpoint_that_dropped_transmitters_is_refused() {
    let sc = scene();
    let path = ckpt_path("dropped");
    let _ = std::fs::remove_file(&path);
    let mut cfg = ft_cfg();
    cfg.checkpoint = Some(path.clone());
    run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg).expect("seed the checkpoint");
    let fingerprint =
        ffw_dist::run_fingerprint(&sc.setup, &cfg.dbim, GROUPS, SUBTREE, &sc.measured);
    let mut ckpt = ffw_fault::Checkpoint::load(&path, fingerprint).expect("load");
    ckpt.lost_txs = vec![2, 3];
    ckpt.save(&path).expect("rewrite");

    cfg.resume = true;
    let err = run_dbim_ft(&sc.setup, Arc::clone(&sc.plan), &sc.measured, &cfg)
        .expect_err("a dropped-transmitter checkpoint must refuse to resume");
    match &err {
        FaultError::Unrecoverable { detail } => {
            assert!(detail.contains("[2, 3]"), "{detail}")
        }
        other => panic!("expected Unrecoverable, got {other}"),
    }
    let _ = std::fs::remove_file(&path);
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

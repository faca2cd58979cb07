//! Reconstruction-quality integration tests: the claims behind the paper's
//! Figs. 1–2 (multiple scattering beats single scattering) and the behaviour
//! of the optimizer variants, at sizes small enough for CI.

use ffw::geometry::Point2;
use ffw::inverse::{add_noise, BornConfig, DbimConfig};
use ffw::mlfma::Accuracy;
use ffw::phantom::{image_rel_error, Annulus, Phantom};
use ffw::solver::VerifyConfig;
use ffw::tomo::{Reconstruction, SceneConfig};

fn scene() -> (Reconstruction, Annulus, Vec<f64>) {
    let scene = SceneConfig {
        accuracy: Accuracy::low(),
        ..SceneConfig::new(32, 8, 16)
    };
    let recon = Reconstruction::new(&scene);
    let d = recon.domain().side();
    let truth = Annulus {
        center: Point2::ZERO,
        inner: 0.18 * d,
        outer: 0.30 * d,
        contrast: 0.3,
    };
    let raster = truth.rasterize(recon.domain());
    (recon, truth, raster)
}

#[test]
fn dbim_beats_born_at_high_contrast() {
    let (recon, truth, truth_raster) = scene();
    let measured = recon.synthesize(&truth);
    let dbim = recon.run_dbim(&measured, 8).expect("dbim");
    let dbim_err = image_rel_error(&recon.image(&dbim.object), &truth_raster);
    let born = recon.run_born(&measured, &BornConfig::default());
    let born_err = image_rel_error(&recon.image(&born.object), &truth_raster);
    assert!(
        dbim_err < 0.9 * born_err,
        "multiple scattering must win: DBIM {dbim_err:.3} vs Born {born_err:.3}"
    );
}

#[test]
fn residual_history_is_monotinically_decreasing_overall() {
    let (recon, truth, _) = scene();
    let measured = recon.synthesize(&truth);
    let result = recon.run_dbim(&measured, 6).expect("dbim");
    let first = result.history.first().expect("history").rel_residual;
    let last = result.final_residual;
    assert!(last < 0.3 * first, "{first} -> {last}");
    // each recorded residual should not exceed the initial one
    for h in &result.history {
        assert!(h.rel_residual <= first * 1.0001);
    }
}

#[test]
fn conjugate_directions_converge_no_slower_than_steepest_descent() {
    let (recon, truth, _) = scene();
    let measured = recon.synthesize(&truth);
    let cg = recon
        .run_dbim_with(
            &measured,
            &DbimConfig {
                iterations: 6,
                ..Default::default()
            },
        )
        .expect("dbim");
    let sd = recon
        .run_dbim_with(
            &measured,
            &DbimConfig {
                iterations: 6,
                conjugate: false,
                ..Default::default()
            },
        )
        .expect("dbim");
    assert!(
        cg.final_residual <= sd.final_residual * 1.05,
        "CG {} vs SD {}",
        cg.final_residual,
        sd.final_residual
    );
}

/// Batching is scheduling, not arithmetic: one transmitter per solve, four,
/// or all of them give the bit-equal object, with compute verification on
/// and off (there is one BiCGStab kernel and a
/// single system is its width-1 panel, so no mode has a path of its own).
#[test]
fn batch_width_never_changes_the_object() {
    let (recon, truth, _) = scene();
    let measured = recon.synthesize(&truth);
    let n_tx = measured.len();
    for verify in [
        None,
        Some(VerifyConfig::with_rel_tol(
            recon.plan.accuracy.checksum_rel_tol(),
        )),
    ] {
        let run = |batch: usize| {
            let cfg = DbimConfig {
                iterations: 2,
                batch: Some(batch),
                verify: verify.clone(),
                ..Default::default()
            };
            recon.run_dbim_with(&measured, &cfg).expect("dbim")
        };
        let one = run(1);
        for batch in [4, n_tx] {
            let r = run(batch);
            let mode = verify.is_some();
            assert_eq!(r.object, one.object, "batch {batch}, verify {mode}");
            assert_eq!(r.final_residual, one.final_residual, "verify {mode}");
        }
    }
}

#[test]
fn positivity_projection_never_produces_negative_contrast() {
    let (recon, truth, _) = scene();
    let measured = recon.synthesize(&truth);
    let result = recon
        .run_dbim_with(
            &measured,
            &DbimConfig {
                iterations: 4,
                positivity: true,
                ..Default::default()
            },
        )
        .expect("dbim");
    let image = recon.image(&result.object);
    assert!(image.iter().all(|&v| v >= 0.0));
}

#[test]
fn noise_degrades_gracefully() {
    let (recon, truth, truth_raster) = scene();
    let clean = recon.synthesize(&truth);
    let clean_result = recon.run_dbim(&clean, 5).expect("dbim");
    let clean_err = image_rel_error(&recon.image(&clean_result.object), &truth_raster);
    let mut noisy = clean.clone();
    add_noise(&mut noisy, 20.0, 11);
    let noisy_result = recon.run_dbim(&noisy, 5).expect("dbim");
    let noisy_err = image_rel_error(&recon.image(&noisy_result.object), &truth_raster);
    assert!(noisy_err >= clean_err * 0.9, "noise cannot help much");
    assert!(
        noisy_err < 2.5 * clean_err + 0.3,
        "but must not destroy the image: {noisy_err} vs {clean_err}"
    );
}

#[test]
fn warm_start_reduces_total_bicgstab_iterations() {
    let (recon, truth, _) = scene();
    let measured = recon.synthesize(&truth);
    let warm = recon
        .run_dbim_with(
            &measured,
            &DbimConfig {
                iterations: 5,
                ..Default::default()
            },
        )
        .expect("dbim");
    let cold = recon
        .run_dbim_with(
            &measured,
            &DbimConfig {
                iterations: 5,
                warm_start: false,
                ..Default::default()
            },
        )
        .expect("dbim");
    let warm_iters: usize = warm.history.iter().map(|h| h.solver_iters).sum();
    let cold_iters: usize = cold.history.iter().map(|h| h.solver_iters).sum();
    assert!(
        warm_iters < cold_iters,
        "warm start saves iterations: {warm_iters} vs {cold_iters}"
    );
}

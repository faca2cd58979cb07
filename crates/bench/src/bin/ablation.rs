//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! * nonlinear conjugate gradients vs naive steepest descent (paper
//!   Section VI-B: "the steepest-descent iterations with (5) are naive");
//! * warm-starting forward solves from the previous iteration's fields;
//! * the BiCGStab tolerance choice (paper Section V-B: 1e-4);
//! * Tikhonov regularization under measurement noise (extension).

use ffw_bench::{print_table, write_json, Args};
use ffw_geometry::Point2;
use ffw_inverse::{add_noise, DbimConfig, Regularizer};
use ffw_obs::Stopwatch;
use ffw_phantom::{image_rel_error, Annulus, Phantom};
use ffw_solver::IterConfig;
use ffw_tomo::{Reconstruction, SceneConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    variant: String,
    image_error: f64,
    final_residual: f64,
    solver_iters: usize,
    seconds: f64,
}

fn main() {
    let args = Args::parse();
    let (px, n_tx, n_rx, iters) = if args.quick {
        (32, 8, 16, 5)
    } else {
        (64, 16, 32, 10)
    };
    let scene = SceneConfig::new(px, n_tx, n_rx);
    let recon = Reconstruction::new(&scene);
    let d = recon.domain().side();
    let truth = Annulus {
        center: Point2::ZERO,
        inner: 0.18 * d,
        outer: 0.30 * d,
        contrast: 0.2,
    };
    let truth_raster = truth.rasterize(recon.domain());
    let measured = recon.synthesize(&truth);

    let base = DbimConfig {
        iterations: iters,
        ..Default::default()
    };
    let variants: Vec<(&str, DbimConfig)> = vec![
        ("baseline (CG + warm start)", base.clone()),
        (
            "steepest descent",
            DbimConfig {
                conjugate: false,
                ..base.clone()
            },
        ),
        (
            "no warm start",
            DbimConfig {
                warm_start: false,
                ..base.clone()
            },
        ),
        (
            "forward tol 1e-2 (sloppy)",
            DbimConfig {
                forward: IterConfig {
                    tol: 1e-2,
                    max_iters: 1000,
                },
                ..base.clone()
            },
        ),
        (
            "forward tol 1e-6 (tight)",
            DbimConfig {
                forward: IterConfig {
                    tol: 1e-6,
                    max_iters: 2000,
                },
                ..base.clone()
            },
        ),
        (
            "positivity projection",
            DbimConfig {
                positivity: true,
                ..base.clone()
            },
        ),
    ];
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (name, cfg) in &variants {
        let t0 = Stopwatch::start();
        let result = recon.run_dbim_with(&measured, cfg).expect("dbim");
        let secs = t0.elapsed().as_secs_f64();
        let err = image_rel_error(&recon.image(&result.object), &truth_raster);
        let bicgs: usize = result.history.iter().map(|h| h.solver_iters).sum();
        rows.push(vec![
            name.to_string(),
            format!("{err:.3}"),
            format!("{:.2}%", 100.0 * result.final_residual),
            bicgs.to_string(),
            format!("{secs:.1}"),
        ]);
        records.push(Row {
            variant: name.to_string(),
            image_error: err,
            final_residual: result.final_residual,
            solver_iters: bicgs,
            seconds: secs,
        });
    }
    print_table(
        &format!("DBIM design ablations (annulus, contrast 0.2, {px}x{px} px, {iters} iterations)"),
        &["variant", "img err", "residual", "solver iters", "s"],
        &rows,
    );

    // --- noise + Tikhonov ---
    let mut noisy = measured.clone();
    add_noise(&mut noisy, 20.0, 7);
    let data_norm2: f64 = measured
        .iter()
        .flat_map(|m| m.iter())
        .map(|v| v.norm_sqr())
        .sum();
    let mut rows = Vec::new();
    for (name, lam_rel) in [
        ("noisy, no regularization", 0.0),
        ("noisy, Tikhonov 1e-7 rel", 1e-7),
        ("noisy, Tikhonov 1e-6 rel", 1e-6),
    ] {
        let cfg = DbimConfig {
            regularizer: Regularizer::Tikhonov {
                lambda: lam_rel * data_norm2,
            },
            ..base.clone()
        };
        let result = recon.run_dbim_with(&noisy, &cfg).expect("dbim");
        let err = image_rel_error(&recon.image(&result.object), &truth_raster);
        rows.push(vec![
            name.to_string(),
            format!("{err:.3}"),
            format!("{:.2}%", 100.0 * result.final_residual),
        ]);
        records.push(Row {
            variant: name.to_string(),
            image_error: err,
            final_residual: result.final_residual,
            solver_iters: 0,
            seconds: 0.0,
        });
    }
    print_table(
        "noise robustness (20 dB SNR measurements)",
        &["variant", "img err", "residual"],
        &rows,
    );
    println!("finding: at this scale the paper's early-termination regularization already");
    println!("controls the noise; Tikhonov is neutral at small weights and hurts at large.");
    write_json("ablation", &records).expect("write results");
}

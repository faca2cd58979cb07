//! Differential cross-validation of the two forward backends.
//!
//! The Krylov (BiCGStab) and Born-series (relaxed Richardson) engines solve
//! the same system `(I - G0 diag(O)) phi = phi_inc` by entirely different
//! routes, so agreement between them is strong evidence that *both* are
//! right: a sign error, a stale-operator bug, or a convergence-threshold
//! mixup in either engine shows up as a field mismatch far above the shared
//! tolerance. The suite sweeps phantoms (annulus, point scatterer, lossy
//! medium) × contrast levels × accuracy settings, checks full DBIM
//! reconstructions under both backends, and pins the typed admission error
//! for contrasts outside the Born-series convergence bound.
//!
//! The pinned 32×32 geometry has `||G0|| ≈ 0.20` and the phantom rasterizer
//! carries the `k0^2 ≈ 39.5` factor into the object, so `kappa ≈ 7.9 ×
//! contrast`: every contrast here up to 0.1 is admissible, and 0.15 is
//! provably outside the bound.

use ffw_geometry::{Domain, Point2, TransducerArray};
use ffw_inverse::{dbim, synthesize_measurements, DbimConfig, DbimError, ImagingSetup, MlfmaG0};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::C64;
use ffw_par::Pool;
use ffw_phantom::{object_from_contrast, Annulus, Cylinder, Phantom};
use ffw_solver::{
    estimate_g0_norm, make_backend, BackendChoice, BackendError, IterConfig, Workspace,
    NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED,
};
use std::sync::Arc;

/// One shared 32×32 imaging problem: geometry, G0 and the true object.
struct Problem {
    setup: ImagingSetup,
    g0: MlfmaG0,
    object: Vec<C64>,
}

/// The three phantom families the suite cross-validates on.
#[derive(Clone, Copy)]
enum Shape {
    /// Hollow ring — exercises interior multiple scattering.
    Annulus,
    /// Single isolated scatterer well under a wavelength across.
    Point,
    /// Absorbing cylinder: the object picks up an imaginary part, so the
    /// backends must agree on genuinely complex spectra, not just real ones.
    Lossy,
}

fn problem(shape: Shape, contrast: f64) -> Problem {
    let domain = Domain::new(32, 1.0);
    let ring = 2.0 * domain.side();
    let setup = ImagingSetup::new(
        domain.clone(),
        TransducerArray::ring(4, ring),
        TransducerArray::ring(8, ring),
    );
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(plan, Arc::new(Pool::new(2)))));
    let raster = match shape {
        Shape::Annulus => Annulus {
            center: Point2::ZERO,
            inner: 0.15 * domain.side(),
            outer: 0.28 * domain.side(),
            contrast,
        }
        .rasterize(&domain),
        Shape::Point => Cylinder {
            center: Point2 {
                x: 0.1 * domain.side(),
                y: -0.05 * domain.side(),
            },
            radius: 0.04 * domain.side(),
            contrast,
        }
        .rasterize(&domain),
        Shape::Lossy => Cylinder {
            center: Point2::ZERO,
            radius: 0.25 * domain.side(),
            contrast,
        }
        .rasterize(&domain),
    };
    let mut object = object_from_contrast(&domain, &setup.tree, &raster);
    if matches!(shape, Shape::Lossy) {
        // Absorption: rotate the contrast into the complex plane. |O| is
        // preserved up to the factor below, so admission margins carry over.
        let loss = C64::new(1.0, 0.35);
        for o in &mut object {
            *o *= loss;
        }
    }
    Problem { setup, g0, object }
}

fn rel_err(a: &[C64], b: &[C64]) -> f64 {
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).norm_sqr())
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
    num / den.max(1e-300)
}

/// Solves the forward system for every transmitter with both backends at
/// `cfg` and returns the worst relative field disagreement.
fn worst_field_gap(p: &Problem, cfg: IterConfig) -> f64 {
    let g0_norm = estimate_g0_norm(&p.g0, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED);
    let ws = Workspace::new();
    let krylov = make_backend(
        BackendChoice::Bicgstab,
        &p.g0,
        &p.object,
        0.0,
        None,
        None,
        &ws,
    )
    .expect("krylov");
    let born = make_backend(
        BackendChoice::BornSeries,
        &p.g0,
        &p.object,
        g0_norm,
        None,
        None,
        &ws,
    )
    .expect("born admission");
    let n = p.setup.n_pixels();
    let mut worst: f64 = 0.0;
    for t in 0..p.setup.n_tx() {
        let b = p.setup.incident(t);
        let mut xk = vec![C64::ZERO; n];
        let mut xb = vec![C64::ZERO; n];
        let sk = krylov.solve(b, &mut xk, cfg).expect("solve");
        let sb = born.solve(b, &mut xb, cfg).expect("solve");
        assert!(sk.converged, "krylov failed to converge (tx {t})");
        assert!(sb.converged, "born series failed to converge (tx {t})");
        worst = worst.max(rel_err(&xb, &xk));

        // Adjoint solves must agree too — the DBIM gradient is built on them.
        let mut zk = vec![C64::ZERO; n];
        let mut zb = vec![C64::ZERO; n];
        assert!(
            krylov
                .solve_adjoint(b, &mut zk, cfg)
                .expect("solve")
                .converged
        );
        assert!(
            born.solve_adjoint(b, &mut zb, cfg)
                .expect("solve")
                .converged
        );
        worst = worst.max(rel_err(&zb, &zk));
    }
    worst
}

/// Tentpole check: fields agree to 1e-10 across phantoms × contrasts ×
/// accuracy settings. The shared solve tolerance is two decades below the
/// agreement bar, so each engine's own truncation error cannot mask a
/// disagreement between them.
#[test]
fn backends_agree_on_forward_and_adjoint_fields() {
    let accuracies = [
        IterConfig {
            tol: 1e-12,
            max_iters: 2000,
        },
        IterConfig {
            tol: 1e-13,
            max_iters: 4000,
        },
    ];
    for shape in [Shape::Annulus, Shape::Point, Shape::Lossy] {
        for contrast in [0.01, 0.03, 0.06] {
            let p = problem(shape, contrast);
            for cfg in accuracies {
                let gap = worst_field_gap(&p, cfg);
                assert!(
                    gap <= 1e-10,
                    "field gap {gap:.3e} > 1e-10 (contrast {contrast}, tol {})",
                    cfg.tol
                );
            }
        }
    }
}

/// Full DBIM reconstructions under both backends agree to 1e-8. The outer
/// nonlinear iteration amplifies any forward-solve discrepancy through the
/// gradient, so this bounds the end-to-end effect of swapping engines.
#[test]
fn dbim_reconstructions_agree_across_backends() {
    let p = problem(Shape::Annulus, 0.03);
    let measured = synthesize_measurements(&p.setup, &p.g0, &p.object, Default::default());
    let run = |backend: BackendChoice| {
        let cfg = DbimConfig {
            iterations: 3,
            forward: IterConfig {
                tol: 1e-12,
                max_iters: 2000,
            },
            backend,
            ..Default::default()
        };
        dbim(&p.setup, &p.g0, &measured, &cfg).expect("dbim")
    };
    let krylov = run(BackendChoice::Bicgstab);
    let born = run(BackendChoice::BornSeries);
    let gap = rel_err(&born.object, &krylov.object);
    assert!(gap <= 1e-8, "reconstruction gap {gap:.3e} > 1e-8");
    // Identical solve structure: same number of forward-class solves and
    // the same measurement-residual trajectory shape.
    assert_eq!(born.forward_solves, krylov.forward_solves);
    assert!((born.final_residual - krylov.final_residual).abs() <= 1e-8);
}

/// Outside the convergence bound the Born-series backend must refuse at
/// build time with the typed error — never iterate and diverge.
#[test]
fn over_contrast_is_a_typed_admission_error() {
    let p = problem(Shape::Annulus, 0.15);
    let g0_norm = estimate_g0_norm(&p.g0, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED);
    let ws = Workspace::new();
    match make_backend(
        BackendChoice::BornSeries,
        &p.g0,
        &p.object,
        g0_norm,
        None,
        None,
        &ws,
    ) {
        Err(BackendError::ContrastTooHigh { kappa, limit }) => {
            assert!(kappa >= limit, "kappa {kappa} should exceed limit {limit}");
        }
        Ok(_) => panic!("contrast 0.15 must be rejected (kappa ≈ 1.2)"),
    }
    // The same object sails through the Krylov arm, which accepts any
    // contrast — the bound is a Born-series property, not a problem property.
    let krylov = BackendChoice::Bicgstab;
    assert!(make_backend(krylov, &p.g0, &p.object, 0.0, None, None, &ws).is_ok());
}

/// DBIM with an inadmissible contrast surfaces the same typed error through
/// [`DbimError::Backend`] instead of a panic or a silent divergence.
#[test]
fn dbim_propagates_the_admission_error() {
    let p = problem(Shape::Lossy, 0.3);
    let measured = synthesize_measurements(&p.setup, &p.g0, &p.object, Default::default());
    let cfg = DbimConfig {
        iterations: 8,
        backend: BackendChoice::BornSeries,
        ..Default::default()
    };
    // The *first* outer iteration starts from the zero background, which is
    // always admissible; the error can only fire once the object estimate
    // has grown toward the 0.3-contrast truth (kappa ≈ 2.5 at convergence,
    // crossing the 0.95 bound within the first few outer steps).
    match dbim(&p.setup, &p.g0, &measured, &cfg) {
        Err(DbimError::Backend(BackendError::ContrastTooHigh { .. })) => {}
        other => panic!("expected ContrastTooHigh, got {other:?}"),
    }
}

//! DBIM invariance harness: the metamorphic and determinism contracts of a
//! reconstruction, for the plain Tikhonov path and (`regularizer_suite!`)
//! for the other regularizer families:
//!
//! * thread-count bit-identity (1 vs 4 workers), scalar and batched — the
//!   worker count must not change a single bit;
//! * the residual history never rises above its starting point and ends
//!   well below it (the DBIM metamorphic invariant);
//! * warm-starting each transmitter's solve from its previous field never
//!   costs iterations over a cold start;
//! * determinism: two identical runs are bit-identical end to end.

use ffw_geometry::{Domain, Point2, TransducerArray};
use ffw_inverse::{
    dbim, synthesize_measurements, DbimConfig, DbimResult, ImagingSetup, MlfmaG0, Regularizer,
};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_par::Pool;
use ffw_phantom::{object_from_contrast, Cylinder, Phantom};
use std::sync::Arc;

/// Runs the pinned 32×32 workload on `threads` workers.
fn reconstruct(threads: usize, cfg_edit: &dyn Fn(&mut DbimConfig)) -> DbimResult {
    let domain = Domain::new(32, 1.0);
    let ring = 2.0 * domain.side();
    let setup = ImagingSetup::new(
        domain.clone(),
        TransducerArray::ring(4, ring),
        TransducerArray::ring(8, ring),
    );
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(
        plan,
        Arc::new(Pool::new(threads)),
    )));
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: 0.25 * domain.side(),
        contrast: 0.03,
    };
    let raster = truth.rasterize(&domain);
    let object = object_from_contrast(&domain, &setup.tree, &raster);
    let measured = synthesize_measurements(&setup, &g0, &object, Default::default());
    let mut cfg = DbimConfig {
        iterations: 3,
        ..Default::default()
    };
    cfg_edit(&mut cfg);
    dbim(&setup, &g0, &measured, &cfg).expect("dbim")
}

fn assert_bit_identical(a: &DbimResult, b: &DbimResult, what: &str) {
    assert_eq!(a.object, b.object, "{what}: object drifted");
    assert_eq!(
        a.final_residual.to_bits(),
        b.final_residual.to_bits(),
        "{what}: residual drifted"
    );
    assert_eq!(a.forward_solves, b.forward_solves, "{what}: solve count");
    assert_eq!(a.g0_applies, b.g0_applies, "{what}: matvec count");
    assert_eq!(a.lambdas.len(), b.lambdas.len(), "{what}: lambda trace len");
    for (la, lb) in a.lambdas.iter().zip(&b.lambdas) {
        assert_eq!(la.to_bits(), lb.to_bits(), "{what}: chosen lambda drifted");
    }
    for (ha, hb) in a.history.iter().zip(&b.history) {
        assert_eq!(ha.solver_iters, hb.solver_iters, "{what}: iter trace");
        assert_eq!(
            ha.rel_residual.to_bits(),
            hb.rel_residual.to_bits(),
            "{what}: residual trace"
        );
    }
}

#[test]
fn reconstruction_is_bit_identical_across_thread_counts() {
    let base = reconstruct(1, &|_| {});
    let other = reconstruct(4, &|_| {});
    assert_bit_identical(&other, &base, "1 vs 4 threads");
}

#[test]
fn batched_reconstruction_is_bit_identical_across_thread_counts() {
    // batch 3 does not divide the transmitter count, so panel
    // tails and odd (cluster × rhs) splits are exercised.
    let base = reconstruct(1, &|c| c.batch = Some(3));
    let other = reconstruct(4, &|c| c.batch = Some(3));
    assert_bit_identical(&other, &base, "batched 1 vs 4 threads");
}

#[test]
fn repeated_runs_are_bit_identical() {
    let a = reconstruct(2, &|_| {});
    let b = reconstruct(2, &|_| {});
    assert_bit_identical(&a, &b, "repeat run");
}

#[test]
fn residual_history_never_rises_and_ends_low() {
    let r = reconstruct(2, &|c| c.iterations = 5);
    let first = r.history.first().expect("history").rel_residual;
    assert!(
        r.final_residual < 0.3 * first,
        "{first} -> {}",
        r.final_residual
    );
    for h in &r.history {
        assert!(h.rel_residual <= first * 1.0001);
    }
}

#[test]
fn warm_start_never_costs_iterations() {
    let warm = reconstruct(2, &|c| c.iterations = 4);
    let cold = reconstruct(2, &|c| {
        c.iterations = 4;
        c.warm_start = false;
    });
    let wi: usize = warm.history.iter().map(|h| h.solver_iters).sum();
    let ci: usize = cold.history.iter().map(|h| h.solver_iters).sum();
    assert!(wi <= ci, "warm {wi} vs cold {ci}");
}

/// The same determinism contracts, parameterized over the regularizer seam:
/// the hybrid-projection wGCV-LSQR linear step and the seeded-smoothness
/// spatial prior must be exactly as thread-invariant, repeatable, and
/// warm-start-friendly as the plain Tikhonov path.
macro_rules! regularizer_suite {
    ($name:ident, $reg:expr) => {
        mod $name {
            use super::*;

            fn with_reg(threads: usize, cfg_edit: &dyn Fn(&mut DbimConfig)) -> DbimResult {
                reconstruct(threads, &|c| {
                    c.regularizer = $reg;
                    cfg_edit(c);
                })
            }

            #[test]
            fn reconstruction_is_bit_identical_across_thread_counts() {
                let base = with_reg(1, &|_| {});
                let other = with_reg(4, &|_| {});
                assert_bit_identical(&other, &base, "regularized 1 vs 4 threads");
            }

            #[test]
            fn repeated_runs_are_bit_identical() {
                let a = with_reg(2, &|_| {});
                let b = with_reg(2, &|_| {});
                assert_bit_identical(&a, &b, "regularized repeat run");
            }

            #[test]
            fn warm_start_never_costs_iterations() {
                let warm = with_reg(2, &|c| c.iterations = 4);
                let cold = with_reg(2, &|c| {
                    c.iterations = 4;
                    c.warm_start = false;
                });
                let wi: usize = warm.history.iter().map(|h| h.solver_iters).sum();
                let ci: usize = cold.history.iter().map(|h| h.solver_iters).sum();
                assert!(wi <= ci, "warm {wi} vs cold {ci}");
            }

            #[test]
            fn residual_still_decreases() {
                let r = with_reg(2, &|_| {});
                let first = r.history.first().expect("history").rel_residual;
                assert!(
                    r.final_residual < first,
                    "regularized run must still make progress: {first} -> {}",
                    r.final_residual
                );
            }
        }
    };
}

regularizer_suite!(
    wgcv_lsqr,
    Regularizer::WgcvLsqr {
        steps: 4,
        omega: 0.8
    }
);
regularizer_suite!(smoothness, Regularizer::Smoothness { lambda: 1e-3 });

/// wGCV must actually record one chosen lambda per outer iteration, and the
/// non-adaptive paths must record none.
#[test]
fn lambda_trace_shape_matches_regularizer() {
    let wgcv = reconstruct(2, &|c| {
        c.regularizer = Regularizer::WgcvLsqr {
            steps: 4,
            omega: 0.8,
        }
    });
    assert_eq!(wgcv.lambdas.len(), wgcv.history.len());
    assert!(wgcv.lambdas.iter().all(|l| l.is_finite() && *l >= 0.0));
    let tik = reconstruct(2, &|_| {});
    assert!(tik.lambdas.is_empty());
}

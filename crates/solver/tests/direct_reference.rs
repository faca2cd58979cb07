//! The forward engine against a reference that shares nothing with it.
//!
//! `I - G0 diag(O)` is assembled densely from the Green's kernel (32 x 32 =
//! 1 024 unknowns) and solved, with its Hermitian transpose, by LU
//! factorization: no Krylov recurrence, no MLFMA, no `ScatteringOp`, no
//! conjugation trick. [`BicgstabBackend`] must reproduce those fields
//!
//! * on the dense `G0` to the solve tolerance — forward and adjoint, panel
//!   widths 1 and 4 — which checks the recurrence and the two scattering
//!   operators, and
//! * on the MLFMA `G0` to the accuracy the plan was built for, which checks
//!   the operator the reconstructions actually run on,
//!
//! for three phantom families x three contrasts. At the highest contrast
//! (0.2) `||G0|| max|O| ~ 1.6`: the Neumann expansion of the inverse
//! diverges there, so nothing short of a real solve passes.

use ffw_geometry::{Domain, Point2, TransducerArray};
use ffw_greens::{assemble_g0, tree_positions, Kernel};
use ffw_inverse::{ImagingSetup, MlfmaG0};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::linalg::Matrix;
use ffw_numerics::lu::LuFactors;
use ffw_numerics::vecops::rel_diff;
use ffw_numerics::C64;
use ffw_par::Pool;
use ffw_phantom::{object_from_contrast, Annulus, Cylinder, Phantom};
use ffw_solver::{BicgstabBackend, BlockLinOp, IterConfig, Workspace};
use std::sync::Arc;

/// The three phantom families the suite checks.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Hollow ring — exercises interior multiple scattering.
    Annulus,
    /// Single isolated scatterer well under a wavelength across.
    Point,
    /// Absorbing cylinder: the object picks up an imaginary part, so the
    /// adjoint system is genuinely different from the transposed one.
    Lossy,
}

fn object_of(shape: Shape, contrast: f64, setup: &ImagingSetup) -> Vec<C64> {
    let domain = &setup.domain;
    let raster = match shape {
        Shape::Annulus => Annulus {
            center: Point2::ZERO,
            inner: 0.15 * domain.side(),
            outer: 0.28 * domain.side(),
            contrast,
        }
        .rasterize(domain),
        Shape::Point => Cylinder {
            center: Point2 {
                x: 0.1 * domain.side(),
                y: -0.05 * domain.side(),
            },
            radius: 0.04 * domain.side(),
            contrast,
        }
        .rasterize(domain),
        Shape::Lossy => Cylinder {
            center: Point2::ZERO,
            radius: 0.25 * domain.side(),
            contrast,
        }
        .rasterize(domain),
    };
    let mut object = object_from_contrast(domain, &setup.tree, &raster);
    if matches!(shape, Shape::Lossy) {
        let loss = C64::new(1.0, 0.35);
        for o in &mut object {
            *o *= loss;
        }
    }
    object
}

/// Solves every transmitter's forward and adjoint system on `g0` through the
/// engine, `width` columns at a time, and returns the worst relative
/// distance to the reference fields.
fn worst_gap<G: BlockLinOp>(
    g0: &G,
    object: &[C64],
    incs: &[&[C64]],
    reference: &(Vec<Vec<C64>>, Vec<Vec<C64>>),
    width: usize,
    cfg: IterConfig,
) -> f64 {
    let ws = Workspace::new();
    let engine = BicgstabBackend::new(g0, object, None, None, &ws);
    let mut worst = 0.0f64;
    for (t0, chunk) in incs.chunks(width).enumerate() {
        let mut xs = vec![vec![C64::ZERO; object.len()]; chunk.len()];
        let mut zs = xs.clone();
        let fwd = engine.solve_block(chunk, &mut xs, cfg).expect("forward");
        let adj = engine
            .solve_adjoint_block(chunk, &mut zs, cfg)
            .expect("adjoint");
        assert!(
            fwd.iter().chain(&adj).all(|s| s.converged),
            "{fwd:?} {adj:?}"
        );
        for (k, (x, z)) in xs.iter().zip(&zs).enumerate() {
            let t = t0 * width + k;
            worst = worst
                .max(rel_diff(x, &reference.0[t]))
                .max(rel_diff(z, &reference.1[t]));
        }
    }
    worst
}

#[test]
fn the_engine_reproduces_the_lu_fields_on_dense_and_mlfma_g0() {
    let domain = Domain::new(32, 1.0);
    let ring = 2.0 * domain.side();
    let setup = ImagingSetup::new(
        domain.clone(),
        TransducerArray::ring(4, ring),
        TransducerArray::ring(8, ring),
    );
    let n = setup.n_pixels();
    let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
    let dense = assemble_g0(&kernel, &tree_positions(&domain, &setup.tree));
    let pool = Arc::new(Pool::new(2));
    // (plan accuracy, bound on the distance to LU): 4x the worst gap measured
    // over the sweep below (6.4e-9 and 4.9e-9, both at the annulus, contrast
    // 0.2) — far inside the 1e-4 that `mlfma_and_dense_forward_agree` allows
    // against a dense Krylov solve.
    let mlfma = [(Accuracy::default(), 2.6e-8), (Accuracy::high(), 2e-8)].map(|(acc, bound)| {
        let plan = Arc::new(MlfmaPlan::new(&domain, acc));
        (
            MlfmaG0(Arc::new(MlfmaEngine::new(plan, Arc::clone(&pool)))),
            bound,
        )
    });
    let incs: Vec<&[C64]> = (0..setup.n_tx()).map(|t| setup.incident(t)).collect();
    let tight = IterConfig {
        tol: 1e-11,
        max_iters: 2000,
    };

    for shape in [Shape::Annulus, Shape::Point, Shape::Lossy] {
        for contrast in [0.01, 0.06, 0.2] {
            let object = object_of(shape, contrast, &setup);
            // One factorization of A and one of A^H per (shape, contrast),
            // shared by every transmitter, width and operator below.
            let a = Matrix::from_fn(n, n, |r, c| {
                let v = -(dense.at(r, c) * object[c]);
                if r == c {
                    v + C64::ONE
                } else {
                    v
                }
            });
            let lu = LuFactors::new(&a).expect("A is regular");
            let lu_h = LuFactors::new(&a.adjoint()).expect("A^H is regular");
            let reference = (
                incs.iter().map(|b| lu.solve(b)).collect(),
                incs.iter().map(|b| lu_h.solve(b)).collect(),
            );
            for width in [1, 4] {
                let gap = worst_gap(&dense, &object, &incs, &reference, width, tight);
                assert!(
                    gap <= 1e-9,
                    "{shape:?} {contrast}: dense G0, width {width}: {gap:.3e} from LU"
                );
            }
            for (g0, bound) in &mlfma {
                let gap = worst_gap(g0, &object, &incs, &reference, 4, tight);
                assert!(
                    gap <= *bound,
                    "{shape:?} {contrast}: MLFMA G0: {gap:.3e} from LU (bound {bound:.1e})"
                );
            }
        }
    }
}

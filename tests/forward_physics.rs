//! Physics validation: the discretized forward solver (volume integral
//! equation + BiCGStab + MLFMA) must reproduce the analytic Mie-series
//! solution for plane-wave scattering off a homogeneous dielectric cylinder.

use ffw::geometry::Domain;
use ffw::greens::{incident_plane_wave, tree_positions, Kernel, MieCylinder};
use ffw::inverse::MlfmaG0;
use ffw::mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw::numerics::vecops::rel_diff;
use ffw::numerics::C64;
use ffw::par::Pool;
use ffw::phantom::{object_from_contrast, Cylinder, Phantom};
use ffw::solver::{BicgstabBackend, DistOp, IterConfig, SolveStats, Workspace};
use std::convert::Infallible;
use std::sync::Arc;

/// `A phi = phi_inc` from zero through the engine every reconstruction
/// solves with.
fn forward_field<G: DistOp<Error = Infallible>>(
    g0: &G,
    object: &[C64],
    phi_inc: &[C64],
    cfg: IterConfig,
) -> (Vec<C64>, SolveStats) {
    let ws = Workspace::new();
    let mut phi = vec![vec![C64::ZERO; object.len()]];
    let engine = BicgstabBackend::new(g0, object, None, &ws);
    let stats = engine.solve_block(&[phi_inc], &mut phi, cfg);
    (phi.remove(0), stats.expect("no breakdown").remove(0))
}

/// Total internal field vs the Mie series, moderate contrast.
#[test]
fn forward_solver_matches_mie_series() {
    let domain = Domain::new(64, 1.0); // 6.4 lambda
    let tree = ffw::geometry::QuadTree::new(&domain);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let engine = MlfmaG0(Arc::new(MlfmaEngine::new(plan, Arc::new(Pool::new(2)))));

    let radius = 1.2; // 1.2 lambda cylinder
    let contrast = 0.3;
    let cyl = Cylinder {
        center: ffw::geometry::Point2::ZERO,
        radius,
        contrast,
    };
    let object = object_from_contrast(&domain, &tree, &cyl.rasterize(&domain));

    let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
    let positions = tree_positions(&domain, &tree);
    let phi_inc = incident_plane_wave(&kernel, 0.0, &positions);

    let (phi, stats) = forward_field(
        &engine,
        &object,
        &phi_inc,
        IterConfig {
            tol: 1e-8,
            max_iters: 2000,
        },
    );
    assert!(stats.converged, "{stats:?}");

    // Compare against the analytic series away from the material boundary
    // (the staircased pixel boundary is the discretization's weak spot).
    let mie = MieCylinder::new(domain.k0(), radius, contrast);
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    let mut checked = 0usize;
    for (i, p) in positions.iter().enumerate() {
        let r = p.norm();
        if (r - radius).abs() > 0.2 {
            let exact = mie.total_field(*p);
            num += (phi[i] - exact).norm_sqr();
            den += exact.norm_sqr();
            checked += 1;
        }
    }
    let err = (num / den).sqrt();
    assert!(checked > 2000, "enough pixels compared");
    // ~2% is the expected level for a staircased lambda/10 pixelization of a
    // curved high-contrast boundary; the error is discretization, not solver
    // (the solver residual above is 1e-8).
    assert!(
        err < 0.03,
        "field error vs Mie series: {err:.4} (lambda/10 discretization)"
    );
}

/// Weak scatterer: one Born term dominates, so BiCGStab converges in very few
/// iterations — the regime of the paper's Fig. 13 (0.02 contrast).
#[test]
fn weak_contrast_converges_in_few_iterations() {
    let domain = Domain::new(64, 1.0);
    let tree = ffw::geometry::QuadTree::new(&domain);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let engine = MlfmaG0(Arc::new(MlfmaEngine::new(plan, Arc::new(Pool::new(1)))));
    let cyl = Cylinder {
        center: ffw::geometry::Point2::ZERO,
        radius: 2.0,
        contrast: 0.02,
    };
    let object = object_from_contrast(&domain, &tree, &cyl.rasterize(&domain));
    let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
    let positions = tree_positions(&domain, &tree);
    let phi_inc = incident_plane_wave(&kernel, 0.5, &positions);
    let (_, stats) = forward_field(&engine, &object, &phi_inc, IterConfig::default());
    assert!(stats.converged);
    assert!(
        stats.iterations <= 10,
        "weak scatterer should converge fast: {stats:?}"
    );
}

/// The MLFMA-backed forward solution must agree with the dense-G0-backed one.
#[test]
fn mlfma_and_dense_forward_agree() {
    let domain = Domain::new(32, 1.0);
    let tree = ffw::geometry::QuadTree::new(&domain);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let engine = MlfmaG0(Arc::new(MlfmaEngine::new(plan, Arc::new(Pool::new(2)))));
    let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
    let positions = tree_positions(&domain, &tree);
    let dense = ffw::greens::assemble_g0(&kernel, &positions);

    let cyl = Cylinder {
        center: ffw::geometry::pt(0.3, -0.2),
        radius: 0.9,
        contrast: 0.25,
    };
    let object = object_from_contrast(&domain, &tree, &cyl.rasterize(&domain));
    let phi_inc = incident_plane_wave(&kernel, 1.1, &positions);
    let cfg = IterConfig {
        tol: 1e-9,
        max_iters: 1000,
    };
    let (phi_fast, s1) = forward_field(&engine, &object, &phi_inc, cfg);
    let (phi_dense, s2) = forward_field(&dense, &object, &phi_inc, cfg);
    assert!(s1.converged && s2.converged);
    let err = rel_diff(&phi_fast, &phi_dense);
    assert!(err < 1e-4, "MLFMA vs dense forward solution: {err:e}");
}

/// The block-Toeplitz near field through both engines: the serial 64 x 64
/// `apply` against the direct `O(N^2)` product, and a 1 x 2 distributed
/// apply of the same plan against the serial one.
#[test]
fn near_field_operator_through_serial_and_distributed_engines() {
    let domain = Domain::new(64, 1.0);
    let tree = ffw::geometry::QuadTree::new(&domain);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let n = plan.n_pixels();
    let mut s = 12u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let x: Vec<C64> = (0..n).map(|_| ffw::numerics::c64(next(), next())).collect();

    let engine = MlfmaEngine::new(Arc::clone(&plan), Arc::new(Pool::new(2)));
    let mut y = vec![C64::ZERO; n];
    engine.apply(&x, &mut y);

    let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
    let positions = tree_positions(&domain, &tree);
    let mut y_direct = vec![C64::ZERO; n];
    ffw::greens::DirectG0::new(kernel, &positions).apply(&x, &mut y_direct);
    let err = rel_diff(&y, &y_direct);
    assert!(err < 1e-5, "MLFMA vs direct product: {err:e}");

    let per = n / 2;
    let (slices, _) = ffw::mpi::run(2, |comm| {
        let members: Vec<usize> = (0..comm.size()).collect();
        let lo = comm.rank() * per;
        let g0 = ffw::dist::DistMlfma::new(&comm, Arc::clone(&plan), members, true);
        let mut ys_local = [vec![C64::ZERO; per]];
        g0.try_apply_block(&[&x[lo..lo + per]], &mut ys_local)
            .expect("fault-free run");
        ys_local
    });
    let y_dist: Vec<C64> = slices.into_iter().flatten().flatten().collect();
    let gap = rel_diff(&y_dist, &y);
    assert!(gap <= 1e-10, "1 x 2 distributed vs serial apply: {gap:e}");
}

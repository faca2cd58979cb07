//! The paper's Section V-E consistency check, transplanted: where the paper
//! compares CPU and GPU executions ("the final images ... have a relative
//! difference norm of 7.15e-13"), we compare the serial solver against the
//! fully 2-D-parallel one (illumination groups x MLFMA sub-trees). The
//! parallel code path performs the same arithmetic through entirely different
//! schedules and communication, so agreement at ~1e-12 certifies both.

use ffw::dist::{run_dbim_ft, DistMlfma, FtConfig};
use ffw::geometry::{Domain, Point2, QuadTree, TransducerArray};
use ffw::inverse::{dbim, synthesize_measurements, DbimConfig, ImagingSetup, MlfmaG0};
use ffw::mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw::numerics::vecops::rel_diff;
use ffw::numerics::C64;
use ffw::par::Pool;
use ffw::phantom::{object_from_contrast, Cylinder, Phantom};
use ffw::solver::{try_bicgstab_block, BicgstabBackend, IterConfig, ScatteringOp, Workspace};
use std::sync::Arc;

fn scene() -> (Domain, QuadTree, Arc<MlfmaPlan>, ImagingSetup, Vec<C64>) {
    let domain = Domain::new(64, 1.0);
    let tree = QuadTree::new(&domain);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::low()));
    let ring = 2.0 * domain.side();
    let setup = ImagingSetup::new(
        domain.clone(),
        TransducerArray::ring(4, ring),
        TransducerArray::ring(12, ring),
    );
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: 1.6,
        contrast: 0.05,
    };
    let object = object_from_contrast(&domain, &tree, &truth.rasterize(&domain));
    (domain, tree, plan, setup, object)
}

#[test]
fn distributed_forward_solve_matches_serial() {
    let (_domain, _tree, plan, setup, object) = scene();
    let serial_engine = MlfmaG0(Arc::new(MlfmaEngine::new(
        Arc::clone(&plan),
        Arc::new(Pool::new(1)),
    )));
    let cfg = IterConfig {
        tol: 1e-8,
        max_iters: 500,
    };
    let mut phi_serial = vec![vec![C64::ZERO; object.len()]];
    let ws = Workspace::new();
    BicgstabBackend::new(&serial_engine, &object, None, &ws)
        .solve_block(&[setup.incident(0)], &mut phi_serial, cfg)
        .expect("serial solve");

    for n_ranks in [2usize, 4] {
        let per = object.len() / n_ranks;
        let plan2 = Arc::clone(&plan);
        let object2 = object.clone();
        let setup_ref = &setup;
        let (slices, _) = ffw::mpi::run(n_ranks, move |comm| {
            let members: Vec<usize> = (0..comm.size()).collect();
            let rank = comm.rank();
            let g0 = DistMlfma::new(&comm, Arc::clone(&plan2), members, true);
            let ws = Workspace::new();
            let a = ScatteringOp::new(&g0, &object2[rank * per..(rank + 1) * per], &ws);
            let inc = &setup_ref.incident(0)[rank * per..(rank + 1) * per];
            // one system is a panel of width 1
            let mut phi = vec![vec![C64::ZERO; per]];
            let stats = try_bicgstab_block(&a, &[inc], &mut phi, cfg, None, &ws)
                .expect("distributed solve");
            assert!(stats[0].converged);
            phi.remove(0)
        });
        let phi_dist: Vec<C64> = slices.into_iter().flatten().collect();
        let err = rel_diff(&phi_dist, &phi_serial[0]);
        assert!(err < 1e-7, "ranks={n_ranks}: {err:e}");
    }
}

#[test]
fn parallel_dbim_reproduces_serial_image() {
    let (_domain, _tree, plan, setup, object_true) = scene();
    let serial_engine = MlfmaG0(Arc::new(MlfmaEngine::new(
        Arc::clone(&plan),
        Arc::new(Pool::new(1)),
    )));
    let measured =
        synthesize_measurements(&setup, &serial_engine, &object_true, Default::default());
    let cfg = DbimConfig {
        iterations: 3,
        ..Default::default()
    };
    let serial = dbim(&setup, &serial_engine, &measured, &cfg).expect("serial dbim");

    // 4 ranks = 2 illumination groups x 2 sub-tree slots.
    let ft = FtConfig {
        dbim: cfg,
        ..FtConfig::new(2, 2)
    };
    let parallel = run_dbim_ft(&setup, plan, &measured, &ft).expect("2x2 dbim");
    let err = rel_diff(&parallel.object, &serial.object);
    assert!(
        err < 1e-10,
        "serial vs 2-D-parallel DBIM image difference: {err:e}"
    );
    // Residual histories must agree too.
    assert_eq!(parallel.residual_history.len(), serial.history.len());
    for (a, b) in parallel
        .residual_history
        .iter()
        .zip(serial.history.iter().map(|h| h.rel_residual))
    {
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }
    assert!((parallel.final_residual - serial.final_residual).abs() < 1e-10);
}

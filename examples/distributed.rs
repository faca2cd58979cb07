//! Runs the fully two-dimensional parallel DBIM (illumination groups x MLFMA
//! sub-trees) on the in-process message-passing runtime and verifies it
//! against the serial solver — the paper's Fig. 6 decomposition end to end.
//!
//! ```sh
//! cargo run --release --example distributed
//! ```

use ffw::dist::{run_dbim_ft, FtConfig};
use ffw::geometry::{Domain, Point2, QuadTree, TransducerArray};
use ffw::inverse::{dbim, synthesize_measurements, DbimConfig, ImagingSetup, MlfmaG0};
use ffw::mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw::numerics::vecops::rel_diff;
use ffw::par::Pool;
use ffw::phantom::{object_from_contrast, Cylinder, Phantom};
use std::sync::Arc;

fn main() {
    let domain = Domain::new(64, 1.0);
    let tree = QuadTree::new(&domain);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let ring = 2.0 * domain.side();
    let setup = ImagingSetup::new(
        domain.clone(),
        TransducerArray::ring(8, ring),
        TransducerArray::ring(16, ring),
    );
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: 1.6,
        contrast: 0.05,
    };
    let object = object_from_contrast(&domain, &tree, &truth.rasterize(&domain));
    let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(
        Arc::clone(&plan),
        Arc::new(Pool::new(1)),
    )));
    let measured = synthesize_measurements(&setup, &g0, &object, Default::default());

    let cfg = DbimConfig {
        iterations: 5,
        ..Default::default()
    };
    let serial = dbim(&setup, &g0, &measured, &cfg).expect("serial dbim");
    println!(
        "serial DBIM: residual {:.2}% -> {:.2}%",
        100.0 * serial.history[0].rel_residual,
        100.0 * serial.final_residual
    );

    // the runtime publishes its per-launch message accounting through ffw-obs
    ffw_obs::set_enabled(true);
    let messages = ffw_obs::counter("mpi.messages.total");
    let bytes = ffw_obs::counter("mpi.bytes.total");
    for (groups, subtree) in [(4usize, 2usize), (2, 4)] {
        let (m0, b0) = (messages.get(), bytes.get());
        let ft = FtConfig {
            dbim: cfg.clone(),
            ..FtConfig::new(groups, subtree)
        };
        let parallel = run_dbim_ft(&setup, Arc::clone(&plan), &measured, &ft).expect("dbim");
        println!(
            "{groups} illumination groups x {subtree} sub-tree ranks: image diff vs serial {:.2e}, \
             {} messages / {} KiB exchanged",
            rel_diff(&parallel.object, &serial.object),
            messages.get() - m0,
            (bytes.get() - b0) / 1024,
        );
    }
    println!("(the paper's analogous CPU-vs-GPU consistency figure is 7.15e-13)");
}

//! Multi-frequency (frequency-hopping) DBIM: reconstruct a strong scatterer
//! by starting at half the frequency — where the cost functional is nearly
//! convex — and refining at the full frequency. A standard extension in the
//! paper's DBIM lineage (its refs. [6], [24]).
//!
//! ```sh
//! cargo run --release --example multifrequency
//! ```

use ffw::geometry::{Domain, Point2, QuadTree, TransducerArray};
use ffw::inverse::multifreq::stage_side;
use ffw::inverse::{
    multi_frequency_dbim, synthesize_measurements, DbimConfig, FrequencyHop, ImagingSetup, MlfmaG0,
};
use ffw::mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw::par::Pool;
use ffw::phantom::{
    contrast_from_object, image_rel_error, object_from_contrast, Cylinder, Phantom,
};
use std::sync::Arc;

fn stage(wavelength: f64, n_side: usize) -> (ImagingSetup, MlfmaG0) {
    // one physical domain, sized by n_side pixels of lambda/10 at the highest
    // frequency (1.0); each stage on the coarsest grid with that many pixels
    // per wavelength
    let n = stage_side(n_side, wavelength);
    let domain = Domain::with_pixel_size(n, wavelength, 0.1 * (n_side / n) as f64);
    let ring = 2.0 * domain.side();
    let setup = ImagingSetup::new(
        domain.clone(),
        TransducerArray::ring(12, ring),
        TransducerArray::ring(24, ring),
    );
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(plan, Arc::new(Pool::new(1)))));
    (setup, g0)
}

fn main() {
    let n_side = 64;
    let (setup_hi, g0_hi) = stage(1.0, n_side);
    let (setup_lo, g0_lo) = stage(2.0, n_side);
    let domain = setup_hi.domain.clone();
    let tree = QuadTree::new(&domain);
    let truth = Cylinder {
        center: Point2::ZERO,
        radius: 0.3 * domain.side(),
        contrast: 0.3,
    };
    let truth_raster = truth.rasterize(&domain);
    let obj_hi = object_from_contrast(&domain, &tree, &truth_raster);
    let obj_lo = object_from_contrast(
        &setup_lo.domain,
        &setup_lo.tree,
        &truth.rasterize(&setup_lo.domain),
    );
    let mea_hi = synthesize_measurements(&setup_hi, &g0_hi, &obj_hi, Default::default());
    let mea_lo = synthesize_measurements(&setup_lo, &g0_lo, &obj_lo, Default::default());

    let base = DbimConfig::default();
    let single = multi_frequency_dbim(
        &[FrequencyHop {
            setup: &setup_hi,
            g0: &g0_hi,
            measured: &mea_hi,
            iterations: 12,
        }],
        &base,
    )
    .expect("single-stage dbim");
    let hop = multi_frequency_dbim(
        &[
            FrequencyHop {
                setup: &setup_lo,
                g0: &g0_lo,
                measured: &mea_lo,
                iterations: 6,
            },
            FrequencyHop {
                setup: &setup_hi,
                g0: &g0_hi,
                measured: &mea_hi,
                iterations: 6,
            },
        ],
        &base,
    )
    .expect("hop dbim");
    let err = |obj: &[ffw::numerics::C64]| {
        image_rel_error(&contrast_from_object(&domain, &tree, obj), &truth_raster)
    };
    println!(
        "contrast 0.3 cylinder, {n_side}x{n_side} px (low-frequency stage at {0}x{0}), \
         12 total DBIM iterations:",
        setup_lo.domain.n_side()
    );
    println!(
        "  single frequency:        image error {:.3}",
        err(&single.object)
    );
    println!(
        "  two-frequency hop:       image error {:.3}",
        err(&hop.object)
    );
    println!(
        "  hop stage residuals: low-freq {:.2}% -> high-freq {:.2}%",
        100.0 * hop.stages[0].final_residual,
        100.0 * hop.stages[1].final_residual
    );
}

//! A strong scatterer under the default configuration: compute verification
//! on, a two-stage hop schedule, contrast 1.0. Such an input leaves output
//! elements far below the panel's largest, where the checksum residual of
//! `G0`'s global sums is rounding of the largest terms, not corruption;
//! the run must verify clean and give one reconstruction at every batch
//! width.

use ffw::dist::FtConfig;
use ffw::geometry::Point2;
use ffw::inverse::DbimConfig;
use ffw::phantom::{image_rel_error, Annulus, Phantom};
use ffw::solver::VerifyConfig;
use ffw::tomo::{reconstruct, synthesize_noisy, HopPipeline, HopSchedule, SceneConfig};

/// `ffw-reconstruct --size 64 --tx 16 --rx 32 --phantom annulus --contrast
/// 1.0 --hops 2.0,1.0 --iterations 12 --batch B`: before the checksum
/// tolerance took the window's peak scale into account, width 8 escalated
/// a clean panel ("persisted after 4 attempts") and exited 4.
#[test]
fn a_contrast_one_annulus_verifies_clean_at_every_batch_width() {
    let scene = SceneConfig::new(64, 16, 32);
    let schedule: HopSchedule = "2.0,1.0".parse().expect("schedule");
    let pipeline = HopPipeline::new(&scene, &schedule);
    let recon = pipeline.final_stage();
    let side = recon.domain().side();
    let annulus = Annulus {
        center: Point2::ZERO,
        inner: 0.18 * side,
        outer: 0.30 * side,
        contrast: 1.0,
    };
    let truth = annulus.rasterize(recon.domain());
    let measured = synthesize_noisy(&pipeline.stages, &annulus, None);
    let run = |batch: usize| {
        let ft = FtConfig {
            dbim: DbimConfig {
                iterations: 12,
                batch: Some(batch),
                verify: Some(VerifyConfig::with_rel_tol(
                    recon.plan.accuracy.checksum_rel_tol(),
                )),
                ..Default::default()
            },
            ..FtConfig::new(1, 1)
        };
        let result = reconstruct(&scene, &schedule, &pipeline.stages, &measured, &ft, None)
            .unwrap_or_else(|e| panic!("batch {batch}: {e}"));
        image_rel_error(&recon.image(&result.object), &truth)
    };
    let errors: Vec<f64> = [1, 2, 4, 8, 16].into_iter().map(run).collect();
    assert!(errors.iter().all(|&e| e == errors[0]), "{errors:?}");
    assert!(errors[0] < 0.4, "image error {}", errors[0]);
}

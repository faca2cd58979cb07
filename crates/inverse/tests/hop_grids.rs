//! Hop stages on their own grids.
//!
//! A stage at wavelength factor `f` of an `n x n` scene runs on `n / 2^k`
//! pixels a side (the largest `2^k <= f` that leaves at least a 32-pixel
//! tree), and the carry between stages is a piecewise-constant
//! prolongation followed by the `k0^2` rescale. These tests pin the grid
//! table, the prolongation against its restriction (exact), the carry on equal grids
//! against the plain rescale, and the hop-boundary checkpoint: resumed after
//! the coarse stage it lands on the uninterrupted object, and a checkpoint
//! bound to the shared-grid stages is refused.

use ffw_dist::FtConfig;
use ffw_fault::{Checkpoint, CheckpointError, FaultError, Fingerprint};
use ffw_geometry::{Domain, Point2, QuadTree, TransducerArray};
use ffw_inverse::multifreq::{block_average, hop_carry, prolong, stage_side};
use ffw_inverse::{DbimConfig, HopSchedule, ImagingSetup};
use ffw_mlfma::Accuracy;
use ffw_numerics::{c64, C64};
use ffw_phantom::scenario::splitmix64;
use ffw_phantom::Cylinder;
use ffw_tomo::{reconstruct, HopPipeline, SceneConfig};
use std::path::Path;

/// Seeded values in `[-1, 1)²`.
fn image(n: usize, seed: u64) -> Vec<C64> {
    let mut s = seed;
    let mut next = move || {
        s = splitmix64(s);
        (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    (0..n).map(|_| c64(next(), next())).collect()
}

fn tree(n_side: usize) -> QuadTree {
    QuadTree::new(&Domain::new(n_side, 1.0))
}

#[test]
fn each_stage_gets_the_coarsest_grid_with_the_scene_pixels_per_wavelength() {
    for (n, factor, side) in [
        (64, 2.0, 32),
        (64, 1.5, 64),
        (32, 2.0, 32),
        (256, 4.0, 64),
        (256, 3.0, 128),
        (256, 1.0, 256),
        (1024, 32.0, 32),
        (128, 1.999, 128),
    ] {
        assert_eq!(stage_side(n, factor), side, "{n} px at factor {factor}");
    }
    // The pipeline builds them over one physical domain and ring.
    let scene = SceneConfig {
        accuracy: Accuracy::low(),
        threads: 1,
        ..SceneConfig::new(64, 4, 8)
    };
    let schedule = HopSchedule::parse("2.0,1.5,1.0").expect("schedule");
    let pipeline = HopPipeline::new(&scene, &schedule);
    let sides: Vec<usize> = (pipeline.stages.iter())
        .map(|s| s.domain().n_side())
        .collect();
    assert_eq!(sides, vec![32, 64, 64]);
    let last = pipeline.final_stage();
    for stage in &pipeline.stages {
        assert_eq!(stage.domain().side(), last.domain().side());
        assert_eq!(
            stage.setup.receivers.position(0),
            last.setup.receivers.position(0)
        );
    }
}

#[test]
fn block_average_undoes_prolongation_exactly() {
    for (nc, nf, seed) in [(32, 64, 1), (32, 128, 2), (64, 256, 3), (64, 64, 4)] {
        let (coarse, fine) = (tree(nc), tree(nf));
        let x = image(nc * nc, seed);
        let up = prolong(&coarse, &fine, x.clone());
        // Every fine pixel holds the value of the coarse pixel it lies in.
        let r = nf / nc;
        for (i, v) in up.iter().enumerate() {
            let (px, py) = fine.pixel_grid_coords(i);
            assert_eq!(*v, x[coarse.pixel_tree_index(px / r, py / r)]);
        }
        // Pairwise 2 x 2 means of equal values round nowhere.
        assert_eq!(block_average(&fine, &coarse, &up), x, "{nc} -> {nf}");
    }
}

/// A 32² stage at wavelength `wavelength` with the pixel size of a 32²
/// scene at wavelength 1.
fn shared_grid_stage(wavelength: f64) -> ImagingSetup {
    let domain = Domain::with_pixel_size(32, wavelength, 0.1);
    let ring = 2.0 * domain.side();
    ImagingSetup::new(
        domain,
        TransducerArray::ring(4, ring),
        TransducerArray::ring(8, ring),
    )
}

#[test]
fn on_equal_grids_the_carry_is_the_plain_rescale() {
    let (low, high) = (shared_grid_stage(2.0), shared_grid_stage(1.0));
    let object = image(low.n_pixels(), 5);
    let s = high.domain.k0().powi(2) / low.domain.k0().powi(2);
    let rescaled: Vec<C64> = object.iter().map(|&v| v * s).collect();
    assert_eq!(hop_carry(&low, &high, object), rescaled);
}

fn scene() -> SceneConfig {
    SceneConfig {
        accuracy: Accuracy::low(),
        threads: 1,
        ..SceneConfig::new(64, 4, 8)
    }
}

fn truth(side: f64) -> Cylinder {
    Cylinder {
        center: Point2::ZERO,
        radius: 0.25 * side,
        contrast: 0.05,
    }
}

fn ft(checkpoint: Option<&Path>, resume: bool) -> FtConfig {
    FtConfig {
        dbim: DbimConfig {
            iterations: 2,
            ..Default::default()
        },
        checkpoint: checkpoint.map(Path::to_path_buf),
        resume,
        ..FtConfig::new(1, 1)
    }
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ffw-hop-grids-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

#[test]
fn a_run_checkpointed_after_the_coarse_stage_resumes_bit_identically() {
    let scene = scene();
    let schedule = HopSchedule::parse("2.0,1.0").expect("schedule");
    let pipeline = HopPipeline::new(&scene, &schedule);
    assert_eq!(pipeline.stages[0].domain().n_side(), 32);
    let measured = pipeline.synthesize(&truth(pipeline.final_stage().domain().side()));
    let run = |ft: &FtConfig, stop: Option<&dyn Fn() -> bool>| {
        reconstruct(&scene, &schedule, &pipeline.stages, &measured, ft, stop).expect("hop run")
    };
    let full = run(&ft(None, false), None);
    assert_eq!(full.object.len(), 64 * 64);

    let path = scratch("coarse.ckpt");
    let polls = std::sync::atomic::AtomicUsize::new(0);
    let after_stage_0 = || polls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) >= 1;
    let stopped = run(&ft(Some(&path), false), Some(&after_stage_0));
    assert_eq!(stopped.interrupted, Some(1));
    assert_eq!(
        stopped.object.len(),
        32 * 32,
        "the carry on the coarse grid"
    );
    let Err(CheckpointError::FingerprintMismatch { found, .. }) = Checkpoint::load(&path, 0) else {
        panic!("the checkpoint carries a fingerprint");
    };
    let saved = Checkpoint::load(&path, found).expect("checkpoint");
    assert_eq!(
        saved.object.len(),
        32 * 32,
        "checkpointed on the coarse grid"
    );

    let resumed = run(&ft(Some(&path), true), None);
    assert_eq!(resumed.resumed, 1);
    assert_eq!(resumed.stages.len(), 1, "only the scene stage reran");
    assert_eq!(resumed.object, full.object, "resume must be bit-identical");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_checkpoint_written_under_the_shared_grid_is_refused() {
    let scene = scene();
    let schedule = HopSchedule::parse("2.0,1.0").expect("schedule");
    let pipeline = HopPipeline::new(&scene, &schedule);
    let measured = pipeline.synthesize(&truth(pipeline.final_stage().domain().side()));
    let cfg = ft(None, false);
    // The fingerprint hop checkpoints were bound to when every stage ran on
    // the scene grid: the scene, then the schedule, then the DBIM settings.
    let shared_grid = cfg
        .dbim
        .fold_fingerprint(
            schedule.fold_fingerprint(
                Fingerprint::new()
                    .u64(64)
                    .u64(4)
                    .u64(8)
                    .f64(1.0)
                    .f64(2.0)
                    .f64(-1.0)
                    .f64(-1.0),
            ),
        )
        .finish();
    let path = scratch("shared.ckpt");
    let zeros = vec![(0.0, 0.0); 64 * 64];
    Checkpoint {
        fingerprint: shared_grid,
        next_iter: 1,
        residual_history: vec![0.5],
        object: zeros.clone(),
        grad_prev: zeros.clone(),
        dir: zeros,
        ..Default::default()
    }
    .save(&path)
    .expect("save");
    let err = reconstruct(
        &scene,
        &schedule,
        &pipeline.stages,
        &measured,
        &ft(Some(&path), true),
        None,
    )
    .expect_err("a shared-grid carry must not seed the coarse stage");
    assert!(
        matches!(
            err,
            FaultError::Checkpoint(CheckpointError::FingerprintMismatch { .. })
        ),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}

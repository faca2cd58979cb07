//! # ffw-tomo
//!
//! High-level API for fast full-wave tomographic image reconstruction —
//! the facade over the FFW-Tomo workspace, reproducing
//! *"A Fast and Massively-Parallel Inverse Solver for Multiple-Scattering
//! Tomographic Image Reconstruction"* (IPDPS 2018).
//!
//! ```no_run
//! use ffw_tomo::{Reconstruction, SceneConfig};
//! use ffw_phantom::{Cylinder, Phantom};
//! use ffw_geometry::Point2;
//!
//! let scene = SceneConfig::new(64, 8, 16); // 6.4-lambda domain, T=8, R=16
//! let truth = Cylinder { center: Point2::ZERO, radius: 1.5, contrast: 0.05 };
//! let recon = Reconstruction::new(&scene);
//! let measured = recon.synthesize(&truth);
//! let result = recon.run_dbim(&measured, 10).unwrap();
//! println!("residual: {:.3}%", 100.0 * result.final_residual);
//! let image = recon.image(&result.object); // grid-order contrast raster
//! # let _ = image;
//! ```

pub mod exit;
pub mod viz;

use ffw_dist::{run_dbim_ft, run_dbim_local, FtConfig, FtDbimResult};
use ffw_fault::{FaultError, Fingerprint};
use ffw_geometry::{Domain, QuadTree, TransducerArray};
use ffw_inverse::multifreq::{block_average, stage_side};
use ffw_inverse::{
    add_noise, born_inversion, dbim, hop_stages, synthesize_measurements, BornConfig, DbimConfig,
    DbimError, DbimResult, HopCheckpoint, ImagingSetup, MlfmaG0, MultiFreqResult,
};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::C64;
use ffw_par::Pool;
use ffw_phantom::{contrast_from_object, object_from_contrast, NoiseModel, Phantom};
use std::borrow::Borrow;
use std::sync::Arc;

pub use ffw_inverse::{BornResult, HopSchedule, Regularizer};

/// Scene description: domain size and transducer layout.
#[derive(Clone, Debug)]
pub struct SceneConfig {
    /// Pixels per side (must be `8 * 2^m`, `m >= 2`).
    pub n_side_px: usize,
    /// Free-space wavelength.
    pub wavelength: f64,
    /// Number of transmitters.
    pub n_tx: usize,
    /// Number of receivers.
    pub n_rx: usize,
    /// Transducer ring radius as a multiple of the domain side.
    pub ring_radius_factor: f64,
    /// Limited-angle setup: `(start, span)` radians; `None` = full ring.
    pub arc: Option<(f64, f64)>,
    /// MLFMA accuracy.
    pub accuracy: Accuracy,
    /// Worker threads (0 = all available).
    pub threads: usize,
}

impl SceneConfig {
    /// Full-ring scene with default accuracy.
    pub fn new(n_side_px: usize, n_tx: usize, n_rx: usize) -> Self {
        SceneConfig {
            n_side_px,
            wavelength: 1.0,
            n_tx,
            n_rx,
            ring_radius_factor: 2.0,
            arc: None,
            accuracy: Accuracy::default(),
            threads: 0,
        }
    }

    /// Restricts transmitters and receivers to an arc (the paper's Fig. 2
    /// limited-angle study).
    pub fn with_arc(mut self, start: f64, span: f64) -> Self {
        self.arc = Some((start, span));
        self
    }
}

/// A ready-to-run reconstruction pipeline: geometry, measurement operators
/// and the MLFMA-accelerated Green's operator.
pub struct Reconstruction {
    /// The imaging setup (domain, transducers, `GR`, incident fields).
    pub setup: ImagingSetup,
    /// The MLFMA plan (shared, reusable across engines).
    pub plan: Arc<MlfmaPlan>,
    g0: MlfmaG0,
}

impl Reconstruction {
    /// Builds the pipeline for a scene.
    pub fn new(scene: &SceneConfig) -> Self {
        let threads = if scene.threads == 0 {
            Pool::global().n_threads()
        } else {
            scene.threads
        };
        Self::with_pool(scene, Arc::new(Pool::new(threads)))
    }

    /// Builds the pipeline on a caller-supplied thread pool, ignoring
    /// `scene.threads`. Lets a multi-tenant host (e.g. `ffw-serve`) run many
    /// pipelines on one shared pool instead of spawning a thread team per
    /// job.
    pub fn with_pool(scene: &SceneConfig, pool: Arc<Pool>) -> Self {
        Self::build(scene, Domain::new(scene.n_side_px, scene.wavelength), pool)
    }

    /// Builds the pipeline for one stage of a hop schedule: the illumination
    /// wavelength is scaled by `factor >= 1`, and the stage runs on the
    /// coarsest grid that keeps the scene's pixels per wavelength
    /// ([`ffw_inverse::multifreq::stage_side`]: `n / 2^k` for the largest
    /// `2^k <= factor`, at least 32 pixels a side). The physical domain and
    /// the transducer ring stay where the scene puts them; factors below 2
    /// keep the scene grid itself.
    pub fn for_hop_stage(scene: &SceneConfig, factor: f64, pool: Arc<Pool>) -> Self {
        assert!(factor >= 1.0, "hop factor must be >= 1, got {factor}");
        let base = Domain::new(scene.n_side_px, scene.wavelength);
        let n_side = stage_side(scene.n_side_px, factor);
        // A power-of-two multiple of the scene pixel: exact, so the stage
        // covers the scene's side to the bit.
        let pixel = base.pixel_size() * (scene.n_side_px / n_side) as f64;
        let domain = Domain::with_pixel_size(n_side, factor * scene.wavelength, pixel);
        Self::build(scene, domain, pool)
    }

    fn build(scene: &SceneConfig, domain: Domain, pool: Arc<Pool>) -> Self {
        let radius = scene.ring_radius_factor * domain.side();
        let (txs, rxs) = match scene.arc {
            None => (
                TransducerArray::ring(scene.n_tx, radius),
                TransducerArray::ring(scene.n_rx, radius),
            ),
            Some((start, span)) => (
                TransducerArray::arc(scene.n_tx, radius, start, span),
                TransducerArray::arc(scene.n_rx, radius, start, span),
            ),
        };
        let setup = ImagingSetup::new(domain.clone(), txs, rxs);
        let plan = Arc::new(MlfmaPlan::new(&domain, scene.accuracy));
        let g0 = MlfmaG0(Arc::new(MlfmaEngine::new(Arc::clone(&plan), pool)));
        Reconstruction { setup, plan, g0 }
    }

    /// The imaging domain.
    pub fn domain(&self) -> &Domain {
        &self.setup.domain
    }

    /// The cluster tree (defines the solver's pixel ordering).
    pub fn tree(&self) -> &QuadTree {
        &self.setup.tree
    }

    /// The MLFMA-backed `G0` operator.
    pub fn g0(&self) -> &MlfmaG0 {
        &self.g0
    }

    /// Converts a phantom into the solver's object vector (tree order).
    pub fn object_of(&self, phantom: &dyn Phantom) -> Vec<C64> {
        let raster = (0..self.domain().n_pixels())
            .map(|i| phantom.contrast_at(self.domain().pixel_center_rm(i)))
            .collect::<Vec<_>>();
        object_from_contrast(self.domain(), self.tree(), &raster)
    }

    /// Synthesizes measurement data for a known phantom (solves the forward
    /// problem for every transmitter).
    pub fn synthesize(&self, phantom: &dyn Phantom) -> Vec<Vec<C64>> {
        let object = self.object_of(phantom);
        synthesize_measurements(&self.setup, &self.g0, &object, Default::default())
    }

    /// Runs the nonlinear multiple-scattering DBIM reconstruction.
    pub fn run_dbim(
        &self,
        measured: &[Vec<C64>],
        iterations: usize,
    ) -> Result<DbimResult, DbimError> {
        let cfg = DbimConfig {
            iterations,
            ..Default::default()
        };
        dbim(&self.setup, &self.g0, measured, &cfg)
    }

    /// Runs DBIM with full configuration control.
    pub fn run_dbim_with(
        &self,
        measured: &[Vec<C64>],
        cfg: &DbimConfig,
    ) -> Result<DbimResult, DbimError> {
        dbim(&self.setup, &self.g0, measured, cfg)
    }

    /// Runs the linear single-scattering Born baseline.
    pub fn run_born(&self, measured: &[Vec<C64>], cfg: &BornConfig) -> BornResult {
        born_inversion(&self.setup, measured, cfg)
    }

    /// Converts a reconstructed object vector into a grid-order contrast
    /// raster (row-major, `n_side x n_side`).
    pub fn image(&self, object: &[C64]) -> Vec<f64> {
        contrast_from_object(self.domain(), self.tree(), object)
    }
}

/// A prepared frequency-hopping pipeline: one [`Reconstruction`] per stage
/// of a [`HopSchedule`], lowest frequency first, each on its own grid
/// ([`Reconstruction::for_hop_stage`]) over one physical domain, all on one
/// thread pool. The last stage is the scene itself. This is the single entry
/// point the CLI, the serve engine and the benches use for hop runs.
pub struct HopPipeline {
    /// Per-stage pipelines, lowest frequency (largest wavelength factor)
    /// first; the last stage is the scene frequency itself.
    pub stages: Vec<Reconstruction>,
    schedule: HopSchedule,
}

impl HopPipeline {
    /// Builds every stage on one shared pool sized from `scene.threads`.
    pub fn new(scene: &SceneConfig, schedule: &HopSchedule) -> Self {
        let threads = if scene.threads == 0 {
            Pool::global().n_threads()
        } else {
            scene.threads
        };
        Self::with_pool(scene, schedule, Arc::new(Pool::new(threads)))
    }

    /// Builds every stage on a caller-supplied pool.
    pub fn with_pool(scene: &SceneConfig, schedule: &HopSchedule, pool: Arc<Pool>) -> Self {
        let stages = schedule
            .factors()
            .iter()
            .map(|&f| Reconstruction::for_hop_stage(scene, f, Arc::clone(&pool)))
            .collect();
        HopPipeline {
            stages,
            schedule: schedule.clone(),
        }
    }

    /// The validated schedule this pipeline was built for.
    pub fn schedule(&self) -> &HopSchedule {
        &self.schedule
    }

    /// The scene-frequency stage (factor 1.0 — always the last).
    pub fn final_stage(&self) -> &Reconstruction {
        self.stages.last().expect("schedules are never empty")
    }

    /// Synthesizes per-stage measurements for one physical phantom: the
    /// object is frequency-invariant contrast, so each stage solves its own
    /// forward problem at its own wavenumber on its own grid.
    pub fn synthesize(&self, phantom: &dyn Phantom) -> Vec<Vec<Vec<C64>>> {
        synthesize_noisy(&self.stages, phantom, None)
    }

    /// Adds seeded measurement noise to every stage. Stages get independent
    /// noise realizations (the per-stage model seed is derived from the
    /// master seed), and within a stage each transmitter row has its own
    /// stream — bit-deterministic regardless of thread count.
    pub fn add_noise(measured: &mut [Vec<Vec<C64>>], snr_db: f64, seed: u64) {
        for (stage_idx, stage) in measured.iter_mut().enumerate() {
            NoiseModel {
                snr_db,
                seed: ffw_phantom::scenario::splitmix64(seed ^ stage_idx as u64),
            }
            .apply(stage);
        }
    }
}

/// Per-stage measurements of one physical phantom (each stage solves its own
/// forward problem at its own wavenumber), plus optional seeded measurement
/// noise at `snr_db`. A schedule gets independent per-stage realizations
/// ([`HopPipeline::add_noise`]); a single-frequency job keeps the
/// single-frequency stream ([`ffw_inverse::add_noise`]), so its data does not
/// depend on being phrased as the one-stage schedule `"1.0"`.
pub fn synthesize_noisy<S: Borrow<Reconstruction>>(
    stages: &[S],
    phantom: &dyn Phantom,
    snr_db: Option<f64>,
) -> Vec<Vec<Vec<C64>>> {
    let mut measured: Vec<Vec<Vec<C64>>> = stages
        .iter()
        .map(|s| s.borrow().synthesize(phantom))
        .collect();
    match (snr_db, measured.as_mut_slice()) {
        (None, _) => {}
        (Some(db), [single]) => add_noise(single, db, 1),
        (Some(db), _) => HopPipeline::add_noise(&mut measured, db, 1),
    }
    measured
}

/// The scene + schedule part of the fingerprint hop checkpoints are bound
/// to: a resume against a different scene or schedule is rejected instead of
/// silently mixing incompatible carries. Each stage's grid side is folded
/// last, so a carry written under other stage grids is refused too.
fn scene_fingerprint(scene: &SceneConfig, schedule: &HopSchedule) -> Fingerprint {
    let fp = schedule.fold_fingerprint(
        Fingerprint::new()
            .u64(scene.n_side_px as u64)
            .u64(scene.n_tx as u64)
            .u64(scene.n_rx as u64)
            .f64(scene.wavelength)
            .f64(scene.ring_radius_factor)
            .f64(scene.arc.map_or(-1.0, |(s, _)| s))
            .f64(scene.arc.map_or(-1.0, |(_, sp)| sp)),
    );
    (schedule.factors().iter()).fold(fp, |fp, &f| fp.u64(stage_side(scene.n_side_px, f) as u64))
}

/// Runs one reconstruction job — the front door the CLI and the service
/// share. A job is a hop schedule on a `groups x subtree` rank grid; a
/// single-frequency job is the one-stage schedule `"1.0"`.
///
/// `stages[h]` / `measured[h]` are the pipeline and data of stage `h`
/// (lowest frequency first, each on its own grid as [`HopPipeline`] builds
/// them), `ft.dbim.iterations` the *total* budget, split by
/// [`HopSchedule::split_iterations`]. An initial guess `ft.dbim.initial` is
/// on the last stage's (the scene's) grid and seeds the first stage through
/// [`block_average`]; the returned object is on the grid of the last
/// completed stage. This is the only place that maps
/// `(groups, subtree)` to a context: `1 x 1` runs the serial context on the
/// stage's own `G0` engine with no rank launch
/// ([`ffw_dist::run_dbim_local`]), anything larger launches the rank grid
/// ([`ffw_dist::run_dbim_ft`]).
///
/// Checkpoint, progress and stop granularity is the finest boundary the job
/// has. A single-frequency job checkpoints to `ft.checkpoint`, reports to
/// and is stopped by `ft.control` at every outer iteration, and
/// `interrupted` counts completed iterations. A schedule checkpoints its
/// carry at hop boundaries, reports a completed stage to `ft.control`, polls
/// `stop` between stages, and `interrupted` counts completed stages. Either
/// way a resume continues bit-identically, and the checkpoint is bound to
/// the scene, the schedule and every setting that changes the iterate.
pub fn reconstruct<S: Borrow<Reconstruction>>(
    scene: &SceneConfig,
    schedule: &HopSchedule,
    stages: &[S],
    measured: &[Vec<Vec<C64>>],
    ft: &FtConfig,
    stop: Option<&dyn Fn() -> bool>,
) -> Result<MultiFreqResult<FtDbimResult>, FaultError> {
    assert_eq!(stages.len(), schedule.len(), "one pipeline per stage");
    assert_eq!(measured.len(), stages.len(), "one dataset per stage");
    let single = stages.len() == 1;
    let split = schedule.split_iterations(ft.dbim.iterations);
    let setups: Vec<&ImagingSetup> = stages.iter().map(|s| &s.borrow().setup).collect();
    let initial = ft.dbim.initial.as_ref().map(|init| {
        let (first, last) = (setups[0], setups[setups.len() - 1]);
        block_average(&last.tree, &first.tree, init)
    });
    let hop_checkpoint = ft
        .checkpoint
        .as_deref()
        .filter(|_| !single)
        .map(|path| HopCheckpoint {
            path,
            resume: ft.resume,
            fingerprint: ft
                .dbim
                .fold_fingerprint(scene_fingerprint(scene, schedule))
                .finish(),
        });
    // Injected faults hit the first launch of the job only.
    let mut fault_plan = ft.fault_plan.clone();
    hop_stages(&setups, hop_checkpoint, stop, |h, carry| {
        let stage: &Reconstruction = stages[h].borrow();
        let stage_ft = FtConfig {
            dbim: DbimConfig {
                iterations: split[h],
                initial: carry.or_else(|| initial.clone()),
                ..ft.dbim.clone()
            },
            checkpoint: ft.checkpoint.clone().filter(|_| single),
            resume: ft.resume && single,
            control: ft.control.clone().filter(|_| single),
            fault_plan: fault_plan.take(),
            groups: ft.groups,
            subtree_ranks: ft.subtree_ranks,
            max_restarts: ft.max_restarts,
        };
        let result = if (ft.groups, ft.subtree_ranks) == (1, 1) {
            run_dbim_local(&stage.setup, stage.g0(), &measured[h], &stage_ft)
        } else {
            let plan = Arc::clone(&stage.plan);
            run_dbim_ft(&stage.setup, plan, &measured[h], &stage_ft)
        }?;
        if let (false, Some(ctl)) = (single, &ft.control) {
            ctl.progress((h + 1) as u32, result.final_residual);
        }
        Ok(result)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_geometry::Point2;
    use ffw_phantom::{image_rel_error, Cylinder};

    #[test]
    fn end_to_end_pipeline_reduces_residual_and_error() {
        let scene = SceneConfig {
            accuracy: Accuracy::low(),
            ..SceneConfig::new(32, 4, 8)
        };
        let recon = Reconstruction::new(&scene);
        let truth = Cylinder {
            center: Point2::ZERO,
            radius: 0.8,
            contrast: 0.05,
        };
        let measured = recon.synthesize(&truth);
        let result = recon.run_dbim(&measured, 4).expect("dbim");
        assert!(result.final_residual < 0.5, "{}", result.final_residual);
        assert!(
            result.final_residual < result.history[0].rel_residual,
            "residual decreases"
        );
        let image = recon.image(&result.object);
        let truth_raster = truth.rasterize(recon.domain());
        let err = image_rel_error(&image, &truth_raster);
        assert!(err < 1.0, "some signal recovered: {err}");
        // paper accounting: 3 forward-class solves per tx per iteration,
        // plus the final residual pass (1 per tx)
        assert_eq!(result.forward_solves, 4 * 4 * 3 + 4);
    }

    #[test]
    fn limited_angle_scene_builds() {
        let scene = SceneConfig {
            accuracy: Accuracy::low(),
            ..SceneConfig::new(32, 3, 5)
        }
        .with_arc(0.0, std::f64::consts::FRAC_PI_2);
        let recon = Reconstruction::new(&scene);
        assert_eq!(recon.setup.n_tx(), 3);
        // all transducers within the quarter arc
        for i in 0..recon.setup.n_rx() {
            let a = recon.setup.receivers.position(i).angle();
            assert!((-1e-9..=std::f64::consts::FRAC_PI_2 + 1e-9).contains(&a));
        }
    }
}

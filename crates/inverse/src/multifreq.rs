//! Multi-frequency (frequency-hopping) DBIM.
//!
//! A standard extension in the DBIM literature the paper builds on (e.g.
//! Lavarello & Oelze's multiple-frequency DBIM, paper ref. \[6\]; Yu, Yuan &
//! Liu's multi-frequency DBIM-BCGS, ref. \[24\]): reconstruct at a low
//! frequency first — where the cost functional is nearly convex — and use
//! the recovered *permittivity contrast* as the initial guess at the next
//! frequency, where resolution is higher but local minima abound.
//!
//! Each stage resolves only what its wavelength can, as in
//! Borges–Gillman–Greengard's recursive linearisation: the stage at
//! wavelength factor `f` of an `n x n` scene runs on the coarsest grid that
//! still has the scene's pixels per wavelength, `n / 2^k` for the largest
//! `2^k <= f` that leaves at least the smallest tree ([`stage_side`]). The
//! physical domain and the transducers stay where they are. Between stages
//! [`hop_carry`] prolongs the object piecewise-constant onto the next grid
//! ([`prolong`]) and rescales the object function `O = k0^2 delta_eps`
//! between wavenumbers, since the contrast `delta_eps` is the
//! frequency-invariant unknown; on equal grids the carry is the rescale
//! alone.
//!
//! One stage loop, [`hop_stages`]: the carry, per-hop obs spans, counters and
//! series, crash-consistent checkpoints at hop boundaries (riding the
//! [`ffw_fault::Checkpoint`] machinery; each holds the carry on the grid of
//! the stage that wrote it), resume that skips completed stages
//! bit-identically, and a cooperative stop poll between hops. "Run one stage
//! from this initial object" is its only varying part, so a schedule runs on
//! any driver and rank grid; [`multi_frequency_dbim_with`] is the loop over
//! the serial [`dbim`], [`multi_frequency_dbim`] the same in memory.
//! Schedules arriving from the CLI or serve spec are parsed and validated by
//! [`HopSchedule`].

use crate::dbim::{dbim, DbimConfig, DbimError, DbimResult, SolveCounts};
use crate::problem::ImagingSetup;
use ffw_fault::{Checkpoint, CheckpointError, Fingerprint};
use ffw_geometry::{QuadTree, LEAF_SIDE, TOP_LEVEL};
use ffw_numerics::{c64, C64};
use ffw_solver::BlockLinOp;
use std::path::{Path, PathBuf};

/// Maximum wavelength factor a hop schedule may start at. Beyond this the
/// lowest-frequency stage carries too little information to seed the next
/// (and `k0` underflows usability).
pub const MAX_HOP_FACTOR: f64 = 32.0;

/// Maximum number of stages in a hop schedule.
pub const MAX_HOPS: usize = 8;

/// The coarsest grid a stage may run on: the smallest quad tree.
const MIN_STAGE_SIDE: usize = LEAF_SIDE << TOP_LEVEL;

/// Pixels per side of the stage at wavelength factor `factor` of an
/// `n_side x n_side` scene: `n_side / 2^k` for the largest `k` with
/// `2^k <= factor` and `n_side / 2^k >= MIN_STAGE_SIDE`. Its pixels are
/// `2^k` scene pixels wide, so the stage keeps at least the scene's pixels
/// per wavelength; factors below 2 keep the scene grid.
pub fn stage_side(n_side: usize, factor: f64) -> usize {
    let mut side = n_side;
    let mut coarsening = 2.0;
    while coarsening <= factor && side.is_multiple_of(2) && side / 2 >= MIN_STAGE_SIDE {
        side /= 2;
        coarsening *= 2.0;
    }
    side
}

/// A validated frequency-hop schedule, expressed as *wavelength factors*
/// relative to the scene wavelength: `"2.0,1.5,1.0"` reconstructs at twice
/// the wavelength (half the frequency), then 1.5x, then the scene frequency
/// itself. Factors must be strictly descending (low to high frequency), the
/// last must be exactly `1.0` (the schedule ends at the scene frequency),
/// and every factor must lie in `[1.0, 32.0]`.
#[derive(Clone, Debug, PartialEq)]
pub struct HopSchedule(Vec<f64>);

impl HopSchedule {
    /// Parses and validates a comma-separated factor list (see the type
    /// docs for the rules). Errors are human-readable and name the rule.
    pub fn parse(s: &str) -> Result<HopSchedule, String> {
        let mut factors = Vec::new();
        for part in s.split(',') {
            let t = part.trim();
            if t.is_empty() {
                return Err("hop schedule has an empty entry".into());
            }
            let f: f64 = t
                .parse()
                .map_err(|_| format!("hop factor '{t}' is not a number"))?;
            if !f.is_finite() || !(1.0..=MAX_HOP_FACTOR).contains(&f) {
                return Err(format!("hop factor {f} out of range [1, {MAX_HOP_FACTOR}]"));
            }
            factors.push(f);
        }
        if factors.len() > MAX_HOPS {
            return Err(format!(
                "hop schedule has {} stages (max {MAX_HOPS})",
                factors.len()
            ));
        }
        for w in factors.windows(2) {
            if w[1] >= w[0] {
                return Err(format!(
                    "hop factors must be strictly descending (low to high \
                     frequency): {} then {}",
                    w[0], w[1]
                ));
            }
        }
        match factors.last() {
            Some(&last) => {
                if last == 1.0 {
                    Ok(HopSchedule(factors))
                } else {
                    Err(format!(
                        "hop schedule must end at factor 1.0 (the scene frequency), got {last}"
                    ))
                }
            }
            None => Err("hop schedule is empty".into()),
        }
    }

    /// The one-stage schedule `"1.0"`: a single-frequency run.
    pub fn single() -> HopSchedule {
        HopSchedule(vec![1.0])
    }

    /// The wavelength factors, descending to 1.0.
    pub fn factors(&self) -> &[f64] {
        &self.0
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Never true — parsing rejects empty schedules.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Splits a total DBIM iteration budget across the stages: an even
    /// split, with the remainder going to the later (higher-frequency)
    /// stages where resolution is won.
    pub fn split_iterations(&self, total: usize) -> Vec<usize> {
        let n = self.0.len();
        let base = total / n;
        let rem = total % n;
        (0..n).map(|i| base + usize::from(i >= n - rem)).collect()
    }

    /// Folds the schedule into a config fingerprint (stage count then each
    /// factor's bit pattern) for checkpoint compatibility checks.
    pub fn fold_fingerprint(&self, fp: Fingerprint) -> Fingerprint {
        self.0
            .iter()
            .fold(fp.u64(self.0.len() as u64), |acc, f| acc.f64(*f))
    }
}

impl std::fmt::Display for HopSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for v in &self.0 {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{v}")?;
            first = false;
        }
        Ok(())
    }
}

impl std::str::FromStr for HopSchedule {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        HopSchedule::parse(s)
    }
}

/// One frequency stage of a hop schedule.
pub struct FrequencyHop<'a, G: BlockLinOp + ?Sized> {
    /// The imaging setup at this frequency: the schedule's physical domain
    /// and transducers on this stage's own grid, which the next stage's
    /// grid refines by a power of two (or equals).
    pub setup: &'a ImagingSetup,
    /// The `G0` operator at this frequency.
    pub g0: &'a G,
    /// Measured data at this frequency.
    pub measured: &'a [Vec<C64>],
    /// DBIM iterations to spend at this stage.
    pub iterations: usize,
}

/// What the stage loop reads off one stage's result.
pub trait StageResult {
    /// The stage's reconstructed object over the whole domain, on the
    /// stage's grid (tree order).
    fn object(&self) -> &[C64];
    /// Relative residual after the stage's final update.
    fn final_residual(&self) -> f64;
    /// `Some(n)` when the stage itself was stopped early (after `n` of its
    /// outer iterations) by a control the stage runner attached.
    fn interrupted(&self) -> Option<u32> {
        None
    }
}

impl StageResult for DbimResult {
    fn object(&self) -> &[C64] {
        &self.object
    }
    fn final_residual(&self) -> f64 {
        self.final_residual
    }
}

/// Result of a multi-frequency reconstruction; `R` is the per-stage result
/// of whichever driver ran the stages.
#[derive(Debug)]
pub struct MultiFreqResult<R = DbimResult> {
    /// Final object at the last completed frequency, on that stage's grid
    /// (tree order).
    pub object: Vec<C64>,
    /// Per-stage results for the stages *run in this process* (resumed
    /// stages were restored from the checkpoint and have no in-memory
    /// result).
    pub stages: Vec<R>,
    /// Total completed stages, including stages restored from a checkpoint.
    pub completed: usize,
    /// Stages skipped because the checkpoint already covered them.
    pub resumed: usize,
    /// `Some(h)` if a cooperative stop fired before stage `h` ran; the
    /// object is then the carry at the last completed stage's frequency.
    /// When the last stage in `stages` was itself stopped early, this is
    /// that stage's [`StageResult::interrupted`] instead.
    pub interrupted: Option<u32>,
}

/// Driver options for [`multi_frequency_dbim_with`].
#[derive(Clone, Debug, Default)]
pub struct MultiFreqConfig {
    /// DBIM settings shared by every stage; `iterations` and `initial` are
    /// managed by the driver.
    pub base: DbimConfig,
    /// Save a crash-consistent [`Checkpoint`] here after every completed
    /// stage (hop boundaries are the natural consistency points: the carry
    /// object is the entire cross-stage state).
    pub checkpoint: Option<PathBuf>,
    /// Resume from `checkpoint` if it exists: completed stages are skipped
    /// and the carry object restored bit-identically (the checkpoint stores
    /// the raw carry on the grid of the stage that wrote it; [`hop_carry`]
    /// to the next stage happens in the driver exactly as it would
    /// in-process).
    pub resume: bool,
    /// Scene/schedule fingerprint the checkpoint must match (build with
    /// [`Fingerprint`] and [`HopSchedule::fold_fingerprint`]).
    pub fingerprint: u64,
}

/// Typed failure of a multi-frequency reconstruction.
#[derive(Debug)]
pub enum MultiFreqError {
    /// A stage's DBIM run failed (a solver breakdown or compute corruption).
    Dbim(DbimError),
    /// The checkpoint could not be loaded or saved.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for MultiFreqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiFreqError::Dbim(e) => write!(f, "stage failed: {e}"),
            MultiFreqError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for MultiFreqError {}

impl From<DbimError> for MultiFreqError {
    fn from(e: DbimError) -> Self {
        MultiFreqError::Dbim(e)
    }
}

impl From<CheckpointError> for MultiFreqError {
    fn from(e: CheckpointError) -> Self {
        MultiFreqError::Checkpoint(e)
    }
}

/// Runs the hop schedule, lowest frequency first. `base` provides all DBIM
/// settings except `iterations` and `initial`, which the driver manages.
/// A failure at any stage aborts the whole schedule with that stage's error.
pub fn multi_frequency_dbim<G: BlockLinOp + ?Sized>(
    hops: &[FrequencyHop<'_, G>],
    base: &DbimConfig,
) -> Result<MultiFreqResult, DbimError> {
    let cfg = MultiFreqConfig {
        base: base.clone(),
        ..Default::default()
    };
    multi_frequency_dbim_with(hops, &cfg, None).map_err(|e| match e {
        MultiFreqError::Dbim(d) => d,
        MultiFreqError::Checkpoint(c) => unreachable!("no checkpoint configured: {c}"),
    })
}

/// [`hop_stages`] over the serial [`dbim`]: one `G0` operator per stage,
/// every stage's DBIM settings taken from `cfg.base`.
pub fn multi_frequency_dbim_with<G: BlockLinOp + ?Sized>(
    hops: &[FrequencyHop<'_, G>],
    cfg: &MultiFreqConfig,
    stop: Option<&dyn Fn() -> bool>,
) -> Result<MultiFreqResult, MultiFreqError> {
    assert!(
        !cfg.resume || cfg.checkpoint.is_some(),
        "resume requires a checkpoint path"
    );
    let setups: Vec<&ImagingSetup> = hops.iter().map(|h| h.setup).collect();
    let checkpoint = cfg.checkpoint.as_deref().map(|path| HopCheckpoint {
        path,
        resume: cfg.resume,
        fingerprint: cfg.fingerprint,
    });
    hop_stages(&setups, checkpoint, stop, |h, initial| {
        let hop = &hops[h];
        let stage_cfg = DbimConfig {
            iterations: hop.iterations,
            initial,
            ..cfg.base.clone()
        };
        Ok(dbim(hop.setup, hop.g0, hop.measured, &stage_cfg)?)
    })
}

/// Piecewise-constant prolongation of a tree-order image from the `coarse`
/// grid onto the `fine` one: every coarse pixel fills its `r x r` block,
/// `r = fine side / coarse side` (a power of two). On equal grids the image
/// is returned untouched.
pub fn prolong(coarse: &QuadTree, fine: &QuadTree, image: Vec<C64>) -> Vec<C64> {
    let r = refinement(coarse, fine);
    if r == 1 {
        return image;
    }
    let (nc, nf) = (coarse.n_side(), fine.n_side());
    let grid = coarse.to_grid_order(&image);
    let out: Vec<C64> = (0..nf * nf)
        .map(|i| grid[(i / nf / r) * nc + (i % nf) / r])
        .collect();
    fine.to_tree_order(&out)
}

/// Block averaging, the restriction matching [`prolong`]: each pixel of the
/// `coarse` grid is the mean of its `r x r` block of the `fine` one, taken
/// as `log2 r` rounds of 2 x 2 means (pairwise sums, so
/// `block_average(prolong(x)) == x` exactly). Brings a scene-grid initial
/// guess down to a coarsened first stage.
pub fn block_average(fine: &QuadTree, coarse: &QuadTree, image: &[C64]) -> Vec<C64> {
    if refinement(coarse, fine) == 1 {
        return image.to_vec();
    }
    let mut grid = fine.to_grid_order(image);
    let mut n = fine.n_side();
    while n > coarse.n_side() {
        let h = n / 2;
        grid = (0..h * h)
            .map(|i| {
                let at = |dx, dy| grid[(2 * (i / h) + dy) * n + 2 * (i % h) + dx];
                ((at(0, 0) + at(1, 0)) + (at(0, 1) + at(1, 1))) * 0.25
            })
            .collect();
        n = h;
    }
    coarse.to_tree_order(&grid)
}

/// `fine side / coarse side`, asserted to be a power of two.
fn refinement(coarse: &QuadTree, fine: &QuadTree) -> usize {
    let (nc, nf) = (coarse.n_side(), fine.n_side());
    assert!(
        nf.is_multiple_of(nc) && (nf / nc).is_power_of_two(),
        "a {nf}-pixel grid does not refine a {nc}-pixel one by a power of two"
    );
    nf / nc
}

/// Carries stage `from`'s object to stage `to`: [`prolong`] onto `to`'s
/// grid, then the rescale `O = k_from^2 delta_eps -> k_to^2 delta_eps`. On
/// equal grids this is the rescale alone, `v * s` per pixel.
pub fn hop_carry(from: &ImagingSetup, to: &ImagingSetup, object: Vec<C64>) -> Vec<C64> {
    let s = to.domain.k0().powi(2) / from.domain.k0().powi(2);
    prolong(&from.tree, &to.tree, object)
        .into_iter()
        .map(|v| v * s)
        .collect()
}

/// Panics unless the stages run from low to high frequency over one
/// physical domain, each grid refining the previous one (or equal to it).
fn assert_stages(setups: &[&ImagingSetup]) {
    assert!(!setups.is_empty());
    for w in setups.windows(2) {
        let (a, b) = (&w[0].domain, &w[1].domain);
        assert!(
            a.k0() <= b.k0() + 1e-12,
            "hops must be ordered from low to high frequency"
        );
        assert!(
            (a.side() - b.side()).abs() <= 1e-12 * b.side(),
            "hops must image one physical domain: side {} then {}",
            a.side(),
            b.side()
        );
        refinement(&w[0].tree, &w[1].tree);
    }
}

/// The `dbim.mults.*` counters, by class.
fn mults_so_far() -> [(&'static str, u64); 3] {
    SolveCounts::default().named().map(|(class, _)| {
        (
            class,
            ffw_obs::counter(&format!("dbim.mults.{class}")).get(),
        )
    })
}

/// One line per stage run in this process, from the recorder's
/// `multifreq.stage_side` and `multifreq.stage_mults.*` series: the stage's
/// grid and the MLFMA multiplications of each solve class. `first` numbers
/// the first line (the stages a resume skipped come before it).
pub fn stage_report(snap: &ffw_obs::Snapshot, first: usize) -> Vec<String> {
    let series = |name: &str| {
        snap.series
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[][..], |(_, v)| &v[..])
    };
    let classes = SolveCounts::default().named().map(|(class, _)| class);
    let mults = classes.map(|class| series(&format!("multifreq.stage_mults.{class}")));
    series("multifreq.stage_side")
        .iter()
        .enumerate()
        .map(|(i, side)| {
            let by_class: Vec<String> = classes
                .iter()
                .zip(&mults)
                .map(|(class, m)| format!("{class} {}", m.get(i).copied().unwrap_or(f64::NAN)))
                .collect();
            format!(
                "stage {}: {side}x{side} grid, MLFMA multiplications {}",
                first + i,
                by_class.join(", ")
            )
        })
        .collect()
}

/// Where [`hop_stages`] checkpoints the carry after every completed stage.
#[derive(Clone, Copy, Debug)]
pub struct HopCheckpoint<'a> {
    /// The checkpoint file (saved atomically after every completed stage).
    pub path: &'a Path,
    /// Resume from `path` if it exists: completed stages are skipped and the
    /// carry restored bit-identically.
    pub resume: bool,
    /// Scene/schedule/config fingerprint the checkpoint must match.
    pub fingerprint: u64,
}

/// The hop stage loop: runs stage `h` (on `setups[h]`, lowest frequency
/// first) from the carry of stage `h - 1` ([`hop_carry`]) through
/// `run_stage(h, initial)`, with per-hop obs, checkpoint/resume at hop
/// boundaries, and a cooperative `stop` poll between stages (a pending stop
/// returns the carry, on the grid of the last completed stage, with
/// [`MultiFreqResult::interrupted`] set instead of discarding completed work
/// — the checkpoint for every completed stage is already on disk). A stage
/// that reports itself interrupted ends the loop the same way, without a hop
/// checkpoint: its own runner checkpointed it.
///
/// Panics unless the stages ascend in frequency over one physical domain,
/// each grid refining the previous one by a power of two (or equal to it).
/// With the recorder on, every stage run pushes its grid side to the
/// `multifreq.stage_side` series and the MLFMA multiplications its solves
/// made (the growth of the `dbim.mults.*` counters) to
/// `multifreq.stage_mults.*`; [`stage_report`] prints them.
pub fn hop_stages<R: StageResult, E: From<CheckpointError>>(
    setups: &[&ImagingSetup],
    checkpoint: Option<HopCheckpoint<'_>>,
    stop: Option<&dyn Fn() -> bool>,
    mut run_stage: impl FnMut(usize, Option<Vec<C64>>) -> Result<R, E>,
) -> Result<MultiFreqResult<R>, E> {
    assert_stages(setups);
    let _span = ffw_obs::span("multifreq");
    let mut start_stage = 0usize;
    let mut carry: Option<Vec<C64>> = None;
    let mut residual_history: Vec<f64> = Vec::new();
    if let Some(ck) = checkpoint.filter(|ck| ck.resume) {
        if ck.path.exists() {
            let ckpt = Checkpoint::load(ck.path, ck.fingerprint)?;
            let done = ckpt.next_iter as usize;
            if done > setups.len() {
                return Err(CheckpointError::Malformed(format!(
                    "checkpoint covers {done} stages, schedule has {}",
                    setups.len()
                ))
                .into());
            }
            if done > 0 {
                // The carry is on the grid of the stage that wrote it.
                let n_pixels = setups[done - 1].n_pixels();
                if ckpt.object.len() != n_pixels {
                    return Err(CheckpointError::Malformed(format!(
                        "checkpoint object has {} pixels, stage {} grid has {n_pixels}",
                        ckpt.object.len(),
                        done - 1
                    ))
                    .into());
                }
                carry = Some(ckpt.object.iter().map(|&(re, im)| c64(re, im)).collect());
                residual_history = ckpt.residual_history;
                start_stage = done;
                ffw_obs::counter("multifreq.resumed_stages").add(done as u64);
            }
        }
    }

    let mut stages = Vec::with_capacity(setups.len().saturating_sub(start_stage));
    for h in start_stage..setups.len() {
        if let Some(stop) = stop {
            if stop() {
                return Ok(MultiFreqResult {
                    object: carry.unwrap_or_default(),
                    stages,
                    completed: h,
                    resumed: start_stage,
                    interrupted: Some(h as u32),
                });
            }
        }
        let _hop_span = ffw_obs::span("hop");
        ffw_obs::counter("multifreq.hops").inc();
        ffw_obs::series_push("multifreq.stage_side", setups[h].domain.n_side() as f64);
        // Both grids and wavenumbers come from the schedule itself, so a
        // resumed carry arrives bit-identically to an in-process one.
        let initial = carry
            .take()
            .map(|obj| hop_carry(setups[h - 1], setups[h], obj));
        let mults_before = ffw_obs::enabled().then(mults_so_far);
        let result = run_stage(h, initial)?;
        for ((class, before), (_, after)) in mults_before.iter().flatten().zip(mults_so_far()) {
            let name = format!("multifreq.stage_mults.{class}");
            ffw_obs::series_push(&name, (after - before) as f64);
        }
        let object = result.object().to_vec();
        if let Some(done) = result.interrupted() {
            stages.push(result);
            return Ok(MultiFreqResult {
                object,
                stages,
                completed: h,
                resumed: start_stage,
                interrupted: Some(done),
            });
        }
        ffw_obs::series_push("multifreq.stage_residual", result.final_residual());
        residual_history.push(result.final_residual());
        stages.push(result);
        if let Some(ck) = checkpoint {
            // The carry is the entire cross-stage state; grad_prev/dir are
            // per-stage and restart fresh, but the decoder requires them to
            // match the object length.
            let zeros = vec![(0.0, 0.0); object.len()];
            let ckpt = Checkpoint {
                fingerprint: ck.fingerprint,
                next_iter: (h + 1) as u32,
                residual_history: residual_history.clone(),
                object: object.iter().map(|v| (v.re, v.im)).collect(),
                grad_prev: zeros.clone(),
                dir: zeros,
                ..Default::default()
            };
            ckpt.save(ck.path)?;
        }
        carry = Some(object);
    }
    Ok(MultiFreqResult {
        object: carry.expect("non-empty schedule"),
        stages,
        completed: setups.len(),
        resumed: start_stage,
        interrupted: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::synthesize_measurements;
    use crate::regularize::Regularizer;
    use ffw_geometry::{Domain, Point2, QuadTree, TransducerArray};
    use ffw_greens::{assemble_g0, tree_positions, Kernel};
    use ffw_phantom::{
        contrast_from_object, image_rel_error, object_from_contrast, Cylinder, Phantom,
    };

    /// Builds a setup + dense G0 at the given wavelength on one fixed
    /// physical 32x32 grid sized lambda/10 at the highest frequency
    /// (wavelength 1).
    fn stage(wavelength: f64) -> (ImagingSetup, ffw_numerics::linalg::Matrix) {
        stage_arc(wavelength, 2.0 * std::f64::consts::PI)
    }

    /// Like [`stage`] but with transmitters and receivers restricted to an
    /// arc of the given angular width (the limited-aperture scenarios).
    fn stage_arc(wavelength: f64, span: f64) -> (ImagingSetup, ffw_numerics::linalg::Matrix) {
        stage_arc_counts(wavelength, span, 6, 12)
    }

    fn stage_arc_counts(
        wavelength: f64,
        span: f64,
        n_tx: usize,
        n_rx: usize,
    ) -> (ImagingSetup, ffw_numerics::linalg::Matrix) {
        let domain = Domain::with_pixel_size(32, wavelength, 0.1);
        let ring = 2.0 * domain.side();
        let full = (span - 2.0 * std::f64::consts::PI).abs() < 1e-12;
        let (tx, rx) = if full {
            (
                TransducerArray::ring(n_tx, ring),
                TransducerArray::ring(n_rx, ring),
            )
        } else {
            (
                TransducerArray::arc(n_tx, ring, 0.0, span),
                TransducerArray::arc(n_rx, ring, 0.0, span),
            )
        };
        let setup = ImagingSetup::new(domain.clone(), tx, rx);
        let tree = QuadTree::new(&domain);
        let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
        let pos = tree_positions(&domain, &tree);
        let g0 = assemble_g0(&kernel, &pos);
        (setup, g0)
    }

    fn truth_and_measurements(
        setups: &[(&ImagingSetup, &ffw_numerics::linalg::Matrix)],
        contrast: f64,
        radius_factor: f64,
    ) -> (Vec<f64>, Vec<Vec<Vec<C64>>>) {
        let domain = setups[0].0.domain.clone();
        let truth = Cylinder {
            center: Point2::ZERO,
            radius: radius_factor * domain.side(),
            contrast,
        };
        let truth_raster = truth.rasterize(&domain);
        let measured = setups
            .iter()
            .map(|(setup, g0)| {
                let tree = QuadTree::new(&setup.domain);
                let obj = object_from_contrast(&setup.domain, &tree, &truth_raster);
                synthesize_measurements(setup, *g0, &obj, Default::default())
            })
            .collect();
        (truth_raster, measured)
    }

    fn rel_error(setup: &ImagingSetup, object: &[C64], truth_raster: &[f64]) -> f64 {
        let tree = QuadTree::new(&setup.domain);
        image_rel_error(
            &contrast_from_object(&setup.domain, &tree, object),
            truth_raster,
        )
    }

    #[test]
    fn hopping_beats_single_high_frequency_at_high_contrast() {
        // One physical object, measured at two frequencies on one shared
        // grid — the classic hop. Contrast high enough that the single-stage
        // high-frequency inversion struggles. Non-regression form: on this
        // borderline full-ring case hopping must at least not hurt.
        let (setup_hi, g0_hi) = stage(1.0);
        let (setup_lo, g0_lo) = stage(2.0);
        let (truth_raster, measured) =
            truth_and_measurements(&[(&setup_hi, &g0_hi), (&setup_lo, &g0_lo)], 0.25, 0.35);
        let (mea_hi, mea_lo) = (&measured[0], &measured[1]);

        let base = DbimConfig {
            iterations: 0,
            ..Default::default()
        };
        // single-stage: all 8 iterations at the high frequency
        let single = multi_frequency_dbim(
            &[FrequencyHop {
                setup: &setup_hi,
                g0: &g0_hi,
                measured: mea_hi,
                iterations: 8,
            }],
            &base,
        )
        .expect("single-stage dbim");
        // hop: 4 at low, 4 at high
        let hop = multi_frequency_dbim(
            &[
                FrequencyHop {
                    setup: &setup_lo,
                    g0: &g0_lo,
                    measured: mea_lo,
                    iterations: 4,
                },
                FrequencyHop {
                    setup: &setup_hi,
                    g0: &g0_hi,
                    measured: mea_hi,
                    iterations: 4,
                },
            ],
            &base,
        )
        .expect("hop dbim");
        let err_single = rel_error(&setup_hi, &single.object, &truth_raster);
        let err_hop = rel_error(&setup_hi, &hop.object, &truth_raster);
        assert!(
            err_hop < err_single * 1.05,
            "hopping should not hurt (and usually helps): hop {err_hop:.3} vs single {err_single:.3}"
        );
        assert_eq!(hop.stages.len(), 2);
        assert_eq!(hop.completed, 2);
        assert_eq!(hop.resumed, 0);
        assert!(hop.interrupted.is_none());
    }

    /// The pinned strict-win scenario: a 210-degree limited aperture
    /// (8 transmitters, 16 receivers on the same arc) at contrast 0.25 —
    /// plain single-frequency DBIM stalls around rel-error 0.54 while the
    /// 2.0→1.0 hop schedule with the wGCV-regularized linear step
    /// reconstructs to ~0.29 (steps=8) / ~0.24 (steps=12). This is the
    /// scenario the `hop_quality` bench gate pins (with steps=12 there).
    #[test]
    fn hopping_strictly_wins_on_limited_aperture() {
        let span = 7.0 * std::f64::consts::PI / 6.0; // 210 degrees
        let (setup_hi, g0_hi) = stage_arc_counts(1.0, span, 8, 16);
        let (setup_lo, g0_lo) = stage_arc_counts(2.0, span, 8, 16);
        let (truth_raster, measured) =
            truth_and_measurements(&[(&setup_hi, &g0_hi), (&setup_lo, &g0_lo)], 0.25, 0.35);
        let (mea_hi, mea_lo) = (&measured[0], &measured[1]);

        let single = multi_frequency_dbim(
            &[FrequencyHop {
                setup: &setup_hi,
                g0: &g0_hi,
                measured: mea_hi,
                iterations: 8,
            }],
            &DbimConfig {
                iterations: 0,
                ..Default::default()
            },
        )
        .expect("single-stage dbim");
        let hop = multi_frequency_dbim(
            &[
                FrequencyHop {
                    setup: &setup_lo,
                    g0: &g0_lo,
                    measured: mea_lo,
                    iterations: 4,
                },
                FrequencyHop {
                    setup: &setup_hi,
                    g0: &g0_hi,
                    measured: mea_hi,
                    iterations: 4,
                },
            ],
            &DbimConfig {
                iterations: 0,
                regularizer: Regularizer::WgcvLsqr {
                    steps: 8,
                    omega: crate::regularize::DEFAULT_WGCV_OMEGA,
                },
                ..Default::default()
            },
        )
        .expect("hop dbim");
        let err_single = rel_error(&setup_hi, &single.object, &truth_raster);
        let err_hop = rel_error(&setup_hi, &hop.object, &truth_raster);
        assert!(
            err_hop < 0.65 * err_single && err_hop < 0.40,
            "hop + wgcv must strictly beat the stalled single-frequency run: \
             hop {err_hop:.3} vs single {err_single:.3}"
        );
        let lam = hop
            .stages
            .iter()
            .flat_map(|s| s.lambdas.iter())
            .last()
            .copied()
            .expect("wgcv records a lambda per iteration");
        assert!(
            lam.is_finite() && lam >= 0.0,
            "chosen lambda must be a finite non-negative value, got {lam}"
        );
    }

    #[test]
    #[should_panic(expected = "low to high")]
    fn rejects_descending_frequencies() {
        let (setup_hi, g0_hi) = stage(1.0);
        let (setup_lo, g0_lo) = stage(2.0);
        let mea: Vec<Vec<C64>> = vec![vec![C64::ZERO; setup_hi.n_rx()]; setup_hi.n_tx()];
        let base = DbimConfig::default();
        let _ = multi_frequency_dbim(
            &[
                FrequencyHop {
                    setup: &setup_hi,
                    g0: &g0_hi,
                    measured: &mea,
                    iterations: 1,
                },
                FrequencyHop {
                    setup: &setup_lo,
                    g0: &g0_lo,
                    measured: &mea,
                    iterations: 1,
                },
            ],
            &base,
        );
    }

    /// Interrupt after the first hop, then resume from the checkpoint: the
    /// resumed run must land on the bit-identical object (the checkpoint
    /// stores the raw carry; the rescale path is shared).
    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let (setup_hi, g0_hi) = stage(1.0);
        let (setup_lo, g0_lo) = stage(2.0);
        let (_truth, measured) =
            truth_and_measurements(&[(&setup_hi, &g0_hi), (&setup_lo, &g0_lo)], 0.1, 0.3);
        let (mea_hi, mea_lo) = (&measured[0], &measured[1]);
        let hops = || {
            [
                FrequencyHop {
                    setup: &setup_lo,
                    g0: &g0_lo,
                    measured: mea_lo,
                    iterations: 2,
                },
                FrequencyHop {
                    setup: &setup_hi,
                    g0: &g0_hi,
                    measured: mea_hi,
                    iterations: 2,
                },
            ]
        };
        let dir = std::env::temp_dir().join("ffw-multifreq-ckpt-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("hop.ckpt");
        std::fs::remove_file(&path).ok();
        let fingerprint = Fingerprint::new().u64(0xF0F0).finish();
        let cfg = MultiFreqConfig {
            base: DbimConfig {
                iterations: 0,
                ..Default::default()
            },
            checkpoint: Some(path.clone()),
            resume: true,
            fingerprint,
        };
        // uninterrupted reference
        let full = multi_frequency_dbim(&hops(), &cfg.base).expect("reference run");
        // run that stops after the first completed hop
        let h = hops();
        let stopped = {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let calls = AtomicUsize::new(0);
            let stop = move || calls.fetch_add(1, Ordering::SeqCst) >= 1;
            multi_frequency_dbim_with(&h, &cfg, Some(&stop)).expect("interrupted run")
        };
        assert_eq!(stopped.interrupted, Some(1));
        assert_eq!(stopped.completed, 1);
        // resume picks up stage 1 from the checkpoint
        let resumed = multi_frequency_dbim_with(&hops(), &cfg, None).expect("resumed run");
        assert_eq!(resumed.resumed, 1);
        assert_eq!(resumed.completed, 2);
        assert_eq!(resumed.stages.len(), 1, "only the second stage reran");
        assert_eq!(
            resumed.object, full.object,
            "resume must be bit-identical to the uninterrupted run"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_rejects_wrong_fingerprint() {
        let (setup_hi, g0_hi) = stage(1.0);
        let (_truth, measured) = truth_and_measurements(&[(&setup_hi, &g0_hi)], 0.05, 0.3);
        let dir = std::env::temp_dir().join("ffw-multifreq-ckpt-fp-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("hop.ckpt");
        std::fs::remove_file(&path).ok();
        let hops = [FrequencyHop {
            setup: &setup_hi,
            g0: &g0_hi,
            measured: &measured[0],
            iterations: 1,
        }];
        let mk = |fingerprint| MultiFreqConfig {
            base: DbimConfig {
                iterations: 0,
                ..Default::default()
            },
            checkpoint: Some(path.clone()),
            resume: true,
            fingerprint,
        };
        multi_frequency_dbim_with(&hops, &mk(7), None).expect("first run");
        let err = multi_frequency_dbim_with(&hops, &mk(8), None).expect_err("must reject");
        assert!(
            matches!(
                err,
                MultiFreqError::Checkpoint(CheckpointError::FingerprintMismatch { .. })
            ),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn schedule_parsing_rules() {
        let s = HopSchedule::parse("2.0,1.5,1.0").expect("valid");
        assert_eq!(s.factors(), &[2.0, 1.5, 1.0]);
        assert_eq!(s.to_string(), "2,1.5,1");
        assert_eq!("2,1.5,1".parse::<HopSchedule>().expect("roundtrip"), s);
        assert_eq!(
            HopSchedule::parse("1.0").expect("degenerate"),
            HopSchedule::single()
        );
        for bad in [
            "",
            "1.0,2.0",           // ascending wavelength = descending frequency
            "2.0,2.0,1.0",       // not strictly descending
            "2.0,1.5",           // does not end at 1.0
            "0.5,1.0",           // factor below 1 (ascending anyway)
            "2.0,,1.0",          // empty entry
            "2.0,abc,1.0",       // not a number
            "nan,1.0",           // non-finite
            "64.0,1.0",          // beyond MAX_HOP_FACTOR
            "9,8,7,6,5,4,3,2,1", // too many stages
        ] {
            assert!(HopSchedule::parse(bad).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn iteration_split_favors_later_stages() {
        let s = HopSchedule::parse("3.0,2.0,1.0").expect("valid");
        assert_eq!(s.split_iterations(9), vec![3, 3, 3]);
        assert_eq!(s.split_iterations(10), vec![3, 3, 4]);
        assert_eq!(s.split_iterations(11), vec![3, 4, 4]);
        assert_eq!(s.split_iterations(2), vec![0, 1, 1]);
        let sum: usize = s.split_iterations(50).iter().sum();
        assert_eq!(sum, 50);
    }

    #[test]
    fn schedule_fingerprint_distinguishes_schedules() {
        let a = HopSchedule::parse("2.0,1.0").expect("a");
        let b = HopSchedule::parse("3.0,1.0").expect("b");
        let f = |s: &HopSchedule| s.fold_fingerprint(Fingerprint::new()).finish();
        assert_ne!(f(&a), f(&b));
        assert_eq!(f(&a), f(&a));
    }
}

//! The distorted Born iterative method with nonlinear conjugate-gradient
//! steps — the paper's inverse scattering solver (Fig. 4, Section VI).
//!
//! Each iteration, for each transmitter `t`:
//!
//! 1. **Residual** — solve `[I - G0 O_b] phi_t = phi_inc_t` (E1), compute
//!    `r_t = GR (O_b . phi_t) - phi_mea_t` (E2);
//! 2. **Gradient** — `grad_t = F_t^H r_t` via one *adjoint* solve (E3, E4):
//!    `y_t = GR^H r_t`, `A^H z_t = conj(O_b) . y_t`,
//!    `grad_t = conj(phi_t) . (y_t + G0^H z_t)`;
//! 3. **Step size** — with search direction `d` (Polak–Ribière conjugate
//!    gradient on the combined gradient), apply the Fréchet operator
//!    `F_t d = GR (w_t + O_b u_t)`, `w_t = phi_t . d`, `u_t = A^{-1} G0 w_t`
//!    (one more forward solve; E3, E5), and take the quadratic-fit step
//!    `alpha = -Re sum_t <r_t, F_t d> / sum_t ||F_t d||^2` (Eq. 5).
//!
//! That is three forward-class solutions per transmitter per iteration —
//! exactly the paper's accounting — at two tolerances. The *state* solve of
//! step 1 defines the residual the run reports and every later quantity is
//! built on, so it runs to [`DbimConfig::forward`] (the paper's `1e-4`). The
//! solves of steps 2 and 3 only steer: one gives a conjugate-gradient
//! direction, the other a step length along it, both of a linearisation whose
//! own error is `O(||delta O||)`, so they stop at [`LINEAR_STEP_TOL`].
//!
//! Step 3 also leaves the next iteration's warm start behind: `u_t` is the
//! derivative of `phi_t` along `d`, so `phi_t + alpha u_t` is the field at
//! the updated object to first order, and the next state solve starts from
//! it instead of from `phi_t` (skipped, like the warm start itself, when
//! [`DbimConfig::warm_start`] is off).
//!
//! The paper's only regularization is early termination (Section V-B);
//! [`DbimConfig::regularizer`] adds selectable penalties and a
//! hybrid-projection update on the linearized step (see
//! [`crate::regularize`]). Its Golub–Kahan products are the same two solves
//! and run at the same [`LINEAR_STEP_TOL`]. What keeps the projected problem
//! faithful at that accuracy is that both Krylov bases are reorthogonalized
//! at every step ([`Passes::golub_kahan`]): the plain recurrence loses
//! orthogonality within a few steps even with products at `1e-4`. The update
//! takes no single step along one direction, so there are no `u_t` to
//! predict the next fields from.

use crate::precond::LeafBlockJacobi;
use crate::problem::ImagingSetup;
use crate::regularize::{laplacian_tree, Bidiag, ProjectedProblem, Regularizer};
use ffw_fault::{Checkpoint, FaultError, Fingerprint};
use ffw_mlfma::MlfmaPlan;
use ffw_numerics::vecops::{axpy_real, norm2_sqr, zdotc};
use ffw_numerics::{c64, C64};
use ffw_solver::{
    g0_adjoint_apply_block, BicgstabBackend, BlockLinOp, CountingOp, DistOp, DriftGuard,
    IterConfig, PrecondPair, SolveStats, VerifiedBlockOp, VerifyConfig, Workspace,
};
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

/// Relative residual the solves of the linearisation stop at — the gradient
/// and step solves of the nonlinear-CG path and the Golub–Kahan products of
/// the `wgcv-lsqr` update (or [`DbimConfig::forward`]'s tolerance, if that
/// is looser). They solve a linearisation that is itself only first-order
/// accurate in the step, so accuracy beyond it buys BiCGStab iterations and
/// no descent.
/// There is margin on both sides: on `serial-hc-128` `3e-2` moves the final
/// residual by 0.1% for another 3% of the `G0` applies, `1e-1` moves it by
/// 0.6% (DESIGN.md, "The step at the accuracy it can use").
pub const LINEAR_STEP_TOL: f64 = 1e-2;

/// DBIM configuration.
#[derive(Clone)]
pub struct DbimConfig {
    /// Nonlinear CG iterations (the paper runs 50).
    pub iterations: usize,
    /// Solver settings of the state solves — the fields that define the
    /// residual (paper: BiCGStab at 1e-4). The solves of the linearisation
    /// (the gradient and step solves of the nonlinear-CG path, every product
    /// of the `wgcv-lsqr` update) run at `max(forward.tol, LINEAR_STEP_TOL)`.
    pub forward: IterConfig,
    /// Constrain the object to be real (lossless dielectric phantoms).
    pub real_object: bool,
    /// Warm-start each transmitter's forward solve from its previous field.
    pub warm_start: bool,
    /// Use conjugate directions (`false` = plain steepest descent, the
    /// "naive" variant the paper mentions; kept for the ablation benchmark).
    pub conjugate: bool,
    /// Regularization on the linearized step (the paper uses none — the
    /// default `tikhonov:0` reproduces it exactly). See [`Regularizer`] for
    /// the Tikhonov / seeded-smoothness / hybrid wGCV-LSQR families.
    /// `wgcv-lsqr` replaces the gradient and step passes with a
    /// Golub–Kahan hybrid projection and is incompatible with
    /// `precondition` (admission pins the two apart).
    pub regularizer: Regularizer,
    /// Project the reconstruction onto nonnegative real contrasts after each
    /// step (physical prior for lossless dielectrics).
    pub positivity: bool,
    /// Initial guess for the object (tree order); `None` = zero background.
    /// Used by the multi-frequency driver to hop between frequencies.
    pub initial: Option<Vec<C64>>,
    /// Leaf-block Jacobi preconditioning of the forward/adjoint solves
    /// (paper Section VIII future work). Pass the plan whose tree matches the
    /// setup; rebuilds the block factorizations whenever the object changes.
    pub precondition: Option<Arc<MlfmaPlan>>,
    /// Transmitters per batched forward/adjoint solve: each batch shares one
    /// fused MLFMA traversal per Krylov iteration (the paper's illumination
    /// parallelism, Section IV-B, realized as multi-RHS blocking).
    /// `None` picks `min(n_tx, 8)`. Per-column results are bit-identical for
    /// every batch size, preconditioned or not.
    pub batch: Option<usize>,
    /// End-to-end compute-integrity verification. `Some` wraps every `G0`
    /// apply in an ABFT checksum window ([`VerifiedBlockOp`], calibrate
    /// `rel_tol` from `Accuracy::checksum_rel_tol()`) and attaches a Krylov
    /// [`DriftGuard`] to the forward engine. Detected corruption is
    /// recomputed / rolled back within the bounded budget; unrecoverable
    /// corruption surfaces as [`DbimError::ComputeCorruption`] instead of a
    /// silently wrong reconstruction. Clean-run reconstructions are
    /// bit-identical to `None` (audits and checksums only *read* panel
    /// outputs), at the cost of one checksum apply per window. `None`
    /// (the default) runs unverified.
    pub verify: Option<VerifyConfig>,
}

impl std::fmt::Debug for DbimConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbimConfig")
            .field("iterations", &self.iterations)
            .field("forward", &self.forward)
            .field("real_object", &self.real_object)
            .field("warm_start", &self.warm_start)
            .field("conjugate", &self.conjugate)
            .field("regularizer", &self.regularizer)
            .field("positivity", &self.positivity)
            .field("initial", &self.initial.as_ref().map(|v| v.len()))
            .field("precondition", &self.precondition.is_some())
            .field("batch", &self.batch)
            .field("verify", &self.verify)
            .finish()
    }
}

impl DbimConfig {
    /// Folds every field that changes the iterate into a checkpoint
    /// fingerprint, so a resume under a different configuration is rejected
    /// instead of silently mixing two runs. `batch` and `verify` stay out:
    /// they change the schedule and the auditing, never the iterate, and
    /// resuming at another batch width must keep working.
    pub fn fold_fingerprint(&self, fp: Fingerprint) -> Fingerprint {
        let fp = fp
            .u64(self.iterations as u64)
            .f64(self.forward.tol)
            .u64(self.forward.max_iters as u64)
            .flag(self.real_object)
            .flag(self.warm_start)
            .flag(self.conjugate)
            // The slot of the removed forward-engine choice: BiCGStab, the
            // only engine left, always folded 0 here, so the checkpoints it
            // wrote still resume.
            .u64(0)
            .flag(self.positivity)
            .flag(self.precondition.is_some());
        let fp = match self.regularizer {
            Regularizer::Tikhonov { lambda } => fp.u64(0).f64(lambda),
            Regularizer::Smoothness { lambda } => fp.u64(1).f64(lambda),
            // The last word is the recurrence, not a setting: 1 for
            // Golub–Kahan with both bases reorthogonalized and its products
            // at `LINEAR_STEP_TOL`. The plain recurrence at `forward.tol`
            // folded nothing there, and its checkpoints are refused.
            Regularizer::WgcvLsqr { steps, omega } => fp.u64(2).u64(steps as u64).f64(omega).u64(1),
        };
        let fp = match &self.initial {
            None => fp.flag(false),
            Some(o) => o.iter().fold(fp.flag(true).u64(o.len() as u64), |fp, v| {
                fp.f64(v.re).f64(v.im)
            }),
        };
        // Not a setting, but it changes the iterate like one: a checkpoint
        // written when every solve ran to `forward.tol` folded nothing here
        // and is refused, not resumed into another trajectory.
        fp.f64(LINEAR_STEP_TOL)
    }
}

impl Default for DbimConfig {
    fn default() -> Self {
        DbimConfig {
            iterations: 50,
            forward: IterConfig::default(),
            real_object: true,
            warm_start: true,
            conjugate: true,
            regularizer: Regularizer::default(),
            positivity: false,
            initial: None,
            precondition: None,
            batch: None,
            verify: None,
        }
    }
}

/// Typed failure of a DBIM reconstruction.
#[derive(Clone, Debug, PartialEq)]
pub enum DbimError {
    /// Silent data corruption was detected by the compute-integrity layer
    /// ([`DbimConfig::verify`]) and survived the bounded recompute /
    /// rollback budget — the reconstruction cannot be trusted and no object
    /// is returned.
    ComputeCorruption(FaultError),
    /// Any other typed fault of the loop: a Krylov breakdown that survived
    /// its one retry (every context), or a communication failure (a rank
    /// grid, where the fault-tolerant driver recovers from it).
    Fault(FaultError),
}

impl std::fmt::Display for DbimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbimError::ComputeCorruption(e) => {
                write!(f, "unrecoverable compute corruption: {e}")
            }
            DbimError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl From<FaultError> for DbimError {
    fn from(e: FaultError) -> Self {
        match e {
            FaultError::ComputeCorruption { .. } => DbimError::ComputeCorruption(e),
            e => DbimError::Fault(e),
        }
    }
}

/// The fault taxonomy supervisors classify by (exit codes, retry classes).
impl From<DbimError> for FaultError {
    fn from(e: DbimError) -> Self {
        match e {
            DbimError::ComputeCorruption(f) | DbimError::Fault(f) => f,
        }
    }
}

impl std::error::Error for DbimError {}

/// Per-iteration convergence record.
#[derive(Clone, Debug)]
pub struct IterationRecord {
    /// Cost `sum_t ||r_t||^2` at the start of the iteration.
    pub cost: f64,
    /// Relative residual norm at the start of the iteration.
    pub rel_residual: f64,
    /// Step length taken.
    pub step: f64,
    /// Forward-solver iterations spent this DBIM iteration (all solves):
    /// the sum of the three classes below.
    pub solver_iters: usize,
    /// ... by the state solves (pass 1).
    pub state_iters: usize,
    /// ... by the adjoint solves of the gradient pass (or of the `wgcv-lsqr`
    /// update's `F^H` products).
    pub gradient_iters: usize,
    /// ... by the `A^{-1} G0 w` solves of the step pass (or of the
    /// `wgcv-lsqr` update's `F` products).
    pub step_iters: usize,
}

/// What one class of forward-class solve cost a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveCount {
    /// Solves (one per transmitter and pass).
    pub solves: usize,
    /// BiCGStab iterations.
    pub iters: usize,
    /// `G0` (MLFMA) multiplications: the solver's, plus the one product a
    /// gradient or step solve has outside it (`G0^H z`, `G0 w`).
    pub mults: usize,
}

impl SolveCount {
    /// MLFMA multiplications per solve of this class — the paper reports
    /// 13.4 over all three for the Fig. 13 run.
    pub fn mults_per_solve(&self) -> f64 {
        self.mults as f64 / self.solves as f64
    }
}

/// The forward-class solves of a run by what they are for (module docs,
/// steps 1–3): where the `G0` applies of a reconstruction went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveCounts {
    /// Pass 1 of every iteration and the final pass.
    pub state: SolveCount,
    /// The adjoint solves.
    pub gradient: SolveCount,
    /// The `A^{-1} G0 w` solves.
    pub step: SolveCount,
}

impl SolveCounts {
    /// The classes by the name their obs series and counters carry.
    pub fn named(&self) -> [(&'static str, SolveCount); 3] {
        [
            ("state", self.state),
            ("gradient", self.gradient),
            ("step", self.step),
        ]
    }
}

/// Result of a DBIM reconstruction.
#[derive(Clone, Debug)]
pub struct DbimResult {
    /// Reconstructed object (tree order, includes the k0^2 factor). From
    /// [`dbim_loop`] on a rank grid: the rank's owned pixels.
    pub object: Vec<C64>,
    /// Convergence history of the iterations run in this call.
    pub history: Vec<IterationRecord>,
    /// Relative residual at the start of every completed iteration,
    /// including those restored from a checkpoint.
    pub residual_history: Vec<f64>,
    /// Relative residual after the final update (on a stopped run: the last
    /// measured one).
    pub final_residual: f64,
    /// Total forward-class solves (3 per tx per iteration + final pass).
    pub forward_solves: usize,
    /// The same solves by class, with their iterations and `G0`
    /// multiplications (excluding verification applies). On a rank grid:
    /// this rank's transmitters.
    pub solve_counts: SolveCounts,
    /// Total `G0` (MLFMA) applications (counted by the serial context).
    pub g0_applies: usize,
    /// `Some(next_iter)` when an end-of-iteration hook stopped the run early.
    pub stopped: Option<u32>,
    /// Per-iteration regularization parameter chosen by the hybrid
    /// wGCV-LSQR update (empty for the Tikhonov/smoothness families, whose
    /// lambda is fixed up front).
    pub lambdas: Vec<f64>,
}

impl DbimResult {
    /// Average MLFMA multiplications per forward solution — the paper reports
    /// 13.4 for the Fig. 13 run.
    pub fn mlfma_mults_per_solve(&self) -> f64 {
        self.g0_applies as f64 / self.forward_solves as f64
    }
}

/// What an end-of-iteration hook tells the loop to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Run the next outer iteration.
    Continue,
    /// Stop at this boundary; the iterations so far are complete.
    Stop,
}

/// This rank's slice of the DBIM loop state at an outer-iteration boundary —
/// what the end-of-iteration hook sees, what a checkpoint stores, and what a
/// resumed run starts from.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopState {
    /// Next outer iteration to run (iterations `0..next_iter` are done).
    pub next_iter: usize,
    /// The object iterate on the owned pixels.
    pub object: Vec<C64>,
    /// Previous gradient (Polak–Ribière) on the owned pixels.
    pub grad_prev: Vec<C64>,
    /// Current search direction on the owned pixels.
    pub dir: Vec<C64>,
    /// Warm-start total fields, one per owned transmitter, owned pixels.
    pub fields: Vec<Vec<C64>>,
    /// Relative residual at the start of each completed iteration.
    pub residual_history: Vec<f64>,
}

fn unpack(v: &[(f64, f64)]) -> Vec<C64> {
    v.iter().map(|&(re, im)| c64(re, im)).collect()
}

fn pack(v: &[C64]) -> Vec<(f64, f64)> {
    v.iter().map(|c| (c.re, c.im)).collect()
}

impl LoopState {
    /// The slice of a whole-domain checkpoint owned by a rank holding
    /// `pixels` and `txs`. A transmitter the checkpoint has no field for
    /// (adopted after a redistribution) restarts its solve from zero.
    pub fn from_checkpoint(c: &Checkpoint, pixels: Range<usize>, txs: &[usize]) -> Self {
        let slice = |v: &[(f64, f64)]| unpack(&v[pixels.clone()]);
        LoopState {
            next_iter: c.next_iter as usize,
            object: slice(&c.object),
            grad_prev: slice(&c.grad_prev),
            dir: slice(&c.dir),
            fields: txs
                .iter()
                .map(
                    |&t| match c.fields.iter().find(|(ct, _)| *ct as usize == t) {
                        Some((_, f)) => slice(f),
                        None => vec![C64::ZERO; pixels.len()],
                    },
                )
                .collect(),
            residual_history: c.residual_history.clone(),
        }
    }

    /// The checkpoint of a rank that owns the whole domain and the
    /// transmitters `txs`; the warm-start fields are kept only if the run
    /// uses them.
    pub fn to_checkpoint(&self, fingerprint: u64, txs: &[usize], warm_start: bool) -> Checkpoint {
        Checkpoint {
            fingerprint,
            next_iter: self.next_iter as u32,
            lost_txs: Vec::new(),
            residual_history: self.residual_history.clone(),
            object: pack(&self.object),
            grad_prev: pack(&self.grad_prev),
            dir: pack(&self.dir),
            fields: if warm_start {
                txs.iter()
                    .zip(&self.fields)
                    .map(|(&t, f)| (t as u32, pack(f)))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }
}

/// What the one DBIM loop needs to know about the rank it runs on. The
/// paper's Fig. 6 only changes *which rank owns which transmitters and
/// pixels*; this trait is that ownership plus the three sums it implies.
///
/// Two implementors: the serial context (any [`BlockLinOp`]: whole pixel
/// range, every transmitter, sums with nobody) and `ffw-dist`'s grid context
/// (one rank of the illumination-group × sub-tree grid).
pub trait RankContext {
    /// The rank-local Green's operator. Its [`DistOp::reduce`] sums over the
    /// ranks holding the *other pixels* of this rank's illumination group.
    type G0: DistOp + ?Sized;
    /// The rank-local Green's operator.
    fn g0(&self) -> &Self::G0;
    /// The rank's N-vectors for the run: the forward engine, the scattering
    /// operators and the passes of every outer iteration lease from it, so
    /// after the first iteration nothing between the `G0` applies allocates
    /// one.
    fn workspace(&self) -> &Workspace;
    /// The owned pixel range (tree order).
    fn pixels(&self) -> Range<usize>;
    /// The transmitters this rank's group solves for, ascending.
    fn txs(&self) -> &[usize];
    /// Every transmitter any rank of the run solves for, ascending.
    fn run_txs(&self) -> &[usize] {
        self.txs()
    }
    /// `(group, slot)` of this rank. Slot 0 leads its group: it alone
    /// contributes the group's measurement-space scalars, which every slot
    /// of the group holds in full. `(0, 0)` reports the loop-level obs.
    fn grid_pos(&self) -> (usize, usize) {
        (0, 0)
    }
    /// Sums over the ranks holding this rank's pixels in the other groups.
    fn sum_groups(&self, _vals: &mut [C64]) -> Result<(), FaultError> {
        Ok(())
    }
    /// Sums over all ranks.
    fn sum_all(&self, _vals: &mut [C64]) -> Result<(), FaultError> {
        Ok(())
    }
    /// Closes any pending integrity window at an iteration boundary and
    /// surfaces an escalation that is waiting.
    fn poll_corruption(&self) -> Option<FaultError> {
        None
    }
    /// Called with the loop state after every completed outer iteration
    /// (checkpointing, progress, the stop decision).
    fn end_of_iteration(&self, state: &LoopState) -> Result<Flow, FaultError>;
}

/// The hook type of the serial context.
pub type IterationHook<'a> = &'a dyn Fn(&LoopState) -> Result<Flow, FaultError>;

/// The trivial [`RankContext`]: one rank that owns everything.
struct SerialContext<'a, G: BlockLinOp + ?Sized> {
    /// Counts `G0` applications ("MLFMA multiplications per forward
    /// solution", the paper's Fig. 13 statistic).
    g0: CountingOp<'a, G>,
    ws: &'a Workspace,
    txs: Vec<usize>,
    n_pixels: usize,
    poll: &'a dyn Fn() -> Option<FaultError>,
    hook: IterationHook<'a>,
}

impl<'s, G: BlockLinOp + ?Sized> RankContext for SerialContext<'s, G> {
    type G0 = CountingOp<'s, G>;
    fn g0(&self) -> &Self::G0 {
        &self.g0
    }
    fn workspace(&self) -> &Workspace {
        self.ws
    }
    fn pixels(&self) -> Range<usize> {
        0..self.n_pixels
    }
    fn txs(&self) -> &[usize] {
        &self.txs
    }
    fn poll_corruption(&self) -> Option<FaultError> {
        (self.poll)()
    }
    fn end_of_iteration(&self, state: &LoopState) -> Result<Flow, FaultError> {
        (self.hook)(state)
    }
}

/// Runs the DBIM reconstruction. `measured[t]` holds receiver samples for
/// transmitter `t`. Returns the reconstructed object in tree order.
///
/// With [`DbimConfig::verify`] set, every `G0` apply routes through an ABFT
/// checksum window and the forward engine carries a Krylov drift guard; the
/// checksum window is flushed (and escalated corruption polled) at every
/// iteration boundary, so a corrupted pass is surfaced as
/// [`DbimError::ComputeCorruption`] before its object update is returned.
/// Clean-run reconstructions are bit-identical to the unverified path;
/// `g0_applies` then *includes* the verification applies (checksum columns
/// and drift audits) — they are real MLFMA work spent on the
/// reconstruction's behalf.
///
/// This is [`dbim_loop`] on the serial context — the 1×1 rank grid.
pub fn dbim<G: BlockLinOp + ?Sized>(
    setup: &ImagingSetup,
    g0: &G,
    measured: &[Vec<C64>],
    cfg: &DbimConfig,
) -> Result<DbimResult, DbimError> {
    let ws = Workspace::new();
    dbim_hooked(setup, g0, measured, cfg, None, &|_| Ok(Flow::Continue), &ws)
}

/// [`dbim`] with what a supervised run adds: a start state (a resumed
/// checkpoint), an end-of-iteration hook that sees the loop state and
/// answers continue / stop, and the run's [`Workspace`] in the caller's
/// hands — nothing is on lease while the hook runs, so a hook that is about
/// to pack a checkpoint can [`Workspace::release`] it first.
pub fn dbim_hooked<G: BlockLinOp + ?Sized>(
    setup: &ImagingSetup,
    g0: &G,
    measured: &[Vec<C64>],
    cfg: &DbimConfig,
    init: Option<LoopState>,
    hook: IterationHook<'_>,
    ws: &Workspace,
) -> Result<DbimResult, DbimError> {
    match &cfg.verify {
        None => run_serial(setup, g0, measured, cfg, init, &|| None, hook, ws),
        Some(vc) => {
            let vop = VerifiedBlockOp::new(g0, vc.clone());
            let poll = || {
                // Close the pending checksum window, then surface whatever
                // escalation is waiting (flush itself may set it).
                let flushed = vop.flush().err();
                flushed.or_else(|| vop.take_corruption())
            };
            run_serial(setup, &vop, measured, cfg, init, &poll, hook, ws)
        }
    }
}

/// Runs the loop on the serial context over `g0` (the raw Green's operator
/// or its checksum-verified wrapper).
#[allow(clippy::too_many_arguments)]
fn run_serial<G: BlockLinOp + ?Sized>(
    setup: &ImagingSetup,
    g0: &G,
    measured: &[Vec<C64>],
    cfg: &DbimConfig,
    init: Option<LoopState>,
    poll: &dyn Fn() -> Option<FaultError>,
    hook: IterationHook<'_>,
    ws: &Workspace,
) -> Result<DbimResult, DbimError> {
    let ctx = SerialContext {
        g0: CountingOp::new(g0),
        ws,
        txs: (0..setup.n_tx()).collect(),
        n_pixels: setup.n_pixels(),
        poll,
        hook,
    };
    let mut result = dbim_loop(setup, &ctx, measured, cfg, init)?;
    result.g0_applies = ctx.g0.count();
    Ok(result)
}

/// The passes of one outer iteration: the rank, the forward engine bound to
/// the current object iterate, and the solve accounting they share.
///
/// [`dbim_loop`] is the only user; the type is public so that oracle tests
/// can hold the operators the loop applies — `F` ([`Passes::frechet`]) and
/// `F^H` ([`Passes::frechet_adjoint`]) at the tolerances the loop runs them
/// at — against finite differences and against each other.
pub struct Passes<'a, C: RankContext> {
    setup: &'a ImagingSetup,
    ctx: &'a C,
    /// The object iterate on the owned pixels.
    object: &'a [C64],
    engine: BicgstabBackend<'a, C::G0>,
    /// Settings of the state solves.
    forward: IterConfig,
    /// Settings of the two solves of the linearisation (`frechet`,
    /// `frechet_adjoint`).
    linear: IterConfig,
    /// Transmitters per fused multi-RHS solve.
    batch: usize,
    /// The run's solves so far.
    counts: &'a Cell<SolveCounts>,
}

impl<'a, C: RankContext> Passes<'a, C>
where
    FaultError: From<<C::G0 as DistOp>::Error>,
{
    /// The passes of `cfg` at `object` (the owned pixels) on rank `ctx`,
    /// booking their solves into `counts`. `guard` and `precond` ride into
    /// every solve.
    pub fn new(
        setup: &'a ImagingSetup,
        ctx: &'a C,
        cfg: &DbimConfig,
        object: &'a [C64],
        guard: Option<&'a DriftGuard>,
        precond: Option<PrecondPair<'a>>,
        counts: &'a Cell<SolveCounts>,
    ) -> Self {
        Passes {
            setup,
            ctx,
            object,
            engine: BicgstabBackend::new(ctx.g0(), object, guard, precond, ctx.workspace()),
            forward: cfg.forward,
            // Both update paths: the nonlinear-CG step and the Golub–Kahan
            // products of `wgcv-lsqr` (module docs).
            linear: IterConfig {
                tol: cfg.forward.tol.max(LINEAR_STEP_TOL),
                ..cfg.forward
            },
            batch: cfg.batch.unwrap_or_else(|| ctx.txs().len().min(8)).max(1),
            counts,
        }
    }

    /// Books one batch of solves under `class`; `outside` is the number of
    /// `G0` products per solve the pass makes outside the solver.
    fn count(
        &self,
        class: impl FnOnce(&mut SolveCounts) -> &mut SolveCount,
        stats: &[SolveStats],
        outside: usize,
    ) {
        let mut counts = self.counts.get();
        let c = class(&mut counts);
        c.solves += stats.len();
        c.iters += stats.iter().map(|s| s.iterations).sum::<usize>();
        c.mults += stats.iter().map(|s| s.matvecs + outside).sum::<usize>();
        self.counts.set(counts);
    }

    /// `sum_t ||v_t||^2` over the run's transmitters, for per-transmitter
    /// measurement-space vectors every slot of a group holds in full: the
    /// group leaders contribute, one sum over all ranks.
    fn meas_norm_sqr(&self, vs: &[Vec<C64>]) -> Result<f64, FaultError> {
        let local = if self.ctx.grid_pos().1 == 0 {
            vs.iter().map(|v| norm2_sqr(v)).sum::<f64>()
        } else {
            0.0
        };
        let mut sum = [c64(local, 0.0)];
        self.ctx.sum_all(&mut sum)?;
        Ok(sum[0].re)
    }

    /// `||v||` of an object-space vector partitioned over the group.
    fn obj_norm(&self, v: &[C64]) -> Result<f64, FaultError> {
        let mut sum = [c64(norm2_sqr(v), 0.0)];
        self.ctx.g0().reduce(&mut sum)?;
        Ok(sum[0].re.sqrt())
    }

    /// `GR` applied to one batch of `count` owned-pixel source vectors, the
    /// whole batch's receiver data riding in one group reduction. `source`
    /// writes source `k` into the scratch vector it is given.
    fn to_receivers(
        &self,
        count: usize,
        mut source: impl FnMut(usize, &mut [C64]),
    ) -> Result<Vec<Vec<C64>>, FaultError> {
        let n_rx = self.setup.n_rx();
        let cols = self.ctx.pixels();
        let mut w = self.ctx.workspace().lease(cols.len(), 1);
        let mut data = vec![C64::ZERO; count * n_rx];
        for (k, rx) in data.chunks_mut(n_rx).enumerate() {
            source(k, &mut w[0]);
            self.setup.gr_apply_cols(cols.clone(), &w[0], rx);
        }
        self.ctx.g0().reduce(&mut data)?;
        Ok(data.chunks(n_rx).map(|r| r.to_vec()).collect())
    }

    /// Pass 1 (and the final pass): forward-solve the owned transmitters
    /// from their warm starts, batched, and form
    /// `r_t = GR (O . phi_t) - phi_mea_t`. Returns the residuals and the
    /// run-wide cost `sum_t ||r_t||^2`.
    pub fn residuals(
        &self,
        measured: &[Vec<C64>],
        fields: &mut [Vec<C64>],
    ) -> Result<(Vec<Vec<C64>>, f64), FaultError> {
        let object = self.object;
        let cols = self.ctx.pixels();
        let mut residuals = Vec::with_capacity(fields.len());
        let txs = self.ctx.txs().chunks(self.batch);
        for (chunk, fields_chunk) in txs.zip(fields.chunks_mut(self.batch)) {
            let incs: Vec<&[C64]> = chunk
                .iter()
                .map(|&t| &self.setup.incident(t)[cols.clone()])
                .collect();
            let stats = self.engine.solve_block(&incs, fields_chunk, self.forward)?;
            self.count(|c| &mut c.state, &stats, 0);
            let scattered = self.to_receivers(chunk.len(), |k, w| {
                for ((wi, o), p) in w.iter_mut().zip(object).zip(&fields_chunk[k]) {
                    *wi = *o * *p;
                }
            })?;
            for (&t, mut r) in chunk.iter().zip(scattered) {
                for (ri, mi) in r.iter_mut().zip(&measured[t]) {
                    *ri -= *mi;
                }
                residuals.push(r);
            }
        }
        let cost = self.meas_norm_sqr(&residuals)?;
        Ok((residuals, cost))
    }

    /// `out[t] = F_t d` for the owned transmitters, batched exactly like the
    /// step pass: `w_t = phi_t . d`, `u_t = A^{-1} G0 w_t`,
    /// `F_t d = GR (w_t + O u_t)` (E3, E5). A caller with a use for the
    /// `u_t` — the derivative of `phi_t` along `d` — passes one vector per
    /// field to `keep` them in; otherwise they live one batch at a time.
    pub fn frechet(
        &self,
        fields: &[Vec<C64>],
        d: &[C64],
        mut keep: Option<&mut [Vec<C64>]>,
    ) -> Result<Vec<Vec<C64>>, FaultError> {
        let object = self.object;
        let n = object.len();
        let ws = self.ctx.workspace();
        let mut out = Vec::with_capacity(fields.len());
        for (chunk, fields_chunk) in fields.chunks(self.batch).enumerate() {
            let nb = fields_chunk.len();
            let mut wds = ws.lease(n, nb);
            for (w, f) in wds.iter_mut().zip(fields_chunk) {
                for ((wi, fi), di) in w.iter_mut().zip(f).zip(d) {
                    *wi = *fi * *di;
                }
            }
            let w_refs: Vec<&[C64]> = wds.iter().map(|v| v.as_slice()).collect();
            let mut g0ws = ws.lease(n, nb);
            self.ctx.g0().try_apply_block_local(&w_refs, &mut g0ws)?;
            let g0w_refs: Vec<&[C64]> = g0ws.iter().map(|v| v.as_slice()).collect();
            let mut scratch;
            let us = match keep.as_deref_mut() {
                Some(all) => &mut all[chunk * self.batch..][..nb],
                None => {
                    scratch = ws.lease(n, nb);
                    &mut scratch[..]
                }
            };
            us.iter_mut().for_each(|u| u.fill(C64::ZERO));
            let stats = self.engine.solve_block(&g0w_refs, us, self.linear)?;
            self.count(|c| &mut c.step, &stats, 1);
            // F_t d = GR (w + O u)
            out.extend(self.to_receivers(nb, |k, src| {
                for (((si, wi), ui), oi) in src.iter_mut().zip(&wds[k]).zip(&us[k]).zip(object) {
                    *si = *wi + *oi * *ui;
                }
            })?);
        }
        Ok(out)
    }

    /// `grad = sum_t F_t^H r_t` on the owned pixels, batched exactly like
    /// the gradient pass: `y_t = GR^H r_t`, `A^H z_t = conj(O) . y_t`,
    /// `F_t^H r_t = conj(phi_t) . (y_t + G0^H z_t)` (E3, E4), accumulated in
    /// ascending `t` order at every batch width, then summed over the
    /// groups.
    pub fn frechet_adjoint(
        &self,
        fields: &[Vec<C64>],
        rs: &[Vec<C64>],
        grad: &mut [C64],
    ) -> Result<(), FaultError> {
        let object = self.object;
        let cols = self.ctx.pixels();
        let n = object.len();
        let ws = self.ctx.workspace();
        grad.fill(C64::ZERO);
        for (fields_chunk, rs_chunk) in fields.chunks(self.batch).zip(rs.chunks(self.batch)) {
            let nb = rs_chunk.len();
            let mut ys = ws.lease(n, nb);
            let mut rhss = ws.lease(n, nb);
            for ((y, rhs), r) in ys.iter_mut().zip(rhss.iter_mut()).zip(rs_chunk) {
                self.setup.gr_adjoint_apply_cols(cols.clone(), r, y);
                for ((ri, o), yi) in rhs.iter_mut().zip(object).zip(y.iter()) {
                    *ri = o.conj() * *yi;
                }
            }
            let rhs_refs: Vec<&[C64]> = rhss.iter().map(|v| v.as_slice()).collect();
            let mut zs = ws.lease_zeroed(n, nb);
            let stats = self
                .engine
                .solve_adjoint_block(&rhs_refs, &mut zs, self.linear)?;
            self.count(|c| &mut c.gradient, &stats, 1);
            let z_refs: Vec<&[C64]> = zs.iter().map(|v| v.as_slice()).collect();
            let mut g0hzs = ws.lease(n, nb);
            g0_adjoint_apply_block(self.ctx.g0(), &z_refs, &mut g0hzs, ws)?;
            for ((f, y), g0hz) in fields_chunk.iter().zip(ys.iter()).zip(g0hzs.iter()) {
                for i in 0..n {
                    grad[i] += f[i].conj() * (y[i] + g0hz[i]);
                }
            }
        }
        self.ctx.sum_groups(grad)?;
        Ok(())
    }

    /// `steps` Golub–Kahan bidiagonalization steps of the stacked Fréchet
    /// operator (`F`, and `P F^H` with `P` the real projection under
    /// `real_object`), seeded by the stacked right-hand side `-r`: the
    /// recurrence of the `wgcv-lsqr` update, at the tolerance the loop runs
    /// its products at. Both bases are kept orthonormal by two classical
    /// Gram–Schmidt sweeps per step (CGS2) in the inner product the pair is
    /// adjoint in: the real part of the Hermitian one under `real_object`,
    /// so real vectors stay real, the Hermitian one otherwise. Without them
    /// the products' inexactness and rounding cost the bases their
    /// orthogonality within a few steps, and the projected problem no longer
    /// describes the one it stands for.
    ///
    /// The right basis `v_1 .. v_k` is written into `right[..k]` (`right`
    /// holds `steps` vectors of the owned pixels). `None` when `r` or
    /// `P F^H r` vanishes: there is nothing to project.
    pub fn golub_kahan(
        &self,
        fields: &[Vec<C64>],
        residuals: &[Vec<C64>],
        real_object: bool,
        steps: usize,
        right: &mut [Vec<C64>],
    ) -> Result<Option<GolubKahan>, FaultError> {
        // Linearized subproblem: min_d ||F d + r||^2, i.e. rhs b = -r
        // (stacked over transmitters). beta_1 u_1 = b.
        let beta1 = self.meas_norm_sqr(residuals)?.sqrt();
        if beta1 == 0.0 {
            return Ok(None);
        }
        let mut left: Vec<Vec<Vec<C64>>> = vec![residuals
            .iter()
            .map(|r| r.iter().map(|v| -*v / beta1).collect())
            .collect()];
        // When the object is constrained real, the Fréchet operator acts on
        // real perturbations; its adjoint then carries the real projection
        // `P` — applying P inside the recurrence keeps (F, P F^H) an exact
        // adjoint pair over the real inner product.
        let project = |w: &mut [C64]| {
            if real_object {
                for v in w.iter_mut() {
                    v.im = 0.0;
                }
            }
        };
        let dot = |a: &[C64], b: &[C64]| {
            let d = zdotc(a, b);
            if real_object {
                c64(d.re, 0.0)
            } else {
                d
            }
        };
        let leads = self.ctx.grid_pos().1 == 0;
        // Measurement-space coefficients: the group leaders contribute (every
        // slot of a group holds the group's vectors in full), one sum over
        // all ranks per sweep.
        let left_dot = |u: &Vec<Vec<C64>>, f: &Vec<Vec<C64>>| {
            if leads {
                u.iter().zip(f).map(|(ut, ft)| dot(ut, ft)).sum()
            } else {
                C64::ZERO
            }
        };
        let left_sub = |f: &mut Vec<Vec<C64>>, c: C64, u: &Vec<Vec<C64>>| {
            for (ft, ut) in f.iter_mut().zip(u) {
                for (fj, uj) in ft.iter_mut().zip(ut) {
                    *fj -= c * *uj;
                }
            }
        };
        let left_sum = |c: &mut [C64]| self.ctx.sum_all(c);
        // Object-space coefficients: one reduction over the group per sweep.
        let right_dot = |v: &Vec<C64>, w: &Vec<C64>| dot(v, w);
        let right_sub = |w: &mut Vec<C64>, c: C64, v: &Vec<C64>| {
            for (wj, vj) in w.iter_mut().zip(v) {
                *wj -= c * *vj;
            }
        };
        let right_sum = |c: &mut [C64]| self.ctx.g0().reduce(c).map_err(FaultError::from);

        // alpha_1 v_1 = P F^H u_1
        self.frechet_adjoint(fields, &left[0], &mut right[0])?;
        project(&mut right[0]);
        let alpha1 = self.obj_norm(&right[0])?;
        if alpha1 == 0.0 {
            return Ok(None);
        }
        for x in right[0].iter_mut() {
            *x = *x / alpha1;
        }
        let mut alphas = vec![alpha1];
        let mut betas: Vec<f64> = Vec::with_capacity(steps);
        for i in 0..steps {
            let (built, next) = right.split_at_mut(alphas.len());
            // beta_{i+1} u_{i+1} = F v_i - alpha_i u_i, reorthogonalized
            let mut fu = self.frechet(fields, &built[i], None)?;
            left_sub(&mut fu, c64(alphas[i], 0.0), &left[i]);
            cgs2(&left, &mut fu, left_dot, left_sub, left_sum)?;
            let beta = self.meas_norm_sqr(&fu)?.sqrt();
            betas.push(beta);
            if beta <= f64::EPSILON * alpha1 || i + 1 == steps {
                break;
            }
            for f in fu.iter_mut() {
                for x in f.iter_mut() {
                    *x = *x / beta;
                }
            }
            left.push(fu);
            // alpha_{i+1} v_{i+1} = P F^H u_{i+1} - beta_{i+1} v_i,
            // reorthogonalized
            let w = &mut next[0];
            self.frechet_adjoint(fields, &left[i + 1], w)?;
            project(w);
            right_sub(w, c64(beta, 0.0), &built[i]);
            cgs2(built, w, right_dot, right_sub, right_sum)?;
            let alpha = self.obj_norm(w)?;
            if alpha <= f64::EPSILON * alpha1 {
                break;
            }
            for x in w.iter_mut() {
                *x = *x / alpha;
            }
            alphas.push(alpha);
        }
        Ok(Some(GolubKahan {
            beta1,
            bidiag: Bidiag { alphas, betas },
            left,
        }))
    }

    /// One hybrid-projection update (the wgcv-lsqr regularizer's whole inner
    /// step): [`Passes::golub_kahan`], wGCV-selected lambda on the projected
    /// bidiagonal problem, and the lift `delta = V y`. Writes the object
    /// update on the owned pixels into `delta` and returns
    /// `(lambda, step_norm)`: the chosen regularization parameter and the
    /// norm of the projected solution (== `||delta||`, `V` being
    /// orthonormal; reported as the iteration's step length).
    fn wgcv_lsqr_update(
        &self,
        fields: &[Vec<C64>],
        residuals: &[Vec<C64>],
        real_object: bool,
        steps: usize,
        omega: f64,
        delta: &mut [C64],
    ) -> Result<(f64, f64), FaultError> {
        delta.fill(C64::ZERO);
        let mut basis = self.ctx.workspace().lease(self.object.len(), steps.max(1));
        let Some(gk) = self.golub_kahan(fields, residuals, real_object, steps, &mut basis)? else {
            return Ok((0.0, 0.0));
        };
        let proj = ProjectedProblem::new(&gk.bidiag, gk.beta1);
        let lambda = proj.wgcv_lambda(omega);
        let y = proj.solve(lambda);
        for (yi, vi) in y.iter().zip(basis.iter()) {
            axpy_real(*yi, vi, delta);
        }
        let step_norm = y.iter().map(|c| c * c).sum::<f64>().sqrt();
        Ok((lambda, step_norm))
    }
}

/// What [`Passes::golub_kahan`] built besides the right basis.
pub struct GolubKahan {
    /// `beta_1 = ||r||` over the run's transmitters.
    pub beta1: f64,
    /// The projected operator `B_k`.
    pub bidiag: Bidiag,
    /// The left basis `u_1, u_2, ...` (`k`, or `k + 1` when the recurrence
    /// stopped at a vanishing `alpha`): each one vector per owned
    /// transmitter, in receiver space.
    pub left: Vec<Vec<Vec<C64>>>,
}

/// Two classical Gram–Schmidt sweeps of `x` against the orthonormal `basis`
/// (CGS2): each sweep takes every coefficient `dot(b, x)` first, sums them
/// over the ranks in one `sum`, then subtracts `sub(x, c, b)`. The second
/// sweep removes what rounding and the first sweep's cancellation left.
fn cgs2<T>(
    basis: &[T],
    x: &mut T,
    dot: impl Fn(&T, &T) -> C64,
    sub: impl Fn(&mut T, C64, &T),
    sum: impl Fn(&mut [C64]) -> Result<(), FaultError>,
) -> Result<(), FaultError> {
    for _ in 0..2 {
        let mut coefs: Vec<C64> = basis.iter().map(|b| dot(b, x)).collect();
        sum(&mut coefs)?;
        for (c, b) in coefs.iter().zip(basis) {
            sub(x, *c, b);
        }
    }
    Ok(())
}

/// The DBIM outer loop — the only one in the workspace — on the rank
/// described by `ctx`. `measured[t]` is indexed by global transmitter id;
/// `init` resumes from a checkpointed boundary (`None` starts from
/// [`DbimConfig::initial`] or the zero background).
///
/// Every rank of a grid runs this same code on its slice: the passes use the
/// column-sliced receiver operator, every measurement-space scalar (cost,
/// step numerator / denominator, wGCV beta) and object-space scalar
/// (Polak–Ribière dots, wGCV alpha) goes through the context's sums, and the
/// loop-level obs is emitted by rank `(0, 0)` only. With `cfg.verify` set
/// the forward engine carries a Krylov [`DriftGuard`] on every context.
pub fn dbim_loop<C: RankContext>(
    setup: &ImagingSetup,
    ctx: &C,
    measured: &[Vec<C64>],
    cfg: &DbimConfig,
    init: Option<LoopState>,
) -> Result<DbimResult, DbimError>
where
    FaultError: From<<C::G0 as DistOp>::Error>,
{
    let reports = ctx.grid_pos() == (0, 0);
    let span = |name: &'static str| reports.then(|| ffw_obs::span(name));
    let series = |name: &str, v: f64| {
        if reports {
            ffw_obs::series_push(name, v);
        }
    };
    let _span = span("dbim");
    let ws = ctx.workspace();
    let cols = ctx.pixels();
    let n = cols.len();
    let n_own = ctx.txs().len();
    assert_eq!(measured.len(), setup.n_tx());
    assert!(
        cfg.precondition.is_none() || !matches!(cfg.regularizer, Regularizer::WgcvLsqr { .. }),
        "the wgcv-lsqr hybrid projection replaces the nonlinear-CG passes and \
         is incompatible with leaf-block Jacobi preconditioning"
    );
    let guard = cfg.verify.as_ref().map(|_| DriftGuard::default());
    let guard = guard.as_ref();

    let mut st = init.unwrap_or_else(|| LoopState {
        next_iter: 0,
        object: match &cfg.initial {
            Some(o) => {
                assert_eq!(o.len(), setup.n_pixels(), "initial guess dimension");
                o[cols.clone()].to_vec()
            }
            None => vec![C64::ZERO; n],
        },
        grad_prev: vec![C64::ZERO; n],
        dir: vec![C64::ZERO; n],
        fields: vec![vec![C64::ZERO; n]; n_own], // warm starts
        residual_history: Vec::new(),
    });
    assert_eq!(st.object.len(), n, "start state dimension");
    assert_eq!(st.fields.len(), n_own, "start state transmitters");
    let mut history = Vec::with_capacity(cfg.iterations.saturating_sub(st.next_iter));
    let counts = Cell::new(SolveCounts::default());

    // Measured norm over the run's transmitters only: losing a group
    // reweights the residual to what is actually still being fit.
    let measured_norm_sqr: f64 = ctx.run_txs().iter().map(|&t| norm2_sqr(&measured[t])).sum();

    // Fixed penalty weights for the closed-form families. The smoothness
    // prior's relative weight is seeded from the measured-data power so one
    // lambda transfers across scenes and noise levels.
    let tik_lambda = match cfg.regularizer {
        Regularizer::Tikhonov { lambda } => lambda,
        _ => 0.0,
    };
    let smooth_lambda = match cfg.regularizer {
        Regularizer::Smoothness { lambda } => lambda * measured_norm_sqr,
        _ => 0.0,
    };
    assert!(
        smooth_lambda == 0.0 || n == setup.n_pixels(),
        "the smoothness stencil crosses sub-tree boundaries: it needs the whole pixel range"
    );
    let mut lambdas: Vec<f64> = Vec::new();
    let mut stopped = None;

    for it in st.next_iter..cfg.iterations {
        let _iter_span = span("iter");
        if reports {
            ffw_obs::counter("dbim.outer_iters").inc();
        }
        let before = counts.get();
        // (re)build the block-Jacobi preconditioners for the current object
        let preconds = cfg.precondition.as_ref().map(|plan| {
            (
                LeafBlockJacobi::new(plan, &st.object),
                LeafBlockJacobi::new_adjoint(plan, &st.object),
            )
        });
        let precond_pair = preconds.as_ref().map(|(m, mh)| -> PrecondPair { (m, mh) });
        // Bind the forward engine to the current object iterate. It borrows
        // the iterate, so the update is applied after the last pass.
        let pass = Passes::new(setup, ctx, cfg, &st.object, guard, precond_pair, &counts);

        // --- pass 1: fields and residuals ---
        let fields_span = span("fields");
        if !cfg.warm_start {
            for f in st.fields.iter_mut() {
                f.iter_mut().for_each(|v| *v = C64::ZERO);
            }
        }
        let (residuals, cost) = pass.residuals(measured, &mut st.fields)?;
        drop(fields_span);
        let rel_residual = (cost / measured_norm_sqr).sqrt();
        st.residual_history.push(rel_residual);
        series("dbim.residual", rel_residual);
        let record = |step: f64| {
            let (now, before) = (counts.get().named(), before.named());
            let spent: [usize; 3] = std::array::from_fn(|k| now[k].1.iters - before[k].1.iters);
            for ((name, _), iters) in now.iter().zip(spent) {
                series(&format!("dbim.iters.{name}"), iters as f64);
            }
            let [state_iters, gradient_iters, step_iters] = spent;
            IterationRecord {
                cost,
                rel_residual,
                step,
                solver_iters: state_iters + gradient_iters + step_iters,
                state_iters,
                gradient_iters,
                step_iters,
            }
        };

        let (step, delta) = if let Regularizer::WgcvLsqr { steps, omega } = cfg.regularizer {
            // --- hybrid-projection update (replaces the gradient and step
            // passes): Golub–Kahan bidiagonalization of the Fréchet operator,
            // wGCV lambda on the projected problem, lift, project. ---
            let _wgcv_span = span("wgcv");
            let mut delta = ws.lease(n, 1);
            let (lambda, step_norm) = pass.wgcv_lsqr_update(
                &st.fields,
                &residuals,
                cfg.real_object,
                steps,
                omega,
                &mut delta[0],
            )?;
            series("dbim.lambda", lambda);
            lambdas.push(lambda);
            (step_norm, delta)
        } else {
            // --- pass 2: gradient ---
            let gradient_span = span("gradient");
            let mut grad_lease = ws.lease(n, 1);
            let grad = &mut grad_lease[0];
            pass.frechet_adjoint(&st.fields, &residuals, grad)?;
            if tik_lambda > 0.0 {
                for (g, o) in grad.iter_mut().zip(&st.object) {
                    *g += *o * tik_lambda;
                }
            }
            if smooth_lambda > 0.0 {
                // gradient of lambda ||L O||^2 is lambda L^T L O = lambda L(L O)
                let llo = laplacian_tree(&setup.tree, &laplacian_tree(&setup.tree, &st.object));
                for (g, l) in grad.iter_mut().zip(&llo) {
                    *g += *l * smooth_lambda;
                }
            }
            if cfg.real_object {
                for v in grad.iter_mut() {
                    v.im = 0.0;
                }
            }
            drop(gradient_span);

            // --- conjugate direction (Polak–Ribière+, restart on negative):
            // the three object-space dots ride in one reduction ---
            let mut dots = [
                c64(norm2_sqr(grad), 0.0),
                grad.iter()
                    .zip(&st.grad_prev)
                    .map(|(g, gp)| g.conj() * (*g - *gp))
                    .sum::<C64>(),
                c64(norm2_sqr(&st.grad_prev), 0.0),
            ];
            ctx.g0().reduce(&mut dots).map_err(FaultError::from)?;
            if dots[0].re == 0.0 {
                history.push(record(0.0));
                break;
            }
            let beta = if cfg.conjugate && it > 0 {
                (dots[1].re / dots[2].re).max(0.0)
            } else {
                0.0
            };
            for (d, g) in st.dir.iter_mut().zip(grad.iter()) {
                *d = -*g + beta * *d;
            }
            st.grad_prev.copy_from_slice(grad);
            drop(grad_lease);

            // --- pass 3: step size via the Fréchet operator ---
            let _step_span = span("step");
            // The u_t stay out until alpha is known; the vectors the
            // gradient pass returned cover them.
            let mut us = ws.lease(n, n_own);
            let fds = pass.frechet(&st.fields, &st.dir, Some(&mut us))?;
            let mut nd = [C64::ZERO; 2];
            if ctx.grid_pos().1 == 0 {
                for (fd, r) in fds.iter().zip(&residuals) {
                    nd[0].re -= zdotc(fd, r).re;
                    nd[1].re += norm2_sqr(fd);
                }
            }
            ctx.sum_all(&mut nd)?;
            let (mut num, mut den) = (nd[0].re, nd[1].re);
            if tik_lambda > 0.0 {
                // minimize ||b + alpha F d||^2 + lambda ||O + alpha d||^2
                let mut od = [zdotc(&st.dir, &st.object), c64(norm2_sqr(&st.dir), 0.0)];
                ctx.g0().reduce(&mut od).map_err(FaultError::from)?;
                num -= tik_lambda * od[0].re;
                den += tik_lambda * od[1].re;
            }
            if smooth_lambda > 0.0 {
                // minimize ||b + alpha F d||^2 + lambda ||L (O + alpha d)||^2
                let lo = laplacian_tree(&setup.tree, &st.object);
                let ld = laplacian_tree(&setup.tree, &st.dir);
                num -= smooth_lambda * zdotc(&ld, &lo).re;
                den += smooth_lambda * norm2_sqr(&ld);
            }
            let alpha = if den > 0.0 { num / den } else { 0.0 };
            if cfg.warm_start {
                // phi_t at O + alpha d is phi_t + alpha u_t to first order:
                // the next state solve (and a checkpoint of this boundary)
                // starts from there.
                for (f, u) in st.fields.iter_mut().zip(us.iter()) {
                    axpy_real(alpha, u, f);
                }
            }
            drop(us);
            let mut delta = ws.lease(n, 1);
            for (dl, d) in delta[0].iter_mut().zip(&st.dir) {
                *dl = alpha * *d;
            }
            (alpha, delta)
        };
        history.push(record(step));
        for (o, d) in st.object.iter_mut().zip(&delta[0]) {
            *o += *d;
        }
        if cfg.real_object {
            for v in st.object.iter_mut() {
                v.im = 0.0;
            }
        }
        if cfg.positivity {
            for v in st.object.iter_mut() {
                if v.re < 0.0 {
                    v.re = 0.0;
                }
                v.im = 0.0;
            }
        }
        series("dbim.step", step);

        // Iteration boundary: close the checksum window and surface any
        // escalated corruption before the hook (checkpoint) or the next pass
        // builds on this update.
        check_integrity(guard, ctx, cfg, it as u64 + 1)?;
        st.next_iter = it + 1;
        if ctx.end_of_iteration(&st)? == Flow::Stop {
            stopped = Some(st.next_iter as u32);
            break;
        }
    }

    // --- final residual pass (always unpreconditioned, batched); a stopped
    // run reports the last measured residual instead ---
    let final_residual = match stopped {
        Some(_) => st.residual_history.last().copied().unwrap_or(f64::NAN),
        None => {
            let _final_span = span("final");
            let pass = Passes::new(setup, ctx, cfg, &st.object, guard, None, &counts);
            let (_, cost) = pass.residuals(measured, &mut st.fields)?;
            check_integrity(guard, ctx, cfg, cfg.iterations as u64 + 1)?;
            let final_residual = (cost / measured_norm_sqr).sqrt();
            series("dbim.residual", final_residual);
            if reports && ffw_obs::enabled() {
                ffw_obs::gauge("dbim.final_residual").set(final_residual);
            }
            final_residual
        }
    };
    let solve_counts = counts.get();
    if reports && ffw_obs::enabled() {
        for (name, c) in solve_counts.named() {
            ffw_obs::counter(&format!("dbim.solves.{name}")).add(c.solves as u64);
            ffw_obs::counter(&format!("dbim.mults.{name}")).add(c.mults as u64);
        }
    }
    Ok(DbimResult {
        object: st.object,
        history,
        residual_history: st.residual_history,
        final_residual,
        forward_solves: solve_counts.named().iter().map(|(_, c)| c.solves).sum(),
        solve_counts,
        g0_applies: 0,
        lambdas,
        stopped,
    })
}

/// Surfaces escalated compute corruption at an iteration boundary: a
/// checksum escalation reported by the context, or a drift-guard column
/// whose rollback budget was exhausted mid-solve (the solver already froze
/// it at the last verified iterate; the reconstruction must not continue on
/// it).
fn check_integrity<C: RankContext>(
    guard: Option<&DriftGuard>,
    ctx: &C,
    cfg: &DbimConfig,
    iteration: u64,
) -> Result<(), FaultError> {
    if let Some(e) = ctx.poll_corruption() {
        return Err(e);
    }
    if let Some(gd) = guard {
        if gd.escalated() > 0 {
            return Err(FaultError::ComputeCorruption {
                rank: cfg.verify.as_ref().map_or(0, |v| v.rank),
                stage: "krylov.drift".into(),
                panel: iteration,
                attempts: gd.max_rollbacks + 1,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::synthesize_measurements;
    use ffw_geometry::{Domain, Point2, QuadTree, TransducerArray};
    use ffw_greens::{assemble_g0, tree_positions, Kernel};
    use ffw_phantom::{object_from_contrast, Cylinder, Phantom};

    fn small_problem() -> (ImagingSetup, ffw_numerics::linalg::Matrix, Vec<Vec<C64>>) {
        let domain = Domain::new(32, 1.0);
        let ring = 2.0 * domain.side();
        let setup = ImagingSetup::new(
            domain.clone(),
            TransducerArray::ring(3, ring),
            TransducerArray::ring(6, ring),
        );
        let tree = QuadTree::new(&domain);
        let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
        let pos = tree_positions(&domain, &tree);
        let g0 = assemble_g0(&kernel, &pos);
        let truth = Cylinder {
            center: Point2::ZERO,
            radius: 0.25 * domain.side(),
            contrast: 0.05,
        };
        let raster = truth.rasterize(&domain);
        let object = object_from_contrast(&domain, &tree, &raster);
        let measured = synthesize_measurements(&setup, &g0, &object, Default::default());
        (setup, g0, measured)
    }

    /// The configuration fingerprint is what binds a checkpoint to its run.
    /// Two words were added when the arithmetic changed, so that checkpoints
    /// of the old arithmetic are refused; everything else folds what every
    /// earlier version folded (the removed forward-engine choice still folds
    /// its 0). [`LINEAR_STEP_TOL`] comes last: the versions that ran every
    /// solve to `forward.tol` wrote `0x8f09dfded370f5b9` and
    /// `0x01bfa64e4add1016` for these two configurations, one FNV word short
    /// of `0x4190c7a969c42caf` and `0x024ab15b63e736ec`. The `wgcv-lsqr` arm
    /// ends in `1`, the reorthogonalized Golub–Kahan recurrence: the plain
    /// one folded no such word and wrote `0x024ab15b63e736ec` for the second
    /// configuration. The default folds no such arm.
    #[test]
    fn config_fingerprint_is_pinned() {
        let fold = |cfg: &DbimConfig| cfg.fold_fingerprint(Fingerprint::new()).finish();
        assert_eq!(fold(&DbimConfig::default()), 0x4190c7a969c42caf);
        let cfg = DbimConfig {
            iterations: 7,
            positivity: true,
            regularizer: Regularizer::WgcvLsqr {
                steps: 6,
                omega: 0.8,
            },
            initial: Some(vec![c64(0.25, -0.5), c64(-0.0, 1.0)]),
            ..Default::default()
        };
        assert_eq!(fold(&cfg), 0xcdaf02862e499ef1);
    }

    /// Batching the per-transmitter solves is a pure scheduling change:
    /// every batch width must give the bit-identical reconstruction, history
    /// and solve accounting (per-column trajectories equal a width-1 solve).
    #[test]
    fn batch_width_does_not_change_the_reconstruction() {
        let (setup, g0, measured) = small_problem();
        let run = |batch: Option<usize>| {
            let cfg = DbimConfig {
                iterations: 2,
                batch,
                ..Default::default()
            };
            dbim(&setup, &g0, &measured, &cfg).expect("dbim")
        };
        let base = run(Some(1));
        // The accounting by class covers every solve and every `G0` apply
        // of an unverified run: 3 transmitters, 2 iterations and the final
        // pass.
        let by_class = base.solve_counts.named().map(|(_, c)| c);
        assert_eq!(by_class.map(|c| c.solves), [9, 6, 6]);
        assert_eq!(
            by_class.iter().map(|c| c.mults).sum::<usize>(),
            base.g0_applies
        );
        for h in &base.history {
            assert_eq!(
                h.solver_iters,
                h.state_iters + h.gradient_iters + h.step_iters
            );
        }
        for b in [2usize, 3, 8] {
            let r = run(Some(b));
            assert_eq!(r.object, base.object, "batch {b} changed the object");
            assert_eq!(r.solve_counts, base.solve_counts);
            assert_eq!(r.g0_applies, base.g0_applies, "batch {b} applies");
            for (a, bb) in r.history.iter().zip(&base.history) {
                assert_eq!(a.solver_iters, bb.solver_iters);
                assert_eq!(a.cost, bb.cost);
                assert_eq!(a.step, bb.step);
            }
            assert_eq!(r.final_residual, base.final_residual);
        }
        // the default picks min(n_tx, 8) and must agree too
        let default = run(None);
        assert_eq!(default.object, base.object);
    }

    /// The compute-integrity layer must be a pure observer on clean runs:
    /// checksums and drift audits read panel outputs and recurrence state
    /// but never write them, so verify-on reconstructs the bit-identical
    /// object with the bit-identical history.
    #[test]
    fn verify_on_clean_run_is_bit_identical() {
        let (setup, g0, measured) = small_problem();
        let base_cfg = DbimConfig {
            iterations: 2,
            ..Default::default()
        };
        let base = dbim(&setup, &g0, &measured, &base_cfg).expect("clean dbim");
        let cfg = DbimConfig {
            iterations: 2,
            verify: Some(VerifyConfig::default()),
            ..Default::default()
        };
        let verified = dbim(&setup, &g0, &measured, &cfg).expect("verified dbim");
        assert_eq!(verified.object, base.object, "object must be bit-identical");
        assert_eq!(verified.final_residual, base.final_residual);
        assert_eq!(verified.forward_solves, base.forward_solves);
        assert!(
            verified.g0_applies > base.g0_applies,
            "verification applies are real MLFMA work and must be counted"
        );
        for (a, b) in verified.history.iter().zip(&base.history) {
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.step, b.step);
            assert_eq!(a.solver_iters, b.solver_iters);
        }
    }

    /// A single injected bit flip inside the recompute budget is repaired in
    /// place: the run succeeds and lands on the bit-identical reconstruction.
    #[test]
    fn verify_recovers_injected_flip_bit_identically() {
        use ffw_fault::ComputeFault;
        use std::sync::Arc;
        let (setup, g0, measured) = small_problem();
        let base = dbim(
            &setup,
            &g0,
            &measured,
            &DbimConfig {
                iterations: 2,
                ..Default::default()
            },
        )
        .expect("clean dbim");
        // Per-panel verification so the corrupted panel is still pending
        // (recomputable in place) when the mismatch is caught; flip an
        // exponent bit so detection is unconditional.
        let vc = VerifyConfig {
            injector: Some(Arc::new(|panel| {
                (panel == 5).then_some(ComputeFault {
                    slot: 3,
                    bit: 55,
                    times: 1,
                })
            })),
            ..VerifyConfig::default().immediate()
        };
        let cfg = DbimConfig {
            iterations: 2,
            verify: Some(vc),
            ..Default::default()
        };
        let recovered = dbim(&setup, &g0, &measured, &cfg).expect("flip must be recovered");
        assert_eq!(
            recovered.object, base.object,
            "recovered reconstruction must be bit-identical to the clean one"
        );
        assert_eq!(recovered.final_residual, base.final_residual);
    }

    /// A flip that persists past the recompute budget must abort the
    /// reconstruction with the typed corruption error — never return an
    /// object computed from corrupted panels.
    #[test]
    fn verify_escalates_persistent_corruption() {
        use ffw_fault::ComputeFault;
        use std::sync::Arc;
        let (setup, g0, measured) = small_problem();
        let vc = VerifyConfig {
            max_recomputes: 2,
            injector: Some(Arc::new(|panel| {
                (panel == 5).then_some(ComputeFault {
                    slot: 3,
                    bit: 55,
                    times: 100, // survives every recompute
                })
            })),
            ..VerifyConfig::default().immediate()
        };
        let cfg = DbimConfig {
            iterations: 2,
            verify: Some(vc),
            ..Default::default()
        };
        let err = dbim(&setup, &g0, &measured, &cfg).expect_err("must escalate");
        match err {
            DbimError::ComputeCorruption(FaultError::ComputeCorruption {
                stage, attempts, ..
            }) => {
                assert_eq!(stage, "mlfma.apply_block");
                assert_eq!(attempts, 3, "initial compute + max_recomputes");
            }
            other => panic!("expected ComputeCorruption, got {other:?}"),
        }
    }
}

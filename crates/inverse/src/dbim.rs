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
//! exactly the paper's accounting. The paper's only regularization is early
//! termination (Section V-B); [`DbimConfig::regularizer`] adds selectable
//! penalties and a hybrid-projection update on the linearized step (see
//! [`crate::regularize`]).

use crate::precond::LeafBlockJacobi;
use crate::problem::ImagingSetup;
use crate::regularize::{laplacian_tree, Bidiag, ProjectedProblem, Regularizer};
use ffw_fault::FaultError;
use ffw_mlfma::MlfmaPlan;
use ffw_numerics::vecops::{axpy_real, norm2, norm2_sqr, zdotc};
use ffw_numerics::C64;
use ffw_solver::{
    estimate_g0_norm, g0_adjoint_apply_block, make_backend, BackendChoice, BackendError,
    BlockLinOp, CountingOp, DriftGuard, ForwardBackend, IterConfig, PrecondPair, VerifiedBlockOp,
    VerifyConfig, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED,
};
use std::sync::Arc;

/// DBIM configuration.
#[derive(Clone)]
pub struct DbimConfig {
    /// Nonlinear CG iterations (the paper runs 50).
    pub iterations: usize,
    /// Forward/adjoint solver settings (paper: BiCGStab at 1e-4).
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
    /// Forward engine for the (batched) forward/adjoint solves. The choice
    /// is config, not code path: `dbim` routes every solve through the
    /// [`ffw_solver::ForwardBackend`] trait, so a new engine needs only a
    /// `make_backend` arm, never a `dbim` change. The Born-series engine
    /// validates its contrast bound against each object iterate and fails
    /// typed ([`DbimError::Backend`]) instead of diverging. Incompatible
    /// with `precondition` (leaf-block Jacobi rides into the BiCGStab kernel).
    pub backend: BackendChoice,
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
            .field("backend", &self.backend)
            .field("verify", &self.verify)
            .finish()
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
            backend: BackendChoice::default(),
            verify: None,
        }
    }
}

/// Typed failure of a DBIM reconstruction.
#[derive(Clone, Debug, PartialEq)]
pub enum DbimError {
    /// The selected forward backend rejected the problem — e.g. the
    /// Born-series contrast bound was exceeded by an object iterate.
    Backend(BackendError),
    /// Silent data corruption was detected by the compute-integrity layer
    /// ([`DbimConfig::verify`]) and survived the bounded recompute /
    /// rollback budget — the reconstruction cannot be trusted and no object
    /// is returned.
    ComputeCorruption(FaultError),
}

impl std::fmt::Display for DbimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbimError::Backend(e) => write!(f, "forward backend rejected the problem: {e}"),
            DbimError::ComputeCorruption(e) => {
                write!(f, "unrecoverable compute corruption: {e}")
            }
        }
    }
}

impl std::error::Error for DbimError {}

impl From<BackendError> for DbimError {
    fn from(e: BackendError) -> Self {
        DbimError::Backend(e)
    }
}

/// Per-iteration convergence record.
#[derive(Clone, Debug)]
pub struct IterationRecord {
    /// Cost `sum_t ||r_t||^2` at the start of the iteration.
    pub cost: f64,
    /// Relative residual norm at the start of the iteration.
    pub rel_residual: f64,
    /// Step length taken.
    pub step: f64,
    /// Forward-solver iterations spent this DBIM iteration (all solves,
    /// whichever backend performed them).
    pub solver_iters: usize,
}

/// Result of a DBIM reconstruction.
#[derive(Clone, Debug)]
pub struct DbimResult {
    /// Reconstructed object (tree order, includes the k0^2 factor).
    pub object: Vec<C64>,
    /// Convergence history.
    pub history: Vec<IterationRecord>,
    /// Relative residual after the final update.
    pub final_residual: f64,
    /// Total forward-class solves (3 per tx per iteration + final pass).
    pub forward_solves: usize,
    /// Total `G0` (MLFMA) applications.
    pub g0_applies: usize,
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

/// Runs the DBIM reconstruction. `measured[t]` holds receiver samples for
/// transmitter `t`. Returns the reconstructed object in tree order.
///
/// Forward and adjoint solves go through the [`ffw_solver::ForwardBackend`]
/// selected by `cfg.backend`; a backend may reject an object iterate (the
/// Born series enforces its contrast bound at construction), which surfaces
/// as a typed [`DbimError`] instead of a silent divergence.
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
pub fn dbim<G: BlockLinOp + ?Sized>(
    setup: &ImagingSetup,
    g0: &G,
    measured: &[Vec<C64>],
    cfg: &DbimConfig,
) -> Result<DbimResult, DbimError> {
    match &cfg.verify {
        None => dbim_inner(setup, g0, measured, cfg, None, &|| None),
        Some(vc) => {
            let vop = VerifiedBlockOp::new(g0, vc.clone());
            let guard = DriftGuard::default();
            let poll = || {
                // Close the pending checksum window, then surface whatever
                // escalation is waiting (flush itself may set it).
                let flushed = vop.flush().err();
                flushed.or_else(|| vop.take_corruption())
            };
            dbim_inner(setup, &vop, measured, cfg, Some(&guard), &poll)
        }
    }
}

/// The generic DBIM loop: `g0` is either the raw Green's operator or its
/// checksum-verified wrapper; `guard`/`poll` are the drift guard attached to
/// the forward engine and the per-iteration corruption poll (no-ops on the
/// unverified path).
fn dbim_inner<G: BlockLinOp + ?Sized, P: Fn() -> Option<FaultError>>(
    setup: &ImagingSetup,
    g0: &G,
    measured: &[Vec<C64>],
    cfg: &DbimConfig,
    guard: Option<&DriftGuard>,
    poll: &P,
) -> Result<DbimResult, DbimError> {
    let _span = ffw_obs::span("dbim");
    let n = setup.n_pixels();
    let n_tx = setup.n_tx();
    assert_eq!(measured.len(), n_tx);
    assert!(
        cfg.precondition.is_none() || cfg.backend == BackendChoice::Bicgstab,
        "leaf-block Jacobi preconditioning is specific to the BiCGStab backend"
    );
    assert!(
        cfg.precondition.is_none() || !matches!(cfg.regularizer, Regularizer::WgcvLsqr { .. }),
        "the wgcv-lsqr hybrid projection replaces the nonlinear-CG passes and \
         is incompatible with leaf-block Jacobi preconditioning"
    );
    // The Green's-operator norm is a per-run constant (the object never
    // changes G0): estimate it once, before the counting wrapper, so
    // `g0_applies` keeps meaning "MLFMA applications spent reconstructing".
    let g0_norm = if cfg.backend == BackendChoice::BornSeries {
        estimate_g0_norm(g0, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED)
    } else {
        0.0
    };
    let g0c = CountingOp::new(g0);
    let g0 = &g0c;
    let batch = cfg.batch.unwrap_or_else(|| n_tx.min(8)).max(1);

    let mut object = match &cfg.initial {
        Some(o) => {
            assert_eq!(o.len(), n, "initial guess dimension");
            o.clone()
        }
        None => vec![C64::ZERO; n],
    };
    let mut fields: Vec<Vec<C64>> = vec![vec![C64::ZERO; n]; n_tx]; // warm starts
    let mut grad_prev = vec![C64::ZERO; n];
    let mut dir = vec![C64::ZERO; n];
    let mut history = Vec::with_capacity(cfg.iterations);
    let mut forward_solves = 0usize;

    let measured_norm_sqr: f64 = measured.iter().map(|m| norm2_sqr(m)).sum();

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
    let mut lambdas: Vec<f64> = Vec::new();

    for it in 0..cfg.iterations {
        let _iter_span = ffw_obs::span("iter");
        ffw_obs::counter("dbim.outer_iters").inc();
        let mut cost = 0.0f64;
        let mut solver_iters = 0usize;
        let mut residuals: Vec<Vec<C64>> = Vec::with_capacity(n_tx);
        // (re)build the block-Jacobi preconditioners for the current object
        let preconds = cfg.precondition.as_ref().map(|plan| {
            (
                LeafBlockJacobi::new(plan, &object),
                LeafBlockJacobi::new_adjoint(plan, &object),
            )
        });
        let precond_pair = preconds.as_ref().map(|(m, mh)| -> PrecondPair { (m, mh) });
        // (re)build the forward engine against the current object iterate;
        // admission (e.g. the Born-series contrast bound, which depends on
        // max|O| of *this* iterate) happens here, before any solve runs.
        let backend = make_backend(cfg.backend, g0, &object, g0_norm, guard, precond_pair)?;
        // --- pass 1: fields and residuals ---
        let fields_span = ffw_obs::span("fields");
        if !cfg.warm_start {
            for f in fields.iter_mut() {
                f.iter_mut().for_each(|v| *v = C64::ZERO);
            }
        }
        // Batched: each chunk of transmitters shares fused traversals, with
        // per-column convergence masking inside the block solver.
        for t0 in (0..n_tx).step_by(batch) {
            let t1 = (t0 + batch).min(n_tx);
            let incs: Vec<&[C64]> = (t0..t1).map(|t| setup.incident(t)).collect();
            let stats = backend.solve_block(&incs, &mut fields[t0..t1], cfg.forward);
            forward_solves += t1 - t0;
            solver_iters += stats.iter().map(|s| s.iterations).sum::<usize>();
        }
        for t in 0..n_tx {
            let mut r = vec![C64::ZERO; setup.n_rx()];
            setup.scattered(&object, &fields[t], &mut r);
            for (ri, mi) in r.iter_mut().zip(&measured[t]) {
                *ri -= *mi;
            }
            cost += norm2_sqr(&r);
            residuals.push(r);
        }
        drop(fields_span);
        let rel_residual = (cost / measured_norm_sqr).sqrt();
        ffw_obs::series_push("dbim.residual", rel_residual);

        if let Regularizer::WgcvLsqr { steps, omega } = cfg.regularizer {
            // --- hybrid-projection update (replaces the gradient and step
            // passes): Golub–Kahan bidiagonalization of the Fréchet operator,
            // wGCV lambda on the projected problem, lift, project. ---
            let wgcv_span = ffw_obs::span("wgcv");
            let mut counters = (0usize, 0usize);
            let up = wgcv_lsqr_update(
                setup,
                g0,
                backend.as_ref(),
                &fields,
                &residuals,
                &object,
                cfg.real_object,
                steps,
                omega,
                cfg.forward,
                batch,
                &mut counters,
            );
            forward_solves += counters.0;
            solver_iters += counters.1;
            drop(wgcv_span);
            drop(backend);
            for (o, d) in object.iter_mut().zip(&up.delta) {
                *o += *d;
            }
            if cfg.real_object {
                for v in object.iter_mut() {
                    v.im = 0.0;
                }
            }
            if cfg.positivity {
                for v in object.iter_mut() {
                    if v.re < 0.0 {
                        v.re = 0.0;
                    }
                    v.im = 0.0;
                }
            }
            ffw_obs::series_push("dbim.lambda", up.lambda);
            ffw_obs::series_push("dbim.step", up.step_norm);
            lambdas.push(up.lambda);
            history.push(IterationRecord {
                cost,
                rel_residual,
                step: up.step_norm,
                solver_iters,
            });
            check_integrity(guard, poll, cfg, it as u64 + 1)?;
            continue;
        }

        // --- pass 2: gradient ---
        let gradient_span = ffw_obs::span("gradient");
        let mut counters = (0usize, 0usize);
        let mut grad = frechet_adjoint_apply_block(
            setup,
            g0,
            backend.as_ref(),
            &fields,
            &object,
            &residuals,
            cfg.forward,
            batch,
            &mut counters,
        );
        forward_solves += counters.0;
        solver_iters += counters.1;
        if tik_lambda > 0.0 {
            for (g, o) in grad.iter_mut().zip(&object) {
                *g += *o * tik_lambda;
            }
        }
        if smooth_lambda > 0.0 {
            // gradient of lambda ||L O||^2 is lambda L^T L O = lambda L(L O)
            let llo = laplacian_tree(&setup.tree, &laplacian_tree(&setup.tree, &object));
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

        // --- conjugate direction (Polak–Ribière+, restart on negative) ---
        let g_norm_sqr = norm2_sqr(&grad);
        if g_norm_sqr == 0.0 {
            history.push(IterationRecord {
                cost,
                rel_residual,
                step: 0.0,
                solver_iters,
            });
            break;
        }
        let beta = if cfg.conjugate && it > 0 {
            let prev_sqr = norm2_sqr(&grad_prev);
            let pr = grad
                .iter()
                .zip(&grad_prev)
                .map(|(g, gp)| g.conj() * (*g - *gp))
                .sum::<C64>()
                .re
                / prev_sqr;
            pr.max(0.0)
        } else {
            0.0
        };
        for i in 0..n {
            dir[i] = -grad[i] + beta * dir[i];
        }
        grad_prev.copy_from_slice(&grad);

        // --- pass 3: step size via the Fréchet operator ---
        let step_span = ffw_obs::span("step");
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        let mut counters = (0usize, 0usize);
        let fds = frechet_apply_block(
            setup,
            g0,
            backend.as_ref(),
            &fields,
            &object,
            &dir,
            cfg.forward,
            batch,
            &mut counters,
        );
        forward_solves += counters.0;
        solver_iters += counters.1;
        for (fd, r) in fds.iter().zip(&residuals) {
            num -= zdotc(fd, r).re;
            den += norm2_sqr(fd);
        }
        if tik_lambda > 0.0 {
            // minimize ||b + alpha F d||^2 + lambda ||O + alpha d||^2
            num -= tik_lambda * zdotc(&dir, &object).re;
            den += tik_lambda * norm2_sqr(&dir);
        }
        if smooth_lambda > 0.0 {
            // minimize ||b + alpha F d||^2 + lambda ||L (O + alpha d)||^2
            let lo = laplacian_tree(&setup.tree, &object);
            let ld = laplacian_tree(&setup.tree, &dir);
            num -= smooth_lambda * zdotc(&ld, &lo).re;
            den += smooth_lambda * norm2_sqr(&ld);
        }
        drop(step_span);
        // Release the backend's borrow of the object before updating it; the
        // next iteration re-admits the updated iterate from scratch.
        drop(backend);
        let alpha = if den > 0.0 { num / den } else { 0.0 };
        ffw_obs::series_push("dbim.step", alpha);
        for i in 0..n {
            object[i] += alpha * dir[i];
        }
        if cfg.real_object {
            for v in object.iter_mut() {
                v.im = 0.0;
            }
        }
        if cfg.positivity {
            for v in object.iter_mut() {
                if v.re < 0.0 {
                    v.re = 0.0;
                }
                v.im = 0.0;
            }
        }

        history.push(IterationRecord {
            cost,
            rel_residual,
            step: alpha,
            solver_iters,
        });

        // Iteration boundary: close the checksum window and surface any
        // escalated corruption before the next pass builds on this update.
        check_integrity(guard, poll, cfg, it as u64 + 1)?;
    }

    // --- final residual pass (always unpreconditioned, batched) ---
    let _final_span = ffw_obs::span("final");
    let mut cost = 0.0f64;
    let backend = make_backend(cfg.backend, g0, &object, g0_norm, guard, None)?;
    for t0 in (0..n_tx).step_by(batch) {
        let t1 = (t0 + batch).min(n_tx);
        let incs: Vec<&[C64]> = (t0..t1).map(|t| setup.incident(t)).collect();
        let stats = backend.solve_block(&incs, &mut fields[t0..t1], cfg.forward);
        forward_solves += t1 - t0;
        let _ = stats;
    }
    drop(backend);
    for t in 0..n_tx {
        let mut r = vec![C64::ZERO; setup.n_rx()];
        setup.scattered(&object, &fields[t], &mut r);
        for (ri, mi) in r.iter_mut().zip(&measured[t]) {
            *ri -= *mi;
        }
        cost += norm2_sqr(&r);
    }
    check_integrity(guard, poll, cfg, cfg.iterations as u64 + 1)?;
    let final_residual = (cost / measured_norm_sqr).sqrt();
    ffw_obs::series_push("dbim.residual", final_residual);
    if ffw_obs::enabled() {
        ffw_obs::gauge("dbim.final_residual").set(final_residual);
    }

    Ok(DbimResult {
        object,
        history,
        final_residual,
        forward_solves,
        g0_applies: g0c.count(),
        lambdas,
    })
}

/// `out[t] = F_t d` for all transmitters, batched exactly like the step
/// pass: `w_t = phi_t . d`, `u_t = A^{-1} G0 w_t`, `F_t d = GR (w_t + O u_t)`
/// (E3, E5). `counters` accumulates `(forward_solves, solver_iters)`.
#[allow(clippy::too_many_arguments)]
fn frechet_apply_block<G: BlockLinOp + ?Sized>(
    setup: &ImagingSetup,
    g0: &G,
    backend: &dyn ForwardBackend,
    fields: &[Vec<C64>],
    object: &[C64],
    d: &[C64],
    forward: IterConfig,
    batch: usize,
    counters: &mut (usize, usize),
) -> Vec<Vec<C64>> {
    let n = object.len();
    let n_tx = fields.len();
    let mut out = Vec::with_capacity(n_tx);
    for t0 in (0..n_tx).step_by(batch) {
        let t1 = (t0 + batch).min(n_tx);
        let nb = t1 - t0;
        let ws: Vec<Vec<C64>> = (t0..t1)
            .map(|t| fields[t].iter().zip(d).map(|(f, di)| *f * *di).collect())
            .collect();
        let w_refs: Vec<&[C64]> = ws.iter().map(|v| v.as_slice()).collect();
        let mut g0ws = vec![vec![C64::ZERO; n]; nb];
        g0.apply_block(&w_refs, &mut g0ws);
        let g0w_refs: Vec<&[C64]> = g0ws.iter().map(|v| v.as_slice()).collect();
        let mut us = vec![vec![C64::ZERO; n]; nb];
        let stats = backend.solve_block(&g0w_refs, &mut us, forward);
        counters.0 += nb;
        counters.1 += stats.iter().map(|s| s.iterations).sum::<usize>();
        for k in 0..nb {
            // F_t d = GR (w + O u)
            let src: Vec<C64> = ws[k]
                .iter()
                .zip(&us[k])
                .zip(object)
                .map(|((wi, ui), oi)| *wi + *oi * *ui)
                .collect();
            let mut fd = vec![C64::ZERO; setup.n_rx()];
            setup.gr_apply(&src, &mut fd);
            out.push(fd);
        }
    }
    out
}

/// `out = sum_t F_t^H r_t`, batched exactly like the gradient pass:
/// `y_t = GR^H r_t`, `A^H z_t = conj(O) . y_t`,
/// `F_t^H r_t = conj(phi_t) . (y_t + G0^H z_t)` (E3, E4), accumulated in
/// ascending `t` order at every batch width.
#[allow(clippy::too_many_arguments)]
fn frechet_adjoint_apply_block<G: BlockLinOp + ?Sized>(
    setup: &ImagingSetup,
    g0: &G,
    backend: &dyn ForwardBackend,
    fields: &[Vec<C64>],
    object: &[C64],
    rs: &[Vec<C64>],
    forward: IterConfig,
    batch: usize,
    counters: &mut (usize, usize),
) -> Vec<C64> {
    let n = object.len();
    let n_tx = fields.len();
    let mut grad = vec![C64::ZERO; n];
    for t0 in (0..n_tx).step_by(batch) {
        let t1 = (t0 + batch).min(n_tx);
        let nb = t1 - t0;
        let mut ys = Vec::with_capacity(nb);
        let mut rhss = Vec::with_capacity(nb);
        for r in &rs[t0..t1] {
            let mut y = vec![C64::ZERO; n];
            setup.gr_adjoint_apply(r, &mut y);
            let rhs: Vec<C64> = object
                .iter()
                .zip(&y)
                .map(|(o, yi)| o.conj() * *yi)
                .collect();
            ys.push(y);
            rhss.push(rhs);
        }
        let rhs_refs: Vec<&[C64]> = rhss.iter().map(|v| v.as_slice()).collect();
        let mut zs = vec![vec![C64::ZERO; n]; nb];
        let stats = backend.solve_adjoint_block(&rhs_refs, &mut zs, forward);
        counters.0 += nb;
        counters.1 += stats.iter().map(|s| s.iterations).sum::<usize>();
        let z_refs: Vec<&[C64]> = zs.iter().map(|v| v.as_slice()).collect();
        let mut g0hzs = vec![vec![C64::ZERO; n]; nb];
        g0_adjoint_apply_block(g0, &z_refs, &mut g0hzs);
        for (k, t) in (t0..t1).enumerate() {
            for i in 0..n {
                grad[i] += fields[t][i].conj() * (ys[k][i] + g0hzs[k][i]);
            }
        }
    }
    grad
}

/// One hybrid-projection update (the wgcv-lsqr regularizer's whole inner
/// step): `steps` Golub–Kahan bidiagonalization steps of the stacked Fréchet
/// operator seeded by the stacked residual, wGCV-selected lambda on the
/// projected bidiagonal problem, and the lift `delta = V y`.
struct WgcvUpdate {
    /// Object update in tree order.
    delta: Vec<C64>,
    /// The wGCV-chosen regularization parameter.
    lambda: f64,
    /// Norm of the projected solution (== `||delta||` for the orthonormal
    /// Krylov basis; reported as the iteration's step length).
    step_norm: f64,
}

#[allow(clippy::too_many_arguments)]
fn wgcv_lsqr_update<G: BlockLinOp + ?Sized>(
    setup: &ImagingSetup,
    g0: &G,
    backend: &dyn ForwardBackend,
    fields: &[Vec<C64>],
    residuals: &[Vec<C64>],
    object: &[C64],
    real_object: bool,
    steps: usize,
    omega: f64,
    forward: IterConfig,
    batch: usize,
    counters: &mut (usize, usize),
) -> WgcvUpdate {
    let n = object.len();
    let zero = WgcvUpdate {
        delta: vec![C64::ZERO; n],
        lambda: 0.0,
        step_norm: 0.0,
    };
    // Linearized subproblem: min_d ||F d + r||^2, i.e. rhs b = -r (stacked
    // over transmitters). beta_1 u_1 = b.
    let beta1 = residuals.iter().map(|r| norm2_sqr(r)).sum::<f64>().sqrt();
    if beta1 == 0.0 {
        return zero;
    }
    let mut u: Vec<Vec<C64>> = residuals
        .iter()
        .map(|r| r.iter().map(|v| -*v / beta1).collect())
        .collect();
    // When the object is constrained real, the Fréchet operator acts on real
    // perturbations; its adjoint then carries the real projection `P` —
    // applying P inside the recurrence keeps (F, P F^H) an exact adjoint
    // pair over the real inner product.
    let project = |w: &mut Vec<C64>| {
        if real_object {
            for v in w.iter_mut() {
                v.im = 0.0;
            }
        }
    };
    // alpha_1 v_1 = P F^H u_1
    let mut v = frechet_adjoint_apply_block(
        setup, g0, backend, fields, object, &u, forward, batch, counters,
    );
    project(&mut v);
    let alpha1 = norm2(&v);
    if alpha1 == 0.0 {
        return zero;
    }
    for x in v.iter_mut() {
        *x = *x / alpha1;
    }
    let mut alphas = vec![alpha1];
    let mut betas: Vec<f64> = Vec::with_capacity(steps);
    let mut vs = vec![v.clone()];
    for i in 0..steps {
        // beta_{i+1} u_{i+1} = F v_i - alpha_i u_i
        let mut fu = frechet_apply_block(
            setup, g0, backend, fields, object, &v, forward, batch, counters,
        );
        for (f, ui) in fu.iter_mut().zip(&u) {
            for (fj, uj) in f.iter_mut().zip(ui) {
                *fj -= alphas[i] * *uj;
            }
        }
        let beta = fu.iter().map(|r| norm2_sqr(r)).sum::<f64>().sqrt();
        betas.push(beta);
        if beta <= f64::EPSILON * alpha1 || i + 1 == steps {
            break;
        }
        for f in fu.iter_mut() {
            for x in f.iter_mut() {
                *x = *x / beta;
            }
        }
        u = fu;
        // alpha_{i+1} v_{i+1} = P F^H u_{i+1} - beta_{i+1} v_i
        let mut w = frechet_adjoint_apply_block(
            setup, g0, backend, fields, object, &u, forward, batch, counters,
        );
        project(&mut w);
        for (wj, vj) in w.iter_mut().zip(&v) {
            *wj -= beta * *vj;
        }
        let alpha = norm2(&w);
        if alpha <= f64::EPSILON * alpha1 {
            break;
        }
        for x in w.iter_mut() {
            *x = *x / alpha;
        }
        alphas.push(alpha);
        vs.push(w.clone());
        v = w;
    }
    let bidiag = Bidiag { alphas, betas };
    let proj = ProjectedProblem::new(&bidiag, beta1);
    let lambda = proj.wgcv_lambda(omega);
    let y = proj.solve(lambda);
    let mut delta = vec![C64::ZERO; n];
    for (yi, vi) in y.iter().zip(&vs) {
        axpy_real(*yi, vi, &mut delta);
    }
    let step_norm = y.iter().map(|c| c * c).sum::<f64>().sqrt();
    WgcvUpdate {
        delta,
        lambda,
        step_norm,
    }
}

/// Surfaces escalated compute corruption at an iteration boundary: a
/// checksum escalation reported by `poll`, or a drift-guard column whose
/// rollback budget was exhausted mid-solve (the solver already froze it at
/// the last verified iterate; the reconstruction must not continue on it).
fn check_integrity<P: Fn() -> Option<FaultError>>(
    guard: Option<&DriftGuard>,
    poll: &P,
    cfg: &DbimConfig,
    iteration: u64,
) -> Result<(), DbimError> {
    if let Some(e) = poll() {
        return Err(DbimError::ComputeCorruption(e));
    }
    if let Some(gd) = guard {
        if gd.escalated() > 0 {
            let rank = cfg.verify.as_ref().map_or(0, |v| v.rank);
            return Err(DbimError::ComputeCorruption(
                FaultError::ComputeCorruption {
                    rank,
                    stage: "krylov.drift".into(),
                    panel: iteration,
                    attempts: gd.max_rollbacks + 1,
                },
            ));
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
        for b in [2usize, 3, 8] {
            let r = run(Some(b));
            assert_eq!(r.object, base.object, "batch {b} changed the object");
            assert_eq!(r.forward_solves, base.forward_solves);
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

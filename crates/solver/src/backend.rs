//! The forward-backend seam: forward/adjoint solves as a *configuration*,
//! not a code path.
//!
//! Every consumer of the forward-scattering system `A = I - G0 diag(O)` —
//! the DBIM driver, the CLI, the service — talks to a [`ForwardBackend`]
//! and names no solver. Two engines implement the trait today:
//!
//! * [`BicgstabBackend`] — the paper's MLFMA+BiCGStab Krylov path (the
//!   one kernel under its breakdown policy, [`crate::try_bicgstab_block`],
//!   on the forward or the adjoint scattering operator). It binds the
//!   [`DistOp`] seam, not [`BlockLinOp`], so the same engine serves an
//!   in-process `G0` and a sub-tree rank of the distributed one;
//! * [`crate::bornseries::BornSeriesBackend`] — the convergent Born-series
//!   fixed-point engine (no Krylov recurrence at all), admissible whenever
//!   the contrast bound `kappa = ||G0|| * max|O| < 1` holds.
//!
//! A third backend drops in by implementing the two block methods and
//! adding one arm to [`make_backend`]; `dbim()` and every caller above it
//! are untouched. The trait contract:
//!
//! * `solve_block` solves `A x = b`, `solve_adjoint_block` solves
//!   `A^H x = b`, column by column. `x` carries the initial guess (zero or
//!   a warm start) and is overwritten with the solution. The scalar
//!   `solve`/`solve_adjoint` are provided: a panel of width 1.
//! * All columns iterate against one shared operator so applies fuse into
//!   [`crate::op::BlockLinOp::apply_block`] panels, with per-RHS
//!   convergence masking; each column's trajectory must be bit-identical
//!   at any panel width.
//! * Returned [`SolveStats`] follow one shared meaning: `iterations` counts
//!   the update steps reflected in the returned iterate, `matvecs` the
//!   operator applications performed on the column's behalf.
//! * A solve fails typed ([`FaultError`]) when the operator fails (a dead
//!   peer, a corrupted panel on a rank grid) or a Krylov breakdown survives
//!   its one retry; an engine without those modes always returns `Ok`.

use crate::block::try_bicgstab_block;
use crate::forward::{AdjointScatteringOp, ScatteringOp};
use crate::krylov::{width_one, IterConfig, SolveStats};
use crate::op::{BlockLinOp, DistOp, LinOp};
use crate::precond::Precond;
use crate::verify::DriftGuard;
use crate::workspace::Workspace;
use ffw_fault::FaultError;
use ffw_numerics::vecops::norm2;
use ffw_numerics::{c64, C64};

/// Which forward engine services the solves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// MLFMA+BiCGStab — the paper's Krylov path, robust at any contrast.
    #[default]
    Bicgstab,
    /// Convergent Born series — preconditioned fixed-point iteration,
    /// admissible only under the contrast bound (`kappa < 1`).
    BornSeries,
}

impl BackendChoice {
    /// Canonical CLI/spec spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendChoice::Bicgstab => "bicgstab",
            BackendChoice::BornSeries => "born-series",
        }
    }

    /// All recognized spellings, for help/error text.
    pub const NAMES: [&'static str; 2] = ["bicgstab", "born-series"];
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for BackendChoice {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bicgstab" => Ok(BackendChoice::Bicgstab),
            "born-series" | "born_series" | "bornseries" => Ok(BackendChoice::BornSeries),
            other => Err(format!(
                "unknown backend `{other}` (expected one of: {})",
                BackendChoice::NAMES.join(", ")
            )),
        }
    }
}

/// Why a backend refused to service the system it was built for.
#[derive(Clone, Debug, PartialEq)]
pub enum BackendError {
    /// The Born-series contraction bound fails: `kappa >= limit`, so the
    /// fixed-point iteration has no convergence guarantee for this object.
    ContrastTooHigh {
        /// The measured bound `||G0|| * max|O|`.
        kappa: f64,
        /// The admission limit (strictly below 1 for convergence margin).
        limit: f64,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::ContrastTooHigh { kappa, limit } => write!(
                f,
                "contrast too high for the Born-series backend: \
                 kappa = ||G0||*max|O| = {kappa:.4} >= {limit} — the fixed-point \
                 iteration is not a contraction; use the bicgstab backend"
            ),
        }
    }
}

impl std::error::Error for BackendError {}

/// Admission limit on `kappa`: strictly below 1 so the guaranteed geometric
/// rate leaves a usable iteration budget (`0.95^n` reaches 1e-4 in ~180
/// steps).
pub const KAPPA_LIMIT: f64 = 0.95;

/// A forward engine bound to one `(G0, object)` pair. See the module docs
/// for the trait contract.
pub trait ForwardBackend {
    /// Stable engine name (matches [`BackendChoice::as_str`]).
    fn name(&self) -> &'static str;
    /// Solves `A xs[c] = bs[c]` for a panel of columns in lockstep.
    fn solve_block(
        &self,
        bs: &[&[C64]],
        xs: &mut [Vec<C64>],
        cfg: IterConfig,
    ) -> Result<Vec<SolveStats>, FaultError>;
    /// Solves `A^H xs[c] = bs[c]` for a panel of columns in lockstep.
    fn solve_adjoint_block(
        &self,
        bs: &[&[C64]],
        xs: &mut [Vec<C64>],
        cfg: IterConfig,
    ) -> Result<Vec<SolveStats>, FaultError>;
    /// Solves `A x = b` for one right-hand side: a panel of width 1.
    fn solve(&self, b: &[C64], x: &mut [C64], cfg: IterConfig) -> Result<SolveStats, FaultError> {
        width_one(b, x, |bs, xs| self.solve_block(bs, xs, cfg))
    }
    /// Solves `A^H x = b` for one right-hand side: a panel of width 1.
    fn solve_adjoint(
        &self,
        b: &[C64],
        x: &mut [C64],
        cfg: IterConfig,
    ) -> Result<SolveStats, FaultError> {
        width_one(b, x, |bs, xs| self.solve_adjoint_block(bs, xs, cfg))
    }
}

/// A right preconditioner for the forward system `A` and one for its
/// adjoint `A^H`, in that order (see [`make_backend`]).
pub type PrecondPair<'a> = (&'a dyn Precond, &'a dyn Precond);

/// The MLFMA+BiCGStab engine: [`crate::try_bicgstab_block`] on the forward
/// or adjoint scattering operator, behind the backend seam. `object` is this
/// rank's slice of the contrast function; every N-vector a solve needs is on
/// lease from `ws`, the run's workspace.
pub struct BicgstabBackend<'a, G: DistOp + ?Sized> {
    g0: &'a G,
    object: &'a [C64],
    guard: Option<&'a DriftGuard>,
    precond: Option<PrecondPair<'a>>,
    ws: &'a Workspace,
}

impl<'a, G: DistOp + ?Sized> BicgstabBackend<'a, G> {
    /// Binds the engine to one `(G0, object)` pair, with the optional drift
    /// guard and preconditioner pair riding into every solve.
    pub fn new(
        g0: &'a G,
        object: &'a [C64],
        guard: Option<&'a DriftGuard>,
        precond: Option<PrecondPair<'a>>,
        ws: &'a Workspace,
    ) -> Self {
        assert_eq!(g0.n_local(), object.len());
        BicgstabBackend {
            g0,
            object,
            guard,
            precond,
            ws,
        }
    }
}

impl<G: DistOp + ?Sized> ForwardBackend for BicgstabBackend<'_, G>
where
    FaultError: From<G::Error>,
{
    fn name(&self) -> &'static str {
        BackendChoice::Bicgstab.as_str()
    }
    fn solve_block(
        &self,
        bs: &[&[C64]],
        xs: &mut [Vec<C64>],
        cfg: IterConfig,
    ) -> Result<Vec<SolveStats>, FaultError> {
        let a = ScatteringOp::new(self.g0, self.object, self.ws);
        let precond = self.precond.map(|p| p.0);
        try_bicgstab_block(&a, bs, xs, cfg, self.guard, precond, self.ws)
    }
    fn solve_adjoint_block(
        &self,
        bs: &[&[C64]],
        xs: &mut [Vec<C64>],
        cfg: IterConfig,
    ) -> Result<Vec<SolveStats>, FaultError> {
        let a = AdjointScatteringOp::new(self.g0, self.object, self.ws);
        let precond = self.precond.map(|p| p.1);
        try_bicgstab_block(&a, bs, xs, cfg, self.guard, precond, self.ws)
    }
}

/// Builds the chosen backend for one in-process `(G0, object)` pair. (A
/// rank grid runs [`BicgstabBackend`] only: the Born-series admission below
/// needs `max|O|` and `||G0||` over the whole domain.)
///
/// `g0_norm` is the spectral-norm estimate from [`estimate_g0_norm`]; it is
/// only consulted by the Born-series arm (the Krylov arm accepts any
/// contrast), so bicgstab callers may pass `0.0`. The estimate is a property
/// of `G0` alone — compute it once per run and reuse it across outer
/// iterations while the *object* changes underneath.
///
/// With a `guard`, both engines audit their recursive residual against the
/// true `b - A x` every [`DriftGuard::period`] steps and at every would-be
/// convergence, rolling back to the last verified iterate on divergence and
/// escalating (column surfaced unconverged, guard counter bumped) once the
/// rollback budget is spent; clean solves are bit-identical to unguarded
/// ones. `precond` rides into the BiCGStab kernel only — the Born series
/// has no Krylov recurrence to precondition, so passing one with that
/// choice is a caller bug. `ws` is the run's workspace: build it once and
/// hand it to every backend of the run (the Born series keeps its own).
pub fn make_backend<'a, G: BlockLinOp + ?Sized>(
    choice: BackendChoice,
    g0: &'a G,
    object: &'a [C64],
    g0_norm: f64,
    guard: Option<&'a DriftGuard>,
    precond: Option<PrecondPair<'a>>,
    ws: &'a Workspace,
) -> Result<Box<dyn ForwardBackend + 'a>, BackendError> {
    match choice {
        BackendChoice::Bicgstab => Ok(Box::new(BicgstabBackend::new(
            g0, object, guard, precond, ws,
        ))),
        BackendChoice::BornSeries => {
            assert!(
                precond.is_none(),
                "preconditioning is specific to the BiCGStab backend"
            );
            let mut born = crate::bornseries::BornSeriesBackend::new(g0, object, g0_norm)?;
            if let Some(gd) = guard {
                born = born.with_guard(gd);
            }
            Ok(Box::new(born))
        }
    }
}

/// Power-iteration rounds used by [`estimate_g0_norm`]'s default entry.
pub const NORM_ESTIMATE_ITERS: usize = 24;

/// Deterministic seed for the norm-estimation start vector.
pub const NORM_ESTIMATE_SEED: u64 = 0x5eed_f0f0_1234_abcd;

/// Safety inflation on the power-iteration estimate: power iteration
/// converges to `||G0||` from below, so the admission test uses a slightly
/// inflated value to keep the contraction margin honest.
const NORM_SAFETY: f64 = 1.05;

/// Estimates `||G0||_2` by `iters` rounds of power iteration on `G0^H G0`,
/// using the complex-symmetry conjugation trick (`G0^H x = conj(G0 conj(x))`)
/// so one operator serves both applications — the same assumption
/// [`crate::forward::AdjointScatteringOp`] already makes.
///
/// The start vector is derived deterministically from `seed` (splitmix64),
/// so the estimate is bit-identical across runs, thread counts and panel
/// widths. The converged-from-below estimate is inflated by 5% before being
/// returned, erring on the side of *rejecting* marginal contrasts.
pub fn estimate_g0_norm<G: LinOp + ?Sized>(g0: &G, iters: usize, seed: u64) -> f64 {
    let n = g0.dim_in();
    assert_eq!(g0.dim_out(), n);
    assert!(n > 0, "empty operator");
    let _span = ffw_obs::span("solver.norm_estimate");
    let mut state = seed;
    let mut split = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut v: Vec<C64> = (0..n).map(|_| c64(split(), split())).collect();
    let mut w = vec![C64::ZERO; n];
    let mut u = vec![C64::ZERO; n];
    let mut sigma_sqr = 0.0f64;
    for _ in 0..iters.max(1) {
        let vn = norm2(&v);
        if vn == 0.0 {
            return 0.0; // G0^H G0 annihilated the start vector: null operator
        }
        let inv = 1.0 / vn;
        for x in v.iter_mut() {
            *x *= inv;
        }
        g0.apply(&v, &mut w);
        crate::forward::g0_adjoint_apply(g0, &w, &mut u);
        sigma_sqr = norm2(&u); // ||G0^H G0 v|| -> largest singular value^2
        std::mem::swap(&mut v, &mut u);
    }
    let est = sigma_sqr.sqrt() * NORM_SAFETY;
    if ffw_obs::enabled() {
        ffw_obs::gauge("solver.g0_norm_estimate").set(est);
    }
    est
}

/// Largest object magnitude `max|O|` — the other factor of the contrast
/// bound. Recompute per outer DBIM iteration: the object changes.
pub fn max_object_abs(object: &[C64]) -> f64 {
    object.iter().fold(0.0f64, |m, o| m.max(o.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffw_numerics::linalg::Matrix;

    fn symmetric_g0(n: usize, seed: u64, scale: f64) -> Matrix {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            scale * (((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5)
        };
        let mut m = Matrix::zeros(n, n);
        for r in 0..n {
            for c in r..n {
                let v = c64(next(), next());
                *m.at_mut(r, c) = v;
                *m.at_mut(c, r) = v;
            }
        }
        m
    }

    #[test]
    fn backend_choice_round_trips_through_strings() {
        for c in [BackendChoice::Bicgstab, BackendChoice::BornSeries] {
            let parsed: BackendChoice = c.as_str().parse().expect("canonical spelling");
            assert_eq!(parsed, c);
        }
        assert!("lu-decomposition".parse::<BackendChoice>().is_err());
        assert_eq!(BackendChoice::default(), BackendChoice::Bicgstab);
    }

    #[test]
    fn norm_estimate_brackets_the_true_spectral_norm() {
        let n = 40;
        let g0 = symmetric_g0(n, 7, 0.3);
        // true ||G0||_2 via dense power iteration with many rounds
        let reference = estimate_g0_norm(&g0, 400, 1) / NORM_SAFETY;
        let est = estimate_g0_norm(&g0, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED);
        assert!(
            est >= reference * 0.999,
            "estimate {est} below reference {reference}"
        );
        assert!(
            est <= reference * 1.10,
            "estimate {est} too far above reference {reference}"
        );
    }

    #[test]
    fn norm_estimate_is_deterministic() {
        let g0 = symmetric_g0(24, 11, 0.25);
        let a = estimate_g0_norm(&g0, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED);
        let b = estimate_g0_norm(&g0, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn zero_operator_norm_is_zero() {
        let g0 = Matrix::zeros(8, 8);
        assert_eq!(estimate_g0_norm(&g0, 8, 3), 0.0);
    }

    #[test]
    fn make_backend_rejects_over_contrast_born_series() {
        let n = 16;
        let g0 = symmetric_g0(n, 5, 0.4);
        let g0_norm = estimate_g0_norm(&g0, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED);
        // object scaled so kappa lands far above the limit
        let object: Vec<C64> = (0..n)
            .map(|_| c64(2.0 * KAPPA_LIMIT / g0_norm.max(1e-12), 0.0))
            .collect();
        let ws = Workspace::new();
        let born = BackendChoice::BornSeries;
        let err = make_backend(born, &g0, &object, g0_norm, None, None, &ws)
            .err()
            .expect("over-contrast object must be rejected");
        let BackendError::ContrastTooHigh { kappa, limit } = err;
        assert!(kappa >= limit);
        assert_eq!(limit, KAPPA_LIMIT);
        // ...while the Krylov backend accepts the same object
        let krylov = BackendChoice::Bicgstab;
        assert!(make_backend(krylov, &g0, &object, g0_norm, None, None, &ws).is_ok());
    }
}

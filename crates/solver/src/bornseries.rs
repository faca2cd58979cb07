//! The convergent (preconditioned) Born-series forward engine.
//!
//! The plain Born series `phi_{n+1} = G0 diag(O) phi_n + phi_inc` is the
//! Richardson fixed-point iteration for `A phi = phi_inc` with
//! `A = I - G0 diag(O)`; it diverges as soon as `||G0 diag(O)|| >= 1`. The
//! *convergent* variant (Lee–Hugonnet–Park; Osnabrugge et al.) restores
//! convergence with a relaxation preconditioner `gamma`:
//!
//! ```text
//! phi_{n+1} = phi_n + gamma (G0 diag(O) phi_n + phi_inc - phi_n)
//!           = phi_n + gamma (phi_inc - A phi_n)
//! ```
//!
//! whose residual obeys `r_{n+1} = (I - gamma A) r_n`, so the iteration is a
//! contraction whenever `||I - gamma A|| <= |1 - gamma| + gamma kappa < 1`
//! with `kappa = ||G0 diag(O)|| <= ||G0|| * max|O|`. The bound is checked at
//! *build* time: [`BornSeriesBackend::new`] returns a typed
//! [`BackendError::ContrastTooHigh`] instead of ever iterating a divergent
//! series. Over the admissible region `gamma in (0, 1]` the bound
//! `|1 - gamma| + gamma kappa = 1 - gamma (1 - kappa)` is strictly
//! decreasing in `gamma`, so [`choose_gamma`] returns the bound-optimal
//! `gamma = 1` (rate `kappa`); the function stays a real code path (and
//! returns a complex scalar) so a future medium-dependent preconditioner —
//! e.g. Osnabrugge's `gamma = i V / eps` scaling — drops in without touching
//! the iteration.
//!
//! No Krylov recurrence means no inner products and no breakdown modes: each
//! iteration is one fused [`BlockLinOp::apply_block`] panel plus axpys, so
//! the engine parallelizes embarrassingly over illuminations — the paper's
//! first parallel dimension — and its per-column trajectory is bit-identical
//! at every panel width and thread count.

use crate::backend::{BackendError, ForwardBackend, KAPPA_LIMIT};
use crate::block::{apply_cols, residual_drift};
use crate::forward::{AdjointScatteringOp, ScatteringOp};
use crate::krylov::{IterConfig, SolveStats};
use crate::op::{BlockLinOp, DistOp};
use crate::verify::DriftGuard;
use crate::workspace::Workspace;
use ffw_fault::FaultError;
use ffw_numerics::vecops::norm2;
use ffw_numerics::{c64, C64};

/// The bound-optimal relaxation for a measured contrast bound `kappa`.
///
/// Minimizes `f(gamma) = |1 - gamma| + gamma * kappa` over `gamma > 0`:
/// for `gamma <= 1`, `f = 1 - gamma (1 - kappa)` decreases in `gamma`; for
/// `gamma >= 1`, `f = gamma (1 + kappa) - 1` increases — so the minimum sits
/// at `gamma = 1` with value `kappa`, for every `kappa < 1`. Damping
/// (`gamma < 1`) buys no robustness: the convergence condition stays
/// `kappa < 1` for any `gamma in (0, 1]`, only the rate degrades.
pub fn choose_gamma(kappa: f64) -> C64 {
    debug_assert!(kappa.is_finite());
    let _ = kappa;
    c64(1.0, 0.0)
}

/// The convergent Born-series engine bound to one `(G0, object)` pair.
///
/// Construction *is* admission: the contrast bound
/// `kappa = g0_norm * max|O|` is evaluated against [`KAPPA_LIMIT`] and an
/// over-contrast object is rejected with a typed error before any iteration
/// runs — the spectral radius of the iteration map is below 1 by
/// construction for every solve this backend will ever perform.
pub struct BornSeriesBackend<'a, G: BlockLinOp + ?Sized> {
    g0: &'a G,
    object: &'a [C64],
    gamma: C64,
    kappa: f64,
    guard: Option<&'a DriftGuard>,
    /// Scratch of the scattering operators and the drift audits.
    ws: Workspace,
}

impl<'a, G: BlockLinOp + ?Sized> BornSeriesBackend<'a, G> {
    /// Builds the engine, checking the contrast bound. `g0_norm` comes from
    /// [`crate::backend::estimate_g0_norm`] (a per-run constant); `max|O|`
    /// is taken from the current object.
    pub fn new(g0: &'a G, object: &'a [C64], g0_norm: f64) -> Result<Self, BackendError> {
        assert_eq!(g0.dim_in(), object.len());
        assert_eq!(g0.dim_out(), object.len());
        let kappa = g0_norm * crate::backend::max_object_abs(object);
        // >= also catches a NaN kappa (e.g. a poisoned norm estimate):
        // anything that is not provably a contraction is rejected.
        if kappa >= KAPPA_LIMIT || kappa.is_nan() {
            return Err(BackendError::ContrastTooHigh {
                kappa,
                limit: KAPPA_LIMIT,
            });
        }
        Ok(BornSeriesBackend {
            g0,
            object,
            gamma: choose_gamma(kappa),
            kappa,
            guard: None,
            ws: Workspace::new(),
        })
    }

    /// Attaches a [`DriftGuard`]: every solve audits the recursive residual
    /// against the true `b - A x` every [`DriftGuard::period`] steps and at
    /// every would-be convergence, rolling back to the last verified iterate
    /// on divergence. Clean-run trajectories are unchanged bit-for-bit.
    pub fn with_guard(mut self, guard: &'a DriftGuard) -> Self {
        self.guard = Some(guard);
        self
    }

    /// The admitted contraction bound `||G0|| * max|O|` (< [`KAPPA_LIMIT`]).
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// The relaxation scalar in use.
    pub fn gamma(&self) -> C64 {
        self.gamma
    }
}

impl<G: BlockLinOp + ?Sized> ForwardBackend for BornSeriesBackend<'_, G> {
    fn name(&self) -> &'static str {
        crate::backend::BackendChoice::BornSeries.as_str()
    }
    fn solve_block(
        &self,
        bs: &[&[C64]],
        xs: &mut [Vec<C64>],
        cfg: IterConfig,
    ) -> Result<Vec<SolveStats>, FaultError> {
        let a = ScatteringOp::new(self.g0, self.object, &self.ws);
        Ok(richardson_impl(
            &a, self.gamma, bs, xs, cfg, self.guard, &self.ws,
        ))
    }
    fn solve_adjoint_block(
        &self,
        bs: &[&[C64]],
        xs: &mut [Vec<C64>],
        cfg: IterConfig,
    ) -> Result<Vec<SolveStats>, FaultError> {
        let a = AdjointScatteringOp::new(self.g0, self.object, &self.ws);
        // (I - gamma' A^H)^H = I - conj(gamma') A: taking gamma' = conj(gamma)
        // gives the adjoint sweep the same contraction norm as the forward one.
        Ok(richardson_impl(
            &a,
            self.gamma.conj(),
            bs,
            xs,
            cfg,
            self.guard,
            &self.ws,
        ))
    }
}

/// Drift-guard snapshot for the Richardson recurrence: the full per-column
/// state is `(x, r)` plus the scalars needed to freeze honestly after a
/// rollback. Every snapshot is a top-of-loop state.
struct BornSnap {
    x: Vec<C64>,
    r: Vec<C64>,
    res: f64,
    iters: usize,
    matvecs: usize,
}

/// Lockstep relaxed-Richardson iteration over a panel of right-hand sides,
/// with per-RHS convergence masking (mirroring [`crate::bicgstab_block`]'s
/// freeze discipline): per step, `x += gamma r`, `r -= gamma (A r)`, using
/// one fused block apply over the still-active columns.
///
/// Per-column arithmetic never mixes columns, so every column's trajectory
/// is bit-identical to a width-1 solve of that column alone. Stats follow
/// the workspace-wide meaning: `iterations` counts update steps reflected
/// in the returned iterate, `matvecs` counts operator applies (one up-front
/// residual apply plus one per iteration), `verify_matvecs` counts drift
/// audits plus rollback-discarded applies, `rolled_back` counts discarded
/// update steps. With a [`DriftGuard`] attached, the iteration audits the
/// recursive residual against the true `b - A x` every `period` steps and
/// at every would-be convergence; a clean run's trajectory is unchanged.
fn richardson_impl<A: DistOp<Error = std::convert::Infallible> + ?Sized>(
    a: &A,
    gamma: C64,
    bs: &[&[C64]],
    xs: &mut [Vec<C64>],
    cfg: IterConfig,
    guard: Option<&DriftGuard>,
    ws: &Workspace,
) -> Vec<SolveStats> {
    let nb = bs.len();
    assert_eq!(xs.len(), nb, "solution block width mismatch");
    if nb == 0 {
        return Vec::new();
    }
    let n = a.n_local();
    for (b, x) in bs.iter().zip(xs.iter()) {
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
    }
    let _span = ffw_obs::span("solver.born");
    if ffw_obs::enabled() {
        ffw_obs::histogram("solver.born.panel_width").record(nb as u64);
    }

    let mut stats: Vec<Option<SolveStats>> = vec![None; nb];
    let mut b_norm = vec![0.0f64; nb];
    let mut iters = vec![0usize; nb];
    let mut matvecs = vec![0usize; nb];
    let mut verify_mv = vec![0usize; nb];
    let mut rolled = vec![0usize; nb];
    let mut rollbacks = vec![0u32; nb];
    let mut res = vec![0.0f64; nb];
    let mut r: Vec<Vec<C64>> = vec![vec![C64::ZERO; n]; nb];
    let mut ar: Vec<Vec<C64>> = vec![vec![C64::ZERO; n]; nb];
    let mut snaps: Vec<Option<BornSnap>> = (0..nb).map(|_| None).collect();

    // Zero right-hand sides are solved exactly by x = 0 (scalar semantics,
    // shared with the Krylov backend).
    let mut live: Vec<usize> = Vec::with_capacity(nb);
    for c in 0..nb {
        b_norm[c] = norm2(bs[c]);
        if b_norm[c] == 0.0 {
            xs[c].iter_mut().for_each(|v| *v = C64::ZERO);
            stats[c] = Some(SolveStats {
                verify_matvecs: 0,
                rolled_back: 0,
                iterations: 0,
                matvecs: 0,
                rel_residual: 0.0,
                converged: true,
            });
        } else {
            live.push(c);
        }
    }

    // Fresh residuals r = b - A x, one fused apply over all live columns.
    let Ok(()) = apply_cols(a, &live, xs, &mut r);
    let mut active: Vec<usize> = Vec::with_capacity(live.len());
    for &c in &live {
        matvecs[c] += 1;
        for i in 0..n {
            r[c][i] = bs[c][i] - r[c][i];
        }
        res[c] = norm2(&r[c]) / b_norm[c];
        if !res[c].is_finite() {
            ffw_obs::event(
                "solver.breakdown",
                &format!("born column {c}: initial residual is not finite"),
            );
            stats[c] = Some(SolveStats {
                verify_matvecs: 0,
                rolled_back: 0,
                iterations: 0,
                matvecs: matvecs[c],
                rel_residual: f64::NAN,
                converged: false,
            });
            continue;
        }
        ffw_obs::series_push("solver.born.residual", res[c]);
        if res[c] < cfg.tol {
            stats[c] = Some(SolveStats {
                verify_matvecs: 0,
                rolled_back: 0,
                iterations: 0,
                matvecs: matvecs[c],
                rel_residual: res[c],
                converged: true,
            });
            continue;
        }
        if guard.is_some() {
            // Baseline snapshot: the residual above *is* the true residual
            // by construction, so this state is verified for free.
            snaps[c] = Some(BornSnap {
                x: xs[c].clone(),
                r: r[c].clone(),
                res: res[c],
                iters: iters[c],
                matvecs: matvecs[c],
            });
        }
        active.push(c);
    }

    while !active.is_empty() {
        // Budget check; columns freezing here skip the fused apply.
        let mut in_budget = Vec::with_capacity(active.len());
        for &c in &active {
            if iters[c] >= cfg.max_iters {
                stats[c] = Some(SolveStats {
                    verify_matvecs: verify_mv[c],
                    rolled_back: rolled[c],
                    iterations: iters[c],
                    matvecs: matvecs[c],
                    rel_residual: res[c],
                    converged: false,
                });
            } else {
                in_budget.push(c);
            }
        }
        active = in_budget;
        if active.is_empty() {
            break;
        }

        // ar = A r, fused over the active columns, then per column:
        // x += gamma r;  r -= gamma ar  (i.e. r_{n+1} = (I - gamma A) r_n).
        let Ok(()) = apply_cols(a, &active, &r, &mut ar);
        let mut still_active = Vec::with_capacity(active.len());
        for &c in &active {
            matvecs[c] += 1;
            iters[c] += 1;
            for i in 0..n {
                xs[c][i] += gamma * r[c][i];
                r[c][i] -= gamma * ar[c][i];
            }
            let res_new = norm2(&r[c]) / b_norm[c];
            if !res_new.is_finite() {
                // The update itself used the (finite) previous residual, so
                // the iterate is finite and keeps its `iters[c]` updates —
                // only the *recurrence* went non-finite. Freeze honestly at
                // the last finite residual.
                ffw_obs::event(
                    "solver.breakdown",
                    &format!(
                        "born column {c}: residual became non-finite at iter {}",
                        iters[c]
                    ),
                );
                stats[c] = Some(SolveStats {
                    verify_matvecs: verify_mv[c],
                    rolled_back: rolled[c],
                    iterations: iters[c],
                    matvecs: matvecs[c],
                    rel_residual: res[c],
                    converged: false,
                });
                continue;
            }
            res[c] = res_new;
            ffw_obs::series_push("solver.born.residual", res_new);
            let converging = res_new < cfg.tol;
            if let Some(g) = guard {
                // Audit at every would-be convergence, plus every `period`
                // accepted steps. On pass the audit only refreshes the
                // snapshot — the trajectory stays bit-identical to the
                // unguarded run.
                if converging || iters[c].is_multiple_of(g.period) {
                    let Ok(drift) = residual_drift(a, bs[c], &xs[c], &r[c], b_norm[c], ws);
                    verify_mv[c] += 1;
                    if drift > g.rel_tol {
                        g.record_detected();
                        let snap = snaps[c].as_ref().expect("guarded column has snapshot");
                        verify_mv[c] += matvecs[c] - snap.matvecs;
                        matvecs[c] = snap.matvecs;
                        rolled[c] += iters[c] - snap.iters;
                        xs[c].copy_from_slice(&snap.x);
                        r[c].copy_from_slice(&snap.r);
                        res[c] = snap.res;
                        iters[c] = snap.iters;
                        if rollbacks[c] < g.max_rollbacks {
                            rollbacks[c] += 1;
                            g.record_rollback((rolled[c]) as u64);
                            // Replay from the restored top-of-loop state.
                            still_active.push(c);
                        } else {
                            g.record_escalated();
                            ffw_obs::event(
                                "solver.breakdown",
                                &format!(
                                    "born column {c}: residual drift persists after                                      {} rollback(s); surfacing unconverged",
                                    g.max_rollbacks
                                ),
                            );
                            stats[c] = Some(SolveStats {
                                verify_matvecs: verify_mv[c],
                                rolled_back: rolled[c],
                                iterations: iters[c],
                                matvecs: matvecs[c],
                                rel_residual: res[c],
                                converged: false,
                            });
                        }
                        continue;
                    }
                    snaps[c] = Some(BornSnap {
                        x: xs[c].clone(),
                        r: r[c].clone(),
                        res: res[c],
                        iters: iters[c],
                        matvecs: matvecs[c],
                    });
                }
            }
            if converging {
                stats[c] = Some(SolveStats {
                    verify_matvecs: verify_mv[c],
                    rolled_back: rolled[c],
                    iterations: iters[c],
                    matvecs: matvecs[c],
                    rel_residual: res_new,
                    converged: true,
                });
                continue;
            }
            still_active.push(c);
        }
        active = still_active;
    }

    let out: Vec<SolveStats> = stats
        .into_iter()
        .map(|s| s.expect("every column finalized"))
        .collect();
    if ffw_obs::enabled() {
        for st in &out {
            ffw_obs::counter("solver.born.solves").inc();
            ffw_obs::counter("solver.born.iters").add(st.iterations as u64);
            ffw_obs::counter("solver.born.matvecs").add(st.matvecs as u64);
            ffw_obs::histogram("solver.born.iters_per_solve").record(st.iterations as u64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{estimate_g0_norm, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED};
    use crate::op::LinOp;
    use ffw_numerics::linalg::Matrix;
    use ffw_numerics::vecops::rel_diff;

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

    fn random_vec(n: usize, seed: u64) -> Vec<C64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                let mut next = || {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
                };
                c64(next(), next())
            })
            .collect()
    }

    fn admissible_problem(n: usize, seed: u64) -> (Matrix, Vec<C64>, f64) {
        let g0 = symmetric_g0(n, seed, 0.25);
        let g0_norm = estimate_g0_norm(&g0, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED);
        // scale the object so kappa lands around 0.5
        let raw = random_vec(n, seed ^ 0xfeed);
        let max_raw = raw.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let object: Vec<C64> = raw
            .iter()
            .map(|v| *v * (0.5 / (g0_norm * max_raw)))
            .collect();
        (g0, object, g0_norm)
    }

    #[test]
    fn gamma_one_minimizes_the_contraction_bound() {
        // f(gamma) = |1-gamma| + gamma*kappa over a fine grid: gamma = 1 is
        // the argmin for every admissible kappa.
        for kappa in [0.0, 0.2, 0.5, 0.9, 0.949] {
            let g = choose_gamma(kappa);
            assert_eq!(g, c64(1.0, 0.0));
            let bound = |gamma: f64| (1.0 - gamma).abs() + gamma * kappa;
            let at_one = bound(1.0);
            for k in 1..=200 {
                let gamma = 0.01 * k as f64; // (0, 2]
                assert!(
                    at_one <= bound(gamma) + 1e-15,
                    "gamma=1 not optimal vs {gamma} at kappa {kappa}"
                );
            }
            assert!((at_one - kappa).abs() < 1e-15, "optimal rate is kappa");
        }
    }

    #[test]
    fn born_series_solves_the_forward_system() {
        let n = 32;
        let (g0, object, g0_norm) = admissible_problem(n, 3);
        let backend = BornSeriesBackend::new(&g0, &object, g0_norm).expect("admissible");
        let ws = Workspace::new();
        let a = ScatteringOp::new(&g0, &object, &ws);
        let x_true = random_vec(n, 17);
        let mut b = vec![C64::ZERO; n];
        let Ok(()) = a.try_apply_block_local(&[&x_true], std::slice::from_mut(&mut b));
        let mut x = vec![C64::ZERO; n];
        let stats = backend
            .solve(
                &b,
                &mut x,
                IterConfig {
                    tol: 1e-12,
                    max_iters: 500,
                },
            )
            .expect("solve");
        assert!(stats.converged, "{stats:?}");
        assert!(
            rel_diff(&x, &x_true) < 1e-10,
            "err {}",
            rel_diff(&x, &x_true)
        );
        assert_eq!(stats.matvecs, stats.iterations + 1);
    }

    #[test]
    fn adjoint_solve_satisfies_the_inner_product_identity() {
        // <A^{-1} b, c> == <b, A^{-H} c>
        let n = 24;
        let (g0, object, g0_norm) = admissible_problem(n, 9);
        let backend = BornSeriesBackend::new(&g0, &object, g0_norm).expect("admissible");
        let cfg = IterConfig {
            tol: 1e-13,
            max_iters: 800,
        };
        let b = random_vec(n, 21);
        let c = random_vec(n, 23);
        let mut x = vec![C64::ZERO; n];
        assert!(backend.solve(&b, &mut x, cfg).expect("solve").converged);
        let mut z = vec![C64::ZERO; n];
        assert!(
            backend
                .solve_adjoint(&c, &mut z, cfg)
                .expect("solve")
                .converged
        );
        let lhs = ffw_numerics::vecops::zdotc(&x, &c);
        let rhs = ffw_numerics::vecops::zdotc(&b, &z);
        assert!(
            (lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()),
            "{lhs:?} vs {rhs:?}"
        );
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 28;
        let (g0, object, g0_norm) = admissible_problem(n, 31);
        let backend = BornSeriesBackend::new(&g0, &object, g0_norm).expect("admissible");
        let ws = Workspace::new();
        let a = ScatteringOp::new(&g0, &object, &ws);
        let x_true = random_vec(n, 33);
        let mut b = vec![C64::ZERO; n];
        let Ok(()) = a.try_apply_block_local(&[&x_true], std::slice::from_mut(&mut b));
        let cfg = IterConfig {
            tol: 1e-10,
            max_iters: 500,
        };
        let mut cold = vec![C64::ZERO; n];
        let cold_stats = backend.solve(&b, &mut cold, cfg).expect("solve");
        let mut warm: Vec<C64> = x_true.iter().map(|v| *v * 1.0001).collect();
        let warm_stats = backend.solve(&b, &mut warm, cfg).expect("solve");
        assert!(warm_stats.converged && cold_stats.converged);
        assert!(warm_stats.iterations < cold_stats.iterations);
    }

    #[test]
    fn zero_rhs_short_circuits_like_the_krylov_backend() {
        let n = 12;
        let (g0, object, g0_norm) = admissible_problem(n, 41);
        let backend = BornSeriesBackend::new(&g0, &object, g0_norm).expect("admissible");
        let b = vec![C64::ZERO; n];
        let mut x = random_vec(n, 43);
        let stats = backend
            .solve(&b, &mut x, IterConfig::default())
            .expect("solve");
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
        assert_eq!(stats.matvecs, 0);
        assert!(x.iter().all(|v| v.abs() == 0.0));
    }

    #[test]
    fn block_columns_are_bit_identical_to_scalar_solves() {
        let n = 26;
        let (g0, object, g0_norm) = admissible_problem(n, 51);
        let backend = BornSeriesBackend::new(&g0, &object, g0_norm).expect("admissible");
        let cfg = IterConfig {
            tol: 1e-11,
            max_iters: 400,
        };
        let bs: Vec<Vec<C64>> = (0..5).map(|i| random_vec(n, 100 + i)).collect();
        let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
        let mut xs = vec![vec![C64::ZERO; n]; 5];
        let block = backend.solve_block(&b_refs, &mut xs, cfg).expect("solve");
        for (c, b) in bs.iter().enumerate() {
            let mut x_scalar = vec![C64::ZERO; n];
            let scalar = backend.solve(b, &mut x_scalar, cfg).expect("solve");
            assert_eq!(block[c], scalar, "column {c} stats");
            assert_eq!(xs[c], x_scalar, "column {c} iterate");
        }
    }

    #[test]
    fn empty_block_is_a_noop() {
        let (g0, object, g0_norm) = admissible_problem(8, 61);
        let backend = BornSeriesBackend::new(&g0, &object, g0_norm).expect("admissible");
        let stats = backend
            .solve_block(&[], &mut [], IterConfig::default())
            .expect("solve");
        assert!(stats.is_empty());
    }

    #[test]
    fn guarded_clean_run_is_bit_identical_and_audited() {
        // Drift audits only read the recurrence, so a fault-free guarded
        // sweep reproduces the unguarded trajectory bit-for-bit while
        // charging its audit applies to `verify_matvecs`.
        let n = 26;
        let (g0, object, g0_norm) = admissible_problem(n, 71);
        let cfg = IterConfig {
            tol: 1e-10,
            max_iters: 400,
        };
        let bs: Vec<Vec<C64>> = (0..3).map(|i| random_vec(n, 200 + i)).collect();
        let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
        let plain_backend = BornSeriesBackend::new(&g0, &object, g0_norm).expect("admissible");
        let mut xs_plain = vec![vec![C64::ZERO; n]; 3];
        let plain = plain_backend
            .solve_block(&b_refs, &mut xs_plain, cfg)
            .expect("solve");
        let guard = crate::verify::DriftGuard::new(8, 1e-8, 2);
        let guarded_backend = BornSeriesBackend::new(&g0, &object, g0_norm)
            .expect("admissible")
            .with_guard(&guard);
        let mut xs_guarded = vec![vec![C64::ZERO; n]; 3];
        let guarded = guarded_backend
            .solve_block(&b_refs, &mut xs_guarded, cfg)
            .expect("solve");
        assert_eq!(guard.detected(), 0, "clean run must not trip the guard");
        for c in 0..3 {
            assert_eq!(xs_guarded[c], xs_plain[c], "column {c} iterate");
            assert_eq!(guarded[c].iterations, plain[c].iterations);
            assert_eq!(guarded[c].matvecs, plain[c].matvecs);
            assert_eq!(guarded[c].rel_residual, plain[c].rel_residual);
            assert!(guarded[c].converged);
            assert!(guarded[c].verify_matvecs > 0, "column {c} was audited");
            assert_eq!(guarded[c].rolled_back, 0);
        }
    }

    #[test]
    fn transient_corruption_rolls_back_to_a_bit_identical_solve() {
        // One G0 apply returns a wildly wrong vector; all others are clean.
        // The guard detects the drift at the next audit, rolls back to the
        // last verified snapshot, and the replay lands on the exact iterate
        // of a fully clean solve.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 22;
        let (g0, object, g0_norm) = admissible_problem(n, 81);
        let cfg = IterConfig {
            tol: 1e-10,
            max_iters: 400,
        };
        let b = random_vec(n, 210);
        let clean_backend = BornSeriesBackend::new(&g0, &object, g0_norm).expect("admissible");
        let mut x_clean = vec![C64::ZERO; n];
        let clean = clean_backend.solve(&b, &mut x_clean, cfg).expect("solve");
        assert!(clean.converged);

        let calls = AtomicUsize::new(0);
        let corrupting = crate::op::FnOp::new(n, n, |v: &[C64], out: &mut [C64]| {
            g0.apply(v, out);
            if calls.fetch_add(1, Ordering::Relaxed) + 1 == 3 {
                out[0] += c64(60.0, -45.0);
            }
        });
        let guard = crate::verify::DriftGuard::new(4, 1e-8, 3);
        let backend = BornSeriesBackend::new(&corrupting, &object, g0_norm)
            .expect("admissible")
            .with_guard(&guard);
        let mut x = vec![C64::ZERO; n];
        let stats = backend.solve(&b, &mut x, cfg).expect("solve");
        assert!(guard.detected() >= 1, "corruption must be detected");
        assert_eq!(guard.escalated(), 0, "transient fault must recover");
        assert!(stats.converged, "{stats:?}");
        assert!(stats.rolled_back >= 1);
        assert_eq!(
            x, x_clean,
            "recovered solve must match the clean solve bit-for-bit"
        );
        assert_eq!(stats.iterations, clean.iterations);
        assert_eq!(stats.matvecs, clean.matvecs);
    }

    #[test]
    fn persistent_corruption_escalates_instead_of_converging() {
        // Call-dependent garbage on every G0 apply after the initial
        // residual: no consistent operator explains the recurrence, every
        // replay re-detects, and the guard escalates once the rollback
        // budget is spent — the solve surfaces unconverged, never wrong.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 18;
        let (g0, object, g0_norm) = admissible_problem(n, 91);
        let cfg = IterConfig {
            tol: 1e-10,
            max_iters: 200,
        };
        let b = random_vec(n, 220);
        let calls = AtomicUsize::new(0);
        let corrupting = crate::op::FnOp::new(n, n, |v: &[C64], out: &mut [C64]| {
            g0.apply(v, out);
            let k = calls.fetch_add(1, Ordering::Relaxed) + 1;
            if k >= 2 {
                out[0] += c64(5.0 + k as f64, -(k as f64));
            }
        });
        let guard = crate::verify::DriftGuard::new(4, 1e-8, 2);
        let backend = BornSeriesBackend::new(&corrupting, &object, g0_norm)
            .expect("admissible")
            .with_guard(&guard);
        let mut x = vec![C64::ZERO; n];
        let stats = backend.solve(&b, &mut x, cfg).expect("solve");
        assert_eq!(guard.escalated(), 1, "budget exhausted must escalate");
        assert!(!stats.converged, "never report convergence: {stats:?}");
        assert!(
            x.iter().all(|v| v.re.is_finite() && v.im.is_finite()),
            "escalated solve freezes at the last verified iterate"
        );
    }
}

//! Krylov-subspace iterative solvers.
//!
//! The paper's forward solver is the biconjugate gradient stabilized method
//! (BiCGStab, Section III-A), terminated at 1e-4 relative residual
//! (Section V-B); its one recurrence lives in [`crate::block`], reached
//! through [`crate::try_bicgstab_block`] or [`crate::BicgstabBackend`]. CGNR
//! (CG on the normal equations) solves the least-squares problems of the
//! linear Born inversion baseline.

use crate::op::LinOp;
use ffw_numerics::vecops::{norm2, sub_into, zdotc};
use ffw_numerics::C64;
use std::fmt;

/// Outcome of an iterative solve.
///
/// These semantics hold on every context the one kernel runs on (in-process
/// or a rank of the grid). A column that [`crate::try_bicgstab_block`]
/// retried after a breakdown reports each count summed over both sweeps.
///
/// - `iterations` counts the update steps *reflected in the returned
///   iterate*. A step whose update is rolled back (e.g. a non-finite
///   BiCGStab phase-3 update restores the pre-step `x`) is not counted:
///   re-running the same solve with `max_iters` set to the reported count
///   reproduces the returned iterate bit-for-bit.
/// - `matvecs` counts operator applications whose step survived into the
///   returned trajectory (a single non-finite phase-3 rollback keeps its
///   applies here, matching the historical accounting the BENCH iteration
///   gates pin).
/// - `verify_matvecs` counts operator applications spent on compute
///   integrity instead: drift-guard true-residual audits, plus the applies
///   of iterations a [`crate::DriftGuard`] rollback discarded. One apply
///   audits every column due at a lockstep point together and is charged
///   to the first of them, so the columns of a panel add up to the applies
///   its audits spent; a column's own count can be 0. Keeping them
///   out of `matvecs` preserves the per-solver `matvecs`/`iterations`
///   invariants (e.g. BiCGStab's `2 i + 1`) that the BENCH gates rely on.
/// - `rolled_back` counts update steps discarded by drift-guard rollbacks
///   (they are also absent from `iterations`).
#[derive(Clone, Debug, PartialEq)]
pub struct SolveStats {
    /// Update steps reflected in the returned iterate (see type docs).
    pub iterations: usize,
    /// Operator applications (matvecs) performed for the returned
    /// trajectory.
    pub matvecs: usize,
    /// Operator applications spent on integrity verification and on
    /// rolled-back trajectory segments (see type docs).
    pub verify_matvecs: usize,
    /// Update steps discarded by drift-guard rollbacks.
    pub rolled_back: usize,
    /// Final relative residual norm `||b - A x|| / ||b||`.
    pub rel_residual: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// What broke a Krylov iteration down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BreakdownKind {
    /// The BiCGStab rho inner product underflowed to (numerical) zero, so
    /// the recurrence cannot continue.
    RhoZero,
    /// The iterate or residual became NaN/Inf (division by a vanishing
    /// inner product, singular operator, overflow).
    NonFinite,
}

impl fmt::Display for BreakdownKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakdownKind::RhoZero => f.write_str("rho underflow"),
            BreakdownKind::NonFinite => f.write_str("non-finite residual"),
        }
    }
}

pub(crate) fn finite_c(v: C64) -> bool {
    v.re.is_finite() && v.im.is_finite()
}

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct IterConfig {
    /// Relative residual tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for IterConfig {
    fn default() -> Self {
        // The paper's forward-solver setting (Section V-B).
        IterConfig {
            tol: 1e-4,
            max_iters: 1000,
        }
    }
}

/// CGNR: least-squares `min ||A x - b||` via conjugate gradients on the
/// Hermitian positive-semidefinite normal equations `A^H A x = A^H b`.
///
/// `a` maps `n -> m`, `a_adj` maps `m -> n` and must be the true adjoint.
pub fn cgnr<A: LinOp + ?Sized, AH: LinOp + ?Sized>(
    a: &A,
    a_adj: &AH,
    b: &[C64],
    x: &mut [C64],
    cfg: IterConfig,
) -> SolveStats {
    let n = a.dim_in();
    let m = a.dim_out();
    assert_eq!(b.len(), m);
    assert_eq!(x.len(), n);
    let mut rhs = vec![C64::ZERO; n];
    a_adj.apply(b, &mut rhs);
    let mut mid = vec![C64::ZERO; m];
    let mut normal = |v: &[C64], out: &mut [C64]| {
        a.apply(v, &mut mid);
        a_adj.apply(&mid, out);
    };
    let done = |iterations, applies, rel_residual, converged| SolveStats {
        verify_matvecs: 0,
        rolled_back: 0,
        iterations,
        matvecs: 2 * applies, // each normal-equation apply is two operator applies
        rel_residual,
        converged,
    };
    let rhs_norm = norm2(&rhs);
    if rhs_norm == 0.0 {
        x.iter_mut().for_each(|v| *v = C64::ZERO);
        return done(0, 0, 0.0, true);
    }
    let mut r = vec![C64::ZERO; n];
    normal(x, &mut r);
    let mut applies = 1usize;
    sub_into(&rhs, &r.clone(), &mut r);
    let mut p = r.clone();
    let mut ap = vec![C64::ZERO; n];
    let mut rs = zdotc(&r, &r);
    let mut res = rs.re.sqrt() / rhs_norm;
    for iter in 1..=cfg.max_iters {
        if res < cfg.tol {
            return done(iter - 1, applies, res, true);
        }
        normal(&p, &mut ap);
        applies += 1;
        let alpha = rs / zdotc(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new = zdotc(&r, &r);
        let beta = rs_new / rs;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs = rs_new;
        res = rs.re.sqrt() / rhs_norm;
    }
    done(cfg.max_iters, applies, res, res < cfg.tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_bicgstab_block, Workspace};
    use ffw_numerics::linalg::Matrix;
    use ffw_numerics::{c64, vecops::rel_diff};

    fn random_mat(n: usize, m: usize, seed: u64, diag_boost: f64) -> Matrix {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Matrix::from_fn(n, m, |r, c| {
            let mut v = c64(next(), next());
            if r == c {
                v += diag_boost;
            }
            v
        })
    }

    fn random_vec(n: usize, seed: u64) -> Vec<C64> {
        let m = random_mat(1, n, seed, 0.0);
        m.as_slice().to_vec()
    }

    /// `a x = b` as a panel of width 1 through the kernel under its
    /// breakdown policy.
    fn solve(a: &Matrix, b: &[C64], x: &mut Vec<C64>, cfg: IterConfig) -> SolveStats {
        let xs = std::slice::from_mut(x);
        let stats = try_bicgstab_block(a, &[b], xs, cfg, None, &Workspace::new());
        stats.expect("no breakdown").remove(0)
    }

    #[test]
    fn bicgstab_solves_diagonally_dominant_system() {
        let n = 60;
        let a = random_mat(n, n, 3, 8.0);
        let x_true = random_vec(n, 5);
        let mut b = vec![C64::ZERO; n];
        a.matvec(&x_true, &mut b);
        let mut x = vec![C64::ZERO; n];
        let stats = solve(
            &a,
            &b,
            &mut x,
            IterConfig {
                tol: 1e-10,
                max_iters: 500,
            },
        );
        assert!(stats.converged, "{stats:?}");
        assert!(
            rel_diff(&x, &x_true) < 1e-8,
            "err {}",
            rel_diff(&x, &x_true)
        );
        assert_eq!(stats.matvecs, 2 * stats.iterations + 1);
    }

    #[test]
    fn bicgstab_residual_is_truthful() {
        let n = 40;
        let a = random_mat(n, n, 13, 6.0);
        let b = random_vec(n, 17);
        let mut x = vec![C64::ZERO; n];
        let stats = solve(
            &a,
            &b,
            &mut x,
            IterConfig {
                tol: 1e-8,
                max_iters: 300,
            },
        );
        let mut r = vec![C64::ZERO; n];
        a.matvec(&x, &mut r);
        let resid: f64 = r
            .iter()
            .zip(&b)
            .map(|(ax, bb)| (*ax - *bb).norm_sqr())
            .sum::<f64>()
            .sqrt()
            / ffw_numerics::vecops::norm2(&b);
        assert!(stats.converged);
        assert!(
            (resid - stats.rel_residual).abs() < 1e-6,
            "{resid} vs {stats:?}"
        );
    }

    #[test]
    fn bicgstab_zero_rhs() {
        let a = random_mat(10, 10, 1, 4.0);
        let b = vec![C64::ZERO; 10];
        let mut x = random_vec(10, 2);
        let stats = solve(&a, &b, &mut x, IterConfig::default());
        assert!(stats.converged);
        assert!(x.iter().all(|v| v.abs() == 0.0));
    }

    #[test]
    fn cgnr_solves_overdetermined_least_squares() {
        // 50 equations, 20 unknowns: residual must be orthogonal to range(A).
        let m = 50;
        let n = 20;
        let a = random_mat(m, n, 11, 0.0);
        let b = random_vec(m, 13);
        let a_adj = a.adjoint();
        let mut x = vec![C64::ZERO; n];
        let stats = cgnr(
            &a,
            &a_adj,
            &b,
            &mut x,
            IterConfig {
                tol: 1e-12,
                max_iters: 500,
            },
        );
        assert!(stats.converged);
        // optimality: A^H (A x - b) = 0
        let mut ax = vec![C64::ZERO; m];
        a.matvec(&x, &mut ax);
        let r: Vec<C64> = ax.iter().zip(&b).map(|(u, v)| *u - *v).collect();
        let mut grad = vec![C64::ZERO; n];
        a_adj.matvec(&r, &mut grad);
        assert!(
            ffw_numerics::vecops::norm2(&grad) < 1e-8 * ffw_numerics::vecops::norm2(&b),
            "normal-equation residual too large"
        );
    }

    #[test]
    fn max_iters_reports_unconverged() {
        let n = 50;
        let a = random_mat(n, n, 23, 0.3); // poorly conditioned
        let b = random_vec(n, 29);
        let mut x = vec![C64::ZERO; n];
        let stats = solve(
            &a,
            &b,
            &mut x,
            IterConfig {
                tol: 1e-14,
                max_iters: 2,
            },
        );
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 2);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 40;
        let a = random_mat(n, n, 31, 6.0);
        let x_true = random_vec(n, 33);
        let mut b = vec![C64::ZERO; n];
        a.matvec(&x_true, &mut b);
        let mut cold = vec![C64::ZERO; n];
        let cold_stats = solve(
            &a,
            &b,
            &mut cold,
            IterConfig {
                tol: 1e-9,
                max_iters: 300,
            },
        );
        // warm start from a slightly perturbed solution
        let mut warm: Vec<C64> = x_true.iter().map(|v| *v * 1.001).collect();
        let warm_stats = solve(
            &a,
            &b,
            &mut warm,
            IterConfig {
                tol: 1e-9,
                max_iters: 300,
            },
        );
        assert!(warm_stats.iterations <= cold_stats.iterations);
    }
}

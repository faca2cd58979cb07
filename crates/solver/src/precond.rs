//! Preconditioners for the BiCGStab kernel — the paper's Section VIII
//! future-work item ("preconditioning of the system to address situations
//! where the problem goes into resonance and near-resonance frequencies").
//! The recurrence itself is [`crate::bicgstab_block_with`]; a preconditioner
//! is one of its optional arguments.

use ffw_numerics::C64;

/// An (approximate) inverse `z ~ A^{-1} r` applied as `z = M r`.
pub trait Precond: Sync {
    /// Applies the preconditioner: `z = M r`.
    fn apply(&self, r: &[C64], z: &mut [C64]);
}

/// The trivial preconditioner `M = I`.
pub struct IdentityPrecond;

impl Precond for IdentityPrecond {
    fn apply(&self, r: &[C64], z: &mut [C64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner `M = diag(d)^{-1}` given the diagonal.
pub struct JacobiPrecond(pub Vec<C64>);

impl Precond for JacobiPrecond {
    fn apply(&self, r: &[C64], z: &mut [C64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.0) {
            *zi = *ri / *di;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::bicgstab_block_with;
    use crate::krylov::{bicgstab, width_one, IterConfig, SolveStats};
    use ffw_numerics::c64;
    use ffw_numerics::linalg::Matrix;
    use ffw_numerics::vecops::{norm2, rel_diff};

    fn solve_preconditioned(
        a: &Matrix,
        m: &dyn Precond,
        b: &[C64],
        x: &mut [C64],
        cfg: IterConfig,
    ) -> SolveStats {
        let Ok(stats) = width_one(b, x, |bs, xs| {
            let ws = crate::Workspace::new();
            Ok::<_, std::convert::Infallible>(bicgstab_block_with(
                a,
                bs,
                xs,
                cfg,
                None,
                Some(m),
                &ws,
            ))
        });
        stats
    }

    fn ill_conditioned(n: usize, seed: u64) -> Matrix {
        // strongly varying diagonal + small random coupling
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Matrix::from_fn(n, n, |r, c| {
            if r == c {
                c64(0.02 + 3.0 * (r as f64 / n as f64).powi(3), 0.1)
            } else {
                c64(next(), next()).scale(0.003)
            }
        })
    }

    #[test]
    fn identity_precond_matches_plain_bicgstab() {
        let n = 40;
        let a = ill_conditioned(n, 1);
        let b: Vec<C64> = (0..n).map(|i| c64(1.0, i as f64 * 0.1)).collect();
        let cfg = IterConfig {
            tol: 1e-10,
            max_iters: 800,
        };
        let mut x1 = vec![C64::ZERO; n];
        let s1 = bicgstab(&a, &b, &mut x1, cfg);
        let mut x2 = vec![C64::ZERO; n];
        let s2 = solve_preconditioned(&a, &IdentityPrecond, &b, &mut x2, cfg);
        assert!(s1.converged && s2.converged);
        assert!(rel_diff(&x1, &x2) < 1e-7);
    }

    #[test]
    fn jacobi_precond_cuts_iterations_on_skewed_diagonal() {
        let n = 60;
        let a = ill_conditioned(n, 3);
        let b: Vec<C64> = (0..n).map(|i| c64((i % 7) as f64, 1.0)).collect();
        let cfg = IterConfig {
            tol: 1e-8,
            max_iters: 2000,
        };
        let mut x_plain = vec![C64::ZERO; n];
        let plain = bicgstab(&a, &b, &mut x_plain, cfg);
        let diag: Vec<C64> = (0..n).map(|i| a.at(i, i)).collect();
        let m = JacobiPrecond(diag);
        let mut x_pre = vec![C64::ZERO; n];
        let pre = solve_preconditioned(&a, &m, &b, &mut x_pre, cfg);
        assert!(pre.converged);
        assert!(
            pre.iterations < plain.iterations,
            "precond {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
        // both solve the same system
        assert!(rel_diff(&x_pre, &x_plain) < 1e-5);
    }

    #[test]
    fn preconditioned_residual_is_true_residual() {
        let n = 30;
        let a = ill_conditioned(n, 7);
        let b: Vec<C64> = (0..n).map(|i| c64(0.5, -(i as f64) * 0.05)).collect();
        let diag: Vec<C64> = (0..n).map(|i| a.at(i, i)).collect();
        let mut x = vec![C64::ZERO; n];
        let stats = solve_preconditioned(
            &a,
            &JacobiPrecond(diag),
            &b,
            &mut x,
            IterConfig {
                tol: 1e-9,
                max_iters: 1000,
            },
        );
        assert!(stats.converged);
        let mut ax = vec![C64::ZERO; n];
        a.matvec(&x, &mut ax);
        let true_res = ax
            .iter()
            .zip(&b)
            .map(|(u, v)| (*u - *v).norm_sqr())
            .sum::<f64>()
            .sqrt()
            / norm2(&b);
        assert!(true_res < 1e-8, "true residual {true_res}");
    }
}

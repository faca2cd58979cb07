//! Property-based tests for the iterative solvers: they must solve what
//! they claim to solve, for randomized well-conditioned systems.

use ffw_numerics::linalg::Matrix;
use ffw_numerics::vecops::rel_diff;
use ffw_numerics::{c64, C64};
use ffw_solver::{
    bicgstab, solve_adjoint, solve_forward, DistOp, IterConfig, ScatteringOp, Workspace,
};
use proptest::prelude::*;

fn random_mat(n: usize, m: usize, seed: u64, diag_boost: f64) -> Matrix {
    let mut s = seed.wrapping_add(1);
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
    random_mat(1, n, seed, 0.0).as_slice().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bicgstab_solves_random_dominant_systems(seed in 0u64..5000, n in 5usize..50) {
        let a = random_mat(n, n, seed, 6.0);
        let x_true = random_vec(n, seed ^ 0xabcd);
        let mut b = vec![C64::ZERO; n];
        a.matvec(&x_true, &mut b);
        let mut x = vec![C64::ZERO; n];
        let stats = bicgstab(&a, &b, &mut x, IterConfig { tol: 1e-10, max_iters: 400 });
        prop_assert!(stats.converged);
        prop_assert!(rel_diff(&x, &x_true) < 1e-7, "err {}", rel_diff(&x, &x_true));
    }

    #[test]
    fn forward_then_apply_recovers_rhs(seed in 0u64..5000, n in 5usize..40) {
        // solve A phi = phi_inc, then verify A phi == phi_inc
        let g0 = {
            // complex-symmetric small-norm G0 stand-in
            let mut m = random_mat(n, n, seed, 0.0);
            for r in 0..n {
                for c in 0..r {
                    let v = m.at(r, c).scale(0.15);
                    *m.at_mut(r, c) = v;
                    *m.at_mut(c, r) = v;
                }
                let v = m.at(r, r).scale(0.15);
                *m.at_mut(r, r) = v;
            }
            m
        };
        let object: Vec<C64> = random_vec(n, seed ^ 0x77).iter().map(|v| v.scale(0.5)).collect();
        let phi_inc = random_vec(n, seed ^ 0x99);
        let mut phi = vec![C64::ZERO; n];
        let stats = solve_forward(&g0, &object, &phi_inc, &mut phi, IterConfig { tol: 1e-10, max_iters: 500 });
        prop_assert!(stats.converged);
        let ws = Workspace::new();
        let a = ScatteringOp::new(&g0, &object, &ws);
        let mut back = vec![C64::ZERO; n];
        let Ok(()) = a.try_apply_block_local(&[&phi], std::slice::from_mut(&mut back));
        prop_assert!(rel_diff(&back, &phi_inc) < 1e-8);
    }

    #[test]
    fn forward_and_adjoint_solutions_are_consistent(seed in 0u64..2000, n in 5usize..30) {
        // <A^{-1} b, c> == <b, A^{-H} c> for random b, c
        let g0 = {
            let mut m = random_mat(n, n, seed, 0.0);
            for r in 0..n {
                for c in 0..=r {
                    let v = m.at(r, c).scale(0.12);
                    *m.at_mut(r, c) = v;
                    *m.at_mut(c, r) = v;
                }
            }
            m
        };
        let object: Vec<C64> = random_vec(n, seed ^ 0x7).iter().map(|v| v.scale(0.4)).collect();
        let b = random_vec(n, seed ^ 0x8);
        let c = random_vec(n, seed ^ 0x9);
        let cfg = IterConfig { tol: 1e-12, max_iters: 600 };
        let mut x = vec![C64::ZERO; n];
        prop_assert!(solve_forward(&g0, &object, &b, &mut x, cfg).converged);
        let mut z = vec![C64::ZERO; n];
        prop_assert!(solve_adjoint(&g0, &object, &c, &mut z, cfg).converged);
        let lhs = ffw_numerics::vecops::zdotc(&x, &c);
        let rhs = ffw_numerics::vecops::zdotc(&b, &z);
        prop_assert!((lhs - rhs).abs() < 1e-6 * (1.0 + lhs.abs()), "{lhs:?} vs {rhs:?}");
    }
}

//! Property-based tests for the iterative solvers: they must solve what
//! they claim to solve, for randomized well-conditioned systems — and the
//! Born-series engine must additionally honor its contraction certificate:
//! once the admission check accepts a contrast, the residual is *guaranteed*
//! to shrink geometrically, with an iteration count that is a deterministic
//! function of the problem alone (never of panel width or run order).

use ffw_numerics::linalg::Matrix;
use ffw_numerics::vecops::rel_diff;
use ffw_numerics::{c64, C64};
use ffw_solver::{
    bicgstab, estimate_g0_norm, solve_adjoint, solve_forward, BornSeriesBackend, DistOp,
    ForwardBackend, IterConfig, ScatteringOp, Workspace, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED,
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

/// A random complex-symmetric `G0` plus an object scaled so the Born-series
/// contraction factor lands at `target_kappa` (estimated norm, safety
/// inflation included) — i.e. admissible by construction, with a tunable
/// margin to the bound.
fn admissible_system(n: usize, seed: u64, target_kappa: f64) -> (Matrix, Vec<C64>, f64) {
    let mut g0 = random_mat(n, n, seed, 0.0);
    for r in 0..n {
        for c in 0..=r {
            let v = g0.at(r, c).scale(0.3);
            *g0.at_mut(r, c) = v;
            *g0.at_mut(c, r) = v;
        }
    }
    let g0_norm = estimate_g0_norm(&g0, NORM_ESTIMATE_ITERS, NORM_ESTIMATE_SEED);
    let raw = random_vec(n, seed ^ 0xfeed);
    let max_abs = raw.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    let scale = target_kappa / (g0_norm * max_abs);
    let object: Vec<C64> = raw.iter().map(|v| v.scale(scale)).collect();
    (g0, object, g0_norm)
}

/// True residual `||b - A x|| / ||b||` under the scattering operator.
fn true_residual(g0: &Matrix, object: &[C64], b: &[C64], x: &[C64]) -> f64 {
    let ws = Workspace::new();
    let a = ScatteringOp::new(g0, object, &ws);
    let mut ax = vec![C64::ZERO; b.len()];
    let Ok(()) = a.try_apply_block_local(&[x], std::slice::from_mut(&mut ax));
    let num: f64 = b
        .iter()
        .zip(&ax)
        .map(|(bi, ai)| (*bi - *ai).norm_sqr())
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|v| v.norm_sqr()).sum::<f64>().sqrt();
    num / den.max(1e-300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Admission implies contraction: for any contrast under the bound, the
    // residual after m+1 Born iterations is at most `kappa` times the
    // residual after m (small slack for the norm estimate and roundoff),
    // and strictly smaller — the certificate the admission check sells.
    #[test]
    fn born_series_contracts_geometrically(seed in 0u64..3000, n in 5usize..30) {
        let kappa_target = 0.3 + (seed % 5) as f64 * 0.1; // 0.3..=0.7
        let (g0, object, g0_norm) = admissible_system(n, seed, kappa_target);
        let backend = BornSeriesBackend::new(&g0, &object, g0_norm).expect("admissible");
        let kappa = backend.kappa();
        prop_assert!(kappa < 0.95);
        let b = random_vec(n, seed ^ 0xb0b0);
        let mut prev = true_residual(&g0, &object, &b, &vec![C64::ZERO; n]);
        for m in 1..=8usize {
            let mut x = vec![C64::ZERO; n];
            // tol 0 disables the convergence exit, so exactly m update steps run.
            let stats = backend.solve(&b, &mut x, IterConfig { tol: 0.0, max_iters: m }).expect("solve");
            prop_assert_eq!(stats.iterations, m);
            let res = true_residual(&g0, &object, &b, &x);
            prop_assert!(
                res <= prev * kappa * 1.05 + 1e-14,
                "iteration {} broke the contraction: {} -> {} (kappa {})",
                m, prev, res, kappa
            );
            prop_assert!(res < prev, "residual did not strictly decrease");
            prev = res;
        }
    }

    // Iteration counts are a pure function of (operator, rhs, tol): two
    // runs agree bit-for-bit, and slicing the same right-hand sides into
    // panels of any width changes neither the counts nor the iterates.
    #[test]
    fn born_series_counts_are_deterministic_and_panel_independent(
        seed in 0u64..3000, n in 5usize..24, width in 1usize..7
    ) {
        let (g0, object, g0_norm) = admissible_system(n, seed, 0.5);
        let backend = BornSeriesBackend::new(&g0, &object, g0_norm).expect("admissible");
        let cfg = IterConfig { tol: 1e-10, max_iters: 400 };
        let cols = 6usize;
        let bs: Vec<Vec<C64>> = (0..cols).map(|c| random_vec(n, seed ^ (c as u64) << 3)).collect();

        // Reference: scalar solves, run twice to pin determinism.
        let mut ref_stats = Vec::new();
        let mut ref_x = Vec::new();
        for b in &bs {
            let mut x = vec![C64::ZERO; n];
            let s1 = backend.solve(b, &mut x, cfg).expect("solve");
            let mut x2 = vec![C64::ZERO; n];
            let s2 = backend.solve(b, &mut x2, cfg).expect("solve");
            prop_assert_eq!(s1.iterations, s2.iterations);
            prop_assert_eq!(s1.matvecs, s2.matvecs);
            prop_assert_eq!(&x, &x2);
            prop_assert!(s1.converged);
            ref_stats.push(s1);
            ref_x.push(x);
        }

        // Panels of `width` columns: identical counts and iterates.
        for chunk_start in (0..cols).step_by(width) {
            let chunk_end = (chunk_start + width).min(cols);
            let refs: Vec<&[C64]> = bs[chunk_start..chunk_end].iter().map(Vec::as_slice).collect();
            let mut xs = vec![vec![C64::ZERO; n]; refs.len()];
            let stats = backend.solve_block(&refs, &mut xs, cfg).expect("solve");
            for (k, s) in stats.iter().enumerate() {
                let c = chunk_start + k;
                prop_assert_eq!(
                    s.iterations, ref_stats[c].iterations,
                    "panel width {} changed column {}'s count", width, c
                );
                prop_assert_eq!(s.matvecs, ref_stats[c].matvecs);
                prop_assert_eq!(&xs[k], &ref_x[c], "panel width {} changed column {}", width, c);
            }
        }
    }
}

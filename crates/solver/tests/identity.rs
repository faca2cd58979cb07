//! The zero background is the identity. At `O = 0`, from `x0 = 0`, the
//! forward engine told so (`BicgstabBackend::at_zero_background`) returns
//! what the BiCGStab sweep returns, bit for bit, signed zeros included:
//! forward and adjoint, at every panel width from 1 to 8, with and without
//! the drift guard. And it gets there with no apply, no reduction and no
//! Krylov step.

use ffw_geometry::Domain;
use ffw_inverse::MlfmaG0;
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
use ffw_solver::{
    try_bicgstab_block, AdjointScatteringOp, BicgstabBackend, DistOp, DriftGuard, IterConfig,
    ScatteringOp, SolveStats, Workspace,
};
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The MLFMA `G0`, counting what goes through it.
struct Tally {
    g0: MlfmaG0,
    applies: AtomicUsize,
    reductions: AtomicUsize,
}

impl DistOp for Tally {
    type Error = Infallible;
    fn n_local(&self) -> usize {
        self.g0.n_local()
    }
    fn try_apply_block_local(&self, xs: &[&[C64]], ys: &mut [Vec<C64>]) -> Result<(), Infallible> {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.g0.try_apply_block_local(xs, ys)
    }
    fn reduce(&self, vals: &mut [C64]) -> Result<(), Infallible> {
        self.reductions.fetch_add(1, Ordering::Relaxed);
        self.g0.reduce(vals)
    }
}

impl Tally {
    fn taken(&self) -> (usize, usize) {
        (
            self.applies.swap(0, Ordering::Relaxed),
            self.reductions.swap(0, Ordering::Relaxed),
        )
    }
}

/// `width` right-hand sides: smooth non-zero columns with a `-0.0` word and
/// an exact-zero real part, and, from width 3 on, one column of signed
/// zeros — what `conj(O) . y` is at `O = 0`, the adjoint right-hand sides of
/// a first DBIM iteration.
fn panel(n: usize, width: usize) -> Vec<Vec<C64>> {
    (0..width)
        .map(|b| {
            if width >= 3 && b == 1 {
                return (0..n)
                    .map(|i| c64(if i % 2 == 0 { -0.0 } else { 0.0 }, -0.0))
                    .collect();
            }
            let mut col: Vec<C64> = (0..n)
                .map(|i| {
                    let t = 0.37 * i as f64 + 1.3 * b as f64;
                    c64(t.sin() + 0.1, (0.5 * t).cos())
                })
                .collect();
            col[b] = c64(-0.0, 0.25);
            col[b + 1] = c64(0.0, -1.5);
            col
        })
        .collect()
}

fn bits(xs: &[Vec<C64>]) -> Vec<(u64, u64)> {
    xs.iter()
        .flatten()
        .map(|v| (v.re.to_bits(), v.im.to_bits()))
        .collect()
}

#[test]
fn the_zero_background_returns_what_the_sweep_returns_with_no_work() {
    let plan = Arc::new(MlfmaPlan::new(&Domain::new(32, 1.0), Accuracy::low()));
    let g0 = Tally {
        g0: MlfmaG0(Arc::new(MlfmaEngine::new(
            Arc::clone(&plan),
            Arc::new(Pool::new(2)),
        ))),
        applies: AtomicUsize::new(0),
        reductions: AtomicUsize::new(0),
    };
    let n = g0.n_local();
    let object = vec![C64::ZERO; n];
    let cfg = IterConfig::default();
    let ws = Workspace::new();
    let mut sweeps = 0;
    for width in 1..=8 {
        let bs = panel(n, width);
        let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
        for guarded in [false, true] {
            let guard = DriftGuard::default();
            let guard = guarded.then_some(&guard);
            let engine = BicgstabBackend::new(&g0, &object, guard, &ws).at_zero_background(true);
            for adjoint in [false, true] {
                let case = format!("width {width}, guard {guarded}, adjoint {adjoint}");
                let mut shortcut = vec![vec![C64::ZERO; n]; width];
                let stats = if adjoint {
                    engine.solve_adjoint_block(&b_refs, &mut shortcut, cfg)
                } else {
                    engine.solve_block(&b_refs, &mut shortcut, cfg)
                }
                .expect("identity solve");
                assert_eq!(g0.taken(), (0, 0), "{case}: the identity touched G0");
                let identity = SolveStats {
                    iterations: 0,
                    matvecs: 0,
                    verify_matvecs: 0,
                    rolled_back: 0,
                    rel_residual: 0.0,
                    converged: true,
                };
                assert!(stats.iter().all(|s| *s == identity), "{case}: {stats:?}");

                let mut swept = vec![vec![C64::ZERO; n]; width];
                let swept_stats = if adjoint {
                    let a = AdjointScatteringOp::new(&g0, &object, &ws);
                    try_bicgstab_block(&a, &b_refs, &mut swept, cfg, guard, &ws)
                } else {
                    let a = ScatteringOp::new(&g0, &object, &ws);
                    try_bicgstab_block(&a, &b_refs, &mut swept, cfg, guard, &ws)
                }
                .expect("sweep");
                assert!(
                    swept_stats.iter().all(|s| s.converged && s.iterations <= 1),
                    "{case}: {swept_stats:?}"
                );
                sweeps += g0.taken().0;
                assert_eq!(bits(&shortcut), bits(&swept), "{case}");
            }
        }
    }
    assert!(sweeps > 0, "the sweeps applied the operator");

    // The engine books its identity solves with the recorder on.
    ffw_obs::reset();
    ffw_obs::set_enabled(true);
    let engine = BicgstabBackend::new(&g0, &object, None, &ws).at_zero_background(true);
    let bs = panel(n, 3);
    let b_refs: Vec<&[C64]> = bs.iter().map(|b| b.as_slice()).collect();
    let mut xs = vec![vec![C64::ZERO; n]; 3];
    engine.solve_block(&b_refs, &mut xs, cfg).expect("solve");
    let snap = ffw_obs::snapshot();
    ffw_obs::set_enabled(false);
    let identity_solves = snap
        .counters
        .iter()
        .find(|(name, _)| name == "solver.identity_solves")
        .map(|(_, v)| *v);
    assert_eq!(identity_solves, Some(3));
}

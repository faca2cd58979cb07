//! Criterion micro-benchmarks for the MLFMA engine: O(N) matvec scaling,
//! direct-product crossover, and the forward solver.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ffw_geometry::{Domain, QuadTree};
use ffw_greens::{tree_positions, DirectG0, Kernel};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
use ffw_solver::{solve_forward, IterConfig};
use std::sync::Arc;

fn random_x(n: usize, seed: u64) -> Vec<C64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            c64(a, b)
        })
        .collect()
}

/// MLFMA matvec across problem sizes: time/N must stay ~flat (O(N)).
fn bench_matvec_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlfma_matvec");
    group.sample_size(10);
    for px in [32usize, 64, 128, 256] {
        let domain = Domain::new(px, 1.0);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
        let eng = MlfmaEngine::new(plan, Arc::new(Pool::new(1)));
        let n = domain.n_pixels();
        let x = random_x(n, 1);
        let mut y = vec![C64::ZERO; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| eng.apply(&x, &mut y));
        });
    }
    group.finish();
}

/// Direct O(N^2) product at the sizes where it is still feasible — the
/// crossover against the MLFMA column above demonstrates the paper's point.
fn bench_direct_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("direct_matvec");
    group.sample_size(10);
    for px in [32usize, 64] {
        let domain = Domain::new(px, 1.0);
        let tree = QuadTree::new(&domain);
        let positions = tree_positions(&domain, &tree);
        let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
        let n = domain.n_pixels();
        let x = random_x(n, 2);
        let mut y = vec![C64::ZERO; n];
        let op = DirectG0::new(kernel, &positions);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| op.apply(&x, &mut y));
        });
    }
    group.finish();
}

/// One full forward-scattering solve (BiCGStab + MLFMA), the unit of work the
/// whole inverse solver is built from.
fn bench_forward_solve(c: &mut Criterion) {
    let domain = Domain::new(64, 1.0);
    let tree = QuadTree::new(&domain);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let eng = MlfmaEngine::new(plan, Arc::new(Pool::new(1)));
    let op = ffw_bench_adapter::Adapter(&eng);
    let n = domain.n_pixels();
    let positions = tree_positions(&domain, &tree);
    let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
    let phi_inc = ffw_greens::incident_plane_wave(&kernel, 0.0, &positions);
    let object: Vec<C64> = positions
        .iter()
        .map(|p| {
            if p.norm() < 1.5 {
                c64(domain.k0() * domain.k0() * 0.02, 0.0)
            } else {
                C64::ZERO
            }
        })
        .collect();
    let mut phi = vec![C64::ZERO; n];
    c.bench_function("forward_solve_4096px_contrast0.02", |b| {
        b.iter(|| {
            phi.iter_mut().for_each(|v| *v = C64::ZERO);
            solve_forward(&op, &object, &phi_inc, &mut phi, IterConfig::default())
        });
    });
}

/// Tiny adapter module so the bench can use the engine as a LinOp without a
/// dependency cycle.
mod ffw_bench_adapter {
    use super::*;
    use ffw_solver::{BlockLinOp, LinOp};
    pub struct Adapter<'a>(pub &'a MlfmaEngine);
    impl LinOp for Adapter<'_> {
        fn dim_out(&self) -> usize {
            self.0.n()
        }
        fn dim_in(&self) -> usize {
            self.0.n()
        }
        fn apply(&self, x: &[C64], y: &mut [C64]) {
            self.0.apply(x, y);
        }
    }
    impl BlockLinOp for Adapter<'_> {}
}

criterion_group!(
    benches,
    bench_matvec_scaling,
    bench_direct_crossover,
    bench_forward_solve
);
criterion_main!(benches);

//! Sweeps the MLFMA accuracy parameters (truncation digits d0 and
//! interpolation band width) against the direct O(N^2) product on a 64x64
//! grid — the quick developer version of `ffw-bench --bin accuracy`.

use ffw_geometry::Domain;
use ffw_greens::{tree_positions, DirectG0};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::vecops::rel_diff;
use ffw_numerics::{c64, C64};
use ffw_par::Pool;
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

fn main() {
    let domain = Domain::new(64, 1.0);
    let tree = ffw_geometry::QuadTree::new(&domain);
    let pos = tree_positions(&domain, &tree);
    let kernel = ffw_greens::Kernel::new(domain.k0(), domain.equivalent_radius());
    let x = random_x(64 * 64, 7);
    let mut yref = vec![C64::ZERO; x.len()];
    DirectG0::new(kernel, &pos).apply(&x, &mut yref);
    for (d, p) in [
        (5.0, 8),
        (6.0, 10),
        (7.0, 12),
        (7.0, 16),
        (8.0, 12),
        (8.0, 16),
        (9.0, 16),
        (10.0, 20),
    ] {
        let acc = Accuracy {
            digits: d,
            interp_order: p,
        };
        let plan = Arc::new(MlfmaPlan::new(&domain, acc));
        let eng = MlfmaEngine::new(plan, Arc::new(Pool::new(1)));
        let mut y = vec![C64::ZERO; x.len()];
        eng.apply(&x, &mut y);
        println!("digits={d} p={p}: err={:e}", rel_diff(&y, &yref));
    }
}

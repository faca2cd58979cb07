//! Metamorphic properties of the MLFMA engine and the direct kernel.
//!
//! These tests never compare against an external oracle; they check
//! relations the operator must satisfy *with itself*:
//!
//! - linearity: `G0 (a x + b y) == a G0 x + b G0 y`
//! - block consistency: a column of an `apply_block` panel matches its
//!   width-1 apply to <= 1e-12 and bit for bit, and stale workspace contents
//!   from a panel of another width never reach an output
//! - reciprocity: the free-space Green's function is symmetric under
//!   swapping source and observer, so the direct kernel's unconjugated
//!   bilinear form is symmetric.

use ffw_geometry::Domain;
use ffw_greens::{tree_positions, DirectG0, Kernel};
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

fn engine(n_px: usize, threads: usize) -> MlfmaEngine {
    let domain = Domain::new(n_px, 1.0);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    MlfmaEngine::new(plan, Arc::new(Pool::new(threads)))
}

#[test]
fn linearity_of_the_fast_operator() {
    let eng = engine(32, 2);
    let n = eng.n();
    let x = random_x(n, 101);
    let y = random_x(n, 102);
    let (alpha, beta) = (c64(0.7, -1.3), c64(-0.2, 0.45));
    let combo: Vec<C64> = x
        .iter()
        .zip(&y)
        .map(|(a, b)| alpha * *a + beta * *b)
        .collect();
    let mut gx = vec![C64::ZERO; n];
    let mut gy = vec![C64::ZERO; n];
    let mut gc = vec![C64::ZERO; n];
    eng.apply(&x, &mut gx);
    eng.apply(&y, &mut gy);
    eng.apply(&combo, &mut gc);
    let expect: Vec<C64> = gx
        .iter()
        .zip(&gy)
        .map(|(a, b)| alpha * *a + beta * *b)
        .collect();
    assert!(
        rel_diff(&gc, &expect) < 1e-12,
        "apply(ax+by) != a apply(x) + b apply(y): {:e}",
        rel_diff(&gc, &expect)
    );
}

/// The tentpole acceptance property: every column of a fused block apply
/// matches its own single-RHS apply to <= 1e-12, for panel widths that do
/// and do not divide the engine's chunk sizes (3 does not divide anything
/// in sight; 8 matches the leaf-task grouping).
#[test]
fn block_apply_matches_single_rhs_per_column() {
    for threads in [1usize, 3] {
        let eng = engine(32, threads);
        let n = eng.n();
        for width in [1usize, 2, 3, 8] {
            let xs: Vec<Vec<C64>> = (0..width)
                .map(|b| random_x(n, 500 + (width * 16 + b) as u64))
                .collect();
            let refs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();
            let mut ys = vec![vec![C64::ZERO; n]; width];
            eng.apply_block(&refs, &mut ys);
            for (b, x) in xs.iter().enumerate() {
                let mut y1 = vec![C64::ZERO; n];
                eng.apply(x, &mut y1);
                let d = rel_diff(&ys[b], &y1);
                assert!(
                    d <= 1e-12,
                    "column {b} of width-{width} block (threads={threads}) drifted: {d:e}"
                );
            }
        }
    }
}

/// A column must be bit-identical at every panel width, not merely close:
/// the batched Krylov solvers rely on it to keep their trajectories equal
/// to a width-1 solve.
#[test]
fn block_apply_is_bit_identical_per_column() {
    let eng = engine(32, 2);
    let n = eng.n();
    let width = 3;
    let xs: Vec<Vec<C64>> = (0..width).map(|b| random_x(n, 900 + b as u64)).collect();
    let refs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();
    let mut ys = vec![vec![C64::ZERO; n]; width];
    eng.apply_block(&refs, &mut ys);
    for (b, x) in xs.iter().enumerate() {
        let mut y1 = vec![C64::ZERO; n];
        eng.apply(x, &mut y1);
        assert_eq!(ys[b], y1, "column {b} not bit-identical");
    }
}

/// The engine's one workspace keeps the widest panel's capacity and is never
/// cleared, so a narrower (or re-widened) panel runs over stale patterns laid
/// out for another width — and a zero column, which is left out of the
/// traversal, leaves its slots of the previous panel behind. Every stage
/// overwrites the slots of the columns it traverses before reading them and
/// reads no others: whatever was applied before, a panel's output equals
/// that of a fresh engine, bit for bit.
#[test]
fn workspace_reuse_across_widths_is_bit_identical() {
    let reused = engine(32, 2);
    let n = reused.n();
    let xs: Vec<Vec<C64>> = (0..9).map(|b| random_x(n, 40 + b as u64)).collect();
    let run = |eng: &MlfmaEngine, width: usize, zero: Option<usize>| {
        let mut panel = xs[..width].to_vec();
        if let Some(b) = zero {
            panel[b] = vec![C64::ZERO; n];
        }
        let refs: Vec<&[C64]> = panel.iter().map(|v| v.as_slice()).collect();
        let mut ys = vec![vec![C64::ZERO; n]; width];
        eng.apply_block(&refs, &mut ys);
        ys
    };
    let schedule = [
        (8usize, None),
        (1, None),
        (8, None),
        // a zero column between two wide panels, in the middle and at an end
        (8, Some(3)),
        (8, None),
        (9, Some(0)),
        (3, None),
        (9, None),
        (2, Some(1)),
        (2, None),
    ];
    for (width, zero) in schedule {
        assert_eq!(
            run(&reused, width, zero),
            run(&engine(32, 2), width, zero),
            "width {width} (zero column {zero:?}) read stale workspace contents"
        );
    }
}

/// Reciprocity of the direct kernel: swapping source and observer leaves
/// the Green's function unchanged, so `y^T G0 x == x^T G0 y` exactly (the
/// matrix is assembled symmetric) and entry-wise `g(m,n) == g(n,m)`.
#[test]
fn direct_kernel_reciprocity() {
    let domain = Domain::new(32, 1.0);
    let tree = ffw_geometry::QuadTree::new(&domain);
    let pos = tree_positions(&domain, &tree);
    let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
    let g = DirectG0::new(kernel, &pos);
    let n = pos.len();

    // Entry-wise: apply to basis vectors and swap indices.
    let mut em = vec![C64::ZERO; n];
    let mut en = vec![C64::ZERO; n];
    let (m, nn) = (37, 803);
    em[m] = c64(1.0, 0.0);
    en[nn] = c64(1.0, 0.0);
    let mut col_m = vec![C64::ZERO; n];
    let mut col_n = vec![C64::ZERO; n];
    g.apply(&em, &mut col_m);
    g.apply(&en, &mut col_n);
    assert!(
        (col_m[nn] - col_n[m]).abs() < 1e-15,
        "g({nn},{m}) != g({m},{nn})"
    );

    // Bilinear form: <y, G0 x> == <x, G0 y> without conjugation.
    let x = random_x(n, 7);
    let y = random_x(n, 8);
    let mut gx = vec![C64::ZERO; n];
    let mut gy = vec![C64::ZERO; n];
    g.apply(&x, &mut gx);
    g.apply(&y, &mut gy);
    let lhs: C64 = y.iter().zip(&gx).map(|(a, b)| *a * *b).sum();
    let rhs: C64 = x.iter().zip(&gy).map(|(a, b)| *a * *b).sum();
    assert!(
        (lhs - rhs).abs() / lhs.abs() < 1e-13,
        "bilinear form asymmetric: {lhs:?} vs {rhs:?}"
    );
}

//! Section V-B accuracy study: MLFMA matvec error relative to the naive
//! direct O(N^2) product, versus the accuracy parameters — plus the O(N) vs
//! O(N^2) timing crossover that motivates the whole algorithm.

use ffw_bench::{print_table, write_json, Args};
use ffw_geometry::{Domain, QuadTree};
use ffw_greens::{tree_positions, DirectG0, Kernel};
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::vecops::rel_diff;
use ffw_numerics::{c64, C64};
use ffw_obs::Stopwatch;
use ffw_par::Pool;
use serde::Serialize;
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

#[derive(Serialize)]
struct AccuracyPoint {
    digits: f64,
    band: usize,
    rel_error: f64,
}

#[derive(Serialize)]
struct TimingPoint {
    n: usize,
    mlfma_ms: f64,
    direct_ms: Option<f64>,
}

fn main() {
    let args = Args::parse();
    let pool = || Arc::new(Pool::new(Pool::global().n_threads()));

    // --- accuracy vs parameters (ablation: truncation digits + band width) ---
    let domain = Domain::new(64, 1.0);
    let tree = QuadTree::new(&domain);
    let positions = tree_positions(&domain, &tree);
    let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
    let x = random_x(domain.n_pixels(), 42);
    let mut y_ref = vec![C64::ZERO; x.len()];
    DirectG0::new(kernel, &positions).apply(&x, &mut y_ref);
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for (digits, band) in [
        (3.0, 6usize),
        (5.0, 8),
        (6.0, 12),
        (7.0, 16),
        (8.0, 16),
        (10.0, 20),
    ] {
        let acc = Accuracy {
            digits,
            interp_order: band,
        };
        let plan = Arc::new(MlfmaPlan::new(&domain, acc));
        let eng = MlfmaEngine::new(plan, pool());
        let mut y = vec![C64::ZERO; x.len()];
        eng.apply(&x, &mut y);
        let err = rel_diff(&y, &y_ref);
        rows.push(vec![
            format!("{digits}"),
            band.to_string(),
            format!("{err:.2e}"),
        ]);
        points.push(AccuracyPoint {
            digits,
            band,
            rel_error: err,
        });
    }
    print_table(
        "MLFMA matvec error vs accuracy parameters (4,096 unknowns, vs direct O(N^2))",
        &["digits d0", "interp band", "relative error"],
        &rows,
    );
    println!("paper setting: \"at most 1e-5 error relative to naive direct multiplication\"");
    println!("default (d0=7, band=16) must land at or below 1e-5.");

    // --- O(N) vs O(N^2) timing ---
    let sizes: &[usize] = if args.quick {
        &[32, 64, 128]
    } else {
        &[32, 64, 128, 256]
    };
    let mut timing = Vec::new();
    let mut rows = Vec::new();
    for &px in sizes {
        let domain = Domain::new(px, 1.0);
        let tree = QuadTree::new(&domain);
        let positions = tree_positions(&domain, &tree);
        let kernel = Kernel::new(domain.k0(), domain.equivalent_radius());
        let n = domain.n_pixels();
        let x = random_x(n, 7);
        let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
        let eng = MlfmaEngine::new(plan, pool());
        let mut y = vec![C64::ZERO; n];
        eng.apply(&x, &mut y); // warm up
        let reps = if n <= 4096 { 5 } else { 2 };
        let t0 = Stopwatch::start();
        for _ in 0..reps {
            eng.apply(&x, &mut y);
        }
        let mlfma_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        let direct_ms = if n <= 4096 {
            let t0 = Stopwatch::start();
            DirectG0::new(kernel, &positions).apply(&x, &mut y);
            Some(t0.elapsed().as_secs_f64() * 1e3)
        } else {
            None
        };
        rows.push(vec![
            n.to_string(),
            format!("{mlfma_ms:.2}"),
            direct_ms.map_or("-".into(), |d| format!("{d:.1}")),
            format!("{:.4}", mlfma_ms / n as f64),
        ]);
        timing.push(TimingPoint {
            n,
            mlfma_ms,
            direct_ms,
        });
    }
    print_table(
        "MLFMA O(N) vs direct O(N^2) matvec time",
        &["N", "MLFMA ms", "direct ms", "MLFMA us/unknown"],
        &rows,
    );
    println!("the MLFMA us/unknown column must stay roughly flat (O(N) scaling).");
    write_json("accuracy", &(points, timing)).expect("write results");
}

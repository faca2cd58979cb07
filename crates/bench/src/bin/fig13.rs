//! Fig. 13: the large Shepp–Logan reconstruction. A real scaled-down run
//! (laptop-feasible) plus the performance-model projection of the paper's
//! 4M-unknown / 4,096-GPU configuration.
//!
//! `--quick` (64², T=16, 8 iterations, about a second) is also the
//! repository's long-run convergence guard: every other gate stops at three
//! outer iterations or fewer, which is too early for an error that builds up
//! along the conjugate directions to show. Its final residual and image
//! error must match [`QUICK_FINAL_RESIDUAL`] and [`QUICK_IMAGE_ERROR`] to
//! three significant digits or the run exits 1.
//!
//! The default mode (128², T=32, 20 iterations) writes `results/fig13.json`
//! plus `fig13_truth.pgm`, `fig13_reconstruction.pgm` and
//! `fig13_convergence.svg`, the committed record; `--quick` and `--full`
//! write the same four under `fig13_quick*` and `fig13_full*`, so the CI
//! gate never overwrites it.

use ffw_bench::{write_json, Args};
use ffw_obs::Stopwatch;
use ffw_phantom::{image_rel_error, Phantom, SheppLogan};
use ffw_tomo::{Reconstruction, SceneConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    n_pixels: usize,
    n_tx: usize,
    n_rx: usize,
    dbim_iterations: usize,
    initial_residual: f64,
    final_residual: f64,
    image_error: f64,
    mlfma_mults_per_solve: f64,
    forward_solves: usize,
    wall_seconds: f64,
    projection_seconds_4096_gpus: f64,
}

/// What `--quick` must end at. Re-record both when a change moves the
/// trajectory on purpose, and say in the commit why it may.
const QUICK_FINAL_RESIDUAL: f64 = 0.011594;
const QUICK_IMAGE_ERROR: f64 = 0.311076;

/// Whether `got` is `want` to three significant digits.
fn agrees(got: f64, want: f64) -> bool {
    (got - want).abs() <= 5e-4 * want.abs()
}

fn main() {
    let args = Args::parse();
    let (name, px, n_tx, n_rx, iters) = if args.quick {
        ("fig13_quick", 64, 16, 32, 8)
    } else if args.full {
        ("fig13_full", 256, 64, 128, 50)
    } else {
        ("fig13", 128, 32, 64, 20)
    };
    println!(
        "Shepp-Logan reconstruction: {px}x{px} px ({:.1} lambda), T={n_tx}, R={n_rx}, {iters} DBIM iterations",
        px as f64 / 10.0
    );
    let scene = SceneConfig::new(px, n_tx, n_rx);
    let recon = Reconstruction::new(&scene);
    let truth = SheppLogan::for_domain(recon.domain(), 0.02); // paper's 0.02 max contrast
    let truth_raster = truth.rasterize(recon.domain());
    let t0 = Stopwatch::start();
    let measured = recon.synthesize(&truth);
    println!("synthesized {} transmitters in {:.1?}", n_tx, t0.elapsed());
    let t1 = Stopwatch::start();
    let result = recon.run_dbim(&measured, iters).expect("dbim");
    let wall = t1.elapsed().as_secs_f64();
    let image = recon.image(&result.object);
    let err = image_rel_error(&image, &truth_raster);

    // performance-model projection of the paper's exact configuration
    let mut lib = ffw_perf::PlanLib::new();
    let scale = ffw_perf::calibrate(&mut lib);
    let proj = ffw_perf::fig13_projection(&mut lib, scale);

    println!("\n== Fig 13: Shepp-Logan, measured (this machine) ==");
    println!(
        "residual: {:.1}% -> {:.3}%   (paper: 59.3% -> 0.289%)",
        100.0 * result.history[0].rel_residual,
        100.0 * result.final_residual
    );
    println!("image relative error: {err:.3}");
    println!(
        "MLFMA multiplications per forward solve: {:.1}   (paper: 13.4)",
        result.mlfma_mults_per_solve()
    );
    for (class, count) in result.solve_counts.named() {
        println!(
            "  {class:<9}{:>5.1}   ({} multiplications over {} solves, {} of them the identity, \
             {} BiCGStab iterations)",
            count.mults_per_solve(),
            count.mults,
            count.solves,
            count.identity,
            count.iters
        );
    }
    println!(
        "forward solves: {}   wall time: {wall:.1} s",
        result.forward_solves
    );
    println!("\n== Fig 13: 4M unknowns on 4,096 GPU nodes, modeled ==");
    println!("projected time: {:.1} s   (paper: 126.9 s)", proj.seconds);
    println!("forward solves: {}   (paper: 153,600)", proj.forward_solves);
    println!("MLFMA mults: {:.0}   (paper: 2,054,312)", proj.mlfma_mults);

    let dir = std::env::var("FFW_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let _ = ffw_tomo::viz::write_pgm(
        format!("{dir}/{name}_truth.pgm"),
        &truth_raster,
        px,
        0.0,
        0.02,
    );
    let _ = ffw_tomo::viz::write_pgm(
        format!("{dir}/{name}_reconstruction.pgm"),
        &image,
        px,
        0.0,
        0.02,
    );
    println!("wrote {dir}/{name}_truth.pgm and {dir}/{name}_reconstruction.pgm");
    // convergence chart
    let mut pts: Vec<(f64, f64)> = result
        .history
        .iter()
        .enumerate()
        .map(|(i, h)| (i as f64 + 1.0, h.rel_residual))
        .collect();
    pts.push((result.history.len() as f64 + 1.0, result.final_residual));
    let _ = ffw_tomo::viz::write_svg_chart(
        format!("{dir}/{name}_convergence.svg"),
        "Fig 13: DBIM residual convergence (Shepp-Logan)",
        "DBIM iteration",
        "relative residual",
        false,
        &[ffw_tomo::viz::Series {
            label: "residual",
            points: pts,
        }],
    );
    write_json(
        name,
        &Record {
            n_pixels: px * px,
            n_tx,
            n_rx,
            dbim_iterations: iters,
            initial_residual: result.history[0].rel_residual,
            final_residual: result.final_residual,
            image_error: err,
            mlfma_mults_per_solve: result.mlfma_mults_per_solve(),
            forward_solves: result.forward_solves,
            wall_seconds: wall,
            projection_seconds_4096_gpus: proj.seconds,
        },
    )
    .expect("write results");

    if args.quick {
        let checks = [
            (
                "final residual",
                result.final_residual,
                QUICK_FINAL_RESIDUAL,
            ),
            ("image error", err, QUICK_IMAGE_ERROR),
        ];
        for (what, got, want) in checks {
            println!("convergence guard: {what} {got:.6} (committed {want:.6})");
        }
        if checks.iter().any(|&(_, got, want)| !agrees(got, want)) {
            eprintln!("error: the --quick run left its committed values (3 significant digits)");
            std::process::exit(1);
        }
    }
}

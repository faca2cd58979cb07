//! Block multi-RHS speedup harness: the tentpole measurement for the fused
//! `apply_block` path, compared against the committed `BENCH_pr5.json` at
//! the workspace root.
//!
//! Two legs on the pinned 32×32 workload:
//!
//! * **apply leg** — one fused width-8 `MlfmaEngine::apply_block` panel vs
//!   the same 8 columns applied one `apply` at a time (median of reps).
//!   The fused traversal loads each translation/aggregation operator once
//!   per panel instead of once per column and sweeps the leaf expansion
//!   across the panel, which is where the speedup comes from; per-column
//!   arithmetic is identical, so the harness also verifies every column of
//!   the panel against its own single-RHS apply (must agree to <= 1e-12).
//!   The ratio was 2.62x while the near field was a dense block per
//!   neighbour, latency-bound at width 1; as nine diagonal products it costs
//!   the same per column at every width (the eight singles went from 5.3 ms
//!   to 1.1 ms, the panel from 2.0 ms to 0.7 ms), and the re-measured ratio
//!   is 1.40-1.61x over eight runs — the floor stays where it was. A ratio
//!   nearer 1 says width 1 is nearly a panel already.
//! * **DBIM leg** — the full serial reconstruction (8 transmitters,
//!   2 outer iterations) at `--batch 8` vs `--batch 1`, as end-to-end
//!   context.
//!
//! Default mode measures, writes the fresh record to
//! `results/BENCH_pr5.json`, and gates: the apply-leg speedup must be at
//! least [`SPEEDUP_FLOOR`] and the worst per-column relative difference at
//! most [`COLUMN_TOL`]. Both gates are ratios/accuracies of the same
//! in-process run, so they are stable across machines (absolute wall times
//! are recorded but never gated). `--write-baseline` (over)writes the
//! committed `BENCH_pr5.json` at the workspace root.

use ffw_geometry::Domain;
use ffw_inverse::DbimConfig;
use ffw_mlfma::{Accuracy, MlfmaEngine, MlfmaPlan};
use ffw_numerics::vecops::rel_diff;
use ffw_numerics::C64;
use ffw_par::Pool;
use ffw_tomo::{Reconstruction, SceneConfig};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Panel width of the fused leg (matches the DBIM default batch cap).
const WIDTH: usize = 8;
/// Repetitions per timed leg; the median is reported.
const REPS: usize = 9;
/// Minimum accepted fused-vs-single apply speedup (the gate).
const SPEEDUP_FLOOR: f64 = 1.3;
/// Maximum accepted per-column drift of the fused panel (the gate).
const COLUMN_TOL: f64 = 1e-12;

/// The committed record; regenerate with `--write-baseline`.
#[derive(Serialize, Clone, Debug)]
struct BlockBenchRecord {
    schema: String,
    width: u64,
    reps: u64,
    /// Median seconds for `WIDTH` sequential single-RHS applies.
    secs_single_applies: f64,
    /// Median seconds for one fused `WIDTH`-wide `apply_block`.
    secs_block_apply: f64,
    /// `secs_single_applies / secs_block_apply` — the headline number.
    apply_speedup: f64,
    /// Worst per-column relative difference of the fused panel vs its own
    /// single-RHS applies.
    max_column_rel_diff: f64,
    /// End-to-end context: full serial DBIM (8 tx, 2 iterations).
    secs_dbim_batch1: f64,
    secs_dbim_batch8: f64,
    dbim_speedup: f64,
}

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
            ffw_numerics::c64(a, b)
        })
        .collect()
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Times the apply leg and verifies the panel column-by-column.
fn measure_apply() -> (f64, f64, f64) {
    let domain = Domain::new(32, 1.0);
    let plan = Arc::new(MlfmaPlan::new(&domain, Accuracy::default()));
    let eng = MlfmaEngine::new(plan, Arc::new(Pool::new(4)));
    let n = eng.n();
    let xs: Vec<Vec<C64>> = (0..WIDTH).map(|b| random_x(n, 100 + b as u64)).collect();
    let refs: Vec<&[C64]> = xs.iter().map(|v| v.as_slice()).collect();

    // Warm up (operator caches, pool spin-up) before timing either leg.
    let mut ys = vec![vec![C64::ZERO; n]; WIDTH];
    eng.apply_block(&refs, &mut ys);
    let mut singles = vec![vec![C64::ZERO; n]; WIDTH];
    for (x, y) in xs.iter().zip(singles.iter_mut()) {
        eng.apply(x, y);
    }
    let max_col_rel_diff = ys
        .iter()
        .zip(&singles)
        .map(|(a, b)| rel_diff(a, b))
        .fold(0.0f64, f64::max);

    let secs_single = median(
        (0..REPS)
            .map(|_| {
                let sw = ffw_obs::Stopwatch::start();
                for (x, y) in xs.iter().zip(singles.iter_mut()) {
                    eng.apply(x, y);
                }
                sw.elapsed_secs()
            })
            .collect(),
    );
    let secs_block = median(
        (0..REPS)
            .map(|_| {
                let sw = ffw_obs::Stopwatch::start();
                eng.apply_block(&refs, &mut ys);
                sw.elapsed_secs()
            })
            .collect(),
    );
    (secs_single, secs_block, max_col_rel_diff)
}

/// Times the full serial DBIM at the given batch width.
fn measure_dbim(batch: usize) -> f64 {
    let scene = SceneConfig::new(32, 8, 16);
    let recon = Reconstruction::new(&scene);
    let phantom = ffw_phantom::Cylinder {
        center: ffw_geometry::Point2::ZERO,
        radius: 0.25 * recon.domain().side(),
        contrast: 0.1,
    };
    let measured = recon.synthesize(&phantom);
    let cfg = DbimConfig {
        iterations: 2,
        batch: Some(batch),
        ..Default::default()
    };
    let sw = ffw_obs::Stopwatch::start();
    let _ = recon.run_dbim_with(&measured, &cfg).expect("dbim");
    sw.elapsed_secs()
}

fn measure() -> BlockBenchRecord {
    let (secs_single, secs_block, max_col_rel_diff) = measure_apply();
    let _warm = measure_dbim(1);
    let secs_dbim_batch1 = measure_dbim(1);
    let secs_dbim_batch8 = measure_dbim(8);
    BlockBenchRecord {
        schema: "ffw-bench-block-speedup/1".into(),
        width: WIDTH as u64,
        reps: REPS as u64,
        secs_single_applies: secs_single,
        secs_block_apply: secs_block,
        apply_speedup: secs_single / secs_block,
        max_column_rel_diff: max_col_rel_diff,
        secs_dbim_batch1,
        secs_dbim_batch8,
        dbim_speedup: secs_dbim_batch1 / secs_dbim_batch8,
    }
}

fn baseline_path() -> PathBuf {
    // crates/bench -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pr5.json")
}

fn print_record(r: &BlockBenchRecord) {
    println!(
        "apply: {WIDTH} singles {:.4}s vs fused panel {:.4}s = {:.2}x speedup \
         (median of {REPS}), worst column drift {:.2e}",
        r.secs_single_applies, r.secs_block_apply, r.apply_speedup, r.max_column_rel_diff
    );
    println!(
        "dbim (8 tx, 2 iters): batch 1 {:.2}s vs batch 8 {:.2}s = {:.2}x",
        r.secs_dbim_batch1, r.secs_dbim_batch8, r.dbim_speedup
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_baseline = args.iter().any(|a| a == "--write-baseline");

    let fresh = measure();
    print_record(&fresh);

    if write_baseline {
        let path = baseline_path();
        let body = serde_json::to_string_pretty(&fresh).expect("serializable");
        std::fs::write(&path, body + "\n").expect("write baseline");
        println!("wrote baseline {}", path.display());
        return;
    }

    ffw_bench::write_json("BENCH_pr5", &fresh).expect("write fresh record");
    let mut fails = Vec::new();
    if fresh.apply_speedup < SPEEDUP_FLOOR {
        fails.push(format!(
            "fused apply speedup {:.2}x is below the {SPEEDUP_FLOOR}x floor",
            fresh.apply_speedup
        ));
    }
    if fresh.max_column_rel_diff > COLUMN_TOL {
        fails.push(format!(
            "fused panel drifted from single-RHS: {:.2e} > {COLUMN_TOL:.0e}",
            fresh.max_column_rel_diff
        ));
    }
    if fails.is_empty() {
        println!("block speedup gate: OK");
    } else {
        eprintln!("block speedup gate: FAILED");
        for f in &fails {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}

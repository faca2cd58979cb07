//! Performance-regression harness: a pinned reconstruction workload measured
//! through `ffw-obs`, compared against the committed baseline
//! `BENCH_pr3.json` at the workspace root.
//!
//! Three modes:
//!
//! * default — run the workload, write the fresh record to
//!   `results/BENCH_pr3.json`, and compare against the committed baseline.
//!   Exit non-zero when deterministic quantities (iteration counts, comm
//!   volume, residuals) or MLFMA stage *shares* drift beyond tolerance.
//!   Wall time is recorded but never gated: it is machine-dependent.
//! * `--write-baseline` — run the workload and (over)write the committed
//!   baseline at the workspace root.
//! * `--overhead` — measure the instrumentation overhead: the same serial
//!   workload with the recorder enabled vs disabled, reported as a ratio.
//!
//! The workload is small and fully seeded: a 32x32 cylinder scene solved
//! serially (3 DBIM iterations) and on a 2x2 fault-tolerant rank grid
//! (2 iterations), so every gated number is deterministic.
//!
//! Where the committed counts come from (4 transmitters): `solver_iters` 48
//! = 12 synthesizing the data (3 steps a transmitter) + 16 in the four state
//! passes (iterations 0-2 and the final one: one step a solve, the later
//! ones from predicted fields) + 8 in the gradient solves (none in
//! iteration 0, whose adjoint right-hand sides are zero; one step a solve
//! after) + 12 in the step solves (one step a solve). `solver_matvecs` 120 =
//! 24 + 40 + 24 + 32 in the same order, and `mlfma_applies` 144 adds the 24
//! products outside the solves (`G0 w` and `G0^H z`, 4 x 3 x 2). While every
//! solve ran to `1e-4` from the last field these were 72 / 160 / 184: in
//! iterations 1 and 2 each of the three solves took two steps, not one. The
//! rank-grid leg's 382 messages were 478 for the same reason (accounting
//! per BiCGStab step: `tests/one_driver.rs`, `GRID_MESSAGES`).

use ffw_dist::{run_dbim_ft, FtConfig};
use ffw_inverse::DbimConfig;
use ffw_tomo::{Reconstruction, SceneConfig};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Everything the regression gate compares, plus ungated context (wall
/// times). Committed as `BENCH_pr3.json`; regenerate with `--write-baseline`.
#[derive(Serialize, Clone, Debug)]
struct BenchRecord {
    schema: String,
    /// MLFMA per-stage span shares (fractions of the four-stage total).
    share_aggregate: f64,
    share_translate: f64,
    share_disaggregate: f64,
    share_near: f64,
    /// Total BiCGStab iterations across the serial run.
    solver_iters: u64,
    solver_matvecs: u64,
    mlfma_applies: u64,
    dbim_outer_iters: u64,
    /// Comm volume of the distributed leg (all edges).
    comm_bytes_total: u64,
    comm_messages_total: u64,
    comm_bytes_per_rank: Vec<u64>,
    final_residual_serial: f64,
    final_residual_dist: f64,
    /// Context only — never gated.
    wall_seconds_serial: f64,
    wall_seconds_dist: f64,
}

impl BenchRecord {
    fn shares(&self) -> [(&'static str, f64); 4] {
        [
            ("aggregate", self.share_aggregate),
            ("translate", self.share_translate),
            ("disaggregate", self.share_disaggregate),
            ("near", self.share_near),
        ]
    }
}

const STAGES: [&str; 4] = ["aggregate", "translate", "disaggregate", "near"];

/// Absolute tolerance on stage shares (fractions in `[0, 1]`).
const SHARE_TOL: f64 = 0.15;
/// Relative tolerance on comm volume.
const COMM_TOL: f64 = 0.01;
/// Relative tolerance on final residuals.
const RESIDUAL_TOL: f64 = 0.05;

fn scene() -> (Reconstruction, Vec<Vec<ffw_numerics::C64>>) {
    let scene = SceneConfig::new(32, 4, 8);
    let recon = Reconstruction::new(&scene);
    let phantom = ffw_phantom::Cylinder {
        center: ffw_geometry::Point2::ZERO,
        radius: 0.25 * recon.domain().side(),
        contrast: 0.1,
    };
    let measured = recon.synthesize(&phantom);
    (recon, measured)
}

fn run_serial(recon: &Reconstruction, measured: &[Vec<ffw_numerics::C64>]) -> (f64, f64) {
    let cfg = DbimConfig {
        iterations: 3,
        ..Default::default()
    };
    let sw = ffw_obs::Stopwatch::start();
    let result = recon.run_dbim_with(measured, &cfg).expect("dbim");
    (sw.elapsed_secs(), result.final_residual)
}

fn run_dist(recon: &Reconstruction, measured: &[Vec<ffw_numerics::C64>]) -> (f64, f64) {
    let ft = FtConfig {
        dbim: DbimConfig {
            iterations: 2,
            ..Default::default()
        },
        ..FtConfig::new(2, 2)
    };
    let sw = ffw_obs::Stopwatch::start();
    let result = run_dbim_ft(
        &recon.setup,
        std::sync::Arc::clone(&recon.plan),
        measured,
        &ft,
    )
    .expect("clean distributed run");
    (sw.elapsed_secs(), result.final_residual)
}

/// Sums span totals whose path ends in `mlfma.apply/<stage>` and converts to
/// shares of the four-stage total, in `STAGES` order.
fn stage_shares(snap: &ffw_obs::Snapshot) -> [f64; 4] {
    let mut totals = [0u64; 4];
    for row in &snap.spans {
        for (i, s) in STAGES.iter().enumerate() {
            if row.path.ends_with(&format!("mlfma.apply/{s}")) {
                totals[i] += row.total_ns;
            }
        }
    }
    let sum: u64 = totals.iter().sum();
    totals.map(|v| if sum > 0 { v as f64 / sum as f64 } else { 0.0 })
}

fn measure() -> BenchRecord {
    ffw_obs::reset();
    ffw_obs::set_enabled(true);
    let (recon, measured) = scene();

    let (wall_serial, res_serial) = run_serial(&recon, &measured);
    let serial_snap = ffw_obs::snapshot();
    let counter = |name: &str| {
        serial_snap
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let solver_iters = counter("solver.bicgstab.iters");
    let solver_matvecs = counter("solver.bicgstab.matvecs");
    let mlfma_applies = counter("mlfma.applies");
    let dbim_outer_iters = counter("dbim.outer_iters");
    let [share_aggregate, share_translate, share_disaggregate, share_near] =
        stage_shares(&serial_snap);

    // Distributed leg on a fresh recorder, so its comm counters are its own.
    ffw_obs::reset();
    let (wall_dist, res_dist) = run_dist(&recon, &measured);
    let dist_snap = ffw_obs::snapshot();
    ffw_obs::set_enabled(false);
    let dcounter = |name: &str| {
        dist_snap
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let comm_bytes_per_rank: Vec<u64> = (0..4)
        .map(|r| dcounter(&format!("mpi.bytes.rank{r}")))
        .collect();

    BenchRecord {
        schema: "ffw-bench-regression/1".into(),
        share_aggregate,
        share_translate,
        share_disaggregate,
        share_near,
        solver_iters,
        solver_matvecs,
        mlfma_applies,
        dbim_outer_iters,
        comm_bytes_total: dcounter("mpi.bytes.total"),
        comm_messages_total: dcounter("mpi.messages.total"),
        comm_bytes_per_rank,
        final_residual_serial: res_serial,
        final_residual_dist: res_dist,
        wall_seconds_serial: wall_serial,
        wall_seconds_dist: wall_dist,
    }
}

/// Compares fresh vs baseline; returns human-readable failure descriptions.
fn compare(fresh: &BenchRecord, base: &BenchRecord) -> Vec<String> {
    let mut fails = Vec::new();
    for ((s, f), (_, b)) in fresh.shares().into_iter().zip(base.shares()) {
        if (f - b).abs() > SHARE_TOL {
            fails.push(format!(
                "stage share '{s}' drifted: {f:.3} vs baseline {b:.3} (tol {SHARE_TOL})"
            ));
        }
    }
    let exact = [
        ("solver_iters", fresh.solver_iters, base.solver_iters),
        ("solver_matvecs", fresh.solver_matvecs, base.solver_matvecs),
        ("mlfma_applies", fresh.mlfma_applies, base.mlfma_applies),
        (
            "dbim_outer_iters",
            fresh.dbim_outer_iters,
            base.dbim_outer_iters,
        ),
    ];
    for (name, f, b) in exact {
        if f != b {
            fails.push(format!("{name} changed: {f} vs baseline {b}"));
        }
    }
    let rel = [
        (
            "comm_bytes_total",
            fresh.comm_bytes_total as f64,
            base.comm_bytes_total as f64,
            COMM_TOL,
        ),
        (
            "comm_messages_total",
            fresh.comm_messages_total as f64,
            base.comm_messages_total as f64,
            COMM_TOL,
        ),
        (
            "final_residual_serial",
            fresh.final_residual_serial,
            base.final_residual_serial,
            RESIDUAL_TOL,
        ),
        (
            "final_residual_dist",
            fresh.final_residual_dist,
            base.final_residual_dist,
            RESIDUAL_TOL,
        ),
    ];
    for (name, f, b, tol) in rel {
        let denom = b.abs().max(1e-300);
        if ((f - b) / denom).abs() > tol {
            fails.push(format!(
                "{name} drifted: {f:.6e} vs baseline {b:.6e} (rel tol {tol})"
            ));
        }
    }
    fails
}

fn baseline_path() -> PathBuf {
    // crates/bench -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pr3.json")
}

// --- Minimal baseline reader ------------------------------------------------
// The vendored serde stand-in serializes but does not deserialize, so the
// committed baseline is re-read with a scalar-by-key scan. That is enough
// because `BenchRecord` is flat and every gated field is a number or an array
// of numbers.

/// Extracts the number following `"key":` in `text`.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat)? + pat.len();
    let rest = text[start..].trim_start();
    let len = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '+' | '-' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..len].parse().ok()
}

/// Extracts the `[u64, ...]` array following `"key":` in `text`.
fn json_u64_array(text: &str, key: &str) -> Option<Vec<u64>> {
    let pat = format!("\"{key}\":");
    let start = text.find(&pat)? + pat.len();
    let rest = text[start..].trim_start().strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    body.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().ok())
        .collect()
}

fn parse_baseline(text: &str) -> Option<BenchRecord> {
    let num = |key: &str| json_number(text, key);
    Some(BenchRecord {
        schema: "ffw-bench-regression/1".into(),
        share_aggregate: num("share_aggregate")?,
        share_translate: num("share_translate")?,
        share_disaggregate: num("share_disaggregate")?,
        share_near: num("share_near")?,
        solver_iters: num("solver_iters")? as u64,
        solver_matvecs: num("solver_matvecs")? as u64,
        mlfma_applies: num("mlfma_applies")? as u64,
        dbim_outer_iters: num("dbim_outer_iters")? as u64,
        comm_bytes_total: num("comm_bytes_total")? as u64,
        comm_messages_total: num("comm_messages_total")? as u64,
        comm_bytes_per_rank: json_u64_array(text, "comm_bytes_per_rank")?,
        final_residual_serial: num("final_residual_serial")?,
        final_residual_dist: num("final_residual_dist")?,
        wall_seconds_serial: num("wall_seconds_serial")?,
        wall_seconds_dist: num("wall_seconds_dist")?,
    })
}

fn print_record(r: &BenchRecord) {
    println!(
        "serial: {:.2}s, residual {:.4e}, {} BiCGStab iters, {} matvecs, {} MLFMA applies",
        r.wall_seconds_serial,
        r.final_residual_serial,
        r.solver_iters,
        r.solver_matvecs,
        r.mlfma_applies
    );
    println!(
        "dist (2x2): {:.2}s, residual {:.4e}, {} bytes / {} messages",
        r.wall_seconds_dist, r.final_residual_dist, r.comm_bytes_total, r.comm_messages_total
    );
    let shares: Vec<String> = r
        .shares()
        .into_iter()
        .map(|(k, v)| format!("{k} {:.1}%", 100.0 * v))
        .collect();
    println!("stage shares: {}", shares.join(", "));
}

/// Times the serial workload (median of `reps`) with the recorder in the
/// given state.
fn timed_serial(reps: usize, enabled: bool) -> f64 {
    let (recon, measured) = scene();
    ffw_obs::set_enabled(enabled);
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            ffw_obs::reset();
            run_serial(&recon, &measured).0
        })
        .collect();
    ffw_obs::set_enabled(false);
    ffw_obs::reset();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let overhead = args.iter().any(|a| a == "--overhead");

    if overhead {
        // Warm up (page-in, pool spin-up), then measure each state.
        let _ = timed_serial(1, false);
        let off = timed_serial(5, false);
        let on = timed_serial(5, true);
        let ratio = on / off;
        println!(
            "instrumentation overhead: enabled {on:.3}s vs disabled {off:.3}s \
             = {:.2}% (median of 5)",
            100.0 * (ratio - 1.0)
        );
        return;
    }

    let fresh = measure();
    print_record(&fresh);

    if write_baseline {
        let path = baseline_path();
        let body = serde_json::to_string_pretty(&fresh).expect("serializable");
        std::fs::write(&path, body + "\n").expect("write baseline");
        println!("wrote baseline {}", path.display());
        return;
    }

    ffw_bench::write_json("BENCH_pr3", &fresh).expect("write fresh record");
    let path = baseline_path();
    let base = match std::fs::read_to_string(&path) {
        Ok(s) => parse_baseline(&s).unwrap_or_else(|| {
            eprintln!("error: malformed baseline at {}", path.display());
            std::process::exit(2);
        }),
        Err(e) => {
            eprintln!(
                "error: no committed baseline at {} ({e}); run with --write-baseline first",
                path.display()
            );
            std::process::exit(2);
        }
    };
    let fails = compare(&fresh, &base);
    if fails.is_empty() {
        println!("regression gate: OK (within tolerance of committed baseline)");
    } else {
        eprintln!("regression gate: FAILED");
        for f in &fails {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}

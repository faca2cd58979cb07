//! Frequency-hopping quality gate: the executable claim behind the
//! multi-frequency DBIM + hybrid-regularization work.
//!
//! The pinned workload is a hard limited-aperture scene — a 210° arc of 8
//! transmitters / 16 receivers around a contrast-0.25 cylinder (radius
//! 0.35 × side) — where single-frequency unregularized DBIM stalls in a
//! local minimum. The gate asserts, on the full MLFMA path:
//!
//! * **hop wins by ≥ 2×**: the `2.0,1.0` hop schedule with the wGCV-LSQR
//!   hybrid step reconstructs at no more than [`RATIO_GATE`] of the
//!   single-frequency image error;
//! * **absolute quality**: the hop image error stays under [`ABS_GATE`];
//! * **the lambda trail exists**: the hybrid step's automatically chosen
//!   regularization weight is recorded (finite, positive) — the value the
//!   committed baseline pins for drift detection.
//!
//! Default mode measures, writes the fresh record to
//! `results/BENCH_pr10.json`, and gates against the committed
//! `BENCH_pr10.json` at the workspace root. `--write-baseline`
//! (over)writes the committed baseline. Wall times are recorded, never
//! gated.

use ffw_dist::FtConfig;
use ffw_inverse::multifreq::stage_report;
use ffw_inverse::{DbimConfig, HopSchedule, Regularizer};
use ffw_serve::json::Json;
use ffw_tomo::{reconstruct, HopPipeline, Reconstruction, SceneConfig};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Pinned workload: 32×32 pixels, 8 transmitters, 16 receivers on a 210°
/// arc (the limited-aperture regime where hopping pays).
const SIZE: usize = 32;
const TX: usize = 8;
const RX: usize = 16;
const ARC_DEG: f64 = 210.0;
const CONTRAST: f64 = 0.25;
const RADIUS_FACTOR: f64 = 0.35;
const ITERATIONS: usize = 8;
const SCHEDULE: &str = "2.0,1.0";
const WGCV_STEPS: usize = 12;
const WGCV_OMEGA: f64 = 0.8;
/// The hop error must be at most this fraction of the single-frequency one.
const RATIO_GATE: f64 = 0.5;
/// Absolute hop image-error ceiling.
const ABS_GATE: f64 = 0.30;
/// Image-error drift allowed against the committed baseline.
const ERROR_DRIFT: f64 = 0.10;

/// One reconstruction leg of the pinned workload.
#[derive(Serialize, Clone, Debug)]
struct Leg {
    /// `"single"` or `"hop"`.
    mode: String,
    /// Regularizer spec string the leg ran with.
    regularizer: String,
    /// Relative L2 image error against the ground-truth raster.
    image_error: f64,
    /// Final relative measurement residual.
    final_residual: f64,
    /// Last wGCV-chosen lambda (0.0 for the unregularized leg) — the
    /// "chosen lambda" the baseline records.
    lambda: f64,
    /// Wall seconds, recorded for context, never gated.
    secs: f64,
}

/// The committed record; regenerate with `--write-baseline`.
#[derive(Serialize, Clone, Debug)]
struct HopQualityRecord {
    schema: String,
    size: u64,
    tx: u64,
    rx: u64,
    arc_deg: f64,
    contrast: f64,
    radius_factor: f64,
    iterations: u64,
    schedule: String,
    single: Leg,
    hop: Leg,
    /// `hop.image_error / single.image_error` — gated at [`RATIO_GATE`].
    ratio: f64,
}

fn scene() -> SceneConfig {
    let span = ARC_DEG.to_radians();
    SceneConfig::new(SIZE, TX, RX).with_arc(-span / 2.0, span)
}

fn truth(recon: &Reconstruction) -> (ffw_phantom::Cylinder, Vec<f64>) {
    let phantom = ffw_phantom::Cylinder {
        center: ffw_geometry::Point2::ZERO,
        radius: RADIUS_FACTOR * recon.domain().side(),
        contrast: CONTRAST,
    };
    let raster = {
        use ffw_phantom::Phantom as _;
        phantom.rasterize(recon.domain())
    };
    (phantom, raster)
}

/// Single-frequency unregularized DBIM — the stalled baseline.
fn run_single() -> Leg {
    let recon = Reconstruction::new(&scene());
    let (phantom, raster) = truth(&recon);
    let measured = recon.synthesize(&phantom);
    let cfg = DbimConfig {
        iterations: ITERATIONS,
        ..Default::default()
    };
    let sw = ffw_obs::Stopwatch::start();
    let result = recon.run_dbim_with(&measured, &cfg).expect("single dbim");
    let secs = sw.elapsed_secs();
    Leg {
        mode: "single".into(),
        regularizer: cfg.regularizer.to_spec_string(),
        image_error: ffw_phantom::image_rel_error(&recon.image(&result.object), &raster),
        final_residual: result.final_residual,
        lambda: 0.0,
        secs,
    }
}

/// The 2.0 → 1.0 hop with the hybrid wGCV-LSQR step.
fn run_hop() -> Leg {
    let scene = scene();
    let schedule = HopSchedule::parse(SCHEDULE).expect("pinned schedule");
    let pipeline = HopPipeline::new(&scene, &schedule);
    let (phantom, raster) = truth(pipeline.final_stage());
    let measured = pipeline.synthesize(&phantom);
    let regularizer = Regularizer::WgcvLsqr {
        steps: WGCV_STEPS,
        omega: WGCV_OMEGA,
    };
    let ft = FtConfig {
        dbim: DbimConfig {
            iterations: ITERATIONS,
            regularizer,
            ..Default::default()
        },
        ..FtConfig::new(1, 1)
    };
    let sw = ffw_obs::Stopwatch::start();
    let result =
        reconstruct(&scene, &schedule, &pipeline.stages, &measured, &ft, None).expect("hop dbim");
    let secs = sw.elapsed_secs();
    let final_stage = pipeline.final_stage();
    let lambda = result
        .stages
        .iter()
        .flat_map(|s| s.lambdas.iter())
        .last()
        .copied()
        .unwrap_or(f64::NAN);
    Leg {
        mode: "hop".into(),
        regularizer: regularizer.to_spec_string(),
        image_error: ffw_phantom::image_rel_error(&final_stage.image(&result.object), &raster),
        final_residual: result
            .stages
            .last()
            .map(|s| s.final_residual)
            .unwrap_or(f64::NAN),
        lambda,
        secs,
    }
}

/// Runs one leg with the recorder on and prints the MLFMA multiplications
/// its solves made (the `dbim.mults.*` counters of every class; verification
/// applies excluded), then those of each hop stage next to its grid.
fn counting_mults(leg: impl FnOnce() -> Leg) -> Leg {
    ffw_obs::reset();
    ffw_obs::set_enabled(true);
    let leg = leg();
    ffw_obs::set_enabled(false);
    let snap = ffw_obs::snapshot();
    let mults: u64 = (snap.counters.iter())
        .filter(|(name, _)| name.starts_with("dbim.mults."))
        .map(|(_, v)| *v)
        .sum();
    println!("{:>6}: {mults} MLFMA multiplications", leg.mode);
    for line in stage_report(&snap, 0) {
        println!("        {line}");
    }
    leg
}

fn measure() -> HopQualityRecord {
    let single = counting_mults(run_single);
    let hop = counting_mults(run_hop);
    HopQualityRecord {
        schema: "ffw-bench-hop-quality/1".into(),
        size: SIZE as u64,
        tx: TX as u64,
        rx: RX as u64,
        arc_deg: ARC_DEG,
        contrast: CONTRAST,
        radius_factor: RADIUS_FACTOR,
        iterations: ITERATIONS as u64,
        schedule: SCHEDULE.into(),
        ratio: hop.image_error / single.image_error,
        single,
        hop,
    }
}

fn leg_from_json(root: &Json, key: &str) -> Result<Leg, String> {
    let miss = |what: &str| format!("baseline missing {key}.{what}");
    let l = root.get(key).ok_or_else(|| miss(""))?;
    let f = |what: &str| l.get(what).and_then(Json::as_f64).ok_or_else(|| miss(what));
    Ok(Leg {
        mode: key.to_string(),
        regularizer: l
            .get("regularizer")
            .and_then(Json::as_str)
            .ok_or_else(|| miss("regularizer"))?
            .to_string(),
        image_error: f("image_error")?,
        final_residual: f("final_residual")?,
        lambda: f("lambda")?,
        secs: l.get("secs").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

fn baseline_path() -> PathBuf {
    // crates/bench -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pr10.json")
}

fn print_record(r: &HopQualityRecord) {
    for l in [&r.single, &r.hop] {
        println!(
            "{:>6} ({}): image error {:.3}, residual {:.3e}, lambda {:.3e}, {:.2}s",
            l.mode, l.regularizer, l.image_error, l.final_residual, l.lambda, l.secs
        );
    }
    println!("hop/single image-error ratio: {:.3}", r.ratio);
}

/// Gates one leg's image error against its committed counterpart.
fn gate_leg(fresh: &Leg, base: &Leg, fails: &mut Vec<String>) {
    let drift = (fresh.image_error - base.image_error).abs() / base.image_error;
    if drift > ERROR_DRIFT {
        fails.push(format!(
            "{}: image error {:.4} drifted {:.1}% from committed {:.4} (>±{:.0}%)",
            fresh.mode,
            fresh.image_error,
            drift * 100.0,
            base.image_error,
            ERROR_DRIFT * 100.0
        ));
    }
    if fresh.regularizer != base.regularizer {
        fails.push(format!(
            "{}: regularizer '{}' != committed '{}'",
            fresh.mode, fresh.regularizer, base.regularizer
        ));
    }
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

    ffw_bench::write_json("BENCH_pr10", &fresh).expect("write fresh record");
    let mut fails = Vec::new();
    // `is_nan() ||` keeps a NaN measurement failing the gate.
    if fresh.ratio.is_nan() || fresh.ratio > RATIO_GATE {
        fails.push(format!(
            "hop/single ratio {:.3} exceeds {RATIO_GATE} — hopping no longer \
             rescues the limited-aperture scene",
            fresh.ratio
        ));
    }
    if fresh.hop.image_error.is_nan() || fresh.hop.image_error > ABS_GATE {
        fails.push(format!(
            "hop image error {:.3} exceeds the absolute ceiling {ABS_GATE}",
            fresh.hop.image_error
        ));
    }
    if !(fresh.hop.lambda.is_finite() && fresh.hop.lambda > 0.0) {
        fails.push(format!(
            "wGCV chose no usable lambda (got {:.3e})",
            fresh.hop.lambda
        ));
    }
    match std::fs::read_to_string(baseline_path()) {
        Ok(body) => {
            let root = Json::parse(&body).expect("parse BENCH_pr10.json");
            match (leg_from_json(&root, "single"), leg_from_json(&root, "hop")) {
                (Ok(bs), Ok(bh)) => {
                    gate_leg(&fresh.single, &bs, &mut fails);
                    gate_leg(&fresh.hop, &bh, &mut fails);
                }
                (s, h) => {
                    for e in [s.err(), h.err()].into_iter().flatten() {
                        fails.push(e);
                    }
                }
            }
        }
        Err(e) => fails.push(format!(
            "no committed baseline at {} ({e}); run with --write-baseline",
            baseline_path().display()
        )),
    }
    if fails.is_empty() {
        println!("hop quality gate: OK");
    } else {
        eprintln!("hop quality gate: FAILED");
        for f in &fails {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}

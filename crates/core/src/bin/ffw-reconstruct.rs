//! Command-line reconstruction driver.
//!
//! ```sh
//! cargo run --release -p ffw-tomo --bin ffw-reconstruct -- \
//!     --size 64 --tx 16 --rx 32 --phantom annulus --contrast 0.2 \
//!     --iterations 10 --out /tmp/annulus
//! ```
//!
//! Writes `<out>_truth.pgm` and `<out>_reconstruction.pgm` and prints the
//! reconstruction metrics.

use ffw_dist::{FtConfig, JobControl};
use ffw_geometry::Point2;
use ffw_inverse::multifreq::stage_report;
use ffw_inverse::{BornConfig, DbimConfig, SolveCounts};
use ffw_mpi::FaultPlan;
use ffw_phantom::{image_rel_error, Annulus, Cylinder, Phantom, RandomBlobs, SheppLogan};
use ffw_solver::VerifyConfig;
use ffw_tomo::exit::{exit_code_for, EXIT_INTERRUPTED};
use ffw_tomo::viz::write_pgm;
use ffw_tomo::{
    grid_admission, reconstruct, synthesize_noisy, HopPipeline, HopSchedule, Regularizer,
    SceneConfig,
};
use std::path::PathBuf;
use std::sync::Arc;

impl Cli {
    /// The `groups x subtree` rank grid: 1 x 1 (the serial context) unless
    /// `--groups` asks for a launch.
    fn grid(&self) -> (usize, usize) {
        match self.groups {
            Some(groups) => (groups, self.subtree),
            None => (1, 1),
        }
    }
}

struct Cli {
    size: usize,
    tx: usize,
    rx: usize,
    phantom: String,
    contrast: f64,
    iterations: usize,
    noise_db: Option<f64>,
    arc_deg: Option<f64>,
    born: bool,
    precondition: bool,
    positivity: bool,
    batch: Option<usize>,
    hops: Option<HopSchedule>,
    regularizer: Regularizer,
    out: Option<String>,
    groups: Option<usize>,
    subtree: usize,
    checkpoint: Option<PathBuf>,
    resume: bool,
    chaos_seed: Option<u64>,
    verify_compute: bool,
    chaos_compute: Option<u64>,
    max_restarts: u32,
    min_groups: usize,
    metrics: Option<PathBuf>,
    profile: bool,
}

/// Validates the distributed-run geometry up front, so a bad `--groups` /
/// `--subtree` combination is a clear CLI error (exit code 2) instead of a
/// mid-run assertion failure deep inside the rank grid.
fn validate(cli: &Cli) -> Result<(), String> {
    if let Some(batch) = cli.batch {
        if batch == 0 {
            return Err("--batch must be at least 1".into());
        }
        if batch > cli.tx {
            return Err(format!(
                "--batch {batch} must not exceed --tx {} (a batch is a block of \
                 per-transmitter right-hand sides)",
                cli.tx
            ));
        }
    }
    if let Some(groups) = cli.groups {
        if groups == 0 {
            return Err("--groups must be at least 1".into());
        }
        if !cli.tx.is_multiple_of(groups) {
            return Err(format!(
                "--groups {groups} must divide --tx {} (each illumination group \
                 gets an equal transmitter block)",
                cli.tx
            ));
        }
        if cli.subtree == 0 || 16 % cli.subtree != 0 {
            return Err(format!(
                "--subtree {} must divide 16 (the MLFMA finest-level box count \
                 per dimension)",
                cli.subtree
            ));
        }
        if cli.min_groups == 0 || cli.min_groups > groups {
            return Err(format!(
                "--min-groups {} must be between 1 and --groups {groups}",
                cli.min_groups
            ));
        }
    } else if cli.chaos_seed.is_some() {
        return Err("--chaos-seed requires --groups (distributed mode)".into());
    }
    // The only setting that does not run on every rank grid.
    let (groups, subtree) = cli.grid();
    grid_admission(cli.regularizer, subtree)
        .map_err(|why| format!("--groups {groups} --subtree {subtree}: {why}"))?;
    if let Some(schedule) = &cli.hops {
        if cli.born {
            return Err(
                "--hops cannot be combined with --born (the hop carry is a DBIM \
                 initial guess; the linear Born baseline takes none)"
                    .into(),
            );
        }
        if cli.iterations < schedule.len() {
            return Err(format!(
                "--iterations {} is less than the {} hop stages (every stage \
                 needs at least one DBIM iteration)",
                cli.iterations,
                schedule.len()
            ));
        }
        if cli.precondition {
            return Err(
                "--hops cannot be combined with --precondition (the leaf-block \
                 Jacobi factorization is bound to one frequency's plan)"
                    .into(),
            );
        }
    }
    if cli.resume && cli.checkpoint.is_none() {
        return Err("--resume requires --checkpoint (the path to resume from)".into());
    }
    if cli.regularizer != Regularizer::default() && cli.born {
        return Err(
            "--regularizer has no effect on --born (the linear Born baseline \
             has its own truncated-SVD regularization)"
                .into(),
        );
    }
    if matches!(cli.regularizer, Regularizer::WgcvLsqr { .. }) && cli.precondition {
        return Err(
            "--regularizer wgcv-lsqr cannot be combined with --precondition (the \
             hybrid-projection step builds its own Krylov basis)"
                .into(),
        );
    }
    if cli.chaos_compute.is_some() {
        if cli.born {
            return Err(
                "--chaos-compute has no effect on --born (the linear Born baseline \
                 performs no checksum-verified forward solves)"
                    .into(),
            );
        }
        if cli.groups.is_some() {
            return Err(
                "--chaos-compute is the serial compute-corruption injector; \
                 distributed runs inject faults with --chaos-seed"
                    .into(),
            );
        }
        if !cli.verify_compute {
            return Err(
                "--chaos-compute requires --verify-compute on (an injected flip \
                 with verification off would corrupt the output silently)"
                    .into(),
            );
        }
    }
    Ok(())
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        size: 64,
        tx: 16,
        rx: 32,
        phantom: "cylinder".into(),
        contrast: 0.1,
        iterations: 10,
        noise_db: None,
        arc_deg: None,
        born: false,
        precondition: false,
        positivity: false,
        batch: None,
        hops: None,
        regularizer: Regularizer::default(),
        out: None,
        groups: None,
        subtree: 2,
        checkpoint: None,
        resume: false,
        chaos_seed: None,
        verify_compute: true,
        chaos_compute: None,
        max_restarts: 1,
        min_groups: 1,
        metrics: None,
        profile: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--size" => cli.size = val("--size")?.parse().map_err(|e| format!("{e}"))?,
            "--tx" => cli.tx = val("--tx")?.parse().map_err(|e| format!("{e}"))?,
            "--rx" => cli.rx = val("--rx")?.parse().map_err(|e| format!("{e}"))?,
            "--phantom" => cli.phantom = val("--phantom")?,
            "--contrast" => {
                cli.contrast = val("--contrast")?.parse().map_err(|e| format!("{e}"))?
            }
            "--iterations" => {
                cli.iterations = val("--iterations")?.parse().map_err(|e| format!("{e}"))?
            }
            "--noise-db" => {
                cli.noise_db = Some(val("--noise-db")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--arc-deg" => {
                cli.arc_deg = Some(val("--arc-deg")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--born" => cli.born = true,
            "--precondition" => cli.precondition = true,
            "--positivity" => cli.positivity = true,
            "--batch" => cli.batch = Some(val("--batch")?.parse().map_err(|e| format!("{e}"))?),
            "--hops" => {
                cli.hops = Some(val("--hops")?.parse().map_err(|e| format!("--hops: {e}"))?)
            }
            "--regularizer" => {
                cli.regularizer = val("--regularizer")?
                    .parse()
                    .map_err(|e| format!("--regularizer: {e}"))?
            }
            "--out" => cli.out = Some(val("--out")?),
            "--groups" => cli.groups = Some(val("--groups")?.parse().map_err(|e| format!("{e}"))?),
            "--subtree" => cli.subtree = val("--subtree")?.parse().map_err(|e| format!("{e}"))?,
            "--checkpoint" => cli.checkpoint = Some(PathBuf::from(val("--checkpoint")?)),
            "--resume" => cli.resume = true,
            "--chaos-seed" => {
                cli.chaos_seed = Some(val("--chaos-seed")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--verify-compute" => {
                cli.verify_compute = match val("--verify-compute")?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--verify-compute takes on|off, got {other}")),
                }
            }
            "--chaos-compute" => {
                cli.chaos_compute = Some(
                    val("--chaos-compute")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--max-restarts" => {
                cli.max_restarts = val("--max-restarts")?.parse().map_err(|e| format!("{e}"))?
            }
            "--min-groups" => {
                cli.min_groups = val("--min-groups")?.parse().map_err(|e| format!("{e}"))?
            }
            "--metrics" => cli.metrics = Some(PathBuf::from(val("--metrics")?)),
            "--profile" => cli.profile = true,
            "--help" | "-h" => {
                println!(
                    "usage: ffw-reconstruct [--size N] [--tx T] [--rx R] \
                     [--phantom cylinder|annulus|shepp-logan|blobs] [--contrast C] \
                     [--iterations K] [--noise-db D] [--arc-deg A] [--born] \
                     [--precondition] [--positivity] [--batch B] \
                     [--hops F1,F2,...,1.0] \
                     [--regularizer SPEC] [--out PREFIX] \
                     [--groups G [--subtree P] [--chaos-seed S] \
                     [--max-restarts N] [--min-groups M]] \
                     [--checkpoint PATH] [--resume] \
                     [--verify-compute on|off] [--chaos-compute S] \
                     [--metrics PATH] [--profile]\n\n\
                     --hops runs the frequency-hopping (multi-frequency) DBIM: \
                     a comma-separated list of wavelength factors, strictly \
                     descending and ending at 1.0 (e.g. \"2.0,1.5,1.0\" halves \
                     the frequency, then 1.5x wavelength, then the scene \
                     frequency). Each stage runs on the coarsest grid that keeps \
                     the scene's pixels per wavelength (--size / 2^k for the \
                     largest 2^k <= factor, at least 32); each stage's \
                     reconstruction seeds the next (prolonged onto its grid and \
                     rescaled by the wavenumber ratio). --iterations is the \
                     total budget, split across \
                     stages with the remainder on the later, higher-resolution \
                     stages. --checkpoint/--resume save and restore at hop \
                     boundaries and run on any --groups grid. Not compatible \
                     with --born or --precondition.\n\n\
                     --regularizer selects the DBIM linear-step regularizer: \
                     'tikhonov[:lambda]' (default, lambda 0 = unregularized), \
                     'smoothness[:lambda]' (seeded spatial prior penalizing the \
                     image Laplacian, lambda relative to the measured data \
                     power), or 'wgcv-lsqr[:steps[:omega]]' (hybrid-projection \
                     LSQR with automatic weighted-GCV lambda selection on a \
                     projected bidiagonal problem; steps = Golub-Kahan \
                     dimension, default 4; omega in (0, 1.5], default 0.8). \
                     Every family runs on every --groups grid except \
                     smoothness, which needs --subtree 1 (its stencil crosses \
                     sub-tree boundaries); wgcv-lsqr is incompatible with \
                     --precondition.\n\n\
                     --batch B solves B transmitter systems per fused multi-RHS \
                     MLFMA traversal (1 <= B <= --tx; default min(tx, 8)); every \
                     batch width gives the bit-identical reconstruction, \
                     --precondition included.\n\n\
                     Every DBIM run is one loop on a G x P rank grid; without \
                     --groups that grid is 1 x 1 — the serial run, no ranks \
                     launched. --groups G launches the fault-tolerant distributed \
                     DBIM on G x P in-process ranks (G must divide --tx, P must \
                     divide 16; --positivity, --precondition, --hops and the \
                     regularizers apply on every grid): outer-iteration \
                     checkpoints (--checkpoint, hop boundaries with --hops), \
                     bit-identical restart (--resume), seeded fault injection \
                     (--chaos-seed), and \
                     elastic recovery when ranks die (up to --max-restarts \
                     relaunches; dead groups' transmitters are redistributed over \
                     the survivors while at least --min-groups groups remain, and \
                     dropped only below that).\n\n\
                     --verify-compute (default on) guards DBIM runs against \
                     silent data corruption: every MLFMA panel apply is checked \
                     against an ABFT checksum column and the Krylov recurrences \
                     are audited against the true residual (on a rank grid a \
                     checksum mismatch retires the detecting rank instead). A detected flip is \
                     recomputed (checksum) or rolled back (drift) bit-identically; \
                     corruption that survives the recovery budget aborts with exit \
                     code 4 before any image is written — never a silently wrong \
                     reconstruction. --chaos-compute S injects the seeded bit-flip \
                     from FaultPlan::seeded_compute(S, 1) to exercise that ladder \
                     end to end (serial only, requires --verify-compute on).\n\n\
                     --metrics writes the run's spans, counters, series and events \
                     as JSON (JSONL when PATH ends in .jsonl); --profile prints a \
                     flamegraph-style span breakdown to stderr. Either flag turns \
                     the recorder on.\n\n\
                     exit codes: 0 success; 1 generic failure; 2 invalid usage; \
                     3 Krylov breakdown; 4 recovery budget exhausted; 5 interrupted \
                     by SIGTERM/SIGINT with the checkpoint flushed (runs stop at \
                     the next outer-iteration boundary — hop boundary with --hops \
                     — and --resume continues bit-identically)."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(cli)
}

fn build_phantom(cli: &Cli, side: f64) -> Box<dyn Phantom + Sync> {
    match cli.phantom.as_str() {
        "cylinder" => Box::new(Cylinder {
            center: Point2::ZERO,
            radius: 0.25 * side,
            contrast: cli.contrast,
        }),
        "annulus" => Box::new(Annulus {
            center: Point2::ZERO,
            inner: 0.18 * side,
            outer: 0.30 * side,
            contrast: cli.contrast,
        }),
        "shepp-logan" => Box::new(SheppLogan::new(0.45 * side, cli.contrast)),
        "blobs" => Box::new(RandomBlobs::new(6, 0.4 * side, cli.contrast, 42)),
        other => {
            eprintln!("unknown phantom '{other}'");
            std::process::exit(2);
        }
    }
}

fn main() {
    let cli = match parse_args().and_then(|c| validate(&c).map(|()| c)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let observing = cli.metrics.is_some() || cli.profile;
    if observing {
        ffw_obs::set_enabled(true);
        if cli.groups.is_none() {
            // No ranks are launched: one in-process "rank" that never
            // communicates. Register the per-rank comm counters anyway so the
            // metrics JSON always carries them (at zero) regardless of mode.
            ffw_obs::counter("mpi.bytes.rank0");
            ffw_obs::counter("mpi.messages.rank0");
            ffw_obs::counter("mpi.bytes.total");
            ffw_obs::counter("mpi.messages.total");
        }
    }
    let run_span = ffw_obs::span("reconstruct");
    let mut scene = SceneConfig::new(cli.size, cli.tx, cli.rx);
    if let Some(deg) = cli.arc_deg {
        let span = deg.to_radians();
        scene = scene.with_arc(-span / 2.0, span);
    }
    // One pipeline per frequency stage (shared pool, each on its own grid);
    // a single-frequency run is the one-stage schedule "1.0". The factor-1.0
    // stage, on the scene grid, doubles as the imaging pipeline.
    let schedule = cli.hops.clone().unwrap_or_else(HopSchedule::single);
    let setup_span = ffw_obs::span("setup");
    let pipeline = HopPipeline::new(&scene, &schedule);
    drop(setup_span);
    let recon = pipeline.final_stage();
    let phantom = build_phantom(&cli, recon.domain().side());
    let truth_raster = phantom.rasterize(recon.domain());

    println!(
        "scene: {0}x{0} px ({1:.1} lambda), T={2}, R={3}, phantom={4}, contrast={5}",
        cli.size,
        recon.domain().side_lambda(),
        cli.tx,
        cli.rx,
        cli.phantom,
        cli.contrast
    );
    let synth_span = ffw_obs::span("synthesize");
    let measured = synthesize_noisy(&pipeline.stages, phantom.as_ref(), cli.noise_db);
    drop(synth_span);
    if let Some(db) = cli.noise_db {
        println!("added {db} dB SNR noise");
    }

    let (image, label, resumed) = if cli.born {
        let result = recon.run_born(&measured[0], &BornConfig::default());
        println!("Born (single scattering): {:?}", result.stats);
        (recon.image(&result.object), "Born", 0)
    } else {
        // SIGTERM/SIGINT stop the run cooperatively at the next checkpoint
        // boundary (outer iteration; hop stage with --hops), *after* that
        // boundary's checkpoint is flushed, so a `--resume` continues
        // bit-identically (exit code 5).
        ffw_fault::install_shutdown_handler();
        let (groups, subtree) = cli.grid();
        let ft = FtConfig {
            dbim: DbimConfig {
                iterations: cli.iterations,
                positivity: cli.positivity,
                precondition: cli.precondition.then(|| Arc::clone(&recon.plan)),
                batch: cli.batch,
                regularizer: cli.regularizer,
                // Every G0 panel carries the ABFT checksum. In process a
                // mismatch is recomputed; a grid rank that detects one
                // escalates (its halo inputs are consumed, so there is
                // nothing local to recompute) and the driver recovers
                // through checkpoint-restart.
                verify: cli.verify_compute.then(|| {
                    let mut vc = VerifyConfig::with_rel_tol(recon.plan.accuracy.checksum_rel_tol());
                    if let Some(seed) = cli.chaos_compute {
                        // Per-panel verification so a recoverable seeded flip
                        // is repaired in place before its outputs are
                        // released, instead of escalating from an
                        // already-consumed panel of the amortized window.
                        vc = vc.immediate();
                        let faults = ffw_fault::FaultPlan::seeded_compute(seed, 1).activate(1);
                        vc.injector = Some(Arc::new(move |_panel| faults.on_apply(0)));
                    }
                    vc
                }),
                ..Default::default()
            },
            checkpoint: cli.checkpoint.clone(),
            resume: cli.resume,
            max_restarts: cli.max_restarts,
            min_groups: cli.min_groups,
            fault_plan: cli
                .chaos_seed
                .filter(|_| groups * subtree >= 2)
                .map(|s| FaultPlan::seeded(s, groups * subtree)),
            control: Some(JobControl::new().with_shutdown()),
            ..FtConfig::new(groups, subtree)
        };
        let stop = ffw_fault::shutdown_requested;
        let result = match reconstruct(
            &scene,
            &schedule,
            &pipeline.stages,
            &measured,
            &ft,
            Some(&stop),
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fault-tolerant DBIM failed: {e}");
                std::process::exit(exit_code_for(&e));
            }
        };
        if let Some(done) = result.interrupted {
            eprintln!(
                "interrupted: stopped after {done} completed {} with the checkpoint \
                 flushed{}; rerun with --resume to continue bit-identically",
                if schedule.len() > 1 {
                    "hop stage(s)"
                } else {
                    "outer iteration(s)"
                },
                match &cli.checkpoint {
                    Some(p) => format!(" to {}", p.display()),
                    None => String::new(),
                }
            );
            std::process::exit(EXIT_INTERRUPTED);
        }
        // A single-frequency run is the schedule "1.0": "DBIM (1 stage: 1; ...)".
        println!(
            "{}DBIM ({} stage{}: {schedule}; {} resumed) on {groups} groups x {subtree} \
             sub-trees: final residual {:.3}%",
            if schedule.len() > 1 { "hop " } else { "" },
            result.completed,
            if result.completed == 1 { "" } else { "s" },
            result.resumed,
            100.0 * result.stages.last().map_or(f64::NAN, |s| s.final_residual)
        );
        for (stage, r) in result.stages.iter().enumerate() {
            let lambda = r
                .lambdas
                .last()
                .map(|l| format!(", lambda {l:.3e}"))
                .unwrap_or_default();
            println!(
                "  stage {}: residual {:.2}% -> {:.3}%{lambda}, lost illuminations {:?}, \
                 restarts {}",
                result.resumed + stage,
                100.0 * r.residual_history.first().copied().unwrap_or(f64::NAN),
                100.0 * r.final_residual,
                r.lost_txs,
                r.restarts
            );
        }
        (recon.image(&result.object), "DBIM", result.resumed)
    };
    let err = image_rel_error(&image, &truth_raster);
    println!("{label} image relative error: {err:.4}");

    if let Some(prefix) = &cli.out {
        let vmax = cli.contrast.max(1e-9);
        write_pgm(
            format!("{prefix}_truth.pgm"),
            &truth_raster,
            cli.size,
            0.0,
            vmax,
        )
        .expect("write truth image");
        write_pgm(
            format!("{prefix}_reconstruction.pgm"),
            &image,
            cli.size,
            0.0,
            vmax,
        )
        .expect("write reconstruction image");
        println!("wrote {prefix}_truth.pgm and {prefix}_reconstruction.pgm");
    }

    drop(run_span);
    if observing {
        let snap = ffw_obs::snapshot();
        if cli.profile {
            eprint!("{}", snap.render_profile());
            print_mults_per_solve(&snap);
            if schedule.len() > 1 {
                for line in stage_report(&snap, resumed) {
                    eprintln!("  {line}");
                }
            }
        }
        if let Some(path) = &cli.metrics {
            match snap.write_to(path) {
                Ok(()) => println!("wrote metrics to {}", path.display()),
                Err(e) => {
                    eprintln!("error: could not write metrics to {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Where the `G0` applies of the run went: MLFMA multiplications per
/// forward-class solve by what the solve is for, next to the one figure the
/// paper reports. Rank (0, 0) counts its own group's transmitters.
fn print_mults_per_solve(snap: &ffw_obs::Snapshot) {
    let counter = |name: String| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    };
    eprintln!("MLFMA multiplications per solve (paper, Fig. 13: 13.4 over all three)");
    for (class, _) in SolveCounts::default().named() {
        let solves = counter(format!("dbim.solves.{class}"));
        let mults = counter(format!("dbim.mults.{class}"));
        eprintln!(
            "  {class:<9}{:>5.1}   ({mults} over {solves} solves)",
            mults as f64 / solves as f64
        );
    }
}

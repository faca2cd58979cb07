//! The five pinned workloads and the two phases that measure them.
//!
//! `end_to_end` times whole calls with the recorder off and no wrapper
//! (repeated set-ups, one forward warm-up, then timed reps); `traced` runs
//! the per-layer probes and one instrumented rep (recorder on, `TimedG0`,
//! bench-side spans). The seed drives only generated inputs: the 40 dB noise
//! realisation, the probe panels and the serve job order.

use crate::host::{self, THREADS};
use crate::metrics::PhaseResult;
use crate::obsread::ObsRead;
use crate::probes::{self, Rng};
use crate::serve_mix::{self, ServeMix};
use crate::spans::{self, Tracer};
use crate::stats::{percentile, tail_percentile};
use crate::timed::{self, ApplySample, TimedG0};
use ffw_dist::{run_dbim_ft, FtConfig};
use ffw_fault::fnv1a64;
use ffw_geometry::{Domain, TransducerArray};
use ffw_inverse::{
    add_noise, dbim, multi_frequency_dbim_with, synthesize_measurements, DbimConfig, FrequencyHop,
    ImagingSetup, MlfmaG0, MultiFreqConfig,
};
use ffw_mlfma::MlfmaPlan;
use ffw_numerics::C64;
use ffw_obs::Stopwatch;
use ffw_par::Pool;
use ffw_phantom::{image_rel_error, Phantom, SheppLogan};
use ffw_solver::{BlockLinOp, VerifyConfig};
use ffw_tomo::{HopPipeline, HopSchedule, Reconstruction, SceneConfig};
use std::path::Path;
use std::sync::Arc;

/// Measurement noise of every DBIM workload.
const NOISE_DB: f64 = 40.0;
/// End to end, forward passes are repeated within a rep until this much is
/// measured; the traced rep runs one, so its counts repeat exactly.
pub const FORWARD_MIN_S: f64 = 1.0;
/// `setup_s` is the median of in-process set-ups repeated until at least
/// this many are timed and [`SETUP_MIN_S`] is measured.
pub const SETUPS: usize = 5;
pub const SETUP_MIN_S: f64 = 1.0;
/// How far a seed's noise realisation may move `final_residual` and
/// `image_error` from the pinned references (relative).
pub const REFERENCE_TOL: f64 = 0.02;
/// Outside (`TimedG0`) and inside (`mlfma.apply` spans) busy time must agree
/// to this share.
const CROSSCHECK_TOL: f64 = 0.05;

/// One pinned workload.
pub struct Workload {
    pub name: &'static str,
    /// One sentence: why this workload is in the ladder.
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so its end-to-end metrics gate changes.
    /// The others keep more than one thread busy or need over 15 s a rep on
    /// the reference host, which cannot time them steadily inside a driver
    /// run; they are in the record for their counts and memory figures.
    pub gated: bool,
    pub kind: Kind,
}

pub enum Kind {
    Dbim(DbimJob),
    Serve(ServeMix),
}

/// A Shepp-Logan DBIM reconstruction.
pub struct DbimJob {
    pub size: usize,
    pub tx: usize,
    pub rx: usize,
    pub arc_deg: Option<f64>,
    pub contrast: f64,
    /// Total DBIM iterations (split across hop stages).
    pub iterations: usize,
    pub batch: usize,
    /// `--verify-compute on` (the CLI default) or off.
    pub verify: bool,
    pub hops: Option<&'static str>,
    pub regularizer: &'static str,
    /// `Some(p)`: `run_dbim_ft` on 1 group x `p` sub-tree ranks.
    pub dist_subtree: Option<usize>,
    /// Pinned at seed 1; every seed must land within [`REFERENCE_TOL`].
    pub ref_final_residual: f64,
    pub ref_image_error: f64,
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "serial-256",
        why: "Deep tree (256x256, 65536 unknowns) with verification on: far-field stages, plan build and memory take their largest share of any gated workload, so setup_s and peak_rss_mb can move here.",
        gated: true,
        kind: Kind::Dbim(DbimJob {
            size: 256,
            tx: 4,
            rx: 16,
            arc_deg: None,
            contrast: 0.05,
            iterations: 1,
            batch: 4,
            verify: true,
            hops: None,
            regularizer: "tikhonov",
            dist_subtree: None,
            ref_final_residual: 0.142105,
            ref_image_error: 0.940742,
        }),
    },
    Workload {
        name: "serial-hc-128",
        why: "High contrast (0.2) on a shallow 128x128 tree, verification off: Krylov work per solve doubles and the near field dominates, so solver and near-kernel changes show here, far-field ones mostly do not.",
        gated: true,
        kind: Kind::Dbim(DbimJob {
            size: 128,
            tx: 8,
            rx: 32,
            arc_deg: None,
            contrast: 0.2,
            iterations: 3,
            batch: 8,
            verify: false,
            hops: None,
            regularizer: "tikhonov",
            dist_subtree: None,
            ref_final_residual: 0.179536,
            ref_image_error: 0.900295,
        }),
    },
    Workload {
        name: "hop-wgcv-64",
        why: "Same solver and MLFMA layers used differently: Golub-Kahan forward/adjoint products, one plan per frequency stage and the wGCV regularizer SVD, so a gain for the plain path that costs this one shows.",
        gated: true,
        kind: Kind::Dbim(DbimJob {
            size: 64,
            tx: 16,
            rx: 32,
            arc_deg: Some(210.0),
            contrast: 0.25,
            iterations: 2,
            batch: 8,
            verify: true,
            hops: Some("2.0,1.0"),
            regularizer: "wgcv-lsqr:6:0.8",
            dist_subtree: None,
            ref_final_residual: 0.198918,
            ref_image_error: 0.55653,
        }),
    },
    Workload {
        name: "serve-mix-64",
        why: "Closed loop of one client on a one-worker service, four small job kinds: MLFMA does little per job, so admission, journal fsync, plan cache and checkpointing dominate; covers both serve paths.",
        gated: true,
        kind: Kind::Serve(serve_mix::MIX),
    },
    Workload {
        name: "serial-512",
        why: "Deepest tree (512x512, 262144 unknowns, the largest real run the repo has) with verification on: the record's reference for plan build time and memory at scale; one rep takes 15 s.",
        gated: false,
        kind: Kind::Dbim(DbimJob {
            size: 512,
            tx: 4,
            rx: 16,
            arc_deg: None,
            contrast: 0.05,
            iterations: 1,
            batch: 4,
            verify: true,
            hops: None,
            regularizer: "tikhonov",
            dist_subtree: None,
            ref_final_residual: 0.190992,
            ref_image_error: 1.019109,
        }),
    },
    Workload {
        name: "dist-1x2-128",
        why: "The paper's distributed path on 1 group x 2 single-threaded sub-tree ranks: halo exchange every apply, allreduce every Krylov step and a checkpoint gather per iteration happen here and nowhere else.",
        gated: false,
        kind: Kind::Dbim(DbimJob {
            size: 128,
            tx: 8,
            rx: 32,
            arc_deg: None,
            contrast: 0.1,
            iterations: 2,
            batch: 8,
            verify: false,
            hops: None,
            regularizer: "tikhonov",
            dist_subtree: Some(2),
            ref_final_residual: 0.182926,
            ref_image_error: 0.676997,
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// What one reconstruct call returned, reduced to what the ladder reports.
struct ReconOut {
    object: Vec<C64>,
    final_residual: f64,
    /// Forward-class solves (the paper's accounting).
    solves: u64,
    /// `G0` applies the driver counted; `None` on the distributed path.
    g0_applies: Option<u64>,
    /// Distributed path only: `lost_txs` empty, no restart, not interrupted.
    dist_clean: Option<(bool, String)>,
}

/// One forward + reconstruct pass.
struct Rep {
    /// Every timed forward pass of the rep (cheap ones are repeated).
    forward_samples: Vec<f64>,
    /// The last forward pass, whose data the reconstruction used.
    forward_s: f64,
    recon_s: f64,
    image_error: f64,
    /// FNV-1a of the reconstructed object's bits.
    digest: u64,
    solves: u64,
    measured: Vec<Vec<Vec<C64>>>,
    out: ReconOut,
}

fn object_digest(object: &[C64]) -> u64 {
    let bytes: Vec<u8> = object
        .iter()
        .flat_map(|c| c.re.to_le_bytes().into_iter().chain(c.im.to_le_bytes()))
        .collect();
    fnv1a64(&bytes)
}

impl DbimJob {
    pub fn scene(&self) -> SceneConfig {
        let scene = SceneConfig::new(self.size, self.tx, self.rx);
        match self.arc_deg {
            Some(deg) => {
                let span = deg.to_radians();
                scene.with_arc(-span / 2.0, span)
            }
            None => scene,
        }
    }

    fn schedule(&self) -> Option<HopSchedule> {
        self.hops
            .map(|h| HopSchedule::parse(h).expect("pinned hop schedule is valid"))
    }

    /// The set-up `setup_s` times: one pipeline per frequency stage.
    fn build(&self, pool: &Arc<Pool>) -> Vec<Reconstruction> {
        match self.schedule() {
            Some(s) => HopPipeline::with_pool(&self.scene(), &s, Arc::clone(pool)).stages,
            None => vec![Reconstruction::with_pool(&self.scene(), Arc::clone(pool))],
        }
    }
}

/// A job with its pipeline built: what the reps of one run share.
struct Bench<'a> {
    job: &'a DbimJob,
    /// One pipeline per frequency stage; the last is the scene frequency.
    stages: Vec<Reconstruction>,
    seed: u64,
    scratch: &'a Path,
}

impl Bench<'_> {
    fn last(&self) -> &Reconstruction {
        self.stages.last().expect("at least one stage")
    }

    fn plain_g0s(&self) -> Vec<&MlfmaG0> {
        self.stages.iter().map(Reconstruction::g0).collect()
    }

    fn phantom(&self) -> SheppLogan {
        SheppLogan::new(0.45 * self.last().domain().side(), self.job.contrast)
    }

    fn config(&self, verify: bool) -> DbimConfig {
        let rel_tol = self.last().plan.accuracy.checksum_rel_tol();
        DbimConfig {
            iterations: self.job.iterations,
            batch: Some(self.job.batch),
            regularizer: (self.job.regularizer.parse()).expect("pinned regularizer is valid"),
            verify: verify.then(|| VerifyConfig::with_rel_tol(rel_tol)),
            ..Default::default()
        }
    }

    /// Measured data for every stage: `synthesize` of all T illuminations on
    /// the true object.
    fn forward<G: BlockLinOp>(&self, g0s: &[&G]) -> Vec<Vec<Vec<C64>>> {
        let phantom = self.phantom();
        (self.stages.iter().zip(g0s))
            .map(|(s, g0)| {
                let object = s.object_of(&phantom);
                synthesize_measurements(&s.setup, *g0, &object, Default::default())
            })
            .collect()
    }

    /// Measured data -> object, on the driver this workload pins.
    fn reconstruct<G: BlockLinOp>(
        &self,
        g0s: &[&G],
        measured: &[Vec<Vec<C64>>],
        cfg: &DbimConfig,
    ) -> ReconOut {
        let (job, stages) = (self.job, &self.stages);
        if let Some(p) = job.dist_subtree {
            let ft = FtConfig {
                dbim: cfg.clone(),
                checkpoint: Some(self.scratch.join("dist.ckpt")),
                ..FtConfig::new(1, p)
            };
            let plan = Arc::clone(&stages[0].plan);
            let r = run_dbim_ft(&stages[0].setup, plan, &measured[0], &ft)
                .expect("clean distributed run");
            let clean = r.lost_txs.is_empty() && r.restarts == 0 && r.interrupted.is_none();
            let detail = format!(
                "lost_txs {:?}, restarts {}, interrupted {:?}",
                r.lost_txs, r.restarts, r.interrupted
            );
            return ReconOut {
                object: r.object,
                final_residual: r.final_residual,
                solves: (job.tx * (3 * job.iterations + 1)) as u64,
                g0_applies: None,
                dist_clean: Some((clean, detail)),
            };
        }
        if let Some(schedule) = job.schedule() {
            let split = schedule.split_iterations(job.iterations);
            let hops: Vec<FrequencyHop<'_, G>> = (stages.iter().zip(g0s).zip(measured).zip(&split))
                .map(|(((s, g0), mea), &iterations)| FrequencyHop {
                    setup: &s.setup,
                    g0: *g0,
                    measured: mea,
                    iterations,
                })
                .collect();
            let mf = MultiFreqConfig {
                base: cfg.clone(),
                ..Default::default()
            };
            let r = multi_frequency_dbim_with(&hops, &mf, None).expect("hop schedule runs");
            assert_eq!(r.completed, stages.len(), "every hop stage completed");
            let last = r.stages.last().expect("stages ran in this process");
            return ReconOut {
                final_residual: last.final_residual,
                solves: r.stages.iter().map(|s| s.forward_solves as u64).sum(),
                g0_applies: Some(r.stages.iter().map(|s| s.g0_applies as u64).sum()),
                object: r.object,
                dist_clean: None,
            };
        }
        let r = dbim(&stages[0].setup, g0s[0], &measured[0], cfg).expect("dbim runs");
        ReconOut {
            object: r.object,
            final_residual: r.final_residual,
            solves: r.forward_solves as u64,
            g0_applies: Some(r.g0_applies as u64),
            dist_clean: None,
        }
    }

    /// One rep under bench-side spans `forward` and `recon`; `after_phase`
    /// runs inside each span, after its work. The forward pass is repeated
    /// until `forward_min_s` has been measured, so small workloads report a
    /// steady median.
    fn rep<G: BlockLinOp>(
        &self,
        g0s: &[&G],
        cfg: &DbimConfig,
        forward_min_s: f64,
        tracer: &mut Tracer,
        mut after_phase: impl FnMut(&mut Tracer, &'static str),
    ) -> Rep {
        let mut forward_samples = Vec::new();
        let (mut measured, forward_s) = loop {
            let (m, secs) = tracer.scope("forward", |t| {
                let m = self.forward(g0s);
                after_phase(t, "forward");
                m
            });
            forward_samples.push(secs);
            if forward_samples.iter().sum::<f64>() >= forward_min_s {
                break (m, secs);
            }
        };
        if self.job.hops.is_some() {
            HopPipeline::add_noise(&mut measured, NOISE_DB, self.seed);
        } else {
            add_noise(&mut measured[0], NOISE_DB, self.seed);
        }
        let (out, recon_s) = tracer.scope("recon", |t| {
            let out = self.reconstruct(g0s, &measured, cfg);
            after_phase(t, "recon");
            out
        });
        let last = self.last();
        let truth = self.phantom().rasterize(last.domain());
        Rep {
            forward_samples,
            forward_s,
            recon_s,
            image_error: image_rel_error(&last.image(&out.object), &truth),
            digest: object_digest(&out.object),
            solves: (self.job.tx * self.stages.len()) as u64 + out.solves,
            measured,
            out,
        }
    }

    /// Counts the rep's solves and checks its result against the pinned
    /// references (every rep of a run sees the same inputs).
    fn check_rep(&self, out: &mut PhaseResult, rep: &Rep) {
        out.attempted += rep.solves;
        for (name, got, reference) in [
            (
                "final_residual",
                rep.out.final_residual,
                self.job.ref_final_residual,
            ),
            ("image_error", rep.image_error, self.job.ref_image_error),
        ] {
            out.check(
                &format!("{name} within tolerance of the pinned reference"),
                (got / reference - 1.0).abs() <= REFERENCE_TOL,
                format!(
                    "{got:.6} vs {reference:.6} (+-{:.0}%)",
                    100.0 * REFERENCE_TOL
                ),
            );
        }
        if let Some((clean, detail)) = &rep.out.dist_clean {
            out.check("distributed run lost nothing", *clean, detail.clone());
        }
    }
}

/// `job_latency_*` and `jobs_per_s` from per-job latencies and the wall time
/// they were completed in.
pub fn set_job_metrics(out: &mut PhaseResult, latencies_s: &[f64], jobs_per_s: &[f64]) {
    out.set("job_latency_p50_s", percentile(latencies_s, 50));
    out.set(
        "job_latency_p80_s",
        percentile(latencies_s, tail_percentile(latencies_s.len()).min(80)),
    );
    out.set_samples("jobs_per_s", jobs_per_s);
}

/// The `--trace 0` phase.
pub fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    min_reps: usize,
    scratch: &Path,
) -> PhaseResult {
    let job = match &w.kind {
        Kind::Dbim(job) => job,
        Kind::Serve(mix) => return serve_mix::end_to_end(mix, seed, seconds, min_reps, scratch),
    };
    let mut out = PhaseResult::default();
    let pool = Arc::new(Pool::new(THREADS));
    let mut bench = Bench {
        job,
        stages: Vec::new(),
        seed,
        scratch,
    };
    let mut setup_s = Vec::new();
    while setup_s.len() < SETUPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        bench.stages.clear(); // free the previous pipeline before building the next
        let sw = Stopwatch::start();
        bench.stages = job.build(&pool);
        setup_s.push(sw.elapsed_secs());
    }
    let g0s = bench.plain_g0s();
    let cfg = bench.config(job.verify);
    // Warm-up: one untimed forward pass fills the engine's block workspace
    // and wakes the pool.
    bench.forward(&g0s);

    let mut tracer = Tracer::new();
    let mut reps: Vec<Rep> = Vec::new();
    let sw = Stopwatch::start();
    while reps.len() < min_reps || sw.elapsed_secs() < seconds {
        tracer.next_rep();
        reps.push(bench.rep(&g0s, &cfg, FORWARD_MIN_S, &mut tracer, |_, _| ()));
    }
    // Reps see identical inputs, so one is checked against the references
    // and the others against it.
    bench.check_rep(&mut out, &reps[0]);
    out.attempted += reps[1..].iter().map(|r| r.solves).sum::<u64>();
    out.check(
        "reps reconstruct bit-identical objects",
        reps.iter().all(|r| r.digest == reps[0].digest),
        format!("digest {:#018x} over {} reps", reps[0].digest, reps.len()),
    );

    let col = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    out.set_samples("setup_s", &setup_s);
    let forward: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.forward_samples.clone())
        .collect();
    out.set_samples("forward_s", &forward);
    out.set_samples("recon_s", &col(|r| r.recon_s));
    out.set_samples("final_residual", &col(|r| r.out.final_residual));
    out.set_samples("image_error", &col(|r| r.image_error));
    out.set("peak_rss_mb", host::peak_rss_mb());
    // A job here is one rep: synthesize + reconstruct.
    let latencies = col(|r| r.forward_s + r.recon_s);
    let rates: Vec<f64> = latencies.iter().map(|l| 1.0 / l).collect();
    set_job_metrics(&mut out, &latencies, &rates);
    out
}

/// `ImagingSetup::new` and `MlfmaPlan::new` timed on their own, with the
/// resident-set growth of the plan.
pub fn setup_pieces(out: &mut PhaseResult, scene: &SceneConfig, tracer: &mut Tracer) {
    let domain = Domain::new(scene.n_side_px, scene.wavelength);
    let radius = scene.ring_radius_factor * domain.side();
    let array = |n: usize| match scene.arc {
        None => TransducerArray::ring(n, radius),
        Some((start, span)) => TransducerArray::arc(n, radius, start, span),
    };
    let (setup, imaging_s) = tracer.scope("inverse.setup_build", |_| {
        ImagingSetup::new(domain.clone(), array(scene.n_tx), array(scene.n_rx))
    });
    let before = host::current_rss_mb();
    let (plan, plan_s) = tracer.scope("mlfma.plan_build", |_| {
        MlfmaPlan::new(&domain, scene.accuracy)
    });
    let after = host::current_rss_mb();
    drop((setup, plan));
    out.set("inverse.setup_build_s", Some(imaging_s));
    out.set("mlfma.plan_build_s", Some(plan_s));
    out.set("mlfma.plan_rss_mb", before.zip(after).map(|(b, a)| a - b));
}

/// Host, numerics, par, mlfma, fault and serve probes at the primary plan's
/// size. Returns the host probe for the rooflines.
pub fn layer_probes(
    out: &mut PhaseResult,
    plan: &Arc<MlfmaPlan>,
    n_tx: usize,
    seed: u64,
    scratch: &Path,
    tracer: &mut Tracer,
) -> host::HostProbe {
    let mut rng = Rng::new(seed);
    let (hostp, _) = tracer.scope("probe.host", |_| host::probe());
    println!(
        "host: {} cpus, FMA kernel {}, {}",
        hostp.nproc, hostp.fma_kernel, hostp.sizes
    );
    out.set("host.peak_gflops", Some(hostp.peak_gflops));
    out.set("host.stream_gbs", Some(hostp.stream_gbs));
    out.set("host.nproc", Some(hostp.nproc as f64));

    let (num, _) = tracer.scope("probe.numerics", |_| probes::numerics(plan, &mut rng));
    out.set(
        "numerics.panel_matvec_gflops",
        Some(num.panel_matvec_gflops),
    );
    // The kernel probe is single-threaded: its roof is one thread's share.
    out.set(
        "numerics.panel_matvec_roofline_frac",
        Some(num.panel_matvec_gflops / (hostp.peak_gflops / THREADS as f64)),
    );
    out.set("numerics.fft_ns_per_point", Some(num.fft_ns_per_point));
    out.set("numerics.hankel_ns_per_eval", Some(num.hankel_ns_per_eval));

    let (app, _) = tracer.scope("probe.apply", |_| probes::apply(plan, &mut rng));
    out.set("par.dispatch_us", Some(app.dispatch_us));
    out.set("par.apply_speedup_2t", Some(app.speedup_2t));
    out.set("mlfma.apply_b8_ms_p50", Some(app.b8_ms_p50));
    out.set("mlfma.apply_b8_ms_p90", Some(app.b8_ms_p90));
    out.set("mlfma.apply_b1_ms_p50", Some(app.b1_ms_p50));

    let (ckpt, _) = tracer.scope("probe.checkpoint", |_| {
        probes::checkpoint(scratch, plan.n_pixels(), n_tx, &mut rng)
    });
    out.set("fault.checkpoint_write_ms_p50", Some(ckpt.write_ms_p50));
    out.set("fault.checkpoint_bytes", Some(ckpt.bytes as f64));

    let (open_s, _) = tracer.scope("probe.serve_open", |_| probes::serve_open_s(scratch));
    out.set("serve.open_s", Some(open_s));
    hostp
}

/// MLFMA, solver and inverse metrics read from the recorder after a traced
/// rep. `busy_s` is the MLFMA busy time the rep measured (outside when a
/// `TimedG0` ran, else the span total); `wall_s` the rep's wall time.
pub fn obs_layer_values(
    out: &mut PhaseResult,
    obs: &ObsRead,
    hostp: &host::HostProbe,
    busy_s: Option<f64>,
    wall_s: f64,
) {
    let stage_s = |stage: &str| obs.span_secs(|p| p.ends_with(&["mlfma.apply", stage]));
    for (name, stage) in [
        ("mlfma.near_s", "near"),
        ("mlfma.aggregate_s", "aggregate"),
        ("mlfma.translate_s", "translate"),
        ("mlfma.disaggregate_s", "disaggregate"),
    ] {
        out.set(name, stage_s(stage));
    }
    let sum = |prefix: &str| {
        ["aggregate", "translate", "disaggregate", "near"]
            .iter()
            .map(|s| obs.counter(&format!("{prefix}.{s}")))
            .sum::<Option<f64>>()
    };
    let (flops, bytes) = (sum("mlfma.flops"), sum("mlfma.bytes"));
    let columns = obs.counter("mlfma.applies");
    let panel_columns = obs.histogram_sum("mlfma.panel_width");
    out.set("mlfma.columns", columns);
    // Calls = fused panel applies + single-column applies.
    out.set(
        "mlfma.applies",
        (|| Some(obs.counter("mlfma.block_applies")? + columns? - panel_columns?))(),
    );
    out.set("mlfma.busy_s", busy_s);
    out.set("mlfma.share", busy_s.map(|b| b / wall_s));
    let gflops = flops.zip(busy_s).map(|(f, b)| f / b * 1e-9);
    let intensity = flops.zip(bytes).map(|(f, b)| f / b);
    out.set("mlfma.gflops", gflops);
    out.set("mlfma.flops_per_byte_computed", intensity);
    out.set(
        "mlfma.roofline_frac",
        gflops
            .zip(intensity)
            .map(|(g, i)| g / hostp.peak_gflops.min(hostp.stream_gbs * i)),
    );
    out.set(
        "mlfma.near_gflops",
        obs.counter("mlfma.flops.near")
            .zip(stage_s("near"))
            .map(|(f, s)| f / s * 1e-9),
    );
    out.set(
        "mlfma.translate_gbs_computed",
        obs.counter("mlfma.bytes.translate")
            .zip(stage_s("translate"))
            .map(|(b, s)| b / s * 1e-9),
    );

    let solves = obs.counter("solver.bicgstab.solves");
    out.set("solver.solves", solves);
    out.set("solver.iters", obs.counter("solver.bicgstab.iters"));
    out.set(
        "solver.applies_per_solve",
        columns.zip(solves).map(|(c, s)| c / s),
    );
    out.set(
        "solver.unconverged",
        Some(obs.event_count("solver.breakdown") as f64),
    );
    out.set("solver.panels_recomputed", obs.counter("sdc.recomputed"));
    // No crate publishes a rollback counter yet; reads null until one does.
    out.set("solver.drift_rollbacks", obs.counter("sdc.rolled_back"));

    out.set("inverse.outer_iters", obs.counter("dbim.outer_iters"));
    out.set(
        "inverse.iter_s_mean",
        obs.span_mean_secs(|p| p.last() == Some(&"iter")),
    );
    out.set(
        "inverse.regularizer_s",
        obs.span_secs(|p| p.last() == Some(&"wgcv")),
    );
    out.set("inverse.lambda_last", obs.series_last("dbim.lambda"));
}

/// Turns one phase's `TimedG0` samples into `mlfma.apply` leaf spans.
fn drain_samples<G: BlockLinOp>(
    timed: &[TimedG0<'_, G>],
    tracer: &mut Tracer,
) -> Vec<Vec<ApplySample>> {
    timed
        .iter()
        .map(|t| {
            let samples = t.take();
            for s in &samples {
                tracer.leaf("mlfma.apply", s.start_ns, s.end_ns);
            }
            samples
        })
        .collect()
}

/// The `--trace 1` phase; writes `trace-<workload>.json` into `results`.
pub fn traced(w: &Workload, seed: u64, results: &Path, scratch: &Path) -> PhaseResult {
    let mut tracer = Tracer::new();
    let mut out = match &w.kind {
        Kind::Dbim(job) => traced_dbim(job, seed, scratch, &mut tracer),
        Kind::Serve(mix) => serve_mix::traced(mix, seed, scratch, &mut tracer),
    };
    let path = results.join(format!("trace-{}.json", w.name));
    let json = tracer.to_json(vec![
        ("workload", ffw_serve::Json::Str(w.name.into())),
        ("seed", ffw_serve::Json::Num(seed as f64)),
    ]);
    println!("bench-side spans of the last rep (self = span minus children):");
    for (name, (n, total_s, self_s)) in spans::by_name(tracer.spans(), tracer.rep_id()) {
        println!("  {name:<24} x{n:<6} total {total_s:>10.4} s  self {self_s:>10.4} s");
    }
    match std::fs::write(&path, json.to_line() + "\n") {
        Ok(()) => println!("wrote {} ({} spans)", path.display(), tracer.spans().len()),
        Err(e) => out.check(
            "trace file written",
            false,
            format!("{}: {e}", path.display()),
        ),
    }
    out
}

fn traced_dbim(job: &DbimJob, seed: u64, scratch: &Path, tracer: &mut Tracer) -> PhaseResult {
    let mut out = PhaseResult::default();
    // First, while the heap is still small, so the plan's growth is visible.
    setup_pieces(&mut out, &job.scene(), tracer);
    let pool = Arc::new(Pool::new(THREADS));
    let (stages, _) = tracer.scope("setup", |_| job.build(&pool));
    let bench = Bench {
        job,
        stages,
        seed,
        scratch,
    };
    let hostp = layer_probes(&mut out, &bench.last().plan, job.tx, seed, scratch, tracer);
    let cfg = bench.config(job.verify);

    // Untraced rep: the base of the tracing overhead ratio.
    tracer.next_rep();
    let (plain, _) = tracer.scope("rep.untraced", |t| {
        bench.rep(&bench.plain_g0s(), &cfg, 0.0, t, |_, _| ())
    });
    bench.check_rep(&mut out, &plain);

    // Traced rep: recorder on, every stage's G0 wrapped.
    let timed: Vec<TimedG0<'_, _>> = (bench.stages.iter())
        .map(|s| TimedG0::new(s.g0()))
        .collect();
    let timed_refs: Vec<&TimedG0<'_, _>> = timed.iter().collect();
    let mut phases: Vec<(&'static str, Vec<Vec<ApplySample>>)> = Vec::new();
    ffw_obs::reset();
    ffw_obs::set_enabled(true);
    let traced_rep = tracer.next_rep();
    let (rep, _) = tracer.scope("rep.traced", |t| {
        bench.rep(&timed_refs, &cfg, 0.0, t, |t, phase| {
            phases.push((phase, drain_samples(&timed, t)));
        })
    });
    ffw_obs::set_enabled(false);
    let obs = ObsRead::new(ffw_obs::snapshot());
    bench.check_rep(&mut out, &rep);
    out.check(
        "traced rep reconstructs the untraced object",
        rep.digest == plain.digest,
        format!("{:#018x} vs {:#018x}", rep.digest, plain.digest),
    );

    let busy_of = |phase: &str| -> f64 {
        phases
            .iter()
            .filter(|(p, _)| *p == phase)
            .flat_map(|(_, per_stage)| per_stage.iter())
            .map(|s| timed::totals(s).0)
            .sum()
    };
    let (busy_forward, busy_recon) = (busy_of("forward"), busy_of("recon"));
    let wall = rep.forward_s + rep.recon_s;
    let distributed = job.dist_subtree.is_some();
    if distributed {
        // The recon phase runs inside rank threads, where neither the
        // wrapper nor the recorder reach: only mpi counters are read.
        out.set(
            "dist.launch_s",
            obs.span_secs(|p| p.last() == Some(&"dist.launch")),
        );
        out.set("mpi.messages", obs.counter("mpi.messages.total"));
        out.set("mpi.bytes", obs.counter("mpi.bytes.total"));
    } else {
        let busy = busy_forward + busy_recon;
        obs_layer_values(&mut out, &obs, &hostp, Some(busy), wall);
        let inside = obs.span_secs(|p| p.last() == Some(&"mlfma.apply"));
        let ratio = inside.map(|i| busy / i);
        out.set("mlfma.busy_crosscheck_ratio", ratio);
        out.check(
            "TimedG0 busy time agrees with the mlfma.apply span total",
            ratio.is_some_and(|r| (r - 1.0).abs() <= CROSSCHECK_TOL),
            format!(
                "outside {busy:.4} s vs inside {:.4} s",
                inside.unwrap_or(f64::NAN)
            ),
        );
        let calls: u64 = phases
            .iter()
            .flat_map(|(_, per_stage)| per_stage.iter())
            .map(|s| s.len() as u64)
            .sum();
        let counted = out.values.get("mlfma.applies").copied().flatten();
        out.check(
            "TimedG0 saw every apply the recorder counted",
            counted.is_some_and(|c| c.value == calls as f64),
            format!("outside {calls} vs inside {:?}", counted.map(|c| c.value)),
        );
        out.check(
            "every solve converged",
            obs.event_count("solver.breakdown") == 0,
            format!(
                "{} solver.breakdown events",
                obs.event_count("solver.breakdown")
            ),
        );
        // Solver self time inside recon: bicgstab spans under the DBIM
        // driver minus the applies nested in them.
        let in_recon = |p: &[&str]| matches!(p.first(), Some(&"dbim") | Some(&"multifreq"));
        let solver_recon = obs
            .span_secs(|p| in_recon(p) && p.last() == Some(&"solver.bicgstab"))
            .zip(obs.span_secs(|p| in_recon(p) && p.ends_with(&["solver.bicgstab", "mlfma.apply"])))
            .map(|(solver, nested)| solver - nested);
        out.set(
            "inverse.self_s",
            solver_recon.map(|s| rep.recon_s - busy_recon - s),
        );
        // Stage wall from outside: first to last apply of that stage's G0.
        for (k, name) in ["inverse.stage_s.0", "inverse.stage_s.1"]
            .into_iter()
            .enumerate()
        {
            let span = phases
                .iter()
                .filter(|(p, _)| *p == "recon")
                .filter_map(|(_, per_stage)| per_stage.get(k))
                .filter_map(|s| Some((s.first()?.start_ns, s.last()?.end_ns)))
                .map(|(a, b)| (b - a) as f64 * 1e-9)
                .next();
            out.set(name, span);
        }
    }
    // The forward phase is all solver: its self time (span minus the applies
    // inside it) is what the Krylov layer itself costs.
    out.set(
        "solver.self_s",
        spans::by_name(tracer.spans(), traced_rep)
            .get("forward")
            .map(|&(_, _, self_s)| self_s),
    );
    out.set(
        "obs.trace_overhead_ratio",
        Some(rep.recon_s / plain.recon_s),
    );

    if job.verify && job.hops.is_none() && !distributed {
        // One extra verify-off reconstruct of the same data prices the
        // compute-integrity layer.
        let off_cfg = bench.config(false);
        let (off, off_s) = tracer.scope("recon.verify_off", |_| {
            bench.reconstruct(&bench.plain_g0s(), &plain.measured, &off_cfg)
        });
        out.set("solver.verify_overhead_ratio", Some(plain.recon_s / off_s));
        out.set(
            "solver.verify_extra_applies",
            plain
                .out
                .g0_applies
                .zip(off.g0_applies)
                .map(|(on, off)| (on - off) as f64),
        );
        out.check(
            "verification leaves the reconstruction bit-identical",
            object_digest(&off.object) == plain.digest,
            format!(
                "{:#018x} vs {:#018x}",
                object_digest(&off.object),
                plain.digest
            ),
        );
    } else if !job.verify {
        out.set("solver.verify_extra_applies", Some(0.0));
    }

    if distributed {
        // The same job on the serial driver with one thread: the
        // single-thread baseline for the efficiency, and the reference the
        // distributed object is compared with.
        let one = Arc::new(Pool::new(1));
        let serial_stages = job.build(&one);
        let serial_timed = TimedG0::new(serial_stages[0].g0());
        let (serial, serial_s) = tracer.scope("recon.serial_1t", |t| {
            let r = dbim(
                &serial_stages[0].setup,
                &serial_timed,
                &plain.measured[0],
                &cfg,
            )
            .expect("serial reference runs");
            drain_samples(std::slice::from_ref(&serial_timed), t)
                .pop()
                .map(|samples| (r, timed::totals(&samples).1))
        });
        let (serial, serial_columns) = serial.expect("one stage");
        let gap = {
            let num: f64 = (serial.object.iter().zip(&rep.out.object))
                .map(|(a, b)| (*a - *b).norm_sqr())
                .sum();
            let den: f64 = serial.object.iter().map(|a| a.norm_sqr()).sum();
            (num / den).sqrt()
        };
        out.set("dist.object_gap_vs_serial", Some(gap));
        out.check(
            "distributed object matches the serial driver",
            gap <= 1e-10,
            format!("relative gap {gap:.3e}"),
        );
        let ranks = job.dist_subtree.unwrap_or(1) as f64;
        out.set(
            "dist.efficiency_2r",
            Some(serial_s / (ranks * plain.recon_s)),
        );
        out.set(
            "mpi.bytes_per_apply",
            obs.counter("mpi.bytes.total")
                .map(|b| b / serial_columns as f64),
        );
    }
    out
}

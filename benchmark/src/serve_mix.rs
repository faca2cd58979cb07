//! `serve-mix-64`: a closed loop against an in-process `ffw_serve::Engine`.
//! The client submits its next job when the previous one reaches a terminal
//! frame, so a slower service receives less load. One client and one worker:
//! a second of either keeps both vCPUs busy, which the reference host cannot
//! time steadily (see `host::THREADS`), and with two clients on one worker a
//! job's latency depends on which job it queued behind, that is on the seed.
//!
//! One rep is one session: a fresh engine and journal directory (cold plan
//! cache) and `jobs_per_session` jobs cycling the four kinds, in an order
//! shuffled from the seed.

use crate::host::THREADS;
use crate::metrics::PhaseResult;
use crate::obsread::ObsRead;
use crate::probes::Rng;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{self, set_job_metrics, FORWARD_MIN_S, REFERENCE_TOL, SETUPS, SETUP_MIN_S};
use crossbeam_channel::unbounded;
use ffw_obs::{monotonic_ns, Stopwatch};
use ffw_par::Pool;
use ffw_phantom::image_rel_error;
use ffw_serve::{Engine, JobSpec, Json, ServeConfig};
use ffw_tomo::{HopPipeline, Reconstruction};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The four job kinds, as `submit` bodies without the id. Kinds 0-2 run the
/// fault-tolerant driver (`execute`) and share cached plans per geometry;
/// kind 3 is a hop job on the serial driver (`execute_serial`), which builds
/// its stages fresh every time.
const KINDS: [&str; 4] = [
    r#""size":64,"tx":8,"rx":16,"phantom":"shepp-logan","iterations":2"#,
    r#""size":64,"tx":4,"rx":8,"phantom":"annulus","iterations":2"#,
    r#""size":32,"tx":8,"rx":16,"phantom":"cylinder","iterations":2"#,
    r#""size":32,"tx":4,"rx":8,"phantom":"cylinder","iterations":2,"hops":"2.0,1.0""#,
];
/// Jobs of each kind in a session of 20. Latencies cluster by kind (about
/// 0.7, 0.35, 0.13 and 0.06 s on one thread); with equal shares the median
/// job would sit on the edge between two clusters and jump between them from
/// run to run. With these shares the median is the middle job of the 0.13 s
/// cluster and p80 the middle job of the 0.35 s one.
const KIND_SHARE: [usize; 4] = [2, 5, 7, 6];
/// Kinds whose plan the engine caches (every kind without `hops`).
const CACHED_GEOMETRIES: u64 = 3;

pub struct ServeMix {
    pub jobs_per_session: usize,
    pub clients: usize,
    pub workers: usize,
    /// Mean over a session's jobs; jobs are noise-free, so every seed gives
    /// these values.
    pub ref_final_residual: f64,
    pub ref_image_error: f64,
}

pub const MIX: ServeMix = ServeMix {
    jobs_per_session: 20,
    clients: 1,
    workers: THREADS,
    ref_final_residual: 0.122971,
    ref_image_error: 0.5058,
};

fn job_json(kind: usize, id: &str) -> Json {
    Json::parse(&format!(r#"{{"id":"{id}",{}}}"#, KINDS[kind])).expect("pinned job body is JSON")
}

/// One kind's pipeline outside the engine: what a cold service builds on the
/// kind's first job, reused here for `forward_s` and the truth raster.
struct KindCtx {
    spec: JobSpec,
    stages: Vec<Reconstruction>,
    truth: Vec<f64>,
}

fn build_kinds(pool: &Arc<Pool>) -> Vec<KindCtx> {
    (0..KINDS.len())
        .map(|k| {
            let spec = JobSpec::from_json(&job_json(k, "kind")).expect("pinned job spec is valid");
            let scene = spec.scene();
            let stages = match &spec.hops {
                Some(s) => HopPipeline::with_pool(&scene, s, Arc::clone(pool)).stages,
                None => vec![Reconstruction::with_pool(&scene, Arc::clone(pool))],
            };
            let domain = stages.last().expect("at least one stage").domain();
            let truth = spec.build_phantom(domain.side()).rasterize(domain);
            KindCtx {
                spec,
                stages,
                truth,
            }
        })
        .collect()
}

/// `synthesize` of every kind's illuminations on its true object.
fn forward_all(kinds: &[KindCtx]) {
    for k in kinds {
        let side = k.stages.last().expect("at least one stage").domain().side();
        let phantom = k.spec.build_phantom(side);
        for s in &k.stages {
            std::hint::black_box(s.synthesize(phantom.as_ref()));
        }
    }
}

/// One job as its client saw it.
struct JobTrace {
    id: String,
    kind: usize,
    submit_ns: u64,
    accepted_ns: Option<u64>,
    first_progress_ns: Option<u64>,
    terminal_ns: u64,
    /// The terminal frame's `ev`.
    terminal: String,
    residual: Option<f64>,
    digest: Option<String>,
    retries: u32,
}

impl JobTrace {
    fn latency_s(&self) -> f64 {
        (self.terminal_ns - self.submit_ns) as f64 * 1e-9
    }
}

struct Session {
    jobs: Vec<JobTrace>,
    makespan_s: f64,
    cache_hits: u64,
    cache_misses: u64,
    journal_bytes: u64,
    /// Per done job, against its kind's truth raster.
    image_errors: Vec<f64>,
}

/// Submits one job and follows its frames to the terminal one.
fn run_job(engine: &Engine, kind: usize, id: String) -> JobTrace {
    let (tx, rx) = unbounded::<String>();
    let mut job = JobTrace {
        kind,
        submit_ns: monotonic_ns(),
        accepted_ns: None,
        first_progress_ns: None,
        terminal_ns: 0,
        terminal: String::new(),
        residual: None,
        digest: None,
        retries: 0,
        id,
    };
    engine.submit(&job_json(kind, &job.id), tx);
    loop {
        let line = rx.recv().expect("the engine holds the reply channel");
        let now = monotonic_ns();
        let frame = Json::parse(&line).expect("engine frames are JSON");
        match frame.get("ev").and_then(Json::as_str).unwrap_or("") {
            "accepted" => job.accepted_ns = Some(now),
            "progress" => {
                job.first_progress_ns.get_or_insert(now);
            }
            "retrying" => job.retries += 1,
            ev @ ("done" | "failed" | "cancelled" | "rejected" | "error") => {
                job.terminal_ns = now;
                job.terminal = ev.to_string();
                job.residual = frame.get("residual").and_then(Json::as_f64);
                job.digest = frame.get("digest").and_then(Json::as_str).map(String::from);
                return job;
            }
            _ => {}
        }
    }
}

fn read_image(path: &Path) -> Option<Vec<f64>> {
    let bytes = std::fs::read(path).ok()?;
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks of 8")))
            .collect(),
    )
}

fn session(mix: &ServeMix, kinds: &[KindCtx], order: &[usize], tag: &str, dir: &Path) -> Session {
    let _ = std::fs::remove_dir_all(dir);
    let engine = Engine::open(ServeConfig {
        workers: mix.workers,
        queue_capacity: order.len(),
        ..ServeConfig::new(dir.to_path_buf())
    })
    .expect("open engine");
    let next = AtomicUsize::new(0);
    let mut jobs: Vec<JobTrace> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..mix.clients)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&kind) = order.get(i) else {
                            return mine;
                        };
                        mine.push(run_job(&engine, kind, format!("{tag}-j{i}-k{kind}")));
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    jobs.sort_by_key(|j| j.submit_ns);
    let first_submit_ns = jobs.first().map_or(0, |j| j.submit_ns);
    let last_terminal = jobs.iter().map(|j| j.terminal_ns).max().unwrap_or(0);
    let (cache_hits, cache_misses) = (engine.plan_cache_hits(), engine.plan_cache_misses());
    let image_errors = jobs
        .iter()
        .filter(|j| j.terminal == "done")
        .filter_map(|j| {
            let image = read_image(&engine.output_path(&j.id))?;
            Some(image_rel_error(&image, &kinds[j.kind].truth))
        })
        .collect();
    engine.drain(false);
    engine.join();
    let journal_bytes = std::fs::metadata(dir.join("serve.journal")).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(dir);
    Session {
        makespan_s: (last_terminal - first_submit_ns) as f64 * 1e-9,
        jobs,
        cache_hits,
        cache_misses,
        journal_bytes,
        image_errors,
    }
}

fn job_order(mix: &ServeMix, seed: u64, session_idx: u64) -> Vec<usize> {
    let cycle: Vec<usize> = (0..KINDS.len())
        .flat_map(|k| std::iter::repeat_n(k, KIND_SHARE[k]))
        .collect();
    let mut order: Vec<usize> = (0..mix.jobs_per_session)
        .map(|i| cycle[i % cycle.len()])
        .collect();
    Rng::new(seed ^ session_idx.wrapping_mul(0x5851_f42d_4c95_7f2d)).shuffle(&mut order);
    order
}

fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    (n > 0).then(|| sum / n as f64)
}

fn check_session(mix: &ServeMix, out: &mut PhaseResult, s: &Session) -> (f64, f64) {
    out.attempted += s.jobs.len() as u64;
    let not_done = s.jobs.iter().filter(|j| j.terminal != "done").count();
    out.failed += not_done as u64;
    out.check(
        "every job reached done",
        not_done == 0 && s.jobs.len() == mix.jobs_per_session,
        format!("{} of {} jobs not done", not_done, s.jobs.len()),
    );
    let identical = (0..KINDS.len()).all(|k| {
        let mut digests = s.jobs.iter().filter(|j| j.kind == k).map(|j| &j.digest);
        let first = digests.next();
        digests.all(|d| Some(d) == first)
    });
    out.check(
        "identical jobs produce identical digests",
        identical,
        format!("{} kinds", KINDS.len()),
    );
    out.check(
        "plan-cache misses do not exceed the distinct cached geometries",
        s.cache_misses <= CACHED_GEOMETRIES,
        format!("{} misses, {} hits", s.cache_misses, s.cache_hits),
    );
    let residual = mean(s.jobs.iter().filter_map(|j| j.residual)).unwrap_or(f64::NAN);
    let image_error = mean(s.image_errors.iter().copied()).unwrap_or(f64::NAN);
    for (name, got, reference) in [
        ("final_residual", residual, mix.ref_final_residual),
        ("image_error", image_error, mix.ref_image_error),
    ] {
        out.check(
            &format!("mean {name} matches the pinned reference"),
            (got / reference - 1.0).abs() <= REFERENCE_TOL,
            format!(
                "{got:.6} vs {reference:.6} (+-{:.0}%)",
                100.0 * REFERENCE_TOL
            ),
        );
    }
    (residual, image_error)
}

/// The `--trace 0` phase.
pub fn end_to_end(
    mix: &ServeMix,
    seed: u64,
    seconds: f64,
    min_reps: usize,
    scratch: &Path,
) -> PhaseResult {
    let mut out = PhaseResult::default();
    // `FFW_THREADS` sized the global pool the engine runs jobs on.
    let pool = Arc::clone(Pool::global_arc());
    let state = scratch.join("serve-state");
    // Set-up: open the service and build every kind's pipeline once, which
    // is what a cold service pays before its first job of each kind ends.
    let mut setup_s = Vec::new();
    let mut kinds = Vec::new();
    while setup_s.len() < SETUPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        drop(std::mem::take(&mut kinds));
        let _ = std::fs::remove_dir_all(&state);
        let sw = Stopwatch::start();
        let engine = Engine::open(ServeConfig::new(state.clone())).expect("open engine");
        kinds = build_kinds(&pool);
        setup_s.push(sw.elapsed_secs());
        engine.drain(false);
        engine.join();
    }
    forward_all(&kinds); // warm-up

    let (mut forward_s, mut sessions) = (Vec::new(), Vec::new());
    let (mut residuals, mut image_errors) = (Vec::new(), Vec::new());
    let sw = Stopwatch::start();
    while sessions.len() < min_reps || sw.elapsed_secs() < seconds {
        let idx = sessions.len() as u64;
        let fsw = Stopwatch::start();
        while fsw.elapsed_secs() < FORWARD_MIN_S {
            let sw = Stopwatch::start();
            forward_all(&kinds);
            forward_s.push(sw.elapsed_secs());
        }
        let s = session(
            mix,
            &kinds,
            &job_order(mix, seed, idx),
            &format!("s{idx}"),
            &state,
        );
        let (residual, image_error) = check_session(mix, &mut out, &s);
        residuals.push(residual);
        image_errors.push(image_error);
        sessions.push(s);
    }
    out.set_samples("setup_s", &setup_s);
    out.set_samples("forward_s", &forward_s);
    let makespans: Vec<f64> = sessions.iter().map(|s| s.makespan_s).collect();
    out.set_samples("recon_s", &makespans);
    out.set_samples("final_residual", &residuals);
    out.set_samples("image_error", &image_errors);
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
    let latencies: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.jobs.iter().map(JobTrace::latency_s))
        .collect();
    let rates: Vec<f64> = sessions
        .iter()
        .map(|s| s.jobs.len() as f64 / s.makespan_s)
        .collect();
    set_job_metrics(&mut out, &latencies, &rates);
    out
}

/// The `--trace 1` phase: probes, one untraced session, one session with the
/// recorder on.
pub fn traced(mix: &ServeMix, seed: u64, scratch: &Path, tracer: &mut Tracer) -> PhaseResult {
    let mut out = PhaseResult::default();
    let pool = Arc::clone(Pool::global_arc());
    let probe_spec = JobSpec::from_json(&job_json(0, "kind")).expect("pinned job spec is valid");
    workloads::setup_pieces(&mut out, &probe_spec.scene(), tracer);
    let (kinds, _) = tracer.scope("setup", |_| build_kinds(&pool));
    let primary = &kinds[0].stages[0].plan;
    let hostp = workloads::layer_probes(&mut out, primary, probe_spec.tx, seed, scratch, tracer);
    let state = scratch.join("serve-state");

    tracer.next_rep();
    let (plain, _) = tracer.scope("session.untraced", |_| {
        session(mix, &kinds, &job_order(mix, seed, 0), "u", &state)
    });
    check_session(mix, &mut out, &plain);

    ffw_obs::reset();
    ffw_obs::set_enabled(true);
    tracer.next_rep();
    let order = job_order(mix, seed, 0);
    let (s, _) = tracer.scope("session.traced", |t| {
        let s = session(mix, &kinds, &order, "t", &state);
        for j in &s.jobs {
            let job = t.leaf(
                &format!("serve.job.k{}", j.kind),
                j.submit_ns,
                j.terminal_ns,
            );
            let admitted = j.accepted_ns.unwrap_or(j.submit_ns);
            let started = j.first_progress_ns.unwrap_or(admitted);
            t.leaf_under(Some(job), "serve.admit", j.submit_ns, admitted);
            t.leaf_under(Some(job), "serve.queue_wait", admitted, started);
            t.leaf_under(Some(job), "serve.exec", started, j.terminal_ns);
        }
        s
    });
    ffw_obs::set_enabled(false);
    let obs = ObsRead::new(ffw_obs::snapshot());
    check_session(mix, &mut out, &s);

    // Busy time is summed over the workers, so its share is of worker time.
    let busy = obs.span_secs(|p| p.last() == Some(&"mlfma.apply"));
    let worker_s = s.makespan_s * mix.workers as f64;
    workloads::obs_layer_values(&mut out, &obs, &hostp, busy, worker_s);

    let ms = |pick: fn(&JobTrace) -> Option<(u64, u64)>| -> Option<f64> {
        let v: Vec<f64> = s
            .jobs
            .iter()
            .filter_map(pick)
            .map(|(a, b)| b.saturating_sub(a) as f64 * 1e-6)
            .collect();
        median(&v)
    };
    out.set(
        "serve.admit_ms_p50",
        ms(|j| Some((j.submit_ns, j.accepted_ns?))),
    );
    out.set(
        "serve.queue_wait_ms_p50",
        ms(|j| Some((j.accepted_ns?, j.first_progress_ns?))),
    );
    out.set(
        "serve.exec_ms_p50",
        ms(|j| Some((j.first_progress_ns?, j.terminal_ns))),
    );
    out.set("serve.plan_cache_hits", Some(s.cache_hits as f64));
    out.set("serve.plan_cache_misses", Some(s.cache_misses as f64));
    let failed = s.jobs.iter().filter(|j| j.terminal == "failed").count();
    out.set("serve.jobs_failed", Some(failed as f64));
    out.set(
        "serve.jobs_retried",
        Some(s.jobs.iter().map(|j| f64::from(j.retries)).sum()),
    );
    out.set("serve.journal_bytes", Some(s.journal_bytes as f64));
    out.set(
        "obs.trace_overhead_ratio",
        Some(s.makespan_s / plain.makespan_s),
    );
    out
}

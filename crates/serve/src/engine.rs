//! The job engine: admission, journaling, scheduling, execution, recovery.
//!
//! One engine owns a bounded pending queue, a fixed worker team, a plan
//! cache, a watchdog, and the journal. The durability contract:
//!
//! * a submit is acknowledged only *after* its `accepted` frame is fsynced;
//! * a terminal state is reported only after its frame is fsynced;
//! * on restart, every journaled job without a terminal frame is re-queued
//!   — and because the distributed driver checkpoints at every outer
//!   iteration boundary under `<dir>/job-<id>.ckpt`, a re-queued job that
//!   had started *resumes bit-identically* rather than recomputing.
//!
//! Degradation ladder: overload sheds with typed rejections (admission);
//! transient faults retry with exponential backoff from the checkpoint;
//! deadlines cancel cooperatively at the next iteration boundary; SIGTERM
//! drains (checkpoint in-flight work, stop, exit); SIGKILL is recovered by
//! the journal replay above.

use crate::admission::{AdmissionPolicy, RejectReason};
use crate::cache::PlanCache;
use crate::journal::{JobEvent, Journal, JournalError};
use crate::json::Json;
use crate::proto;
use crate::spec::JobSpec;
use crossbeam_channel::{unbounded, Receiver, Sender};
use ffw_check::{validate_job_log, JobTransition};
use ffw_dist::{FtConfig, IterProgress, JobControl};
use ffw_fault::{durable, fnv1a64, CheckpointError};
use ffw_inverse::DbimConfig;
use ffw_mpi::{FaultError, FaultPlan};
use ffw_par::Pool;
use ffw_tomo::{reconstruct, synthesize_noisy, HopPipeline, HopSchedule, Reconstruction};
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// State directory: journal, per-job checkpoints, output images.
    pub dir: PathBuf,
    /// Worker threads executing jobs (>= 1).
    pub workers: usize,
    /// Pending-queue capacity (admission sheds beyond it).
    pub queue_capacity: usize,
    /// Service-wide per-job FLOP ceiling for admission.
    pub flop_ceiling: f64,
    /// Transient-fault retries per job before failing it.
    pub max_retries: u32,
    /// Base retry backoff in milliseconds (doubles per attempt).
    pub retry_backoff_ms: u64,
    /// Distinct geometries kept in the plan cache.
    pub plan_cache_capacity: usize,
}

impl ServeConfig {
    /// Defaults for a small service rooted at `dir`.
    pub fn new(dir: PathBuf) -> Self {
        ServeConfig {
            dir,
            workers: 2,
            queue_capacity: 8,
            flop_ceiling: 1e16,
            max_retries: 2,
            retry_backoff_ms: 10,
            plan_cache_capacity: 8,
        }
    }
}

/// Lifecycle state of a known job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a worker.
    Queued,
    /// Executing.
    Running,
    /// Terminal: completed; output and digest journaled.
    Done,
    /// Terminal: failed with a stable code.
    Failed,
    /// Terminal: cancelled.
    Cancelled,
}

impl JobState {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    control: JobControl,
    progress_rx: Option<Receiver<IterProgress>>,
    reply: Option<Sender<String>>,
    attempt: u32,
    /// Absolute monotonic deadline (ns), set when the job starts running.
    deadline_ns: Option<u64>,
    cancel_requested: bool,
    deadline_hit: bool,
}

/// What `Engine::open` reconstructed from the journal.
#[derive(Clone, Debug, Default)]
pub struct RecoverySummary {
    /// Jobs re-queued because they had no terminal frame, in acceptance
    /// order. Jobs with an on-disk checkpoint resume bit-identically.
    pub requeued: Vec<String>,
    /// Jobs already terminal in the journal (not re-run).
    pub terminal: usize,
    /// Torn/corrupt journal tail bytes truncated during recovery.
    pub truncated_bytes: u64,
}

struct Inner {
    cfg: ServeConfig,
    policy: AdmissionPolicy,
    journal: Mutex<Journal>,
    cache: PlanCache,
    pool: Arc<Pool>,
    jobs: Mutex<HashMap<String, JobEntry>>,
    queue_tx: Mutex<Option<Sender<String>>>,
    queue_rx: Receiver<String>,
    queued: AtomicUsize,
    running: AtomicUsize,
    draining: AtomicBool,
    /// Fast drain (SIGTERM): workers stop *starting* queued jobs too.
    fast_drain: AtomicBool,
    stop_watchdog: AtomicBool,
}

/// A running job engine. Dropping it does not stop workers; call
/// [`Engine::drain`] then [`Engine::join`] for an orderly shutdown.
pub struct Engine {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// What this instance recovered at startup.
    pub recovery: RecoverySummary,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Engine {
    /// Opens the state directory, recovers the journal, re-queues every
    /// non-terminal job, and starts the worker team. Fails with a typed
    /// message when the journal is unusable or replays to an illegal job
    /// history.
    pub fn open(cfg: ServeConfig) -> Result<Engine, String> {
        fs::create_dir_all(&cfg.dir)
            .map_err(|e| format!("create state dir {}: {e}", cfg.dir.display()))?;
        let (journal, recovered) =
            Journal::open(&cfg.dir.join("serve.journal")).map_err(|e| e.to_string())?;

        // Validate the recovered history against the job state machine
        // before trusting it; checksummed frames can still be illegal as a
        // *sequence* (e.g. two service instances interleaved on one file).
        let log: Vec<(String, JobTransition)> = recovered
            .events
            .iter()
            .map(|e| {
                let t = match e {
                    JobEvent::Accepted { .. } => JobTransition::Accepted,
                    JobEvent::Started { .. } => JobTransition::Started,
                    JobEvent::Done { .. } => JobTransition::Done,
                    JobEvent::Failed { .. } => JobTransition::Failed,
                    JobEvent::Cancelled { .. } => JobTransition::Cancelled,
                };
                (e.id().to_string(), t)
            })
            .collect();
        let violations = validate_job_log(&log);
        if !violations.is_empty() {
            return Err(format!(
                "journal replays to an illegal job history ({} violation(s); first: {})",
                violations.len(),
                violations[0]
            ));
        }

        // Fold events into final per-job states, keeping acceptance order.
        let mut order: Vec<String> = Vec::new();
        let mut specs: HashMap<String, JobSpec> = HashMap::new();
        let mut terminal: HashMap<String, JobState> = HashMap::new();
        let mut attempts: HashMap<String, u32> = HashMap::new();
        for e in &recovered.events {
            match e {
                JobEvent::Accepted { id, spec } => {
                    order.push(id.clone());
                    specs.insert(id.clone(), (**spec).clone());
                }
                JobEvent::Started { id, attempt } => {
                    attempts.insert(id.clone(), *attempt);
                }
                JobEvent::Done { id, .. } => {
                    terminal.insert(id.clone(), JobState::Done);
                }
                JobEvent::Failed { id, .. } => {
                    terminal.insert(id.clone(), JobState::Failed);
                }
                JobEvent::Cancelled { id, .. } => {
                    terminal.insert(id.clone(), JobState::Cancelled);
                }
            }
        }

        remove_stale_checkpoints(&cfg.dir, &specs, &terminal);

        let (queue_tx, queue_rx) = unbounded::<String>();
        let inner = Arc::new(Inner {
            policy: AdmissionPolicy {
                queue_capacity: cfg.queue_capacity,
                flop_ceiling: cfg.flop_ceiling,
            },
            cache: PlanCache::new(cfg.plan_cache_capacity),
            pool: Arc::clone(Pool::global_arc()),
            journal: Mutex::new(journal),
            jobs: Mutex::new(HashMap::new()),
            queue_tx: Mutex::new(Some(queue_tx)),
            queue_rx,
            queued: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            fast_drain: AtomicBool::new(false),
            stop_watchdog: AtomicBool::new(false),
            cfg,
        });

        let mut summary = RecoverySummary {
            truncated_bytes: recovered.truncated_bytes,
            terminal: terminal.len(),
            ..Default::default()
        };
        {
            let mut jobs = lock(&inner.jobs);
            let tx_guard = lock(&inner.queue_tx);
            for id in order {
                let spec = match specs.get(&id) {
                    Some(s) => s.clone(),
                    None => continue,
                };
                let state = terminal.get(&id).copied().unwrap_or(JobState::Queued);
                jobs.insert(
                    id.clone(),
                    JobEntry {
                        spec,
                        state,
                        control: JobControl::new(),
                        progress_rx: None,
                        reply: None,
                        attempt: attempts.get(&id).copied().unwrap_or(0),
                        deadline_ns: None,
                        cancel_requested: false,
                        deadline_hit: false,
                    },
                );
                if state == JobState::Queued {
                    if let Some(tx) = tx_guard.as_ref() {
                        let _ = tx.send(id.clone());
                    }
                    inner.queued.fetch_add(1, Ordering::Relaxed);
                    summary.requeued.push(id);
                }
            }
        }
        ffw_obs::event(
            "serve.recovered",
            &format!(
                "requeued {} job(s), {} terminal, {} torn bytes truncated",
                summary.requeued.len(),
                summary.terminal,
                summary.truncated_bytes
            ),
        );

        let mut threads = Vec::new();
        for i in 0..inner.cfg.workers.max(1) {
            let inner = Arc::clone(&inner);
            #[expect(
                clippy::disallowed_methods,
                reason = "long-lived service workers, not data parallelism; each job inside runs on the shared ffw-par pool"
            )]
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ffw-serve-worker-{i}"))
                    .spawn(move || {
                        while let Ok(id) = inner.queue_rx.recv() {
                            inner.queued.fetch_sub(1, Ordering::Relaxed);
                            run_job(&inner, &id);
                        }
                    })
                    .map_err(|e| format!("spawn worker: {e}"))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            #[expect(
                clippy::disallowed_methods,
                reason = "the deadline/progress watchdog must run even while every worker is blocked inside a solve"
            )]
            threads.push(
                std::thread::Builder::new()
                    .name("ffw-serve-watchdog".into())
                    .spawn(move || watchdog(&inner))
                    .map_err(|e| format!("spawn watchdog: {e}"))?,
            );
        }

        Ok(Engine {
            inner,
            threads: Mutex::new(threads),
            recovery: summary,
        })
    }

    /// Handles a submit: validates, admits, journals, queues. Every outcome
    /// is reported as one response line on `reply`.
    pub fn submit(&self, job: &Json, reply: Sender<String>) {
        let id_hint = job
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let spec = match JobSpec::from_json(job) {
            Ok(s) => s,
            Err(detail) => {
                ffw_obs::counter("serve.jobs.rejected").inc();
                let _ = reply.send(proto::rejected(
                    &id_hint,
                    &RejectReason::InvalidSpec(detail),
                ));
                return;
            }
        };
        let inner = &self.inner;
        {
            let mut jobs = lock(&inner.jobs);
            let verdict = inner.policy.admit(
                &spec,
                inner.queued.load(Ordering::Relaxed),
                inner.draining.load(Ordering::Acquire),
                jobs.contains_key(&spec.id),
            );
            if let Err(reason) = verdict {
                drop(jobs);
                ffw_obs::counter("serve.jobs.rejected").inc();
                let _ = reply.send(proto::rejected(&spec.id, &reason));
                return;
            }
            jobs.insert(
                spec.id.clone(),
                JobEntry {
                    spec: spec.clone(),
                    state: JobState::Queued,
                    control: JobControl::new(),
                    progress_rx: None,
                    reply: Some(reply.clone()),
                    attempt: 0,
                    deadline_ns: None,
                    cancel_requested: false,
                    deadline_hit: false,
                },
            );
            inner.queued.fetch_add(1, Ordering::Relaxed);
        }
        // Durability before acknowledgement: the accepted frame must be on
        // disk before the client hears "accepted".
        if let Err(e) = append_event(
            inner,
            &JobEvent::Accepted {
                id: spec.id.clone(),
                spec: Box::new(spec.clone()),
            },
        ) {
            let mut jobs = lock(&inner.jobs);
            jobs.remove(&spec.id);
            inner.queued.fetch_sub(1, Ordering::Relaxed);
            drop(jobs);
            let _ = reply.send(proto::error(&format!("journal append failed: {e}")));
            return;
        }
        let sent = {
            let tx_guard = lock(&inner.queue_tx);
            match tx_guard.as_ref() {
                Some(tx) => tx.send(spec.id.clone()).is_ok(),
                None => false,
            }
        };
        if !sent {
            // Raced with drain after the admission check; the journal keeps
            // the job, and the next service start will run it.
            let _ = reply.send(proto::rejected(&spec.id, &RejectReason::Draining));
            return;
        }
        ffw_obs::counter("serve.jobs.accepted").inc();
        let _ = reply.send(proto::accepted(&spec.id));
    }

    /// Handles a cancel request.
    pub fn cancel(&self, id: &str, reply: &Sender<String>) {
        let inner = &self.inner;
        let queued_cancel = {
            let mut jobs = lock(&inner.jobs);
            match jobs.get_mut(id) {
                None => {
                    let _ = reply.send(proto::error(&format!("unknown job '{id}'")));
                    return;
                }
                Some(entry) => match entry.state {
                    JobState::Queued => {
                        entry.cancel_requested = true;
                        entry.state = JobState::Cancelled;
                        true
                    }
                    JobState::Running => {
                        entry.cancel_requested = true;
                        entry.control.stop();
                        let _ = reply.send(proto::cancelling(id));
                        false
                    }
                    terminal => {
                        let _ = reply.send(proto::error(&format!(
                            "job '{id}' is already {}",
                            terminal.as_str()
                        )));
                        return;
                    }
                },
            }
        };
        if queued_cancel {
            let _ = append_event(
                inner,
                &JobEvent::Cancelled {
                    id: id.into(),
                    next_iter: 0,
                },
            );
            // A job re-queued by recovery may have a checkpoint.
            remove_checkpoint(inner, id);
            ffw_obs::counter("serve.jobs.cancelled").inc();
            let _ = reply.send(proto::cancelled(id, 0));
        }
    }

    /// Handles a status request.
    pub fn status(&self, reply: &Sender<String>) {
        let inner = &self.inner;
        let jobs = lock(&inner.jobs);
        let mut listed: Vec<(String, &'static str)> = jobs
            .iter()
            .map(|(id, e)| (id.clone(), e.state.as_str()))
            .collect();
        listed.sort();
        let line = proto::status(
            inner.queued.load(Ordering::Relaxed),
            inner.running.load(Ordering::Relaxed),
            listed,
        );
        drop(jobs);
        let _ = reply.send(line);
    }

    /// Enters draining mode: no new admissions. With `stop_running`, also
    /// asks every in-flight job to stop at its next checkpoint boundary and
    /// prevents queued jobs from starting — they stay journaled as accepted
    /// and run on the next service start (the SIGTERM path). Without it,
    /// queued and running jobs finish normally (the `drain` op).
    pub fn drain(&self, stop_running: bool) {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::Release);
        if stop_running {
            inner.fast_drain.store(true, Ordering::Release);
            let jobs = lock(&inner.jobs);
            for entry in jobs.values() {
                if entry.state == JobState::Running {
                    entry.control.stop();
                }
            }
        }
        // Close the queue: workers exit once the remaining items are done.
        let mut tx_guard = lock(&inner.queue_tx);
        *tx_guard = None;
    }

    /// Waits for every worker (and the watchdog) to finish. Call after
    /// [`Engine::drain`].
    pub fn join(&self) {
        let mut threads = lock(&self.threads);
        // Workers exit when the queue closes; close it if drain was skipped.
        {
            let mut tx_guard = lock(&self.inner.queue_tx);
            *tx_guard = None;
        }
        let workers: Vec<_> = threads.drain(..).collect();
        drop(threads);
        // The watchdog must keep pumping progress until workers are done,
        // so stop it only after the workers joined. Worker panics are
        // surfaced, not swallowed.
        let n = workers.len();
        for (i, handle) in workers.into_iter().enumerate() {
            let is_watchdog = i + 1 == n;
            if is_watchdog {
                self.inner.stop_watchdog.store(true, Ordering::Release);
            }
            if let Err(panic) = handle.join() {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".into());
                ffw_obs::event("serve.thread_panic", &msg);
            }
        }
    }

    /// Drops every per-job reply sender. A session's writer thread exits
    /// when its channel disconnects, and job entries each hold a sender
    /// clone — call this after [`Engine::join`] (all terminal events are
    /// already queued by then) so the writer can drain and finish.
    pub fn release_replies(&self) {
        let mut jobs = lock(&self.inner.jobs);
        for e in jobs.values_mut() {
            e.reply = None;
        }
    }

    /// True once no queued or running work remains.
    pub fn idle(&self) -> bool {
        self.inner.queued.load(Ordering::Relaxed) == 0
            && self.inner.running.load(Ordering::Relaxed) == 0
    }

    /// Plan-cache hit count (for benches and tests).
    pub fn plan_cache_hits(&self) -> u64 {
        self.inner.cache.hits()
    }

    /// Plan-cache miss count.
    pub fn plan_cache_misses(&self) -> u64 {
        self.inner.cache.misses()
    }

    /// The state of a job, if known.
    pub fn job_state(&self, id: &str) -> Option<JobState> {
        lock(&self.inner.jobs).get(id).map(|e| e.state)
    }

    /// The output path a completed job's image was written to.
    pub fn output_path(&self, id: &str) -> PathBuf {
        self.inner.cfg.dir.join(format!("{id}.out"))
    }
}

fn append_event(inner: &Inner, event: &JobEvent) -> Result<(), JournalError> {
    lock(&inner.journal).append(event)
}

fn reply_line(inner: &Inner, id: &str, line: String) {
    let jobs = lock(&inner.jobs);
    if let Some(tx) = jobs.get(id).and_then(|e| e.reply.as_ref()) {
        let _ = tx.send(line);
    }
}

/// The watchdog: pumps per-iteration progress out to clients and enforces
/// wall-clock deadlines by raising the cooperative stop flag. Polling (a
/// few ms) is deliberate — the vendored channel has no `recv_timeout`, and
/// the granularity only bounds how late a deadline fires, not correctness.
fn watchdog(inner: &Inner) {
    loop {
        if inner.stop_watchdog.load(Ordering::Acquire) {
            return;
        }
        let now = ffw_obs::monotonic_ns();
        {
            let mut jobs = lock(&inner.jobs);
            for (id, entry) in jobs.iter_mut() {
                if entry.state != JobState::Running {
                    continue;
                }
                if let (Some(deadline), false) = (entry.deadline_ns, entry.deadline_hit) {
                    if now >= deadline {
                        entry.deadline_hit = true;
                        entry.control.stop();
                        ffw_obs::counter("serve.jobs.deadline_stops").inc();
                    }
                }
                forward_progress(id, entry);
            }
            ffw_obs::gauge("serve.queue_depth").set(inner.queued.load(Ordering::Relaxed) as f64);
            ffw_obs::gauge("serve.running").set(inner.running.load(Ordering::Relaxed) as f64);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Classifies a driver error as transient (worth a backoff + resume retry)
/// or terminal. Detected compute corruption is explicitly transient: the
/// ABFT checksum caught a bit flip whose recovery budget ran out *within
/// one attempt*, and a fresh attempt resumes from the last good checkpoint
/// on hardware that will almost certainly not flip the same bit again.
fn should_retry(err: &FaultError) -> bool {
    !matches!(
        err,
        FaultError::KrylovBreakdown { .. } | FaultError::Unrecoverable { .. }
    )
}

/// Stable failure code for a terminal driver error (mirrors the
/// `ffw-reconstruct` exit codes 3 and 4).
fn failure_code(err: &FaultError) -> &'static str {
    match err {
        FaultError::KrylovBreakdown { .. } => "breakdown",
        FaultError::Unrecoverable { .. } => "budget-exhausted",
        // Persistent SDC that survived every serve-level retry: name it so
        // operators can tell a sick node from a generic fault.
        FaultError::ComputeCorruption { .. } => "compute-corruption",
        _ => "fault",
    }
}

fn run_job(inner: &Inner, id: &str) {
    // Claim the job; skip if it was cancelled while queued or the service
    // is fast-draining (it stays journaled as accepted for the next start).
    let (spec, control) = {
        let mut jobs = lock(&inner.jobs);
        let entry = match jobs.get_mut(id) {
            Some(e) => e,
            None => return,
        };
        if entry.state != JobState::Queued {
            return;
        }
        if inner.fast_drain.load(Ordering::Acquire) {
            return;
        }
        let (ptx, prx) = unbounded::<IterProgress>();
        let control = JobControl::new().with_shutdown().with_progress(ptx);
        entry.state = JobState::Running;
        entry.attempt += 1;
        entry.control = control.clone();
        entry.progress_rx = Some(prx);
        entry.deadline_ns = entry
            .spec
            .deadline_ms
            .map(|ms| ffw_obs::monotonic_ns() + ms.saturating_mul(1_000_000));
        (entry.spec.clone(), control)
    };
    inner.running.fetch_add(1, Ordering::Relaxed);
    let attempt0 = {
        let jobs = lock(&inner.jobs);
        jobs.get(id).map(|e| e.attempt).unwrap_or(1)
    };
    let _ = append_event(
        inner,
        &JobEvent::Started {
            id: id.into(),
            attempt: attempt0,
        },
    );

    let mut attempt = attempt0;
    let outcome = loop {
        match execute(inner, &spec, control.clone()) {
            Ok(done) => break Ok(done),
            Err(err) if should_retry(&err) && attempt < attempt0 + inner.cfg.max_retries => {
                attempt += 1;
                ffw_obs::counter("serve.jobs.retries").inc();
                reply_line(inner, id, proto::retrying(id, attempt));
                let backoff = inner
                    .cfg
                    .retry_backoff_ms
                    .saturating_mul(1u64 << (attempt - attempt0 - 1).min(16));
                std::thread::sleep(Duration::from_millis(backoff));
                let _ = append_event(
                    inner,
                    &JobEvent::Started {
                        id: id.into(),
                        attempt,
                    },
                );
                {
                    let mut jobs = lock(&inner.jobs);
                    if let Some(e) = jobs.get_mut(id) {
                        e.attempt = attempt;
                    }
                }
            }
            Err(err) => break Err(err),
        }
    };

    match outcome {
        Ok(Executed::Interrupted(completed)) => finish_interrupted(inner, id, completed),
        Ok(Executed::Done { residual, image }) => finish_done(inner, id, residual, &image),
        Err(err) => {
            let code = failure_code(&err);
            let detail = err.to_string();
            set_state(inner, id, JobState::Failed);
            let _ = append_event(
                inner,
                &JobEvent::Failed {
                    id: id.into(),
                    code: code.into(),
                    detail: detail.clone(),
                },
            );
            remove_checkpoint(inner, id);
            ffw_obs::counter("serve.jobs.failed").inc();
            reply_line(inner, id, proto::failed(id, code, &detail));
        }
    }
    inner.running.fetch_sub(1, Ordering::Relaxed);
}

/// An interrupted run stopped at a checkpoint boundary. Why it stopped
/// decides the terminal state: client cancel -> `cancelled`; deadline ->
/// `failed(deadline-exceeded)`; drain/SIGTERM -> *no* terminal frame, the
/// job reverts to queued so the next service start resumes it.
fn finish_interrupted(inner: &Inner, id: &str, completed: u32) {
    let (cancelled, deadline) = {
        let jobs = lock(&inner.jobs);
        jobs.get(id)
            .map(|e| (e.cancel_requested, e.deadline_hit))
            .unwrap_or((false, false))
    };
    if cancelled {
        set_state(inner, id, JobState::Cancelled);
        let _ = append_event(
            inner,
            &JobEvent::Cancelled {
                id: id.into(),
                next_iter: completed,
            },
        );
        remove_checkpoint(inner, id);
        ffw_obs::counter("serve.jobs.cancelled").inc();
        reply_line(inner, id, proto::cancelled(id, completed));
    } else if deadline {
        set_state(inner, id, JobState::Failed);
        let detail = format!("deadline exceeded after {completed} outer iteration(s)");
        let _ = append_event(
            inner,
            &JobEvent::Failed {
                id: id.into(),
                code: "deadline-exceeded".into(),
                detail: detail.clone(),
            },
        );
        remove_checkpoint(inner, id);
        ffw_obs::counter("serve.jobs.failed").inc();
        reply_line(inner, id, proto::failed(id, "deadline-exceeded", &detail));
    } else {
        // Drain or process shutdown: checkpoint flushed, nothing journaled,
        // the accepted frame re-queues this job on the next start.
        set_state(inner, id, JobState::Queued);
        ffw_obs::event("serve.job_parked", id);
    }
}

fn finish_done(inner: &Inner, id: &str, residual: f64, image: &[f64]) {
    match write_output(inner, id, image) {
        Ok(digest) => {
            set_state(inner, id, JobState::Done);
            let _ = append_event(
                inner,
                &JobEvent::Done {
                    id: id.into(),
                    residual,
                    digest,
                },
            );
            ffw_obs::counter("serve.jobs.completed").inc();
            remove_checkpoint(inner, id);
            let out = inner.cfg.dir.join(format!("{id}.out"));
            reply_line(
                inner,
                id,
                proto::done(id, residual, digest, &out.display().to_string()),
            );
        }
        Err(e) => {
            set_state(inner, id, JobState::Failed);
            let detail = format!("writing output: {e}");
            let _ = append_event(
                inner,
                &JobEvent::Failed {
                    id: id.into(),
                    code: "io".into(),
                    detail: detail.clone(),
                },
            );
            remove_checkpoint(inner, id);
            reply_line(inner, id, proto::failed(id, "io", &detail));
        }
    }
}

fn checkpoint_path(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("job-{id}.ckpt"))
}

/// A terminal job's checkpoint is no longer needed once its terminal frame
/// is journaled. Its pending durability work is cancelled first, so no late
/// rename brings the file back.
fn remove_checkpoint(inner: &Inner, id: &str) {
    let path = checkpoint_path(&inner.cfg.dir, id);
    durable::cancel(&path);
    let _ = fs::remove_file(&path);
}

/// What a crash can leave next to the journal: the checkpoint of a job that
/// reached its terminal frame before the file was removed, and tmp files
/// (`job-<id>.ckpt.tmp.<seq>`) no live writer will rename. Both go.
fn remove_stale_checkpoints(
    dir: &Path,
    journaled: &HashMap<String, JobSpec>,
    terminal: &HashMap<String, JobState>,
) {
    for id in terminal.keys() {
        let _ = fs::remove_file(checkpoint_path(dir, id));
    }
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(id) = name
            .to_str()
            .and_then(|n| n.strip_prefix("job-"))
            .and_then(|n| n.rsplit_once(".ckpt.tmp."))
            .map(|(id, _)| id)
        else {
            continue;
        };
        if journaled.contains_key(id) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Sends the progress events waiting in `entry`'s channel to its client.
/// Callers hold the jobs lock, so the watchdog and a state change cannot
/// interleave their lines (the reply channel is unbounded: no blocking).
fn forward_progress(id: &str, entry: &JobEntry) {
    if let (Some(rx), Some(reply)) = (&entry.progress_rx, &entry.reply) {
        while let Ok(p) = rx.try_recv() {
            let _ = reply.send(proto::progress(id, p.completed, p.residual));
        }
    }
}

/// Leaves the running state. The run has returned, and with it every
/// boundary's progress event (a run flushes its checkpoint before it
/// returns, and the flush waits for the event); those the watchdog has not
/// forwarded yet go out now, ahead of the terminal line the caller sends.
fn set_state(inner: &Inner, id: &str, state: JobState) {
    let mut jobs = lock(&inner.jobs);
    if let Some(e) = jobs.get_mut(id) {
        forward_progress(id, e);
        e.state = state;
        e.progress_rx = None;
    }
}

/// What one attempt of a job came to.
enum Executed {
    /// Finished: the final relative residual and the contrast raster.
    Done { residual: f64, image: Vec<f64> },
    /// Stopped at a checkpoint boundary with this many units complete
    /// (outer iterations; hop stages for a schedule).
    Interrupted(u32),
}

/// The pipelines of a job, one per stage of its schedule. The plan cache
/// holds scene-frequency `Reconstruction`s keyed by geometry, which is what
/// a one-stage schedule runs on; a longer schedule builds its stages fresh
/// on the shared pool each attempt.
fn stages_of(inner: &Inner, spec: &JobSpec, schedule: &HopSchedule) -> Vec<Arc<Reconstruction>> {
    let scene = spec.scene();
    if schedule.len() == 1 {
        return vec![inner.cache.get_or_build(spec.geometry_fingerprint(), || {
            Arc::new(Reconstruction::with_pool(&scene, Arc::clone(&inner.pool)))
        })];
    }
    HopPipeline::with_pool(&scene, schedule, Arc::clone(&inner.pool))
        .stages
        .into_iter()
        .map(Arc::new)
        .collect()
}

/// Runs one attempt of a job through the one front door
/// ([`ffw_tomo::reconstruct`]): a hop schedule — `"1.0"` for a
/// single-frequency job — on the spec's `groups x subtree` grid, where 1 x 1
/// is the serial context on the cached pipeline's own engine (no rank
/// launch). Setup is deterministic in the spec, so a resumed attempt
/// reproduces the exact run the checkpoint fingerprints. Every job
/// checkpoints under `job-<id>.ckpt` (outer-iteration boundaries; hop
/// boundaries for a schedule), so drain/SIGTERM parking, retries and
/// journal-replay recovery resume it bit-identically.
fn execute(inner: &Inner, spec: &JobSpec, control: JobControl) -> Result<Executed, FaultError> {
    let scene = spec.scene();
    let schedule = spec.schedule();
    let stages = stages_of(inner, spec, &schedule);
    let last = stages.last().expect("schedules are never empty");
    let phantom = spec.build_phantom(last.domain().side());
    let measured = synthesize_noisy(&stages, phantom.as_ref(), spec.noise_db);
    let ckpt = checkpoint_path(&inner.cfg.dir, &spec.id);
    let resume = ckpt.exists();
    let ranks = spec.groups * spec.subtree;
    let ft = FtConfig {
        dbim: DbimConfig {
            iterations: spec.iterations,
            regularizer: spec.regularizer,
            ..Default::default()
        },
        checkpoint: Some(ckpt.clone()),
        resume,
        max_restarts: spec.max_restarts,
        min_groups: spec.min_groups,
        // Injected faults apply to the first fresh launch only; a resumed
        // attempt must run clean or it could never make progress. Seeded
        // plans need >= 2 ranks; a single-rank job ignores the seed rather
        // than panicking.
        fault_plan: spec
            .chaos_seed
            .filter(|_| !resume && ranks >= 2)
            .map(|s| FaultPlan::seeded(s, ranks)),
        control: Some(control.clone()),
        ..FtConfig::new(spec.groups, spec.subtree)
    };
    let stop = || control.stop_requested();
    let run = |ft: &FtConfig| reconstruct(&scene, &schedule, &stages, &measured, ft, Some(&stop));
    let result = match run(&ft) {
        // The checkpoint is the service's own, written for this job id: a
        // fingerprint that no longer matches means the build that wrote it
        // computed another trajectory (the fingerprint folds the solver's
        // fixed tolerances too), and another format version means an older
        // build wrote it. Its state is not a state of this run, so the job
        // starts over rather than failing every retry on it.
        Err(FaultError::Checkpoint(
            e @ (CheckpointError::FingerprintMismatch { .. } | CheckpointError::Version { .. }),
        )) if resume => {
            ffw_obs::event("serve.checkpoint_refused", &format!("{}: {e}", spec.id));
            durable::cancel(&ckpt);
            let _ = fs::remove_file(&ckpt);
            run(&FtConfig {
                resume: false,
                ..ft
            })
        }
        result => result,
    }?;
    Ok(match result.interrupted {
        Some(completed) => Executed::Interrupted(completed),
        None => Executed::Done {
            residual: result.stages.last().map_or(f64::NAN, |s| s.final_residual),
            image: last.image(&result.object),
        },
    })
}

/// Writes the reconstructed image as little-endian `f64`s, atomically
/// (tmp + rename + dir fsync, like the checkpoint writer), and returns the
/// FNV-1a 64 digest of the bytes — the value journaled and reported, and
/// the value the chaos tests compare for bit-identity.
fn write_output(inner: &Inner, id: &str, image: &[f64]) -> Result<u64, String> {
    let path = inner.cfg.dir.join(format!("{id}.out"));
    let mut bytes = Vec::with_capacity(image.len() * 8);
    for v in image {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let digest = fnv1a64(&bytes);
    let tmp = path.with_extension("out.tmp");
    let io = |what: &str, e: std::io::Error| format!("{what} {}: {e}", tmp.display());
    let mut f = fs::File::create(&tmp).map_err(|e| io("create", e))?;
    f.write_all(&bytes).map_err(|e| io("write", e))?;
    f.sync_all().map_err(|e| io("sync", e))?;
    drop(f);
    fs::rename(&tmp, &path).map_err(|e| format!("rename to {}: {e}", path.display()))?;
    let dir = fs::File::open(&inner.cfg.dir)
        .map_err(|e| format!("open dir {}: {e}", inner.cfg.dir.display()))?;
    dir.sync_all()
        .map_err(|e| format!("sync dir {}: {e}", inner.cfg.dir.display()))?;
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_classification_matches_error_taxonomy() {
        assert!(should_retry(&FaultError::SendLost {
            rank: 0,
            dst: 1,
            tag: 7,
            attempts: 3
        }));
        assert!(should_retry(&FaultError::PeerDead {
            rank: 0,
            peer: 1,
            detail: String::new(),
        }));
        assert!(!should_retry(&FaultError::KrylovBreakdown {
            rank: 0,
            iterations: 5,
            rel_residual: 1.0,
            detail: "x".into(),
        }));
        assert!(!should_retry(&FaultError::Unrecoverable {
            detail: "x".into()
        }));
        assert_eq!(
            failure_code(&FaultError::Unrecoverable { detail: "x".into() }),
            "budget-exhausted"
        );
    }

    /// Detected silent data corruption is transient by classification — a
    /// retry resumes on (almost certainly) healthy hardware — and carries
    /// its own failure code if it somehow persists through every retry.
    #[test]
    fn compute_corruption_is_retryable_with_its_own_terminal_code() {
        let err = FaultError::ComputeCorruption {
            rank: 2,
            stage: "dist.apply_block".into(),
            panel: 7,
            attempts: 1,
        };
        assert!(should_retry(&err));
        assert_eq!(failure_code(&err), "compute-corruption");
    }
}

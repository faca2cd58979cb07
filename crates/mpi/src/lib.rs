//! # ffw-mpi
//!
//! An in-process message-passing runtime standing in for MPI in the paper's
//! two-dimensional parallelization (Section IV). Ranks are OS threads of one
//! process; each directed rank pair has a tag-matched mailbox. Every message
//! is accounted per edge (count + bytes), so the distributed solver can
//! report exactly the communication volumes the performance model consumes,
//! and ablations can show the effect of the paper's buffer-aggregation
//! optimization (Section IV-B).
//!
//! The runtime is point-to-point only, and every call is fallible:
//! * [`Comm::send_checked`] is buffered and non-blocking (like `MPI_Isend` +
//!   eager protocol);
//! * [`Comm::recv_checked`] blocks until a message with the given source and
//!   tag arrives, with out-of-order messages held back per (source, tag);
//! * the `_laned` forms carry an ABFT checksum lane next to the payload.
//!
//! The three kinds of rank traffic the solver needs are built on these in
//! `ffw-dist`: boundary exchanges, the sum-allreduce over a member list
//! (`ffw_dist::try_allreduce_scalars`) and the checkpoint gather.
//!
//! ## What can fail
//!
//! The wire is a mutex-guarded queue: it cannot drop, delay or flip a
//! message, so there is no transport check and no retransmit. What can go
//! wrong is what a thread can do:
//! * **a rank ends early.** It returns (on a typed error, say) or panics
//!   while a peer still waits on it. The launch marks it
//!   [`ffw_check::WaitState::Finished`] or `Panicked` and wakes every
//!   receive waiting on it, and that receive returns
//!   [`ffw_fault::FaultError::PeerDead`] at once. [`run`] re-raises the
//!   lowest-ranked panic after every rank has stopped;
//! * **a rank computed a wrong value.** A laned receive whose payload
//!   disagrees with its checksum lane returns
//!   [`ffw_fault::FaultError::ComputeCorruption`] naming the sender;
//! * **the ranks deadlock.** That is a protocol bug, diagnosed below.
//!
//! ## Verification (ffw-check integration)
//!
//! The runtime is self-checking, in two tiers:
//!
//! * **Deadlock watchdog.** Every rank publishes what it is blocked on (a
//!   [`ffw_check::WaitState`]) in a shared registry. Blocking waits use a
//!   timeout (`FFW_DEADLOCK_TIMEOUT_MS`, default 1000 ms); on timeout the
//!   waiter snapshots the registry, reconstructs the global wait-for graph
//!   with [`ffw_check::diagnose_deadlock`], confirms a cycle against a
//!   second snapshot, and panics with a readable report naming every rank and
//!   the cycle. Only *definite* deadlocks are reported — a slow peer never
//!   trips the watchdog.
//! * **Post-run trace validation.** Each rank records a low-overhead
//!   [`ffw_check::Event`] trace of its sends, receives and fault events.
//!   When [`run`] exits normally, the traces plus any undelivered messages
//!   are handed to [`ffw_check::validate_traces`]; message leaks, self-sends
//!   and an unescalated compute corruption fail the run with a report.
//!
//! [`Runtime`] is the builder behind [`run`]: it adds a programmatic
//! deadlock-timeout knob and accepts a seeded [`ffw_fault::FaultPlan`] of
//! compute corruption, which the verified operators and the sum-allreduce of
//! `ffw-dist` consult through [`Comm::compute_fault`] and
//! [`Comm::reduce_fault`].
//!
//! Watchdog timeout precedence: the `FFW_DEADLOCK_TIMEOUT_MS` environment
//! variable (if set) overrides [`Runtime::deadlock_timeout`], which
//! overrides the 1000 ms default.

// The fault-tolerant path: a failure is a typed `FaultError`, never an
// unwrap panic (tests may unwrap; see the root clippy.toml).
#![deny(clippy::unwrap_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "the scoped rank threads are the message-passing runtime's own"
)]

use ffw_check::trace::{render_report, Event, LeakedMessage};
use ffw_check::waitgraph::WaitState;
use ffw_check::{diagnose_deadlock, validate_traces, validate_traces_faulty, DeadlockReport};
use ffw_fault::{abft_verify_c64, ActiveFaults};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use ffw_check::trace::FaultEvent;
pub use ffw_fault::{ComputeFault, FaultError, FaultPlan};

/// Relative tolerance for ABFT checksum-lane verification: legitimate
/// floating-point reassociation moves an element sum by ~1e-16 of its norm,
/// while a flipped payload bit moves it by many orders of magnitude more.
const ABFT_TOL: f64 = 1e-9;

/// Message payloads: every rank exchange (boundary fields, reduction
/// vectors, checkpoint slices) moves complex doubles as `(re, im)` pairs.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Complex doubles as `(re, im)` pairs.
    C64(Vec<(f64, f64)>),
}

impl Payload {
    /// Payload size in bytes (as it would travel on a wire).
    pub fn n_bytes(&self) -> u64 {
        let Payload::C64(v) = self;
        16 * v.len() as u64
    }

    /// Unwraps the complex payload.
    pub fn into_c64(self) -> Vec<(f64, f64)> {
        let Payload::C64(v) = self;
        v
    }
}

/// A message as it sits in a mailbox: the payload plus an optional ABFT
/// lane. The lane is metadata, not payload — `CommStats` counts payload
/// bytes only.
struct Msg {
    tag: u32,
    /// ABFT checksum lane (element sum) for reduction payloads.
    lane: Option<(f64, f64)>,
    payload: Payload,
}

struct Mailbox {
    queue: Mutex<VecDeque<Msg>>,
    cond: Condvar,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
        }
    }

    fn push(&self, msg: Msg) {
        let mut q = self.queue.lock();
        q.push_back(msg);
        self.cond.notify_all();
    }

    fn try_pop_matching(&self, tag: u32) -> Option<Msg> {
        let mut q = self.queue.lock();
        q.iter()
            .position(|m| m.tag == tag)
            .map(|pos| q.remove(pos).expect("position valid"))
    }

    fn has_matching(&self, tag: u32) -> bool {
        self.queue.lock().iter().any(|m| m.tag == tag)
    }
}

/// Per-edge communication counters.
#[derive(Debug)]
pub struct CommStats {
    size: usize,
    /// messages[src * size + dst]
    messages: Vec<AtomicU64>,
    bytes: Vec<AtomicU64>,
}

impl CommStats {
    fn new(size: usize) -> Self {
        CommStats {
            size,
            messages: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            bytes: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, src: usize, dst: usize, n_bytes: u64) {
        let idx = src * self.size + dst;
        self.messages[idx].fetch_add(1, Ordering::Relaxed);
        self.bytes[idx].fetch_add(n_bytes, Ordering::Relaxed);
    }

    /// Total messages sent (all edges).
    pub fn total_messages(&self) -> u64 {
        self.messages
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    /// Total bytes sent (all edges).
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Messages sent on the directed edge `src -> dst`.
    pub fn edge_messages(&self, src: usize, dst: usize) -> u64 {
        self.messages[src * self.size + dst].load(Ordering::Relaxed)
    }

    /// Bytes sent on the directed edge `src -> dst`.
    pub fn edge_bytes(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.size + dst].load(Ordering::Relaxed)
    }

    /// Number of ranks the stats matrix covers.
    pub fn n_ranks(&self) -> usize {
        self.size
    }

    /// Accumulates this run's per-rank and total message/byte counts into
    /// the global `ffw_obs` registry: `mpi.bytes.rank{r}` /
    /// `mpi.messages.rank{r}` hold what rank `r` *sent*, `mpi.bytes.total` /
    /// `mpi.messages.total` the all-edge sums. Counters are monotonic, so
    /// repeated launches (e.g. fault-tolerant relaunches) accumulate. No-op
    /// while the recorder is off.
    pub fn record_obs(&self) {
        if !ffw_obs::enabled() {
            return;
        }
        for src in 0..self.size {
            let (mut bytes, mut msgs) = (0u64, 0u64);
            for dst in 0..self.size {
                bytes += self.edge_bytes(src, dst);
                msgs += self.edge_messages(src, dst);
            }
            ffw_obs::counter(&format!("mpi.bytes.rank{src}")).add(bytes);
            ffw_obs::counter(&format!("mpi.messages.rank{src}")).add(msgs);
        }
        ffw_obs::counter("mpi.bytes.total").add(self.total_bytes());
        ffw_obs::counter("mpi.messages.total").add(self.total_messages());
    }
}

struct Shared {
    size: usize,
    /// mailboxes[src * size + dst]
    mailboxes: Vec<Mailbox>,
    stats: CommStats,
    /// What each rank is currently blocked on (the watchdog's input).
    registry: Mutex<Vec<WaitState>>,
    /// Per-rank event traces for post-run validation.
    traces: Vec<Mutex<Vec<Event>>>,
    /// Watchdog timeout for blocking waits.
    timeout: Duration,
    /// First confirmed deadlock report. Later watchdog firings re-raise this
    /// one, so every stuck rank fails with the *original* diagnosis rather
    /// than a cascade of "peer panicked" follow-ups.
    verdict: Mutex<Option<String>>,
    /// Activated compute-fault plan, if this launch injects faults.
    faults: Option<ActiveFaults>,
    /// ended[r] is set when rank r's closure returned or panicked, after the
    /// registry shows `Finished` or `Panicked`; a receive reads it under its
    /// queue lock before every wait. An atomic, so that read never nests the
    /// registry lock inside a mailbox lock.
    ended: Vec<AtomicBool>,
}

impl Shared {
    fn set_state(&self, rank: usize, state: WaitState) {
        self.registry.lock()[rank] = state;
    }

    /// Marks `rank` ended in `state` and wakes every receive waiting on it.
    /// Notifying under each lock closes the race with a waiter between its
    /// flag check and its wait.
    fn end(&self, rank: usize, state: WaitState) {
        self.set_state(rank, state);
        self.ended[rank].store(true, Ordering::Release);
        for dst in 0..self.size {
            let mailbox = &self.mailboxes[rank * self.size + dst];
            let _guard = mailbox.queue.lock();
            mailbox.cond.notify_all();
        }
    }

    /// Watchdog invoked by `rank` when its source has ended or a blocking
    /// wait timed out.
    ///
    /// Outcomes:
    /// * `Err(PeerDead)` — this rank's wait depends on a rank that already
    ///   finished or panicked and can never satisfy it. Both states are
    ///   terminal: such a rank can queue nothing more, so one snapshot
    ///   decides. The receive returns it as a typed error value.
    /// * `Ok(())` — no confirmed problem with *this rank's* wait; keep
    ///   waiting. (Another rank's doomed wait is its own to report: every
    ///   blocking wait polls, so errors cascade rank by rank.)
    /// * panic — a cycle of live ranks, re-confirmed against a second
    ///   snapshot taken after a short delay (the registry and the mailboxes
    ///   are locked separately, so one snapshot may catch a rank
    ///   mid-transition): a protocol bug, not a survivable fault. The first
    ///   verdict is stored so every stuck rank re-raises the *original*
    ///   diagnosis.
    fn watchdog_poll(&self, rank: usize) -> Result<(), FaultError> {
        if let Some(report) = self.verdict.lock().clone() {
            panic!("{report}");
        }
        // This rank's own wait first: a dependency on an ended rank is a
        // recoverable fault surfaced as a value.
        if let Some(peer) = self.dead_dependency_of(rank) {
            let report = DeadlockReport {
                states: self.registry.lock().clone(),
                cycle: None,
                dead_dependency: Some((rank, peer)),
            };
            return Err(FaultError::PeerDead {
                rank,
                peer,
                detail: format!("ffw-mpi: {report}"),
            });
        }
        let Some(first) = self.diagnose_once() else {
            return Ok(());
        };
        const CONFIRM: Duration = Duration::from_millis(50);
        std::thread::sleep(CONFIRM);
        let confirmed = match self.diagnose_once() {
            Some(second) if first == second => second,
            _ => return Ok(()),
        };
        if confirmed.dead_dependency.is_some() {
            // Some other rank's wait is doomed; it will surface the error
            // itself on its own poll. This rank's wait may still be
            // satisfiable (e.g. by a rank that errors out and re-routes).
            return Ok(());
        }
        let mut verdict = self.verdict.lock();
        let report = verdict
            .get_or_insert_with(|| format!("ffw-mpi: {confirmed}"))
            .clone();
        drop(verdict);
        panic!("{report}");
    }

    /// If `rank`'s current wait depends on a rank that has finished or
    /// panicked (and cannot be satisfied from queued messages), returns that
    /// dead rank. Mirrors the conservative rules of
    /// [`ffw_check::diagnose_deadlock`] but checks only `rank`'s own wait.
    fn dead_dependency_of(&self, rank: usize) -> Option<usize> {
        let snapshot = self.registry.lock().clone();
        let WaitState::RecvWait { src, tag } = snapshot[rank] else {
            return None;
        };
        let dead = matches!(snapshot[src], WaitState::Finished | WaitState::Panicked);
        let queued = self.mailboxes[src * self.size + rank].has_matching(tag);
        (dead && !queued).then_some(src)
    }

    fn diagnose_once(&self) -> Option<ffw_check::DeadlockReport> {
        let snapshot = self.registry.lock().clone();
        diagnose_deadlock(&snapshot, |src, dst, tag| {
            self.mailboxes[src * self.size + dst].has_matching(tag)
        })
    }

    fn trace(&self, rank: usize, event: Event) {
        self.traces[rank].lock().push(event);
    }
}

/// A rank's handle to the communicator.
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
}

impl Comm {
    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// Shared communication statistics (live view).
    pub fn stats(&self) -> &CommStats {
        &self.shared.stats
    }

    /// Consults the active fault plan for a compute-corruption injection
    /// scheduled on this rank's next operator apply. Counts one apply per
    /// call; returns the fault to inject into the apply's output, if any.
    /// A no-op (one `Option` check) when no plan is active.
    pub fn compute_fault(&self) -> Option<ComputeFault> {
        self.shared
            .faults
            .as_ref()
            .and_then(|f| f.on_apply(self.rank))
    }

    /// Consults the active fault plan for a corruption scheduled in the sum
    /// of the next reduction this rank roots. Counts one reduction per call.
    /// A no-op (one `Option` check) when no plan is active.
    pub fn reduce_fault(&self) -> bool {
        (self.shared.faults.as_ref()).is_some_and(|f| f.on_reduce(self.rank))
    }

    /// Records a compute-integrity fault event in this rank's trace so the
    /// post-run `ffw-check` validation can verify every detected corruption
    /// was escalated as a typed error.
    pub fn trace_fault(&self, event: FaultEvent) {
        self.shared.trace(self.rank, Event::Fault(event));
    }

    /// Buffered, non-blocking send. It cannot fail on this runtime; the
    /// `Result` keeps rank code written against a fallible transport.
    pub fn send_checked(&self, dst: usize, tag: u32, payload: Payload) -> Result<(), FaultError> {
        self.send_framed(dst, tag, payload, None)
    }

    /// Checked send that additionally carries an explicit ABFT checksum
    /// lane. The lane travels as metadata (it is not counted as payload
    /// bytes) and is verified by [`Comm::recv_checked_laned`] against the
    /// data it arrives with, so a higher-level reduction can carry the
    /// *expected element sum* through a hop and have the receiver detect
    /// damage that happened before the send, e.g. inside the reduction
    /// arithmetic.
    pub fn send_checked_laned(
        &self,
        dst: usize,
        tag: u32,
        payload: Payload,
        lane: (f64, f64),
    ) -> Result<(), FaultError> {
        self.send_framed(dst, tag, payload, Some(lane))
    }

    fn send_framed(
        &self,
        dst: usize,
        tag: u32,
        payload: Payload,
        lane: Option<(f64, f64)>,
    ) -> Result<(), FaultError> {
        assert!(
            dst < self.shared.size,
            "send: invalid destination rank {dst} (communicator has {} ranks)",
            self.shared.size
        );
        let bytes = payload.n_bytes();
        self.shared
            .trace(self.rank, Event::Send { dst, tag, bytes });
        self.shared.stats.record(self.rank, dst, bytes);
        self.shared.mailboxes[self.rank * self.shared.size + dst].push(Msg { tag, lane, payload });
        Ok(())
    }

    /// Blocking receive of the message with the given source and tag:
    /// returns [`FaultError::PeerDead`] (with the watchdog's wait-for-graph
    /// report) if `src` finishes or panics without having sent a matching
    /// message.
    pub fn recv_checked(&self, src: usize, tag: u32) -> Result<Payload, FaultError> {
        self.recv_checked_laned(src, tag)
            .map(|(payload, _)| payload)
    }

    /// Fallible blocking receive that additionally verifies the message's
    /// ABFT checksum lane (when the sender stamped one via
    /// [`Comm::send_checked_laned`]) against the received data. Returns the
    /// payload together with the carried lane so reduction roots can fold
    /// contribution lanes into the lane of the reduced result.
    ///
    /// A lane mismatch means the sender's data was damaged before it was
    /// sent — receiving the same bytes again cannot help — so it surfaces
    /// at once as [`FaultError::ComputeCorruption`] naming the sender.
    pub fn recv_checked_laned(
        &self,
        src: usize,
        tag: u32,
    ) -> Result<(Payload, Option<(f64, f64)>), FaultError> {
        assert!(
            src < self.shared.size,
            "recv: invalid source rank {src} (communicator has {} ranks)",
            self.shared.size
        );
        let msg = self.recv_msg_blocking(src, tag)?;
        if let Some(lane) = msg.lane {
            let Payload::C64(v) = &msg.payload;
            if !abft_verify_c64(v, lane, ABFT_TOL) {
                self.shared.trace(
                    self.rank,
                    Event::Fault(FaultEvent::CorruptRecv { src, tag }),
                );
                let stage = format!("mpi.lane (tag {tag:#x}, checked by rank {})", self.rank);
                ffw_obs::counter("mpi.integrity.corrupt_recvs").add(1);
                ffw_obs::event(
                    "mpi.integrity.lane_mismatch",
                    &format!("rank {src}: {stage}"),
                );
                return Err(FaultError::ComputeCorruption {
                    rank: src,
                    stage,
                    panel: 0,
                    attempts: 1,
                });
            }
        }
        self.shared.trace(
            self.rank,
            Event::Recv {
                src,
                tag,
                bytes: msg.payload.n_bytes(),
            },
        );
        Ok((msg.payload, msg.lane))
    }

    /// Blocking receive with the deadlock watchdog. The fast path (message
    /// already queued) touches only the mailbox lock; the slow path
    /// publishes a `RecvWait` state and waits with a timeout, diagnosing the
    /// global wait-for graph whenever the timeout fires — or at once when
    /// the source has ended, which the launch signals on this mailbox.
    /// Returns an error if this wait can never be satisfied because the
    /// peer ended.
    fn recv_msg_blocking(&self, src: usize, tag: u32) -> Result<Msg, FaultError> {
        let mailbox = &self.shared.mailboxes[src * self.shared.size + self.rank];
        if let Some(msg) = mailbox.try_pop_matching(tag) {
            return Ok(msg);
        }
        self.shared
            .set_state(self.rank, WaitState::RecvWait { src, tag });
        let mut q = mailbox.queue.lock();
        loop {
            if let Some(pos) = q.iter().position(|m| m.tag == tag) {
                let msg = q.remove(pos).expect("position valid");
                drop(q);
                self.shared.set_state(self.rank, WaitState::Running);
                return Ok(msg);
            }
            // Read under the queue lock: the ending rank sets the flag
            // before it takes this lock to notify, so the flag is seen here
            // or the notify wakes the wait below.
            if !self.shared.ended[src].load(Ordering::Acquire) {
                let result = mailbox.cond.wait_for(&mut q, self.shared.timeout);
                if !result.timed_out() {
                    continue;
                }
            }
            // The source ended or the wait timed out. Diagnose without
            // holding the queue lock (the analysis inspects other
            // mailboxes; never hold two mailbox locks).
            drop(q);
            if let Err(e) = self.shared.watchdog_poll(self.rank) {
                self.shared.set_state(self.rank, WaitState::Running);
                if let FaultError::PeerDead { peer, .. } = &e {
                    self.shared.trace(
                        self.rank,
                        Event::Fault(FaultEvent::PeerDeclaredDead { peer: *peer }),
                    );
                }
                return Err(e);
            }
            q = mailbox.queue.lock();
        }
    }
}

/// Opaque handle exposing post-run communication statistics.
pub struct RunStats {
    inner: Arc<Shared>,
}

impl RunStats {
    /// The recorded communication statistics of the finished run.
    pub fn stats(&self) -> &CommStats {
        &self.inner.stats
    }

    /// The recorded event trace of `rank` (for inspection in tests and
    /// tooling; the run has already been validated against it).
    pub fn events(&self, rank: usize) -> Vec<Event> {
        self.inner.traces[rank].lock().clone()
    }
}

/// Resolves the watchdog timeout. Precedence (highest first):
/// `FFW_DEADLOCK_TIMEOUT_MS` environment variable, the programmatic value
/// from [`Runtime::deadlock_timeout`], the 1000 ms default. Blocking waits
/// re-check the global wait-for graph at this interval; a confirmed deadlock
/// panics with a per-rank report.
fn resolve_timeout(programmatic: Option<Duration>) -> Duration {
    match std::env::var("FFW_DEADLOCK_TIMEOUT_MS") {
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) if ms >= 1 => Duration::from_millis(ms),
            _ => panic!(
                "FFW_DEADLOCK_TIMEOUT_MS={raw:?} is invalid: expected a positive \
                 integer number of milliseconds"
            ),
        },
        Err(_) => programmatic.unwrap_or(Duration::from_millis(1000)),
    }
}

/// Result of a [`Runtime::launch`]: per-rank results plus statistics.
pub struct Launch<T> {
    /// What each rank's closure returned, in rank order.
    pub outcomes: Vec<T>,
    /// Communication statistics and event traces of the run.
    pub stats: RunStats,
}

/// Builder for a verified multi-rank launch: programmatic watchdog timeout
/// and optional seeded compute-fault injection.
///
/// ```
/// use ffw_mpi::Runtime;
/// use std::time::Duration;
///
/// let launch = Runtime::new(2)
///     .deadlock_timeout(Duration::from_millis(200))
///     .launch(|comm| comm.rank() * 10);
/// assert_eq!(launch.outcomes, vec![0, 10]);
/// ```
#[derive(Debug, Default)]
pub struct Runtime {
    n_ranks: usize,
    timeout: Option<Duration>,
    fault_plan: Option<FaultPlan>,
}

impl Runtime {
    /// A runtime for `n_ranks` ranks with default settings.
    pub fn new(n_ranks: usize) -> Self {
        Runtime {
            n_ranks,
            timeout: None,
            fault_plan: None,
        }
    }

    /// Sets the deadlock-watchdog timeout programmatically. The
    /// `FFW_DEADLOCK_TIMEOUT_MS` environment variable, if set, still takes
    /// precedence (env > builder > 1000 ms default).
    pub fn deadlock_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Injects the given seeded compute-fault plan into the launch.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Launches the ranks and collects what each returned, in rank order.
    ///
    /// If any rank panics, the lowest-ranked panic is re-raised after every
    /// rank has stopped. Post-run trace validation runs in a fault-tolerant
    /// mode when a peer was declared dead or a corruption was detected
    /// (message leaks are an expected consequence of a rank that ended
    /// early) and in strict mode otherwise.
    pub fn launch<F, T>(self, f: F) -> Launch<T>
    where
        F: Fn(Comm) -> T + Send + Sync,
        T: Send,
    {
        let n_ranks = self.n_ranks;
        let timeout = resolve_timeout(self.timeout);
        assert!(n_ranks >= 1);
        assert!(
            timeout >= Duration::from_millis(1),
            "watchdog timeout too small"
        );
        let shared = Arc::new(Shared {
            size: n_ranks,
            mailboxes: (0..n_ranks * n_ranks).map(|_| Mailbox::new()).collect(),
            stats: CommStats::new(n_ranks),
            registry: Mutex::new(vec![WaitState::Running; n_ranks]),
            traces: (0..n_ranks).map(|_| Mutex::new(Vec::new())).collect(),
            timeout,
            verdict: Mutex::new(None),
            faults: self.fault_plan.map(|plan| plan.activate(n_ranks)),
            ended: (0..n_ranks).map(|_| AtomicBool::new(false)).collect(),
        });
        let results: Vec<Mutex<Option<T>>> = (0..n_ranks).map(|_| Mutex::new(None)).collect();
        let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());

        // Each rank runs under catch_unwind so a panic marks it Panicked in
        // the registry instead of silently vanishing. Either way a rank
        // ends, it wakes every receive waiting on it: peers blocked on it
        // then get a diagnosed dead-dependency error at once rather than
        // after the watchdog timeout.
        let run_rank = |rank: usize| {
            let comm = Comm {
                rank,
                shared: Arc::clone(&shared),
            };
            match catch_unwind(AssertUnwindSafe(|| f(comm))) {
                Ok(value) => {
                    *results[rank].lock() = Some(value);
                    shared.end(rank, WaitState::Finished);
                }
                Err(payload) => {
                    shared.end(rank, WaitState::Panicked);
                    panics.lock().push((rank, payload));
                }
            }
        };

        std::thread::scope(|scope| {
            for rank in 1..n_ranks {
                let run_rank = &run_rank;
                std::thread::Builder::new()
                    .name(format!("ffw-mpi-{rank}"))
                    .spawn_scoped(scope, move || run_rank(rank))
                    .expect("spawn rank");
            }
            run_rank(0);
        });

        let mut panics = panics.into_inner();
        if !panics.is_empty() {
            panics.sort_by_key(|(rank, _)| *rank);
            std::panic::resume_unwind(panics.remove(0).1);
        }

        // Statically validate the complete traces plus whatever was left
        // undelivered in the mailboxes. Runs in which a peer was declared
        // dead or a corruption was detected use the fault-tolerant
        // validator: leaks are expected fallout of a rank that ended early,
        // while self-sends and an unescalated corruption remain hard errors.
        let mut leaked = Vec::new();
        for src in 0..n_ranks {
            for dst in 0..n_ranks {
                let q = shared.mailboxes[src * n_ranks + dst].queue.lock();
                for msg in q.iter() {
                    leaked.push(LeakedMessage {
                        src,
                        dst,
                        tag: msg.tag,
                        bytes: msg.payload.n_bytes(),
                    });
                }
            }
        }
        let traces: Vec<Vec<Event>> = shared.traces.iter().map(|t| t.lock().clone()).collect();
        let faulty = traces.iter().flatten().any(|e| {
            matches!(
                e,
                Event::Fault(
                    FaultEvent::PeerDeclaredDead { .. }
                        | FaultEvent::CorruptRecv { .. }
                        | FaultEvent::ComputeRetriesExhausted { .. }
                )
            )
        });
        let violations = if faulty {
            validate_traces_faulty(&traces, &leaked)
        } else {
            validate_traces(&traces, &leaked)
        };
        if !violations.is_empty() {
            panic!("{}", render_report(&violations));
        }

        let outcomes = results
            .into_iter()
            .map(|result| result.into_inner().expect("every rank returned"))
            .collect();
        Launch {
            outcomes,
            stats: RunStats { inner: shared },
        }
    }
}

/// Launches `n_ranks` ranks running `f` concurrently and returns their
/// results in rank order, along with the communication statistics.
///
/// The run is verified: blocked ranks are watched for deadlock (every
/// 1000 ms, or `FFW_DEADLOCK_TIMEOUT_MS` when that is set), and on normal exit
/// the recorded communication traces are statically validated — undelivered
/// messages and self-sends fail the run with a report. If any rank panics,
/// the lowest-ranked panic is re-raised after every rank has stopped.
pub fn run<F, T>(n_ranks: usize, f: F) -> (Vec<T>, RunStats)
where
    F: Fn(Comm) -> T + Send + Sync,
    T: Send,
{
    let launch = Runtime::new(n_ranks).launch(f);
    (launch.outcomes, launch.stats)
}

/// [`run`] with an explicit deadlock-watchdog timeout (tests use short
/// timeouts to detect seeded deadlocks quickly). The
/// `FFW_DEADLOCK_TIMEOUT_MS` environment variable, if set, overrides the
/// explicit value.
pub fn run_with_timeout<F, T>(n_ranks: usize, timeout: Duration, f: F) -> (Vec<T>, RunStats)
where
    F: Fn(Comm) -> T + Send + Sync,
    T: Send,
{
    let launch = Runtime::new(n_ranks).deadlock_timeout(timeout).launch(f);
    (launch.outcomes, launch.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Real values travel as the real parts of a complex payload.
    fn reals(v: &[f64]) -> Payload {
        Payload::C64(v.iter().map(|&x| (x, 0.0)).collect())
    }

    fn into_reals(p: Payload) -> Vec<f64> {
        p.into_c64().into_iter().map(|(re, _)| re).collect()
    }

    fn send(comm: &Comm, dst: usize, tag: u32, payload: Payload) {
        comm.send_checked(dst, tag, payload).expect("send");
    }

    /// A receive whose dead peer fails the run with the watchdog's report.
    fn recv(comm: &Comm, src: usize, tag: u32) -> Payload {
        comm.recv_checked(src, tag)
            .unwrap_or_else(|e| panic!("ffw-mpi: {e}"))
    }

    #[test]
    fn point_to_point_roundtrip() {
        let (results, _) = run(2, |comm| {
            if comm.rank() == 0 {
                send(&comm, 1, 7, reals(&[1.0, 2.0, 3.0]));
                into_reals(recv(&comm, 1, 8))
            } else {
                let got = into_reals(recv(&comm, 0, 7));
                let doubled: Vec<f64> = got.iter().map(|v| v * 2.0).collect();
                send(&comm, 0, 8, reals(&doubled));
                doubled
            }
        });
        assert_eq!(results[0], vec![2.0, 4.0, 6.0]);
        assert_eq!(results[1], vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let (results, _) = run(2, |comm| {
            if comm.rank() == 0 {
                send(&comm, 1, 1, reals(&[111.0]));
                send(&comm, 1, 2, reals(&[222.0]));
                0
            } else {
                // Receive in the opposite order of sending.
                let b = into_reals(recv(&comm, 0, 2))[0] as u64;
                let a = into_reals(recv(&comm, 0, 1))[0] as u64;
                assert_eq!((a, b), (111, 222));
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn stats_account_messages_and_bytes() {
        let (_, handle) = run(2, |comm| {
            if comm.rank() == 0 {
                send(&comm, 1, 0, Payload::C64(vec![(1.0, 2.0); 10]));
            } else {
                let _ = recv(&comm, 0, 0);
            }
        });
        let stats = handle.stats();
        assert_eq!(stats.edge_messages(0, 1), 1);
        assert_eq!(stats.edge_bytes(0, 1), 160);
        assert_eq!(stats.edge_messages(1, 0), 0);
        assert_eq!(stats.total_bytes(), 160);
    }

    // ---- verification-layer tests ------------------------------------------

    const FAST: Duration = Duration::from_millis(80);

    /// Runs `f` expecting a panic; returns the panic message.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = catch_unwind(f).expect_err("expected a panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string")
    }

    #[test]
    fn deadlocked_recv_names_both_ranks() {
        // Rank 0 waits for a message rank 1 never sends; rank 1 finishes.
        let msg = panic_message(|| {
            let _ = run_with_timeout(2, FAST, |comm| {
                if comm.rank() == 0 {
                    let _ = recv(&comm, 1, 5);
                }
            });
        });
        assert!(msg.contains("deadlock detected"), "got: {msg}");
        assert!(
            msg.contains("rank 0") && msg.contains("rank 1"),
            "got: {msg}"
        );
        assert!(msg.contains("can never satisfy"), "got: {msg}");
    }

    #[test]
    fn mutual_recv_deadlock_reports_cycle() {
        let msg = panic_message(|| {
            let _ = run_with_timeout(2, FAST, |comm| {
                let peer = 1 - comm.rank();
                let _ = recv(&comm, peer, 9);
            });
        });
        assert!(msg.contains("deadlock detected"), "got: {msg}");
        assert!(msg.contains("cycle"), "got: {msg}");
    }

    #[test]
    fn undelivered_message_fails_validation() {
        let msg = panic_message(|| {
            let _ = run(2, |comm| {
                if comm.rank() == 0 {
                    send(&comm, 1, 9, reals(&[1.0, 2.0, 3.0]));
                }
            });
        });
        assert!(msg.contains("message leak"), "got: {msg}");
        assert!(
            msg.contains("src=0") && msg.contains("dst=1") && msg.contains("0x9"),
            "got: {msg}"
        );
    }

    // ---- fault-injection tests ---------------------------------------------

    #[test]
    fn builder_timeout_is_programmatic() {
        // Same seeded deadlock as `deadlocked_recv_names_both_ranks`, but the
        // short timeout comes from the builder instead of run_with_timeout.
        let msg = panic_message(|| {
            let _ = Runtime::new(2).deadlock_timeout(FAST).launch(|comm| {
                if comm.rank() == 0 {
                    let _ = recv(&comm, 1, 5);
                }
            });
        });
        assert!(msg.contains("deadlock detected"), "got: {msg}");
    }

    #[test]
    fn a_dead_peer_is_reported_without_waiting_for_the_watchdog() {
        // Rank 1 ends early on a typed error while rank 0 receives from it.
        // The deadlock watchdog alone would need the full 30 s timeout; the
        // ending rank's wake-up must surface the death in well under that.
        let t0 = ffw_obs::monotonic_ns();
        let launch = Runtime::new(2)
            .deadlock_timeout(Duration::from_secs(30))
            .launch(|comm| {
                if comm.rank() == 0 {
                    comm.recv_checked(1, 5).map(|_| ())
                } else {
                    Err(FaultError::Unrecoverable {
                        detail: "rank 1 gives up before sending".into(),
                    })
                }
            });
        let elapsed_ms = (ffw_obs::monotonic_ns() - t0) / 1_000_000;
        assert!(
            elapsed_ms < 5_000,
            "dead-peer detection took {elapsed_ms} ms — watchdog-timeout latency"
        );
        match &launch.outcomes[0] {
            Err(FaultError::PeerDead { peer: 1, .. }) => {}
            other => panic!("expected PeerDead on rank 0, got {other:?}"),
        }
    }

    #[test]
    fn a_receive_begun_after_its_source_panicked_fails_at_once() {
        // Rank 1 delivers one message, then panics. Rank 0 takes the
        // message and starts its next receive from rank 1 only after the
        // panic: that wait must see it before it sleeps, not after the 30 s
        // watchdog timeout. The launch re-raises the panic, so rank 0's
        // result goes out through a cell.
        let seen: Mutex<Option<Result<(), FaultError>>> = Mutex::new(None);
        let t0 = ffw_obs::monotonic_ns();
        let msg = panic_message(AssertUnwindSafe(|| {
            Runtime::new(2)
                .deadlock_timeout(Duration::from_secs(30))
                .launch(|comm| {
                    if comm.rank() == 0 {
                        let got = comm.recv_checked(1, 5).and_then(|_| {
                            std::thread::sleep(Duration::from_millis(300));
                            comm.recv_checked(1, 6).map(|_| ())
                        });
                        *seen.lock() = Some(got);
                    } else {
                        send(&comm, 0, 5, reals(&[1.0]));
                        panic!("rank 1 fails after its first send");
                    }
                });
        }));
        let elapsed_ms = (ffw_obs::monotonic_ns() - t0) / 1_000_000;
        assert!(
            elapsed_ms < 5_000,
            "a receive after the panic took {elapsed_ms} ms — watchdog-timeout latency"
        );
        assert!(msg.contains("rank 1 fails"), "got: {msg}");
        match seen.into_inner() {
            Some(Err(FaultError::PeerDead { peer: 1, .. })) => {}
            other => panic!("expected PeerDead on rank 0, got {other:?}"),
        }
    }

    #[test]
    fn a_receive_on_a_finished_rank_fails_within_a_second() {
        // Rank 1 returns at once without sending while rank 0 receives from
        // it. A finished rank can queue nothing more: the receive needs no
        // watchdog timeout (30 s here) and no confirmation sleep, whether it
        // began before or after the finish.
        let launch = Runtime::new(2)
            .deadlock_timeout(Duration::from_secs(30))
            .launch(|comm| {
                if comm.rank() == 0 {
                    let t0 = ffw_obs::monotonic_ns();
                    let got = comm.recv_checked(1, 5).map(|_| ());
                    (got, (ffw_obs::monotonic_ns() - t0) / 1_000_000)
                } else {
                    (Ok(()), 0)
                }
            });
        let (got, elapsed_ms) = &launch.outcomes[0];
        assert!(
            *elapsed_ms < 1_000,
            "a receive on a finished rank took {elapsed_ms} ms"
        );
        match got {
            Err(FaultError::PeerDead { peer: 1, .. }) => {}
            other => panic!("expected PeerDead on rank 0, got {other:?}"),
        }
    }

    #[test]
    fn a_lane_mismatch_is_compute_corruption_naming_the_sender() {
        // Rank 1 sends a payload under a lane that is not its element sum —
        // what a bit flipped in the reduction arithmetic before the send
        // looks like to the receiver.
        let (results, handle) = run(2, |comm| {
            if comm.rank() == 0 {
                comm.recv_checked_laned(1, 5).map(|_| ())
            } else {
                comm.send_checked_laned(0, 5, reals(&[1.0, 2.0]), (3.0 + 1e3, 0.0))
            }
        });
        match &results[0] {
            Err(FaultError::ComputeCorruption {
                rank: 1,
                panel: 0,
                attempts: 1,
                stage,
            }) => assert!(stage.contains("mpi.lane"), "{stage}"),
            other => panic!("expected ComputeCorruption naming rank 1, got {other:?}"),
        }
        assert!(handle
            .events(0)
            .contains(&Event::Fault(FaultEvent::CorruptRecv { src: 1, tag: 5 })));
        // The same lane over its own payload verifies.
        let (results, _) = run(2, |comm| {
            if comm.rank() == 0 {
                comm.recv_checked_laned(1, 5)
                    .map(|(p, lane)| (into_reals(p), lane))
            } else {
                comm.send_checked_laned(0, 5, reals(&[1.0, 2.0]), (3.0, 0.0))
                    .map(|()| (Vec::new(), None))
            }
        });
        assert_eq!(results[0], Ok((vec![1.0, 2.0], Some((3.0, 0.0)))));
    }
}
